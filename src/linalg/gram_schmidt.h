#ifndef ROADPART_LINALG_GRAM_SCHMIDT_H_
#define ROADPART_LINALG_GRAM_SCHMIDT_H_

namespace roadpart {

/// Basis rows per block of the Gram-Schmidt micro-kernels. A chunked basis
/// must use a multiple of it as its chunk size.
constexpr int kGramSchmidtBlockRows = 8;

/// One classical Gram-Schmidt pass of `w` (n doubles) against the first m
/// rows of a row-major basis stored in chunks of `chunk_rows` rows (a
/// multiple of kGramSchmidtBlockRows): row j is chunks[j / chunk_rows] +
/// (j % chunk_rows) * n. h[j] = <v_j, w> for j < m, then
/// w -= sum_j h[j] v_j. `h` receives m doubles. The projections run in
/// parallel over groups of rows, then the update over blocks of elements.
/// Every h[j] is one serial sum in index order, and every element of w
/// receives its updates in row order, so the result is bit-identical at any
/// thread count and for any chunking of the same rows.
void GramSchmidtPass(const double* const* chunks, int chunk_rows, int m,
                     int n, double* w, double* h);

}  // namespace roadpart

#endif  // ROADPART_LINALG_GRAM_SCHMIDT_H_
