#ifndef ROADPART_LINALG_GRAM_SCHMIDT_H_
#define ROADPART_LINALG_GRAM_SCHMIDT_H_

namespace roadpart {

/// One classical Gram-Schmidt pass of `w` (n doubles) against the m rows of
/// the contiguous row-major `basis`: h[j] = <v_j, w> for j < m, then
/// w -= sum_j h[j] v_j. `h` receives m doubles. The projections run in
/// parallel over groups of rows, then the update over blocks of elements.
/// Every h[j] is one serial sum in index order, and every element of w
/// receives its updates in row order, so the result is bit-identical at any
/// thread count.
void GramSchmidtPass(const double* basis, int m, int n, double* w, double* h);

}  // namespace roadpart

#endif  // ROADPART_LINALG_GRAM_SCHMIDT_H_
