#ifndef ROADPART_LINALG_SPARSE_MATRIX_H_
#define ROADPART_LINALG_SPARSE_MATRIX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"
#include "linalg/dense_matrix.h"

namespace roadpart {

/// One (row, col, value) entry used while assembling a sparse matrix.
struct Triplet {
  int row;
  int col;
  double value;
};

/// Compressed-sparse-row matrix of doubles. Immutable once built; build via
/// FromTriplets (duplicates are summed) or move the raw arrays in with
/// FromRawCsr / FromUntrustedCsr. A stored entry may be exactly 0: it is
/// structure (CsrGraph keeps zero-weight edges as topology) and changes no
/// product or sum, since every accumulator starts at +0.0.
class SparseMatrix {
 public:
  SparseMatrix() : rows_(0), cols_(0) {}

  /// Assembles an n_rows x n_cols CSR matrix; duplicate (r,c) entries are
  /// summed, and an entry whose sum is 0 stays stored. Column indices within
  /// each row come out sorted. Fails on out-of-range indices. Runs Assemble,
  /// the repo's one CSR assembly (a counting sort by row, then a sort per
  /// row).
  static Result<SparseMatrix> FromTriplets(int rows, int cols,
                                           const std::vector<Triplet>& entries);

  /// The assembly behind FromTriplets, for entries produced on the fly
  /// (e.g. mirrored edges) without a triplet list. rows, cols >= 0, and
  /// `for_each_entry(emit)` calls emit(row, col, value) for every entry,
  /// each in range. It runs
  /// twice, to count each row and then to place the entries, and must emit
  /// the same sequence both times. Duplicates are summed in emission order.
  template <typename ForEachEntry>
  static SparseMatrix Assemble(int rows, int cols,
                               ForEachEntry for_each_entry);

  /// Builds the symmetric matrix A + A^T - diag(A) from the strictly upper
  /// (or lower) entries plus diagonal. Convenience for undirected graphs.
  static Result<SparseMatrix> SymmetricFromTriplets(
      int n, const std::vector<Triplet>& upper_entries);

  /// Adopts pre-built CSR arrays without the assembly pass. The caller
  /// promises the Validate() invariants; audited with RP_DCHECK in checked
  /// builds.
  static SparseMatrix FromRawCsr(int rows, int cols,
                                 std::vector<int64_t> row_offsets,
                                 std::vector<int> col_indices,
                                 std::vector<double> values);

  /// FromRawCsr for arrays nobody vouches for (e.g. decoded from disk): runs
  /// Validate() and returns its first violation, in every build type.
  static Result<SparseMatrix> FromUntrustedCsr(int rows, int cols,
                                               std::vector<int64_t> row_offsets,
                                               std::vector<int> col_indices,
                                               std::vector<double> values);

  /// Structural audit of the CSR arrays: row-pointer shape and monotonicity,
  /// strictly-sorted in-bounds column indices per row, finite values.
  /// Returns the first violation. O(nnz); run behind RP_DCHECK on hot paths.
  Status Validate() const;

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int64_t NumNonZeros() const { return static_cast<int64_t>(values_.size()); }

  /// y = A x.
  void Multiply(const double* x, double* y) const;

  /// Vector of row sums (weighted degrees for adjacency matrices).
  std::vector<double> RowSums() const;

  /// Sum of all stored values.
  double TotalSum() const;

  /// Value at (r, c); O(log nnz_row). Returns 0 when not stored.
  double At(int r, int c) const;

  /// Max |a_ij - a_ji| over stored entries.
  double SymmetryError() const;

  /// Converts to a dense matrix (use only for small orders).
  DenseMatrix ToDense() const;

  /// Extracts the square submatrix indexed by `indices` (distinct, in the
  /// given order); stored zeros stay stored.
  SparseMatrix Submatrix(const std::vector<int>& indices) const;

  // Raw CSR access for algorithms that iterate rows directly.
  const std::vector<int64_t>& row_offsets() const { return row_offsets_; }
  const std::vector<int>& col_indices() const { return col_indices_; }
  const std::vector<double>& values() const { return values_; }

 private:
  /// Sorts each row's slice of `slots` (row r holds [starts[r],
  /// starts[r+1])) by column, sums duplicates and packs the matrix.
  static SparseMatrix FromRowSlots(int rows, int cols,
                                   const std::vector<int64_t>& starts,
                                   std::vector<std::pair<int, double>>& slots);

  SparseMatrix(int rows, int cols, std::vector<int64_t> row_offsets,
               std::vector<int> col_indices, std::vector<double> values)
      : rows_(rows),
        cols_(cols),
        row_offsets_(std::move(row_offsets)),
        col_indices_(std::move(col_indices)),
        values_(std::move(values)) {}

  int rows_;
  int cols_;
  std::vector<int64_t> row_offsets_;  // size rows_+1
  std::vector<int> col_indices_;      // size nnz
  std::vector<double> values_;        // size nnz
};

template <typename ForEachEntry>
SparseMatrix SparseMatrix::Assemble(int rows, int cols,
                                    ForEachEntry for_each_entry) {
  // Counting sort by row; FromRowSlots then sorts each row by column.
  std::vector<int64_t> counts(static_cast<size_t>(rows) + 1, 0);
  for_each_entry([&counts](int row, int, double) { counts[row + 1]++; });
  for (int r = 0; r < rows; ++r) counts[r + 1] += counts[r];

  std::vector<std::pair<int, double>> slots(counts[rows]);
  {
    std::vector<int64_t> cursor(counts.begin(), counts.end() - 1);
    for_each_entry([&](int row, int col, double value) {
      slots[cursor[row]++] = {col, value};
    });
  }
  return FromRowSlots(rows, cols, counts, slots);
}

}  // namespace roadpart

#endif  // ROADPART_LINALG_SPARSE_MATRIX_H_
