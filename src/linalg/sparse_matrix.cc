#include "linalg/sparse_matrix.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/check.h"
#include "common/parallel.h"
#include "common/string_util.h"

namespace roadpart {

namespace {

// Rows per task in the parallel CSR kernels. Each row's accumulation is a
// serial loop over its own entries, so the block size (and the thread count)
// cannot change any result bit — blocking only bounds dispatch overhead.
constexpr int64_t kSpmvRowGrain = 256;

}  // namespace

Result<SparseMatrix> SparseMatrix::FromTriplets(
    int rows, int cols, const std::vector<Triplet>& entries) {
  if (rows < 0 || cols < 0) {
    return Status::InvalidArgument("negative matrix dimensions");
  }
  for (const Triplet& t : entries) {
    if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols) {
      return Status::OutOfRange(
          StrPrintf("triplet (%d,%d) outside %dx%d", t.row, t.col, rows, cols));
    }
  }
  return Assemble(rows, cols, [&entries](auto emit) {
    for (const Triplet& t : entries) emit(t.row, t.col, t.value);
  });
}

SparseMatrix SparseMatrix::FromRowSlots(
    int rows, int cols, const std::vector<int64_t>& starts,
    std::vector<std::pair<int, double>>& slots) {
  SparseMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_.assign(static_cast<size_t>(rows) + 1, 0);
  m.col_indices_.reserve(slots.size());
  m.values_.reserve(slots.size());

  for (int r = 0; r < rows; ++r) {
    auto begin = slots.begin() + starts[r];
    auto end = slots.begin() + starts[r + 1];
    std::sort(begin, end,
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (auto it = begin; it != end;) {
      int col = it->first;
      double sum = 0.0;
      while (it != end && it->first == col) {
        sum += it->second;
        ++it;
      }
      // A zero sum stays stored: the entry is structure (e.g. a graph edge).
      m.col_indices_.push_back(col);
      m.values_.push_back(sum);
    }
    m.row_offsets_[r + 1] = static_cast<int64_t>(m.col_indices_.size());
  }
  RP_DCHECK_OK(m.Validate());
  return m;
}

SparseMatrix SparseMatrix::FromRawCsr(int rows, int cols,
                                      std::vector<int64_t> row_offsets,
                                      std::vector<int> col_indices,
                                      std::vector<double> values) {
  SparseMatrix m(rows, cols, std::move(row_offsets), std::move(col_indices),
                 std::move(values));
  RP_DCHECK_OK(m.Validate());
  return m;
}

Result<SparseMatrix> SparseMatrix::FromUntrustedCsr(
    int rows, int cols, std::vector<int64_t> row_offsets,
    std::vector<int> col_indices, std::vector<double> values) {
  SparseMatrix m(rows, cols, std::move(row_offsets), std::move(col_indices),
                 std::move(values));
  RP_RETURN_IF_ERROR(m.Validate());
  return m;
}

Status SparseMatrix::Validate() const {
  if (rows_ < 0 || cols_ < 0) {
    return Status::Internal("negative matrix dimensions");
  }
  // A default-constructed matrix keeps all arrays empty; that is valid.
  if (rows_ == 0 && row_offsets_.empty() && col_indices_.empty() &&
      values_.empty()) {
    return Status::OK();
  }
  if (row_offsets_.size() != static_cast<size_t>(rows_) + 1) {
    return Status::Internal(
        StrPrintf("row-pointer array has %zu entries for %d rows",
                  row_offsets_.size(), rows_));
  }
  if (row_offsets_.front() != 0) return Status::Internal("row_offsets[0] != 0");
  if (row_offsets_.back() != static_cast<int64_t>(col_indices_.size())) {
    return Status::Internal("row pointers do not cover column array");
  }
  if (values_.size() != col_indices_.size()) {
    return Status::Internal("values/col_indices size mismatch");
  }
  // Monotonicity must be established for the whole array before any row is
  // dereferenced — with front == 0 and back == nnz it bounds every row span,
  // so the loops below cannot read outside the value arrays.
  for (int r = 0; r < rows_; ++r) {
    if (row_offsets_[r] > row_offsets_[r + 1]) {
      return Status::Internal(
          StrPrintf("row pointers not monotone at row %d", r));
    }
  }
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_offsets_[r]; i < row_offsets_[r + 1]; ++i) {
      int c = col_indices_[i];
      if (c < 0 || c >= cols_) {
        return Status::Internal(
            StrPrintf("column %d of row %d out of range", c, r));
      }
      if (i > row_offsets_[r] && col_indices_[i - 1] >= c) {
        return Status::Internal(
            StrPrintf("columns of row %d not strictly sorted", r));
      }
      if (!std::isfinite(values_[i])) {
        return Status::Internal(
            StrPrintf("non-finite value at (%d,%d)", r, c));
      }
    }
  }
  return Status::OK();
}

Result<SparseMatrix> SparseMatrix::SymmetricFromTriplets(
    int n, const std::vector<Triplet>& upper_entries) {
  std::vector<Triplet> all;
  all.reserve(upper_entries.size() * 2);
  for (const Triplet& t : upper_entries) {
    all.push_back(t);
    if (t.row != t.col) all.push_back({t.col, t.row, t.value});
  }
  return FromTriplets(n, n, all);
}

void SparseMatrix::Multiply(const double* x, double* y) const {
  ParallelForBlocked(rows_, kSpmvRowGrain, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      double acc = 0.0;
      for (int64_t i = row_offsets_[r]; i < row_offsets_[r + 1]; ++i) {
        acc += values_[i] * x[col_indices_[i]];
      }
      y[r] = acc;
    }
  });
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> sums(rows_, 0.0);
  ParallelForBlocked(rows_, kSpmvRowGrain, [&](int64_t begin, int64_t end) {
    for (int64_t r = begin; r < end; ++r) {
      for (int64_t i = row_offsets_[r]; i < row_offsets_[r + 1]; ++i) {
        sums[r] += values_[i];
      }
    }
  });
  return sums;
}

double SparseMatrix::TotalSum() const {
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc;
}

double SparseMatrix::At(int r, int c) const {
  RP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  auto begin = col_indices_.begin() + row_offsets_[r];
  auto end = col_indices_.begin() + row_offsets_[r + 1];
  auto it = std::lower_bound(begin, end, c);
  if (it == end || *it != c) return 0.0;
  return values_[it - col_indices_.begin()];
}

double SparseMatrix::SymmetryError() const {
  if (rows_ != cols_) return HUGE_VAL;
  double err = 0.0;
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_offsets_[r]; i < row_offsets_[r + 1]; ++i) {
      int c = col_indices_[i];
      err = std::max(err, std::fabs(values_[i] - At(c, r)));
    }
  }
  return err;
}

DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix d(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int64_t i = row_offsets_[r]; i < row_offsets_[r + 1]; ++i) {
      d(r, col_indices_[i]) = values_[i];
    }
  }
  return d;
}

SparseMatrix SparseMatrix::Submatrix(const std::vector<int>& indices) const {
  RP_CHECK(rows_ == cols_);
  std::unordered_map<int, int> position;
  position.reserve(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    RP_CHECK(indices[i] >= 0 && indices[i] < rows_);
    position[indices[i]] = static_cast<int>(i);
  }
  std::vector<Triplet> kept;
  for (size_t i = 0; i < indices.size(); ++i) {
    int r = indices[i];
    for (int64_t j = row_offsets_[r]; j < row_offsets_[r + 1]; ++j) {
      auto it = position.find(col_indices_[j]);
      if (it != position.end()) {
        kept.push_back({static_cast<int>(i), it->second, values_[j]});
      }
    }
  }
  auto result = FromTriplets(static_cast<int>(indices.size()),
                             static_cast<int>(indices.size()), kept);
  RP_CHECK(result.ok());
  return std::move(result).value();
}

}  // namespace roadpart
