#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "linalg/sparse_matrix.h"

namespace roadpart {
namespace {

TEST(SparseMatrixTest, FromTripletsBasic) {
  auto m = SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0}, {1, 0, 2.0}, {2, 2, 1.0}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 3);
  EXPECT_EQ(m->NumNonZeros(), 3);
  EXPECT_DOUBLE_EQ(m->At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m->At(1, 1), 0.0);
}

TEST(SparseMatrixTest, DuplicatesSummed) {
  auto m = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.5}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->NumNonZeros(), 1);
  EXPECT_DOUBLE_EQ(m->At(0, 0), 3.5);
}

TEST(SparseMatrixTest, ExplicitZerosStored) {
  // (0,0) sums to 0 and (1,0) is an explicit 0: both stay stored, and
  // At, Multiply, RowSums and ToDense read exactly as if they were absent.
  auto m = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 0, -1.0}, {1, 0, 0.0}, {1, 1, 2.0}});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->NumNonZeros(), 3);
  EXPECT_EQ(m->col_indices(), (std::vector<int>{0, 0, 1}));
  EXPECT_TRUE(m->Validate().ok());
  auto without = SparseMatrix::FromTriplets(2, 2, {{1, 1, 2.0}});
  ASSERT_TRUE(without.ok());
  EXPECT_EQ(m->At(0, 0), 0.0);
  EXPECT_EQ(m->At(1, 0), 0.0);
  const double x[2] = {-3.0, 0.5};
  double y[2];
  double y_without[2];
  m->Multiply(x, y);
  without->Multiply(x, y_without);
  EXPECT_EQ(std::memcmp(y, y_without, sizeof(y)), 0);
  EXPECT_FALSE(std::signbit(y[0]));  // +0.0: the zero entries add nothing
  EXPECT_EQ(m->RowSums(), without->RowSums());
  EXPECT_EQ(m->ToDense().data(), without->ToDense().data());
}

TEST(SparseMatrixTest, OutOfRangeRejected) {
  EXPECT_FALSE(SparseMatrix::FromTriplets(2, 2, {{0, 2, 1.0}}).ok());
  EXPECT_FALSE(SparseMatrix::FromTriplets(2, 2, {{-1, 0, 1.0}}).ok());
}

TEST(SparseMatrixTest, ColumnsSortedWithinRows) {
  auto m = SparseMatrix::FromTriplets(
      1, 5, {{0, 4, 1.0}, {0, 1, 1.0}, {0, 3, 1.0}});
  ASSERT_TRUE(m.ok());
  const auto& cols = m->col_indices();
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_TRUE(cols[0] < cols[1] && cols[1] < cols[2]);
}

TEST(SparseMatrixTest, MultiplyMatchesDense) {
  auto m = SparseMatrix::FromTriplets(
      3, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, -1.0}, {2, 0, 3.0}});
  ASSERT_TRUE(m.ok());
  double x[3] = {1.0, 2.0, 3.0};
  double y_sparse[3];
  m->Multiply(x, y_sparse);
  DenseMatrix d = m->ToDense();
  double y_dense[3];
  d.Multiply(x, y_dense);
  for (int i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(y_sparse[i], y_dense[i]);
}

TEST(SparseMatrixTest, RowSumsAndTotal) {
  auto m = SparseMatrix::FromTriplets(2, 2,
                                      {{0, 0, 1.0}, {0, 1, 2.0}, {1, 1, 4.0}});
  ASSERT_TRUE(m.ok());
  auto sums = m->RowSums();
  EXPECT_DOUBLE_EQ(sums[0], 3.0);
  EXPECT_DOUBLE_EQ(sums[1], 4.0);
  EXPECT_DOUBLE_EQ(m->TotalSum(), 7.0);
}

TEST(SparseMatrixTest, SymmetricFromTriplets) {
  auto m = SparseMatrix::SymmetricFromTriplets(3, {{0, 1, 2.0}, {1, 2, 3.0}});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m->At(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m->At(2, 1), 3.0);
  EXPECT_DOUBLE_EQ(m->SymmetryError(), 0.0);
}

TEST(SparseMatrixTest, SymmetricKeepsDiagonalOnce) {
  auto m = SparseMatrix::SymmetricFromTriplets(2, {{0, 0, 5.0}});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->At(0, 0), 5.0);
}

TEST(SparseMatrixTest, SymmetryErrorDetectsAsymmetry) {
  auto m = SparseMatrix::FromTriplets(2, 2, {{0, 1, 1.0}, {1, 0, 3.0}});
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->SymmetryError(), 2.0);
}

TEST(SparseMatrixTest, SubmatrixExtractsAndRelabels) {
  // 4-cycle weighted 1; take nodes {0, 2} -> no edges between them.
  auto m = SparseMatrix::SymmetricFromTriplets(
      4, {{0, 1, 1.0}, {1, 2, 1.0}, {2, 3, 1.0}, {3, 0, 1.0}});
  ASSERT_TRUE(m.ok());
  SparseMatrix sub = m->Submatrix({0, 2});
  EXPECT_EQ(sub.rows(), 2);
  EXPECT_EQ(sub.NumNonZeros(), 0);

  SparseMatrix sub2 = m->Submatrix({0, 1, 2});
  EXPECT_DOUBLE_EQ(sub2.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(sub2.At(1, 2), 1.0);
  EXPECT_DOUBLE_EQ(sub2.At(0, 2), 0.0);
}

TEST(SparseMatrixTest, EmptyMatrix) {
  auto m = SparseMatrix::FromTriplets(0, 0, {});
  ASSERT_TRUE(m.ok());
  EXPECT_EQ(m->rows(), 0);
  EXPECT_EQ(m->NumNonZeros(), 0);
}

}  // namespace
}  // namespace roadpart
