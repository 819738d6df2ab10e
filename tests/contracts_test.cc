// Contract-layer tests: the RP_CHECK macro family, and the debug structural
// validators (CsrGraph/SparseMatrix/partition labels) proving they fire on
// deliberately corrupted inputs and stay silent on healthy ones.

#include <cmath>
#include <limits>
#include <vector>

#include "common/check.h"
#include "core/alpha_cut.h"
#include "core/spectral_common.h"
#include "graph/csr_graph.h"
#include "gtest/gtest.h"
#include "linalg/sparse_matrix.h"

namespace roadpart {
namespace {

CsrGraph Path3() {
  auto g = CsrGraph::FromEdges(3, {{0, 1, 1.0}, {1, 2, 1.0}});
  RP_CHECK_OK(g);
  return std::move(g).value();
}

// --- RP_CHECK macro family ---------------------------------------------------

TEST(CheckMacros, PassingChecksAreSilent) {
  RP_CHECK(true);
  RP_CHECK_EQ(2, 2);
  RP_CHECK_NE(2, 3);
  RP_CHECK_LT(1, 2);
  RP_CHECK_LE(2, 2);
  RP_CHECK_GT(3, 2);
  RP_CHECK_GE(2, 2);
  RP_CHECK_OK(Status::OK());
  Result<int> ok_result(7);
  RP_CHECK_OK(ok_result);
  SUCCEED();
}

TEST(CheckMacrosDeath, CheckAbortsWithExpression) {
  EXPECT_DEATH(RP_CHECK(1 == 2), "RP_CHECK failed: 1 == 2");
}

TEST(CheckMacrosDeath, BinaryFormsPrintBothValues) {
  int lhs = 3;
  int rhs = 5;
  EXPECT_DEATH(RP_CHECK_EQ(lhs, rhs), "lhs == rhs.*3 vs 5");
  EXPECT_DEATH(RP_CHECK_GE(lhs, rhs), "lhs >= rhs.*3 vs 5");
  EXPECT_DEATH(RP_CHECK_LT(rhs, lhs), "rhs < lhs.*5 vs 3");
}

TEST(CheckMacrosDeath, CheckOkPrintsStatusText) {
  EXPECT_DEATH(RP_CHECK_OK(Status::InvalidArgument("bad k")),
               "InvalidArgument: bad k");
  Result<int> err(Status::NotFound("no such node"));
  EXPECT_DEATH(RP_CHECK_OK(err), "NotFound: no such node");
}

TEST(CheckMacros, DcheckTierMatchesBuildMode) {
#if RP_DCHECK_ENABLED
  EXPECT_DEATH(RP_DCHECK(false), "RP_CHECK failed");
#else
  RP_DCHECK(false);  // compiled out: must be a no-op
  SUCCEED();
#endif
}

// --- CsrGraph::Validate ------------------------------------------------------

TEST(CsrGraphValidate, HealthyGraphPasses) {
  EXPECT_TRUE(Path3().Validate().ok());
  EXPECT_TRUE(CsrGraph().Validate().ok());
}

TEST(CsrGraphValidate, RawPartsRoundTripPasses) {
  CsrGraph g = Path3();
  CsrGraph raw = CsrGraph::FromRawParts(g.num_nodes(), g.offsets(),
                                        g.neighbors(), g.weights());
  EXPECT_TRUE(raw.Validate().ok());
  EXPECT_EQ(raw.num_edges(), g.num_edges());
}

#if RP_DCHECK_ENABLED

TEST(CsrGraphValidateDeath, AsymmetricAdjacency) {
  // Arc 0->1 with no reverse: breaks the undirected-dual-graph contract.
  EXPECT_DEATH(CsrGraph::FromRawParts(2, {0, 1, 1}, {1}, {1.0}),
               "asymmetric adjacency");
}

TEST(CsrGraphValidateDeath, UnsortedNeighbors) {
  EXPECT_DEATH(CsrGraph::FromRawParts(3, {0, 2, 3, 4}, {2, 1, 0, 0},
                                      {1.0, 1.0, 1.0, 1.0}),
               "not strictly sorted");
}

TEST(CsrGraphValidateDeath, NeighborOutOfRange) {
  EXPECT_DEATH(CsrGraph::FromRawParts(2, {0, 1, 2}, {5, 0}, {1.0, 1.0}),
               "out of range");
}

TEST(CsrGraphValidateDeath, SelfLoop) {
  EXPECT_DEATH(CsrGraph::FromRawParts(2, {0, 1, 1}, {0}, {1.0}),
               "self-loop");
}

TEST(CsrGraphValidateDeath, NonFiniteWeight) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DEATH(CsrGraph::FromRawParts(2, {0, 1, 2}, {1, 0}, {nan, nan}),
               "non-finite value");
}

TEST(CsrGraphValidateDeath, NonMonotoneOffsets) {
  EXPECT_DEATH(CsrGraph::FromRawParts(2, {0, 2, 1}, {1}, {1.0}),
               "row pointers not monotone");
}

#endif  // RP_DCHECK_ENABLED

// --- SparseMatrix::Validate --------------------------------------------------

TEST(SparseMatrixValidate, HealthyMatrixPasses) {
  auto m = SparseMatrix::FromTriplets(2, 2, {{0, 1, 2.0}, {1, 0, 2.0}});
  RP_CHECK_OK(m);
  EXPECT_TRUE(m->Validate().ok());
  EXPECT_TRUE(SparseMatrix().Validate().ok());
}

TEST(SparseMatrixValidate, RawCsrRoundTripPasses) {
  auto m = SparseMatrix::FromTriplets(2, 3, {{0, 2, 1.5}, {1, 0, -2.0}});
  RP_CHECK_OK(m);
  SparseMatrix raw =
      SparseMatrix::FromRawCsr(m->rows(), m->cols(), m->row_offsets(),
                               m->col_indices(), m->values());
  EXPECT_TRUE(raw.Validate().ok());
  EXPECT_EQ(raw.NumNonZeros(), m->NumNonZeros());
}

#if RP_DCHECK_ENABLED

TEST(SparseMatrixValidateDeath, UnsortedColumns) {
  EXPECT_DEATH(
      SparseMatrix::FromRawCsr(1, 3, {0, 2}, {2, 0}, {1.0, 1.0}),
      "not strictly sorted");
}

TEST(SparseMatrixValidateDeath, ColumnOutOfRange) {
  EXPECT_DEATH(SparseMatrix::FromRawCsr(1, 2, {0, 1}, {7}, {1.0}),
               "out of range");
}

TEST(SparseMatrixValidateDeath, NonFiniteValue) {
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(SparseMatrix::FromRawCsr(1, 1, {0, 1}, {0}, {inf}),
               "non-finite value");
}

TEST(SparseMatrixValidateDeath, BrokenRowPointers) {
  EXPECT_DEATH(SparseMatrix::FromRawCsr(2, 2, {0, 2, 1}, {0}, {1.0}),
               "row pointers");
}

#endif  // RP_DCHECK_ENABLED

// --- Partition label validation ----------------------------------------------

TEST(PartitionLabels, AcceptsDenseCompleteLabelling) {
  EXPECT_TRUE(ValidatePartitionLabels({0, 1, 0, 1}, 4, 2).ok());
  EXPECT_TRUE(ValidatePartitionLabels({}, 0, 0).ok());
}

TEST(PartitionLabels, RejectsSizeMismatch) {
  Status s = ValidatePartitionLabels({0, 1}, 3, 2);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("3 nodes"), std::string::npos);
}

TEST(PartitionLabels, RejectsOutOfRangeLabels) {
  EXPECT_FALSE(ValidatePartitionLabels({0, 2}, 2, 2).ok());
  EXPECT_FALSE(ValidatePartitionLabels({0, -1}, 2, 2).ok());
}

TEST(PartitionLabels, RejectsEmptyPartition) {
  Status s = ValidatePartitionLabels({0, 0, 2, 2}, 4, 3);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("empty"), std::string::npos);
  // ... unless the caller tolerates sparse labels (objective computations).
  EXPECT_TRUE(ValidatePartitionLabels({0, 0, 2, 2}, 4, 3,
                                      /*require_all_labels_used=*/false)
                  .ok());
}

#if RP_DCHECK_ENABLED

TEST(PartitionLabelsDeath, ObjectiveRejectsNegativeLabel) {
  CsrGraph g = Path3();
  EXPECT_DEATH(AlphaCutObjective(g, {0, -1, 0}), "outside \\[0");
}

TEST(PartitionLabelsDeath, ObjectiveRejectsSizeMismatch) {
  CsrGraph g = Path3();
  EXPECT_DEATH(AlphaCutObjective(g, {0, 1}), "2 vs 3");
}

#endif  // RP_DCHECK_ENABLED

}  // namespace
}  // namespace roadpart
