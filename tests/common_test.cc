#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/radix_sort.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/timer.h"

namespace roadpart {
namespace {

// --- Status / Result ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kInternal, StatusCode::kIOError,
        StatusCode::kNotConverged}) {
    EXPECT_STRNE(StatusCodeName(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Status UseAssignOrReturn(int x, int* out) {
  RP_ASSIGN_OR_RETURN(*out, Half(x));
  return Status::OK();
}

TEST(ResultTest, AssignOrReturnPropagates) {
  int out = 0;
  EXPECT_TRUE(UseAssignOrReturn(10, &out).ok());
  EXPECT_EQ(out, 5);
  EXPECT_EQ(UseAssignOrReturn(3, &out).code(), StatusCode::kInvalidArgument);
}

// --- Rng ---

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.NextBounded(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit
}

TEST(RngTest, NextIntInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.0);
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(19);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(RngTest, WeightedRespectsZeros) {
  Rng rng(23);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.NextWeighted(w), 1u);
}

TEST(RngTest, WeightedRoughProportions) {
  Rng rng(29);
  std::vector<double> w = {1.0, 3.0};
  int count1 = 0;
  const int n = 40000;
  for (int i = 0; i < n; ++i) count1 += (rng.NextWeighted(w) == 1);
  EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.02);
}

TEST(RngTest, ForkIndependent) {
  Rng a(31);
  Rng child = a.Fork();
  EXPECT_NE(a.Next(), child.Next());
}

// --- string_util ---

TEST(StringUtilTest, SplitBasic) {
  auto parts = Split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtilTest, SplitEmpty) {
  auto parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtilTest, TrimWhitespace) {
  EXPECT_EQ(Trim("  hi \t\n"), "hi");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim(" \t "), "");
}

TEST(StringUtilTest, ParseDoubleValid) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble(" -1e-3 ").value(), -1e-3);
}

TEST(StringUtilTest, ParseDoubleInvalid) {
  EXPECT_FALSE(ParseDouble("abc").ok());
  EXPECT_FALSE(ParseDouble("1.5x").ok());
  EXPECT_FALSE(ParseDouble("").ok());
}

TEST(StringUtilTest, ParseIntValid) {
  EXPECT_EQ(ParseInt("-42").value(), -42);
  EXPECT_EQ(ParseInt(" 7 ").value(), 7);
}

TEST(StringUtilTest, ParseIntInvalid) {
  EXPECT_FALSE(ParseInt("3.5").ok());
  EXPECT_FALSE(ParseInt("x").ok());
}

TEST(StringUtilTest, ParseIntRejectsOutOfRange) {
  // strtoll saturates with ERANGE; that must surface as an error, not as
  // INT64_MAX / INT64_MIN.
  for (const char* s : {"99999999999999999999", "-99999999999999999999",
                        "9223372036854775808", "-9223372036854775809",
                        "+9223372036854775808"}) {
    const Result<int64_t> v = ParseInt(s);
    ASSERT_FALSE(v.ok()) << s;
    EXPECT_EQ(v.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(v.status().message(),
              std::string("integer out of range: '") + s + "'");
  }
  EXPECT_EQ(ParseInt("9223372036854775807").value(), INT64_MAX);
  EXPECT_EQ(ParseInt("-9223372036854775808").value(), INT64_MIN);
  EXPECT_EQ(ParseInt("+42").value(), 42);
}

TEST(StringUtilTest, ParseDoubleKeepsStrtodRange) {
  // Out-of-range doubles saturate exactly as strtod does; callers that
  // need finite values check for themselves.
  EXPECT_EQ(ParseDouble("1e400").value(), HUGE_VAL);
  EXPECT_EQ(ParseDouble("-1e400").value(), -HUGE_VAL);
  EXPECT_EQ(ParseDouble("1e-400").value(), 0.0);
  EXPECT_EQ(ParseDouble("0x1p3").value(), 8.0);
  EXPECT_EQ(ParseDouble("+2.5").value(), 2.5);
  EXPECT_EQ(ParseDouble("1.5x").status().message(), "not a number: '1.5x'");
}

TEST(StringUtilTest, TokenizeSpacesReportsTrueCount) {
  std::string_view tokens[2];
  EXPECT_EQ(TokenizeSpaces("  a \tb\t  c\r ", tokens, 2), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  EXPECT_EQ(TokenizeSpaces("x\ty", tokens, 2), 1u);
  EXPECT_EQ(tokens[0], "x\ty");
  EXPECT_EQ(TokenizeSpaces(" \t ", tokens, 2), 0u);
}

TEST(StringUtilTest, AppendersMatchPrintf) {
  std::string out;
  AppendInt(INT64_MIN, &out);
  out.push_back(' ');
  AppendDouble17(0.1, &out);
  out.push_back(' ');
  AppendDouble17(-0.0, &out);
  EXPECT_EQ(out, StrPrintf("%lld %.17g %.17g",
                           static_cast<long long>(INT64_MIN), 0.1, -0.0));
}

TEST(StringUtilTest, StrPrintfFormats) {
  EXPECT_EQ(StrPrintf("%d-%s", 5, "ok"), "5-ok");
  EXPECT_EQ(StrPrintf("%.2f", 1.005), "1.00");
}

TEST(StringUtilTest, StartsWith) {
  EXPECT_TRUE(StartsWith("roadpart", "road"));
  EXPECT_FALSE(StartsWith("road", "roadpart"));
}

// --- Timer ---

TEST(TimerTest, MonotoneNonNegative) {
  Timer t;
  double a = t.Seconds();
  double b = t.Seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
}

TEST(StableRadixSortTest, MatchesStableSortOracle) {
  Rng rng(17);
  auto check = [](const std::vector<uint64_t>& keys, const std::string& what) {
    SCOPED_TRACE(what);
    const int n = static_cast<int>(keys.size());
    std::vector<int> oracle(n);
    std::iota(oracle.begin(), oracle.end(), 0);
    std::stable_sort(oracle.begin(), oracle.end(),
                     [&](int a, int b) { return keys[a] < keys[b]; });
    std::vector<int> order = {5, 6};  // overwritten
    StableRadixSortIndices(n, [&keys](int i) { return keys[i]; }, &order);
    EXPECT_EQ(order, oracle);  // equal keys keep ascending index order
  };
  check({}, "empty");
  check({42}, "one key");
  check({7, 7, 7, 7}, "all equal: every pass skipped");
  std::vector<uint64_t> wide(5000);
  for (uint64_t& k : wide) k = rng.Next();
  check(wide, "full 64-bit keys");
  std::vector<uint64_t> packed(5000);
  for (uint64_t& k : packed) {
    k = (rng.NextBounded(4000) << 32) | rng.NextBounded(4000);
  }
  check(packed, "two packed 12-bit ids");
  std::vector<uint64_t> few(5000);
  for (uint64_t& k : few) k = rng.NextBounded(3) << 56;
  check(few, "few values in the top byte");
}

}  // namespace
}  // namespace roadpart
