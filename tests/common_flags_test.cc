#include <gtest/gtest.h>

#include <climits>

#include "common/flags.h"

namespace roadpart {
namespace {

const std::vector<std::string> kKnown = {"k", "scheme", "verbose", "ratio"};

FlagParser ParseOk(std::initializer_list<const char*> args) {
  std::vector<const char*> argv(args);
  auto parser =
      FlagParser::Parse(static_cast<int>(argv.size()), argv.data(), kKnown);
  EXPECT_TRUE(parser.ok()) << parser.status().ToString();
  return std::move(parser).value();
}

TEST(FlagParserTest, EqualsForm) {
  FlagParser p = ParseOk({"--k=5", "--scheme=ASG", "input.net"});
  EXPECT_EQ(p.GetInt("k", 0).value(), 5);
  EXPECT_EQ(p.GetString("scheme", ""), "ASG");
  ASSERT_EQ(p.positional().size(), 1u);
  EXPECT_EQ(p.positional()[0], "input.net");
}

TEST(FlagParserTest, SpaceForm) {
  FlagParser p = ParseOk({"--k", "7", "file"});
  EXPECT_EQ(p.GetInt("k", 0).value(), 7);
  EXPECT_EQ(p.positional().size(), 1u);
}

TEST(FlagParserTest, BooleanFlag) {
  FlagParser p = ParseOk({"--verbose", "--k=2"});
  EXPECT_TRUE(p.GetBool("verbose", false));
  EXPECT_FALSE(p.GetBool("absent", false));
  EXPECT_TRUE(p.GetBool("absent", true));
}

TEST(FlagParserTest, DoubleValues) {
  FlagParser p = ParseOk({"--ratio=0.75"});
  EXPECT_DOUBLE_EQ(p.GetDouble("ratio", 0.0).value(), 0.75);
  EXPECT_DOUBLE_EQ(p.GetDouble("absent", 1.5).value(), 1.5);
}

TEST(FlagParserTest, UnknownFlagRejected) {
  const char* argv[] = {"--bogus=1"};
  EXPECT_FALSE(FlagParser::Parse(1, argv, kKnown).ok());
}

TEST(FlagParserTest, MalformedNumberReported) {
  FlagParser p = ParseOk({"--k=abc", "--ratio=x"});
  EXPECT_EQ(p.GetInt("k", 0).status().message(), "--k: not an integer: 'abc'");
  EXPECT_EQ(p.GetIntInRange("k", 1, 1, 10).status().message(),
            "--k: not an integer: 'abc'");
  EXPECT_EQ(p.GetDouble("ratio", 0.0).status().message(),
            "--ratio: not a number: 'x'");
}

TEST(FlagParserTest, IntInRangeRejectsValuesThatWouldNarrow) {
  FlagParser p = ParseOk({"--k=4294967297"});
  const Result<int64_t> k = p.GetIntInRange("k", 1, 1, INT_MAX);
  ASSERT_FALSE(k.ok());
  EXPECT_EQ(k.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(k.status().message(),
            "--k must be in [1, 2147483647], got 4294967297");
  EXPECT_EQ(p.GetIntInRange("absent", 7, 1, 10).value(), 7);
  EXPECT_EQ(ParseOk({"--k=10"}).GetIntInRange("k", 1, 1, 10).value(), 10);
  EXPECT_FALSE(ParseOk({"--k=0"}).GetIntInRange("k", 1, 1, 10).ok());
  EXPECT_FALSE(
      ParseOk({"--k=99999999999999999999"}).GetIntInRange("k", 1, 1, 10).ok());
}

TEST(FlagParserTest, PositionalOrderPreserved) {
  FlagParser p = ParseOk({"a", "--k=1", "b", "c"});
  ASSERT_EQ(p.positional().size(), 3u);
  EXPECT_EQ(p.positional()[0], "a");
  EXPECT_EQ(p.positional()[2], "c");
}

TEST(FlagParserTest, HasReflectsPresence) {
  FlagParser p = ParseOk({"--k=1"});
  EXPECT_TRUE(p.Has("k"));
  EXPECT_FALSE(p.Has("scheme"));
}

}  // namespace
}  // namespace roadpart
