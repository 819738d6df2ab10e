// End-to-end test of the roadpart_cli binary (path injected by CMake as
// RP_CLI_PATH): generate -> mine -> simulate -> partition -> evaluate ->
// sweep, all through the real command-line surface.

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace roadpart {
namespace {

#ifndef RP_CLI_PATH
#define RP_CLI_PATH "roadpart_cli"
#endif
#ifndef RP_PIPELINE_PATH
#define RP_PIPELINE_PATH "rp_pipeline"
#endif

int RunCli(const std::string& args) {
  std::string command = std::string(RP_CLI_PATH) + " " + args +
                        " > /dev/null 2>&1";
  return std::system(command.c_str());
}

// Runs `binary args` and returns what it wrote to file descriptor `fd` (1
// or 2), discarding the other stream; the exit code lands in *code.
std::string RunCapturing(const std::string& binary, const std::string& args,
                         int fd, int* code) {
  const std::string path = testing::TempDir() + "/cli_captured.txt";
  const char* redirect = fd == 1 ? " 2> /dev/null > " : " > /dev/null 2> ";
  const std::string command = binary + " " + args + redirect + path;
  const int status = std::system(command.c_str());
  *code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string RunForStderr(const std::string& binary, const std::string& args,
                         int* code) {
  return RunCapturing(binary, args, 2, code);
}

bool FileNonEmpty(const std::string& path) {
  std::ifstream in(path);
  return in.good() && in.peek() != std::ifstream::traits_type::eof();
}

class CliWorkflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir();
    net_ = dir_ + "/cli_city.net";
    ASSERT_EQ(RunCli("generate --preset=D1 --seed=3 " + net_), 0);
    ASSERT_TRUE(FileNonEmpty(net_));
  }

  std::string dir_;
  std::string net_;
};

TEST_F(CliWorkflowTest, PartitionAndEvaluate) {
  std::string csv = dir_ + "/cli_partition.csv";
  EXPECT_EQ(RunCli("partition --scheme=ASG --k=5 " + net_ + " " + csv), 0);
  EXPECT_TRUE(FileNonEmpty(csv));
  EXPECT_EQ(RunCli("evaluate " + net_ + " " + csv), 0);
  std::remove(csv.c_str());
}

TEST_F(CliWorkflowTest, MineWritesSupergraph) {
  std::string sg = dir_ + "/cli_city.sg";
  EXPECT_EQ(RunCli("mine " + net_ + " " + sg), 0);
  EXPECT_TRUE(FileNonEmpty(sg));
  std::remove(sg.c_str());
}

TEST_F(CliWorkflowTest, SimulateWritesDensities) {
  std::string densities = dir_ + "/cli.densities";
  EXPECT_EQ(
      RunCli("simulate --vehicles=500 --horizon=600 " + net_ + " " + densities),
      0);
  EXPECT_TRUE(FileNonEmpty(densities));
  std::remove(densities.c_str());
}

TEST_F(CliWorkflowTest, SeriesAndAnalyze) {
  std::string series = dir_ + "/cli_series.csv";
  std::string densities = dir_ + "/cli2.densities";
  EXPECT_EQ(RunCli("simulate --vehicles=400 --horizon=600 --interval=200 "
                   "--series=" +
                   series + " " + net_ + " " + densities),
            0);
  EXPECT_TRUE(FileNonEmpty(series));
  int code = -1;
  const std::string out =
      RunCapturing(RP_CLI_PATH,
                   "analyze --scheme=ASG --k=3 " + net_ + " " + series, 1,
                   &code);
  EXPECT_EQ(code, 0);
  // A header, one row per snapshot (a 600 s horizon in 200 s intervals:
  // t = 200, 400, 600), then the regime summary.
  std::vector<std::string> lines;
  std::istringstream in(out);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  ASSERT_EQ(lines.size(), 5u) << out;
  EXPECT_NE(lines[0].find("mean_dens"), std::string::npos) << out;
  for (int row = 1; row <= 3; ++row) {
    double t = 0.0;
    int k = 0;
    ASSERT_EQ(std::sscanf(lines[row].c_str(), "%lf %d", &t, &k), 2) << out;
    EXPECT_EQ(t, 200.0 * row);
    EXPECT_EQ(k, 3);
  }
  EXPECT_EQ(lines[4].rfind("mean churn ", 0), 0u) << out;
  EXPECT_NE(lines[4].find("; regime changes at:"), std::string::npos) << out;
  std::remove(series.c_str());
  std::remove(densities.c_str());
}

TEST_F(CliWorkflowTest, SweepRuns) {
  EXPECT_EQ(RunCli("sweep --scheme=ASG --kmin=2 --kmax=4 " + net_), 0);
}

TEST_F(CliWorkflowTest, BadInputsFailCleanly) {
  EXPECT_NE(RunCli("partition --scheme=BOGUS --k=5 " + net_ + " /tmp/x.csv"), 0);
  EXPECT_NE(RunCli("generate --preset=XX /tmp/x.net"), 0);
  EXPECT_NE(RunCli("evaluate /no/such.net /no/such.csv"), 0);
  EXPECT_NE(RunCli("nonsense"), 0);
  EXPECT_NE(RunCli(""), 0);
}

TEST(CliTest, ThreadsFlagMustFitInt) {
  // --threads lands in an int: a value outside [0, INT_MAX] is an error,
  // never a silent narrowing (4294967297 would otherwise become 1).
  const std::string out = testing::TempDir() + "/cli_threads.net";
  for (const std::string& binary : {std::string(RP_CLI_PATH) + " generate",
                                    std::string(RP_PIPELINE_PATH)}) {
    for (const char* value : {"4294967297", "2147483648", "-1"}) {
      int code = 0;
      const std::string err = RunForStderr(
          binary, std::string("--threads=") + value + " " + out + " " + out,
          &code);
      EXPECT_EQ(code, 1) << binary << " " << value;
      EXPECT_NE(err.find(std::string("--threads must be in [0, 2147483647], "
                                     "got ") +
                         value),
                std::string::npos)
          << err;
    }
  }
  std::remove(out.c_str());
}

TEST(CliTest, IntFlagsAreRangeChecked) {
  // Every int flag lands in an int with a real lower bound: a value outside
  // [min, INT_MAX] is a typed error naming the flag, never a silent
  // narrowing (4294967297 would otherwise become 1) or a late failure.
  // --seed is a uint64_t taken from [0, INT64_MAX], so a negative seed is
  // an error rather than a wrapped one.
  struct FlagCase {
    std::string command;  // binary + subcommand; positional args appended
    int positional;
    std::string flag;
    std::string min;
    std::vector<std::string> bad;
    std::string max = "2147483647";
  };
  const std::string int64_max = "9223372036854775807";
  const std::vector<std::string> bad_seeds = {"-1", "-9223372036854775808"};
  const std::string cli = RP_CLI_PATH;
  const std::string pipeline = RP_PIPELINE_PATH;
  const std::vector<FlagCase> cases = {
      {cli + " generate", 1, "hotspots", "0", {"-1", "4294967297"}},
      {cli + " partition", 2, "k", "1", {"0", "4294967297", "2147483648"}},
      {cli + " partition", 2, "io-retry-attempts", "1", {"0", "4294967297"}},
      {cli + " simulate", 2, "vehicles", "0", {"-1", "4294967296"}},
      {cli + " simulate", 2, "snapshot", "-1", {"-2", "4294967297"}},
      {cli + " analyze", 2, "k", "1", {"0", "4294967297"}},
      {cli + " refresh", 2, "k", "1", {"-3", "4294967297"}},
      {cli + " refresh", 2, "inner-k", "1", {"0", "4294967298"}},
      {cli + " sweep", 1, "kmin", "1", {"0", "4294967298"}},
      {pipeline, 2, "k", "1", {"0", "4294967297"}},
      {pipeline, 2, "inner-k", "1", {"0", "4294967297"}},
      {pipeline, 2, "retry-attempts", "1", {"0", "4294967297"}},
      {pipeline, 2, "crash-after-interval", "-1", {"-2", "4294967296"}},
      {cli + " generate", 1, "seed", "0", bad_seeds, int64_max},
      {cli + " partition", 2, "seed", "0", bad_seeds, int64_max},
      {cli + " mine", 2, "seed", "0", bad_seeds, int64_max},
      {cli + " simulate", 2, "seed", "0", bad_seeds, int64_max},
      {cli + " analyze", 2, "seed", "0", bad_seeds, int64_max},
      {cli + " refresh", 2, "seed", "0", bad_seeds, int64_max},
      {cli + " sweep", 1, "seed", "0", bad_seeds, int64_max},
      {pipeline, 2, "seed", "0", bad_seeds, int64_max},
  };
  const std::string path = testing::TempDir() + "/cli_int_flags.net";
  for (const FlagCase& c : cases) {
    std::string args;
    for (int i = 0; i < c.positional; ++i) args += " " + path;
    for (const std::string& value : c.bad) {
      int code = 0;
      const std::string err = RunForStderr(
          c.command, "--" + c.flag + "=" + value + args, &code);
      EXPECT_EQ(code, 1) << c.command << " --" << c.flag << "=" << value;
      EXPECT_NE(err.find("--" + c.flag + " must be in [" + c.min + ", " +
                         c.max + "], got " + value),
                std::string::npos)
          << c.command << ": " << err;
    }
  }
  // --kmax's lower bound is --kmin.
  int code = 0;
  const std::string err =
      RunForStderr(cli + " sweep", "--kmin=5 --kmax=3 " + path, &code);
  EXPECT_EQ(code, 1);
  EXPECT_NE(err.find("--kmax must be in [5, 2147483647], got 3"),
            std::string::npos)
      << err;
  std::remove(path.c_str());
}

TEST(CliTest, TearDownNetwork) {
  // Cleanup of the shared network file after the suite (best effort).
  std::remove((testing::TempDir() + "/cli_city.net").c_str());
  SUCCEED();
}

}  // namespace
}  // namespace roadpart
