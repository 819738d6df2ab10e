// Crash-injection harness for the checkpoint/resume layer, end to end
// through the real CLI binary (path injected by CMake as RP_CLI_PATH). For
// every stage boundary the pipeline is killed hard (std::_Exit, no
// unwinding) immediately after that stage's checkpoint became durable; the
// rerun with --resume must then produce output byte-identical to an
// uninterrupted run — including across a different thread count.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

#ifndef RP_CLI_PATH
#define RP_CLI_PATH "roadpart_cli"
#endif

int RunCli(const std::string& args) {
  std::string command =
      std::string(RP_CLI_PATH) + " " + args + " > /dev/null 2>&1";
  int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string Slurp(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  return bytes.ok() ? *bytes : std::string();
}

class CheckpointCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/checkpoint_crash";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    net_ = root_ + "/city.net";
    ASSERT_EQ(RunCli("generate --preset=D1 --seed=9 " + net_), 0);

    // Uninterrupted baseline, no checkpointing involved at all.
    ASSERT_EQ(RunCli(PartitionArgs(root_ + "/base", "")), 0);
    baseline_csv_ = Slurp(root_ + "/base/parts.csv");
    baseline_geojson_ = Slurp(root_ + "/base/parts.geojson");
    ASSERT_FALSE(baseline_csv_.empty());
    ASSERT_FALSE(baseline_geojson_.empty());
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string PartitionArgs(const std::string& out_dir,
                            const std::string& extra) {
    return "partition --scheme=ASG --k=4 --seed=11 --output-dir=" + out_dir +
           " --geojson=parts.geojson " + extra + " " + net_ + " parts.csv";
  }

  std::string root_;
  std::string net_;
  std::string baseline_csv_;
  std::string baseline_geojson_;
};

TEST_F(CheckpointCrashTest, KillAtEveryStageBoundaryThenResumeBitIdentical) {
  for (const std::string stage : {"mining", "cut", "final"}) {
    std::string out = root_ + "/out_" + stage;
    std::string cp = root_ + "/cp_" + stage;

    // The injected crash exits hard with code 42 after `stage` is durable.
    EXPECT_EQ(RunCli(PartitionArgs(out, "--checkpoint-dir=" + cp +
                                            " --crash-after-stage=" + stage)),
              42)
        << "stage " << stage;
    // A killed run must never have published output files.
    EXPECT_FALSE(std::filesystem::exists(out + "/parts.csv"))
        << "stage " << stage;
    // The crashed-after stage's checkpoint must be durably on disk.
    EXPECT_TRUE(std::filesystem::exists(cp + "/stage-" + stage + ".rpcp"))
        << "stage " << stage;
    // No temp files may linger in either directory.
    for (const auto& entry : std::filesystem::directory_iterator(cp)) {
      EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
          << entry.path();
    }

    // Resume — on a different thread count — and demand byte equality.
    EXPECT_EQ(RunCli(PartitionArgs(out, "--checkpoint-dir=" + cp +
                                            " --resume --threads=3")),
              0)
        << "stage " << stage;
    EXPECT_EQ(Slurp(out + "/parts.csv"), baseline_csv_) << "stage " << stage;
    EXPECT_EQ(Slurp(out + "/parts.geojson"), baseline_geojson_)
        << "stage " << stage;
  }
}

TEST_F(CheckpointCrashTest, ResumeOfCompletedRunIsBitIdentical) {
  std::string out = root_ + "/out_complete";
  std::string cp = root_ + "/cp_complete";
  ASSERT_EQ(RunCli(PartitionArgs(out, "--checkpoint-dir=" + cp)), 0);
  ASSERT_EQ(Slurp(out + "/parts.csv"), baseline_csv_);

  std::filesystem::remove_all(out);
  ASSERT_EQ(RunCli(PartitionArgs(out, "--checkpoint-dir=" + cp + " --resume")),
            0);
  EXPECT_EQ(Slurp(out + "/parts.csv"), baseline_csv_);
  EXPECT_EQ(Slurp(out + "/parts.geojson"), baseline_geojson_);
}

TEST_F(CheckpointCrashTest, RoadGraphSchemesCrashAtCutAndFinalResume) {
  // AG and NG have no mining stage; prove the cut-stage checkpoint alone
  // carries them, and that a stored 'final' replays byte for byte.
  for (const std::string scheme : {"NG", "AG"}) {
    std::string base = root_ + "/" + scheme + "_base";
    std::string common = "partition --scheme=" + scheme +
                         " --k=4 --seed=11 " + net_ +
                         " parts.csv --geojson=parts.geojson --output-dir=";
    ASSERT_EQ(RunCli(common + base), 0) << scheme;
    for (const std::string stage : {"cut", "final"}) {
      std::string out = root_ + "/" + scheme + "_out_" + stage;
      std::string cp = root_ + "/" + scheme + "_cp_" + stage;
      EXPECT_EQ(RunCli(common + out + " --checkpoint-dir=" + cp +
                       " --crash-after-stage=" + stage),
                42)
          << scheme << " " << stage;
      EXPECT_FALSE(std::filesystem::exists(out + "/parts.csv"))
          << scheme << " " << stage;
      EXPECT_EQ(RunCli(common + out + " --checkpoint-dir=" + cp +
                       " --resume --threads=3"),
                0)
          << scheme << " " << stage;
      EXPECT_EQ(Slurp(out + "/parts.csv"), Slurp(base + "/parts.csv"))
          << scheme << " " << stage;
      EXPECT_EQ(Slurp(out + "/parts.geojson"), Slurp(base + "/parts.geojson"))
          << scheme << " " << stage;
    }
  }
}

TEST_F(CheckpointCrashTest, CrashMidCsvWriteLeavesNoTornOutput) {
  // Crash after 'final' (before the CLI writes the CSV): the output dir may
  // hold nothing or a complete file, never a torn one — and rerunning lands
  // the byte-identical output. This is the atomic-writer guarantee at the
  // CLI surface.
  std::string out = root_ + "/torn_out";
  std::string cp = root_ + "/torn_cp";
  ASSERT_EQ(RunCli(PartitionArgs(out, "--checkpoint-dir=" + cp +
                                          " --crash-after-stage=final")),
            42);
  if (std::filesystem::exists(out)) {
    for (const auto& entry : std::filesystem::directory_iterator(out)) {
      EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
          << "lingering temp file " << entry.path();
    }
  }
  ASSERT_EQ(
      RunCli(PartitionArgs(out, "--checkpoint-dir=" + cp + " --resume")), 0);
  EXPECT_EQ(Slurp(out + "/parts.csv"), baseline_csv_);
}

}  // namespace
}  // namespace roadpart
