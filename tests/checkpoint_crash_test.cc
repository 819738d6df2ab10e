// Crash-injection harness for the checkpoint/resume layer, end to end
// through the real CLI binary (path injected by CMake as RP_CLI_PATH). For
// every scheme and every stage it saves — 'mining' and 'final' for ASG and
// NSG, 'final' for AG, NG and JiGeroliminis — the pipeline is killed hard
// (std::_Exit, no unwinding) immediately after that stage's checkpoint
// became durable; the rerun with --resume must then produce output, and
// leave stage files, byte-identical to an uninterrupted run — including
// across a different thread count.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

#ifndef RP_CLI_PATH
#define RP_CLI_PATH "roadpart_cli"
#endif

// Runs the CLI with its stdout and stderr sent to `log`.
int RunCli(const std::string& args, const std::string& log = "/dev/null") {
  std::string command =
      std::string(RP_CLI_PATH) + " " + args + " > " + log + " 2>&1";
  int status = std::system(command.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string Slurp(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  return bytes.ok() ? *bytes : std::string();
}

// Every file of a directory, by name.
std::map<std::string, std::string> DirectoryBytes(const std::string& dir) {
  std::map<std::string, std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    files[entry.path().filename().string()] = Slurp(entry.path().string());
  }
  return files;
}

class CheckpointCrashTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = testing::TempDir() + "/checkpoint_crash";
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
    net_ = root_ + "/city.net";
    ASSERT_EQ(RunCli("generate --preset=D1 --seed=9 " + net_), 0);
  }

  void TearDown() override { std::filesystem::remove_all(root_); }

  std::string PartitionArgs(const std::string& scheme,
                            const std::string& out_dir,
                            const std::string& extra) {
    return "partition --scheme=" + scheme +
           " --k=4 --seed=11 --output-dir=" + out_dir +
           " --geojson=parts.geojson " + extra + " " + net_ + " parts.csv";
  }

  std::string root_;
  std::string net_;
};

TEST_F(CheckpointCrashTest, KillAtEveryStageBoundaryThenResumeBitIdentical) {
  struct Case {
    std::string scheme;
    std::vector<std::string> stages;
  };
  const Case cases[] = {{"ASG", {"mining", "final"}},
                        {"NSG", {"mining", "final"}},
                        {"AG", {"final"}},
                        {"NG", {"final"}},
                        {"JIG", {"final"}}};
  for (const Case& c : cases) {
    // Uninterrupted baselines: one without checkpointing at all, one whose
    // checkpoint directory the resumed runs' must equal file for file.
    const std::string base = root_ + "/" + c.scheme + "_base";
    const std::string base_cp = root_ + "/" + c.scheme + "_base_cp";
    ASSERT_EQ(RunCli(PartitionArgs(c.scheme, base, "")), 0) << c.scheme;
    ASSERT_EQ(RunCli(PartitionArgs(c.scheme, base + "_cp_out",
                                   "--checkpoint-dir=" + base_cp)),
              0)
        << c.scheme;
    const std::string baseline_csv = Slurp(base + "/parts.csv");
    const std::string baseline_geojson = Slurp(base + "/parts.geojson");
    ASSERT_FALSE(baseline_csv.empty()) << c.scheme;
    ASSERT_FALSE(baseline_geojson.empty()) << c.scheme;
    EXPECT_EQ(Slurp(base + "_cp_out/parts.csv"), baseline_csv) << c.scheme;
    const std::map<std::string, std::string> baseline_stages =
        DirectoryBytes(base_cp);
    EXPECT_EQ(baseline_stages.size(), c.stages.size()) << c.scheme;

    for (const std::string& stage : c.stages) {
      SCOPED_TRACE(c.scheme + " killed after " + stage);
      const std::string out = root_ + "/" + c.scheme + "_out_" + stage;
      const std::string cp = root_ + "/" + c.scheme + "_cp_" + stage;

      // The injected crash exits hard with code 42 after `stage` is durable.
      EXPECT_EQ(RunCli(PartitionArgs(c.scheme, out,
                                     "--checkpoint-dir=" + cp +
                                         " --crash-after-stage=" + stage)),
                42);
      // A killed run must never have published output files.
      EXPECT_FALSE(std::filesystem::exists(out + "/parts.csv"));
      // The crashed-after stage's checkpoint must be durably on disk.
      EXPECT_TRUE(std::filesystem::exists(cp + "/stage-" + stage + ".rpcp"));
      // No temp files may linger in the checkpoint directory.
      for (const auto& entry : std::filesystem::directory_iterator(cp)) {
        EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
            << entry.path();
      }

      // Resume — on a different thread count — and demand byte equality of
      // the outputs and of every stage file.
      EXPECT_EQ(RunCli(PartitionArgs(c.scheme, out,
                                     "--checkpoint-dir=" + cp +
                                         " --resume --threads=3")),
                0);
      EXPECT_EQ(Slurp(out + "/parts.csv"), baseline_csv);
      EXPECT_EQ(Slurp(out + "/parts.geojson"), baseline_geojson);
      EXPECT_EQ(DirectoryBytes(cp), baseline_stages);
    }
  }
}

TEST_F(CheckpointCrashTest, ResumeOfCompletedRunIsBitIdentical) {
  const std::string base = root_ + "/base";
  ASSERT_EQ(RunCli(PartitionArgs("ASG", base, "")), 0);
  const std::string out = root_ + "/out_complete";
  const std::string cp = root_ + "/cp_complete";
  ASSERT_EQ(RunCli(PartitionArgs("ASG", out, "--checkpoint-dir=" + cp)), 0);
  ASSERT_EQ(Slurp(out + "/parts.csv"), Slurp(base + "/parts.csv"));

  std::filesystem::remove_all(out);
  ASSERT_EQ(RunCli(PartitionArgs("ASG", out,
                                 "--checkpoint-dir=" + cp + " --resume")),
            0);
  EXPECT_EQ(Slurp(out + "/parts.csv"), Slurp(base + "/parts.csv"));
  EXPECT_EQ(Slurp(out + "/parts.geojson"), Slurp(base + "/parts.geojson"));
}

TEST_F(CheckpointCrashTest, CrashMidCsvWriteLeavesNoTornOutput) {
  // Crash after 'final' (before the CLI writes the CSV): the output dir may
  // hold nothing or a complete file, never a torn one — and rerunning lands
  // the byte-identical output. This is the atomic-writer guarantee at the
  // CLI surface.
  const std::string base = root_ + "/base";
  ASSERT_EQ(RunCli(PartitionArgs("ASG", base, "")), 0);
  std::string out = root_ + "/torn_out";
  std::string cp = root_ + "/torn_cp";
  ASSERT_EQ(RunCli(PartitionArgs("ASG", out,
                                 "--checkpoint-dir=" + cp +
                                     " --crash-after-stage=final")),
            42);
  if (std::filesystem::exists(out)) {
    for (const auto& entry : std::filesystem::directory_iterator(out)) {
      EXPECT_EQ(entry.path().string().find(".tmp."), std::string::npos)
          << "lingering temp file " << entry.path();
    }
  }
  ASSERT_EQ(RunCli(PartitionArgs("ASG", out,
                                 "--checkpoint-dir=" + cp + " --resume")),
            0);
  EXPECT_EQ(Slurp(out + "/parts.csv"), Slurp(base + "/parts.csv"));
}

// A checksum-valid 'final' stage whose first label lies outside [0, k) —
// re-enveloped with a correct length and checksum — is refused with a
// warning on --resume, and the recomputed CSV equals a fresh run's.
TEST_F(CheckpointCrashTest, ResumeRecomputesFinalStageWithBadLabels) {
  const std::string net = root_ + "/d1.net";
  ASSERT_EQ(RunCli("generate --preset=D1 --seed=3 " + net), 0);
  const std::string cp = root_ + "/bad_labels_cp";
  const std::string common = "partition --scheme=ASG --k=4 --threads=1 " +
                             std::string("--checkpoint-dir=") + cp + " " +
                             net + " ";
  ASSERT_EQ(RunCli(common + root_ + "/fresh.csv"), 0);
  const std::string fresh_csv = Slurp(root_ + "/fresh.csv");
  ASSERT_FALSE(fresh_csv.empty());

  for (const std::string label : {"9", "-5"}) {
    SCOPED_TRACE("first label " + label);
    const std::string stage = cp + "/stage-final.rpcp";
    ArtifactInfo info;
    auto payload = ReadArtifact(stage, {}, &info);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    std::string edited = *payload;
    const size_t count = edited.find("\nassignment ") + 12;
    const size_t first = edited.find(' ', count) + 1;
    edited.replace(first, edited.find(' ', first) - first, label);
    ASSERT_TRUE(WriteArtifact(stage, info.format, info.version, edited).ok());

    const std::string resumed = root_ + "/resumed_" + label + ".csv";
    const std::string log = root_ + "/resumed_" + label + ".log";
    EXPECT_EQ(RunCli(common + "--resume " + resumed, log), 0) << Slurp(log);
    EXPECT_EQ(Slurp(resumed), fresh_csv);
    EXPECT_NE(Slurp(log).find("checkpoint stage 'final' not adopted"),
              std::string::npos)
        << Slurp(log);
  }
}

}  // namespace
}  // namespace roadpart
