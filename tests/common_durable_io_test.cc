// Unit suite for the crash-safe artifact I/O layer (common/durable_io.h):
// atomic-writer lifecycle, injected write faults, the deterministic retry
// schedule, and the checksummed envelope — including an exhaustive proof
// that flipping ANY single byte of a saved artifact is detected as
// Status::Corruption on load, never returned as plausible data.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

bool FileExists(const std::string& path) {
  std::ifstream in(path);
  return in.good();
}

std::string Slurp(const std::string& path) {
  auto bytes = ReadFileBytes(path);
  return bytes.ok() ? *bytes : std::string();
}

// --- Checksums and bit-exact round trips ---

TEST(Fnv1a64Test, AnySingleByteSubstitutionChangesDigest) {
  const std::string data = "0 1 2.5\n1 0 3.25\n";
  const uint64_t baseline = Fnv1a64(data);
  for (size_t i = 0; i < data.size(); ++i) {
    for (int delta = 1; delta < 256; delta += 85) {  // 3 substitutions/byte
      std::string mutated = data;
      mutated[i] = static_cast<char>(mutated[i] ^ delta);
      EXPECT_NE(Fnv1a64(mutated), baseline)
          << "offset " << i << " xor " << delta;
    }
  }
}

TEST(Fnv1a64Test, ChainsViaBasis) {
  const std::string data = "hello world";
  uint64_t whole = Fnv1a64(data);
  uint64_t chained = Fnv1a64(data.substr(6), Fnv1a64(data.substr(0, 6)));
  EXPECT_EQ(whole, chained);
}

TEST(BitsHexTest, DoubleRoundTripIsBitExact) {
  const double values[] = {0.0,   -0.0, 1.0 / 3.0, 1e-308, -1e308,
                           2.5e7, 1.0,  6.02214076e23};
  for (double v : values) {
    std::string hex = DoubleToBitsHex(v);
    ASSERT_EQ(hex.size(), 16u);
    LineCursor cursor(LineWriter().Line("x").Double(v).Finish());
    auto back = ReadDouble(cursor, "x");
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(std::memcmp(&v, &*back, sizeof(double)), 0) << hex;
  }
  // -0.0 and 0.0 are distinct bit patterns and must stay distinct.
  EXPECT_NE(DoubleToBitsHex(0.0), DoubleToBitsHex(-0.0));
}

TEST(BitsHexTest, Uint64RoundTripAndErrors) {
  for (uint64_t v : {0ull, 1ull, 0xdeadbeefcafef00dull, ~0ull}) {
    auto back = Uint64FromHex(Uint64ToHex(v));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
  }
  EXPECT_FALSE(Uint64FromHex("").ok());
  EXPECT_FALSE(Uint64FromHex("xyz").ok());
  EXPECT_FALSE(Uint64FromHex("0123456789abcdef0").ok());  // 17 digits
  // Lowercase only: a case-flipped checksum digit must read as corrupt,
  // not as the same value.
  EXPECT_FALSE(Uint64FromHex("DEADBEEF").ok());
}

// --- AtomicFileWriter lifecycle ---

TEST(AtomicFileWriterTest, CommitPublishesAndCleansTemp) {
  std::string path = TempPath("durable_commit.txt");
  std::remove(path.c_str());
  AtomicFileWriter writer(path);
  ASSERT_TRUE(writer.Open().ok());
  ASSERT_TRUE(writer.Append("alpha\n").ok());
  ASSERT_TRUE(writer.Append("beta\n").ok());
  EXPECT_FALSE(FileExists(path));  // nothing published before Commit
  ASSERT_TRUE(writer.Commit().ok());
  EXPECT_EQ(Slurp(path), "alpha\nbeta\n");
  EXPECT_FALSE(FileExists(writer.temp_path()));
  std::remove(path.c_str());
}

TEST(AtomicFileWriterTest, AbortLeavesOldFileUntouched) {
  std::string path = TempPath("durable_abort.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "old contents\n").ok());
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("new contents that must not land\n").ok());
    ASSERT_TRUE(writer.Abort().ok());
    EXPECT_FALSE(FileExists(writer.temp_path()));
  }
  EXPECT_EQ(Slurp(path), "old contents\n");
  std::remove(path.c_str());
}

TEST(AtomicFileWriterTest, DestructorAbortsUncommittedWriter) {
  std::string path = TempPath("durable_dtor.txt");
  std::remove(path.c_str());
  std::string temp;
  {
    AtomicFileWriter writer(path);
    ASSERT_TRUE(writer.Open().ok());
    ASSERT_TRUE(writer.Append("doomed\n").ok());
    temp = writer.temp_path();
  }
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(temp));
}

TEST(AtomicFileWriterTest, AppendBeforeOpenIsAnError) {
  AtomicFileWriter writer(TempPath("durable_noopen.txt"));
  Status st = writer.Append("x");
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// --- Injected durability faults ---

TEST(DurableFaultTest, ShortWriteFailsCleanlyAndPreservesTarget) {
  std::string path = TempPath("durable_short.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "survivor\n").ok());
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableShortWrite, 1);
  Status st = AtomicWriteFile(path, "this write dies halfway\n");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(injector.fire_count(FaultSite::kDurableShortWrite), 1);
  EXPECT_EQ(Slurp(path), "survivor\n");  // old file intact, no torn bytes
  std::remove(path.c_str());
}

TEST(DurableFaultTest, FsyncFailureSurfacesAsIOError) {
  std::string path = TempPath("durable_fsync.txt");
  std::remove(path.c_str());
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableFsyncFailure, 1);
  Status st = AtomicWriteFile(path, "never durable\n");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_FALSE(FileExists(path));
}

TEST(DurableFaultTest, RenameFailureSurfacesAsIOError) {
  std::string path = TempPath("durable_rename.txt");
  std::remove(path.c_str());
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableRenameFailure, 1);
  Status st = AtomicWriteFile(path, "never published\n");
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_FALSE(FileExists(path));
}

TEST(DurableFaultTest, TransientWriteFaultIsRetriedToSuccess) {
  std::string path = TempPath("durable_retry_write.txt");
  std::remove(path.c_str());
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableShortWrite, 2);  // first two attempts fail
  RetryOptions retry;
  retry.max_attempts = 3;
  std::vector<double> slept;
  retry.sleep = [&](double s) { slept.push_back(s); };
  ASSERT_TRUE(AtomicWriteFile(path, "third time lucky\n", retry).ok());
  EXPECT_EQ(Slurp(path), "third time lucky\n");
  EXPECT_EQ(slept.size(), 2u);  // one backoff per failed attempt
  std::remove(path.c_str());
}

TEST(DurableFaultTest, ChecksumCorruptionIsCaughtOnRead) {
  std::string path = TempPath("durable_cksum.art");
  FaultInjector injector(11);
  ScopedFaultInjector scoped(&injector);
  injector.Arm(FaultSite::kDurableChecksumCorruption, 1);
  ASSERT_TRUE(WriteArtifact(path, "demo", 1, "payload line\n").ok());
  auto loaded = ReadArtifact(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

// --- Deterministic retry schedule ---

TEST(RetryBackoffTest, EqualSeedsGiveEqualSchedules) {
  RetryOptions options;
  options.base_delay_seconds = 0.01;
  options.multiplier = 2.0;
  options.jitter_fraction = 0.25;
  options.seed = 99;
  RetryBackoff a(options);
  RetryBackoff b(options);
  double expected_base = options.base_delay_seconds;
  for (int i = 0; i < 6; ++i) {
    double da = a.NextDelaySeconds();
    double db = b.NextDelaySeconds();
    EXPECT_EQ(da, db);  // bit-identical, not merely close
    // Jitter stays inside the documented band around base * multiplier^i.
    EXPECT_GE(da, expected_base * 0.75 * (1 - 1e-12));
    EXPECT_LE(da, expected_base * 1.25 * (1 + 1e-12));
    expected_base *= options.multiplier;
  }
  options.seed = 100;
  RetryBackoff c(options);
  options.seed = 99;
  RetryBackoff reference(options);
  bool any_different = false;
  for (int i = 0; i < 6; ++i) {
    if (c.NextDelaySeconds() != reference.NextDelaySeconds()) {
      any_different = true;
    }
  }
  EXPECT_TRUE(any_different);  // different seed, different jitter stream
}

TEST(RetryTransientIOTest, OnlyIOErrorIsRetried) {
  RetryOptions retry;
  retry.max_attempts = 5;
  retry.sleep = [](double) {};
  int calls = 0;
  Status st = RetryTransientIO(retry, [&]() {
    ++calls;
    return Status::InvalidArgument("not transient");
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);

  calls = 0;
  st = RetryTransientIO(retry, [&]() {
    ++calls;
    return Status::Corruption("sticky by definition");
  });
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(calls, 1);

  calls = 0;
  st = RetryTransientIO(retry, [&]() -> Status {
    ++calls;
    if (calls < 3) return Status::IOError("flaky");
    return Status::OK();
  });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(calls, 3);
}

TEST(RetryTransientIOTest, ExhaustedBudgetReturnsLastError) {
  RetryOptions retry;
  retry.max_attempts = 3;
  std::vector<double> slept;
  retry.sleep = [&](double s) { slept.push_back(s); };
  int calls = 0;
  Status st = RetryTransientIO(retry, [&]() {
    ++calls;
    return Status::IOError("always down");
  });
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(slept.size(), 2u);  // no sleep after the final failure
}

// --- Checksummed envelope ---

TEST(ArtifactTest, RoundTripPreservesPayloadAndIdentity) {
  std::string path = TempPath("artifact_roundtrip.art");
  const std::string payload = "row 1\nrow 2\nrow 3\n";
  ASSERT_TRUE(WriteArtifact(path, "demo", 3, payload).ok());
  ArtifactInfo info;
  ArtifactReadOptions options;
  options.expected_format = "demo";
  auto loaded = ReadArtifact(path, options, &info);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, payload);
  EXPECT_EQ(info.format, "demo");
  EXPECT_EQ(info.version, 3);
  EXPECT_TRUE(info.enveloped);
  std::remove(path.c_str());
}

TEST(ArtifactTest, MissingTrailingNewlineIsAdded) {
  std::string path = TempPath("artifact_newline.art");
  ASSERT_TRUE(WriteArtifact(path, "demo", 1, "no newline").ok());
  auto loaded = ReadArtifact(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "no newline\n");
  std::remove(path.c_str());
}

TEST(ArtifactTest, FormatMustBeSingleWord) {
  EXPECT_EQ(WriteArtifact(TempPath("x"), "two words", 1, "p\n").code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(WriteArtifact(TempPath("x"), "", 1, "p\n").code(),
            StatusCode::kInvalidArgument);
}

TEST(ArtifactTest, ForeignFilePassthroughUnlessEnvelopeRequired) {
  std::string path = TempPath("artifact_foreign.txt");
  ASSERT_TRUE(AtomicWriteFile(path, "# hand-authored fixture\n1 2 3\n").ok());
  ArtifactInfo info;
  auto loaded = ReadArtifact(path, {}, &info);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(*loaded, "# hand-authored fixture\n1 2 3\n");
  EXPECT_FALSE(info.enveloped);

  ArtifactReadOptions strict;
  strict.require_envelope = true;
  auto rejected = ReadArtifact(path, strict);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(ArtifactTest, WrongFormatIsAUsageErrorNotCorruption) {
  std::string path = TempPath("artifact_wrongfmt.art");
  ASSERT_TRUE(WriteArtifact(path, "demo", 1, "p\n").ok());
  ArtifactReadOptions options;
  options.expected_format = "other";
  auto loaded = ReadArtifact(path, options);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ArtifactTest, MissingFileIsIOError) {
  auto loaded = ReadArtifact(TempPath("artifact_never_written.art"));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

// The tentpole guarantee: EVERY single-byte flip of a saved artifact —
// header, payload, footer, markers, newlines — must surface as Corruption.
// The envelope is marked at both ends precisely so one flipped byte cannot
// hide both markers at once.
TEST(ArtifactTest, EverysingleByteFlipIsDetectedAsCorruption) {
  std::string path = TempPath("artifact_flip.art");
  ASSERT_TRUE(
      WriteArtifact(path, "demo", 1, "0 1 0.5\n1 2 0.25\nfinal-row\n").ok());
  auto original = ReadFileBytes(path);
  ASSERT_TRUE(original.ok());
  std::string mutated_path = TempPath("artifact_flip_mutated.art");
  for (size_t offset = 0; offset < original->size(); ++offset) {
    for (unsigned char mask : {0x01, 0x20, 0x80}) {
      std::string mutated = *original;
      mutated[offset] = static_cast<char>(mutated[offset] ^ mask);
      ASSERT_TRUE(AtomicWriteFile(mutated_path, mutated).ok());
      auto loaded = ReadArtifact(mutated_path);
      ASSERT_FALSE(loaded.ok())
          << "flip at offset " << offset << " mask " << int(mask)
          << " was not detected";
      EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
          << "flip at offset " << offset << " mask " << int(mask) << ": "
          << loaded.status().ToString();
    }
  }
  std::remove(path.c_str());
  std::remove(mutated_path.c_str());
}

// Every truncation that removes artifact bytes must be caught. (Removing
// only the final newline leaves the checksummed content fully intact and is
// legitimately accepted, so the loop stops one byte short of that.)
TEST(ArtifactTest, TruncationIsDetectedAsCorruption) {
  std::string path = TempPath("artifact_trunc.art");
  ASSERT_TRUE(WriteArtifact(path, "demo", 1, "0 1 0.5\n1 2 0.25\n").ok());
  auto original = ReadFileBytes(path);
  ASSERT_TRUE(original.ok());
  std::string truncated_path = TempPath("artifact_trunc_cut.art");
  ArtifactReadOptions strict;
  strict.require_envelope = true;  // the checkpoint-loader configuration
  for (size_t keep = 0; keep + 1 < original->size(); ++keep) {
    ASSERT_TRUE(
        AtomicWriteFile(truncated_path, original->substr(0, keep)).ok());
    auto loaded = ReadArtifact(truncated_path, strict);
    ASSERT_FALSE(loaded.ok()) << "truncation to " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << "truncation to " << keep
        << " bytes: " << loaded.status().ToString();
  }
  std::remove(path.c_str());
  std::remove(truncated_path.c_str());
}

}  // namespace
}  // namespace roadpart
