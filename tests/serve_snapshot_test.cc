// Corruption and robustness suite for the rpsnap serving snapshot:
//  - building is byte-identical for every thread count, and a disk
//    round-trip through the durable_io envelope reproduces the buffer
//    exactly;
//  - flipping EVERY byte of a saved rpsnap file, and truncating it at any
//    depth, yields typed kCorruption from Snapshot::Load — never OK, never
//    a crash, never a silently different snapshot;
//  - section-level tampering with a *recomputed* section checksum is still
//    rejected by FromBuffer's structural validators (CSR bounds and
//    monotonicity, home ends within their cell, endpoint / grid-entry /
//    label id ranges), so validation does not lean on the checksum alone;
//  - every grid cell of a built snapshot lists exactly its midpoint-home
//    segments first, then the rest, each run in ascending id;
//  - the rpsnap03 bytes of a fixed network are pinned by a golden hash, and
//    a buffer or file carrying an older rpsnap01/rpsnap02 magic is refused
//    as corruption naming the magic/version tag;
//  - the builder rejects label/segment mismatches, and empty / zero-area
//    networks round-trip as valid trivial snapshots (PR-4 regression
//    class).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "roadpart/roadpart.h"

namespace roadpart {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

Result<RoadNetwork> SmallGridNetwork() {
  GridOptions grid;
  grid.rows = 3;
  grid.cols = 3;
  grid.two_way_fraction = 1.0;
  grid.seed = 9;
  return GenerateGridNetwork(grid);
}

std::vector<int> AlternatingLabels(int num_segments, int k) {
  std::vector<int> labels(static_cast<size_t>(num_segments));
  for (int s = 0; s < num_segments; ++s) labels[static_cast<size_t>(s)] = s % k;
  return labels;
}

// rpsnap v3 layout constants, duplicated here on purpose: the test pins the
// on-disk format. If the layout changes, the format version must change too
// and this test must be updated deliberately (see DESIGN.md versioning
// rules).
constexpr size_t kHeaderSize = 168;
constexpr size_t kGridColsOffset = 40;
constexpr size_t kGridRowsOffset = 48;
constexpr size_t kNumGridEntriesOffset = 56;
constexpr size_t kSectionsFnvOffset = 104;

int64_t HeaderInt64(const Snapshot& snap, size_t offset) {
  int64_t value;
  std::memcpy(&value, snap.buffer().data() + offset, sizeof(value));
  return value;
}

size_t NumCells(const Snapshot& snap) {
  return size_t(HeaderInt64(snap, kGridColsOffset) *
                HeaderInt64(snap, kGridRowsOffset));
}

size_t OffsetOfEndpoints(const Snapshot& snap) {
  return kHeaderSize + size_t(snap.num_intersections()) * 16;
}

size_t OffsetOfGridHomeEnds(const Snapshot& snap) {
  return OffsetOfEndpoints(snap) + size_t(snap.num_segments()) * 8;
}

size_t OffsetOfGridStarts(const Snapshot& snap) {
  return OffsetOfGridHomeEnds(snap) + NumCells(snap) * 4;
}

size_t OffsetOfLabels(const Snapshot& snap) {
  return snap.buffer().size() - 1 - size_t(snap.num_segments()) * 4;
}

size_t OffsetOfGridEntries(const Snapshot& snap) {
  return OffsetOfLabels(snap) -
         size_t(HeaderInt64(snap, kNumGridEntriesOffset)) * 4;
}

// `count` int32 values of the section at `offset`.
std::vector<int32_t> Section(const Snapshot& snap, size_t offset,
                             size_t count) {
  std::vector<int32_t> values(count);
  std::memcpy(values.data(), snap.buffer().data() + offset, count * 4);
  return values;
}

// Rewrites the stored section checksum to match the (tampered) section
// bytes, so FromBuffer's structural validators — not the checksum — must
// catch the damage.
void RecomputeSectionsFnv(std::string* buffer) {
  const uint64_t fnv =
      Fnv1a64(buffer->data() + kHeaderSize, buffer->size() - kHeaderSize - 1);
  std::memcpy(&(*buffer)[kSectionsFnvOffset], &fnv, sizeof(fnv));
}

TEST(ServeSnapshotTest, BuildIsByteIdenticalAcrossThreadCounts) {
  auto net = SmallGridNetwork();
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::vector<int> labels = AlternatingLabels(net->num_segments(), 3);
  std::string reference;
  for (int threads : {1, 4, 8}) {
    ScopedParallelism scope(threads);
    auto snap = Snapshot::Build(*net, labels);
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    if (reference.empty()) {
      reference = snap->buffer();
    } else {
      EXPECT_EQ(snap->buffer(), reference) << "threads=" << threads;
    }
  }
  ASSERT_FALSE(reference.empty());
}

TEST(ServeSnapshotTest, DiskRoundTripIsByteIdentical) {
  auto net = SmallGridNetwork();
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const std::vector<int> labels = AlternatingLabels(net->num_segments(), 3);
  auto snap = Snapshot::Build(*net, labels);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  const std::string path = TempPath("roundtrip.rpsnap");
  ASSERT_TRUE(snap->Save(path).ok());
  auto loaded = Snapshot::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->buffer(), snap->buffer());
  EXPECT_EQ(loaded->num_segments(), net->num_segments());
  EXPECT_EQ(loaded->num_partitions(), 3);
  EXPECT_EQ(loaded->source_fingerprint(),
            ComputeSnapshotFingerprint(*net, labels));

  // Saving twice produces byte-identical files (atomic writer, no
  // timestamps or nondeterminism in the format).
  const std::string path2 = TempPath("roundtrip2.rpsnap");
  ASSERT_TRUE(snap->Save(path2).ok());
  auto bytes1 = ReadFileBytes(path);
  auto bytes2 = ReadFileBytes(path2);
  ASSERT_TRUE(bytes1.ok() && bytes2.ok());
  EXPECT_EQ(*bytes1, *bytes2);
  std::remove(path.c_str());
  std::remove(path2.c_str());
}

TEST(ServeSnapshotTest, EveryByteFlipYieldsTypedCorruption) {
  auto net = SmallGridNetwork();
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  auto snap = Snapshot::Build(*net, AlternatingLabels(net->num_segments(), 2));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const std::string path = TempPath("flip.rpsnap");
  ASSERT_TRUE(snap->Save(path).ok());
  auto original = ReadFileBytes(path);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  // Every byte, not a sample: the double-ended envelope plus the rpsnap
  // header/section validators must leave no undetectable single-byte flip.
  for (size_t offset = 0; offset < original->size(); ++offset) {
    std::string mutated = *original;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x5A);
    ASSERT_TRUE(AtomicWriteFile(path, mutated).ok());
    Status st = Snapshot::Load(path).status();
    ASSERT_FALSE(st.ok()) << "flip at offset " << offset << " loaded OK";
    ASSERT_EQ(st.code(), StatusCode::kCorruption)
        << "flip at offset " << offset << ": " << st.ToString();
  }
  std::remove(path.c_str());
}

TEST(ServeSnapshotTest, TruncationAtAnyDepthYieldsTypedCorruption) {
  auto net = SmallGridNetwork();
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  auto snap = Snapshot::Build(*net, AlternatingLabels(net->num_segments(), 2));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const std::string path = TempPath("trunc.rpsnap");
  ASSERT_TRUE(snap->Save(path).ok());
  auto original = ReadFileBytes(path);
  ASSERT_TRUE(original.ok());

  // Removing only the final newline leaves the checksummed envelope fully
  // intact and is legitimately accepted (same tolerance the durable_io
  // truncation suite documents), so the deepest cut here is n - 2.
  const size_t n = original->size();
  for (size_t keep : {n - 2, n - 7, 3 * n / 4, n / 2, n / 4, kHeaderSize,
                      size_t{64}, size_t{1}, size_t{0}}) {
    ASSERT_TRUE(AtomicWriteFile(path, original->substr(0, keep)).ok());
    Status st = Snapshot::Load(path).status();
    ASSERT_FALSE(st.ok()) << "truncation to " << keep << " bytes loaded OK";
    ASSERT_EQ(st.code(), StatusCode::kCorruption)
        << "truncation to " << keep << ": " << st.ToString();
  }
  std::remove(path.c_str());
}

TEST(ServeSnapshotTest, StructuralValidatorsCatchTamperingBehindValidFnv) {
  auto net = SmallGridNetwork();
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  auto built = Snapshot::Build(*net, AlternatingLabels(net->num_segments(), 2));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const Snapshot& snap = *built;
  const int32_t ns = snap.num_segments();
  const int32_t ni = snap.num_intersections();
  ASSERT_GT(ns, 1);

  // `validator` names the check that must fire: the tampering is caught
  // where it was aimed, not by an earlier gate.
  auto tamper_int32 = [&](size_t offset, int32_t value, const char* what,
                          const char* validator) {
    std::string buffer = snap.buffer();
    std::memcpy(&buffer[offset], &value, sizeof(value));
    RecomputeSectionsFnv(&buffer);
    Status st = Snapshot::FromBuffer(std::move(buffer)).status();
    ASSERT_FALSE(st.ok()) << what << " accepted";
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << what << ": "
                                                  << st.ToString();
    EXPECT_NE(st.message().find(validator), std::string::npos)
        << what << ": " << st.ToString();
  };
  // endpoints[0] out of range.
  tamper_int32(OffsetOfEndpoints(snap), ni, "endpoint id out of range",
               "segment endpoint ids");
  // grid starts must begin at 0.
  tamper_int32(OffsetOfGridStarts(snap), 1, "grid CSR start",
               "grid CSR bounds");
  // grid starts must not decrease: starts[1] above starts[2].
  int32_t start2;
  std::memcpy(&start2, snap.buffer().data() + OffsetOfGridStarts(snap) + 8, 4);
  tamper_int32(OffsetOfGridStarts(snap) + 4, start2 + 1,
               "non-monotone grid starts", "grid CSR monotonicity");
  // A grid entry naming a segment that does not exist.
  tamper_int32(OffsetOfGridEntries(snap), ns, "grid entry id out of range",
               "grid entry segment ids");
  // A label outside [0, num_partitions).
  tamper_int32(OffsetOfLabels(snap), -1, "negative partition label",
               "partition labels");
  // A home end outside its cell's CSR range, below and above it.
  const size_t cells = NumCells(snap);
  const std::vector<int32_t> starts =
      Section(snap, OffsetOfGridStarts(snap), cells + 1);
  tamper_int32(OffsetOfGridHomeEnds(snap), starts[0] - 1,
               "home end before its cell", "grid home ends");
  tamper_int32(OffsetOfGridHomeEnds(snap) + (cells - 1) * 4,
               starts[cells] + 1, "home end past its cell", "grid home ends");

  // Without the recomputed checksum, the same tampering dies earlier at the
  // section-checksum gate — also as Corruption.
  std::string buffer = snap.buffer();
  const int32_t bad = ns;
  std::memcpy(&buffer[OffsetOfGridEntries(snap)], &bad, sizeof(bad));
  Status st = Snapshot::FromBuffer(std::move(buffer)).status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();
}

TEST(ServeSnapshotTest, GridCellsListTheirHomeSegmentsFirst) {
  // The range count scans only each cell's home prefix, so the prefix must
  // be exactly the segments whose midpoint lies in the cell, and every
  // registered segment must sit in its cell's prefix or rest.
  CityOptions city;
  city.num_intersections = 300;
  city.target_segments = 520;
  city.seed = 41;
  auto city_net = GenerateCityNetwork(city);
  ASSERT_TRUE(city_net.ok()) << city_net.status().ToString();
  auto grid_net = SmallGridNetwork();
  ASSERT_TRUE(grid_net.ok()) << grid_net.status().ToString();
  for (const RoadNetwork* net : {&*city_net, &*grid_net}) {
    auto snap = Snapshot::Build(*net, AlternatingLabels(net->num_segments(), 3));
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    const GridSpec spec =
        ChooseGridSpec(net->Bounds(), net->num_segments(), 4.0);
    const size_t cells = NumCells(*snap);
    ASSERT_EQ(cells, size_t(spec.NumCells()));
    const std::vector<int32_t> starts =
        Section(*snap, OffsetOfGridStarts(*snap), cells + 1);
    const std::vector<int32_t> home_ends =
        Section(*snap, OffsetOfGridHomeEnds(*snap), cells);
    const std::vector<int32_t> entries =
        Section(*snap, OffsetOfGridEntries(*snap), size_t(starts[cells]));

    // The expected runs, from the geometry alone.
    std::vector<std::vector<int32_t>> home(cells);
    std::vector<std::vector<int32_t>> rest(cells);
    for (int32_t s = 0; s < net->num_segments(); ++s) {
      const Point a = net->intersection(net->segment(s).from).position;
      const Point b = net->intersection(net->segment(s).to).position;
      const Point m = SegmentMidpoint(*net, s);
      const size_t home_cell =
          size_t(spec.RowOf(m.y)) * spec.cols + spec.ColOf(m.x);
      for (int32_t r = spec.RowOf(std::min(a.y, b.y));
           r <= spec.RowOf(std::max(a.y, b.y)); ++r) {
        for (int32_t c = spec.ColOf(std::min(a.x, b.x));
             c <= spec.ColOf(std::max(a.x, b.x)); ++c) {
          const size_t cell = size_t(r) * spec.cols + c;
          (cell == home_cell ? home : rest)[cell].push_back(s);
        }
      }
    }
    int homed = 0;
    for (size_t c = 0; c < cells; ++c) {
      ASSERT_LE(starts[c], home_ends[c]) << "cell " << c;
      ASSERT_LE(home_ends[c], starts[c + 1]) << "cell " << c;
      const std::vector<int32_t> got_home(entries.begin() + starts[c],
                                          entries.begin() + home_ends[c]);
      const std::vector<int32_t> got_rest(entries.begin() + home_ends[c],
                                          entries.begin() + starts[c + 1]);
      EXPECT_EQ(got_home, home[c]) << "cell " << c;
      EXPECT_EQ(got_rest, rest[c]) << "cell " << c;
      EXPECT_TRUE(std::is_sorted(got_home.begin(), got_home.end()));
      EXPECT_TRUE(std::is_sorted(got_rest.begin(), got_rest.end()));
      homed += static_cast<int>(got_home.size());
    }
    // Every segment is a home entry of exactly one cell.
    EXPECT_EQ(homed, net->num_segments());
  }
}

TEST(ServeSnapshotTest, GoldenBytesPinRpsnap03AndOlderVersionsAreRefused) {
  auto net = SmallGridNetwork();
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  auto snap = Snapshot::Build(*net, AlternatingLabels(net->num_segments(), 2));
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  const std::string& buffer = snap->buffer();
  EXPECT_EQ(buffer.substr(0, 8), "rpsnap03");
  // Any change here is a format change: bump the magic, then re-pin.
  EXPECT_EQ(Uint64ToHex(Fnv1a64(buffer)), "dc626ce326f4210a");

  // A v1-shaped buffer: the rpsnap01 magic in front of a 192-byte header
  // (v1 also stored max_x/max_y and the KD section offset).
  std::string v1 = buffer;
  v1.insert(kHeaderSize, 192 - kHeaderSize, '\0');
  std::memcpy(&v1[0], "rpsnap01", 8);
  // A v2-shaped buffer: the same 168-byte header, with a midpoints section
  // where v3 keeps the home ends.
  std::string v2 = buffer;
  v2.insert(OffsetOfGridHomeEnds(*snap),
            size_t(snap->num_segments()) * 16 - NumCells(*snap) * 4, '\0');
  std::memcpy(&v2[0], "rpsnap02", 8);
  for (const auto& [old_buffer, version] : {std::pair{v1, 1}, {v2, 2}}) {
    SCOPED_TRACE(version);
    Status st = Snapshot::FromBuffer(old_buffer).status();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find("magic/version tag"), std::string::npos)
        << st.ToString();

    // The same bytes in a valid envelope of their version, as an old Save
    // wrote them: the envelope verifies, the payload does not.
    const std::string path = TempPath("old.rpsnap");
    ASSERT_TRUE(WriteArtifact(path, "rpsnap", version, old_buffer).ok());
    st = Snapshot::Load(path).status();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
    EXPECT_NE(st.message().find("magic/version tag"), std::string::npos)
        << st.ToString();
    std::remove(path.c_str());
  }
}

TEST(ServeSnapshotTest, FromBufferRejectsGarbage) {
  for (const std::string& garbage :
       {std::string(), std::string("rpsnap01"), std::string(300, '\0'),
        std::string(4096, 'x')}) {
    Status st = Snapshot::FromBuffer(garbage).status();
    ASSERT_FALSE(st.ok());
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
  }
}

TEST(ServeSnapshotTest, BuilderRejectsLabelSegmentMismatch) {
  auto net = SmallGridNetwork();
  ASSERT_TRUE(net.ok()) << net.status().ToString();
  const int ns = net->num_segments();

  Status too_few = Snapshot::Build(*net, std::vector<int>(ns - 1, 0)).status();
  EXPECT_EQ(too_few.code(), StatusCode::kInvalidArgument);
  Status too_many = Snapshot::Build(*net, std::vector<int>(ns + 1, 0)).status();
  EXPECT_EQ(too_many.code(), StatusCode::kInvalidArgument);
  std::vector<int> negative(static_cast<size_t>(ns), 0);
  negative[1] = -3;
  Status bad_label = Snapshot::Build(*net, negative).status();
  EXPECT_EQ(bad_label.code(), StatusCode::kInvalidArgument);
}

TEST(ServeSnapshotTest, EmptyAndZeroAreaNetworksRoundTripThroughDisk) {
  // PR-4 regression class: degenerate networks must produce valid trivial
  // snapshots end to end (build -> save -> load -> query), not UB.
  auto empty = RoadNetwork::Create({}, {});
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();
  auto empty_snap = Snapshot::Build(*empty, {});
  ASSERT_TRUE(empty_snap.ok()) << empty_snap.status().ToString();
  const std::string empty_path = TempPath("empty.rpsnap");
  ASSERT_TRUE(empty_snap->Save(empty_path).ok());
  auto empty_loaded = Snapshot::Load(empty_path);
  ASSERT_TRUE(empty_loaded.ok()) << empty_loaded.status().ToString();
  EXPECT_EQ(empty_loaded->buffer(), empty_snap->buffer());
  EXPECT_EQ(empty_loaded->NearestSegment({0.0, 0.0}).segment_id, -1);
  std::remove(empty_path.c_str());

  std::vector<Intersection> nodes = {{{5.0, -1.0}}, {{5.0, -1.0}}};
  std::vector<RoadSegment> segs = {{0, 1, 2.0, 0.4}, {1, 0, 2.0, 0.4}};
  auto zero_area = RoadNetwork::Create(nodes, segs);
  ASSERT_TRUE(zero_area.ok()) << zero_area.status().ToString();
  auto zero_snap = Snapshot::Build(*zero_area, {1, 0});
  ASSERT_TRUE(zero_snap.ok()) << zero_snap.status().ToString();
  const std::string zero_path = TempPath("zero_area.rpsnap");
  ASSERT_TRUE(zero_snap->Save(zero_path).ok());
  auto zero_loaded = Snapshot::Load(zero_path);
  ASSERT_TRUE(zero_loaded.ok()) << zero_loaded.status().ToString();
  EXPECT_EQ(zero_loaded->buffer(), zero_snap->buffer());
  const PointAnswer a = zero_loaded->NearestSegment({100.0, 100.0});
  EXPECT_EQ(a.segment_id, 0);  // exact tie between the two -> smallest id
  EXPECT_EQ(a.partition_id, 1);
  std::remove(zero_path.c_str());
}

TEST(ServeSnapshotTest, WrongArtifactFormatIsAUsageErrorNotCorruption) {
  const std::string path = TempPath("not_a_snapshot.artifact");
  ASSERT_TRUE(WriteArtifact(path, "supergraph", 1, "payload\n").ok());
  Status st = Snapshot::Load(path).status();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << st.ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace roadpart
