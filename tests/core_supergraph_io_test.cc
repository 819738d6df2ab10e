#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.h"
#include "core/supergraph_io.h"
#include "core/supergraph_miner.h"
#include "netgen/grid_generator.h"
#include "network/road_graph.h"
#include "traffic/congestion_field.h"

namespace roadpart {
namespace {

Supergraph MineOne(uint64_t seed, int side = 8) {
  GridOptions grid;
  grid.rows = side;
  grid.cols = side;
  grid.seed = seed;
  RoadNetwork net = GenerateGridNetwork(grid).value();
  CongestionFieldOptions field_opt;
  field_opt.num_hotspots = 3;
  field_opt.voronoi_tiling = true;
  field_opt.seed = seed + 9;
  CongestionField field(net, field_opt);
  (void)net.SetDensities(field.Densities());
  RoadGraph rg = RoadGraph::FromNetwork(net);
  SupergraphMinerOptions options;
  options.min_supernodes = 10;
  return MineSupergraph(rg, options).value();
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

TEST(SupergraphIoTest, RoundTripIsBitExact) {
  for (int side : {8, 12}) {
    Supergraph sg = MineOne(3, side);
    std::string path = testing::TempDir() + "/sg_roundtrip.txt";
    ASSERT_TRUE(SaveSupergraph(sg, path).ok());
    auto loaded = LoadSupergraph(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    EXPECT_EQ(loaded->num_supernodes(), sg.num_supernodes());
    EXPECT_EQ(loaded->num_road_nodes(), sg.num_road_nodes());
    for (int s = 0; s < sg.num_supernodes(); ++s) {
      EXPECT_EQ(loaded->supernode(s).members, sg.supernode(s).members);
      EXPECT_TRUE(
          BitEqual(loaded->supernode(s).feature, sg.supernode(s).feature))
          << "side " << side << " supernode " << s;
    }
    EXPECT_EQ(loaded->links().offsets(), sg.links().offsets());
    EXPECT_EQ(loaded->links().neighbors(), sg.links().neighbors());
    const std::vector<double>& weights = sg.links().weights();
    ASSERT_EQ(loaded->links().weights().size(), weights.size());
    EXPECT_EQ(std::memcmp(loaded->links().weights().data(), weights.data(),
                          weights.size() * sizeof(double)),
              0)
        << "side " << side;
    std::remove(path.c_str());
  }
}

// The file and the mining checkpoint share one codec: the file's payload is
// the checkpoint's supergraph block, byte for byte.
TEST(SupergraphIoTest, FilePayloadIsTheCheckpointBlock) {
  Supergraph sg = MineOne(5);
  std::string path = testing::TempDir() + "/sg_block.txt";
  ASSERT_TRUE(SaveSupergraph(sg, path).ok());
  ArtifactInfo info;
  auto payload = ReadArtifact(path, {}, &info);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(info.format, "supergraph");
  EXPECT_EQ(info.version, 2);
  MiningCheckpoint mining;
  mining.num_supernodes = sg.num_supernodes();
  mining.supergraph = sg;
  const std::string checkpoint = EncodeMiningCheckpoint(mining);
  const size_t block = checkpoint.find("supergraph ");
  ASSERT_NE(block, std::string::npos);
  EXPECT_EQ(checkpoint.substr(block), *payload);
  std::remove(path.c_str());
}

TEST(SupergraphIoTest, NodeMappingSurvives) {
  Supergraph sg = MineOne(5);
  std::string path = testing::TempDir() + "/sg_mapping.txt";
  ASSERT_TRUE(SaveSupergraph(sg, path).ok());
  Supergraph loaded = LoadSupergraph(path).value();
  for (int v = 0; v < sg.num_road_nodes(); ++v) {
    EXPECT_EQ(loaded.SupernodeOf(v), sg.SupernodeOf(v));
  }
  std::remove(path.c_str());
}

TEST(SupergraphIoTest, RejectsCorruptFilesAsCorruption) {
  const std::string half = "3fe0000000000000";
  const std::string three_quarters = "3fe8000000000000";
  const std::string no_links = "links 1\noffsets 2 0 0\nneighbors 0\n"
                               "weights 0\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"truncated supernodes", "supergraph 4 2\nsn " + half + " 2 0 1\n"},
      {"member out of range",
       "supergraph 2 1\nsn " + half + " 2 0 7\n" + no_links},
      {"overlapping members",
       "supergraph 3 2\nsn " + half + " 2 0 1\nsn " + three_quarters +
           " 1 1\nlinks 2\noffsets 3 0 1 2\nneighbors 2 1 0\n"
           "weights 2 " + half + " " + half + "\n"},
      {"garbage header", "whatever\n"},
      {"version-1 syntax", "G 2 1\n0.5 -1\n"},
      {"negative supernode count", "supergraph 2 -1\n"},
      {"negative road-node count", "supergraph -2 1\n"},
      {"negative member count", "supergraph 2 1\nsn " + half + " -1\n"},
      // Huge counts must fail on the lines that are missing, before any
      // allocation sized by the count.
      {"huge supernode count",
       "supergraph 2 2000000000\nsn " + half + " 2 0 1\n" + no_links},
      {"huge road-node count",
       "supergraph 2000000000 1\nsn " + half + " 2 0 1\n" + no_links},
      {"huge member count",
       "supergraph 2 1\nsn " + half + " 2000000000 0 1\n" + no_links},
      {"one-way superlink",
       "supergraph 2 2\nsn " + half + " 1 0\nsn " + half +
           " 1 1\nlinks 2\noffsets 3 0 1 1\nneighbors 1 1\n"
           "weights 1 " + half + "\n"},
      {"trailing line", "supergraph 2 1\nsn " + half + " 2 0 1\n" +
                            no_links + "junk\n"},
  };
  const std::string path = testing::TempDir() + "/sg_bad.txt";
  for (const auto& [name, content] : cases) {
    {
      std::ofstream out(path);
      out << content;
    }
    auto loaded = LoadSupergraph(path);
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption)
        << name << ": " << loaded.status().ToString();
  }
  // The same well-formed block loads (the cases above differ only in what
  // they break).
  {
    std::ofstream out(path);
    out << "supergraph 2 1\nsn " << half << " 2 0 1\n" << no_links;
  }
  auto good = LoadSupergraph(path);
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good->num_supernodes(), 1);
  std::remove(path.c_str());
  EXPECT_EQ(LoadSupergraph("/no/such/sg.txt").status().code(),
            StatusCode::kIOError);
}

TEST(SupergraphIoTest, VersionOneEnvelopeIsRefused) {
  const std::string path = testing::TempDir() + "/sg_v1.txt";
  ASSERT_TRUE(WriteArtifact(path, "supergraph", 1,
                            "# supergraph v1\nG 2 1\n0.5 2 0 1\nL 0\n")
                  .ok());
  auto loaded = LoadSupergraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
  EXPECT_NE(loaded.status().ToString().find("version 1"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace roadpart
