#include "ckpt/snapshot.h"

#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/binary_io.h"
#include "graph/weighted_graph.h"
#include "util/crc32.h"
#include "util/tsv.h"

namespace shoal::ckpt {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string("shoal_snapshot_test_") +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

graph::WeightedGraph SampleGraph() {
  graph::WeightedGraph graph(5);
  EXPECT_TRUE(graph.AddEdge(0, 1, 0.9).ok());
  EXPECT_TRUE(graph.AddEdge(1, 2, 0.50000001).ok());
  EXPECT_TRUE(graph.AddEdge(2, 3, 0.1).ok());
  EXPECT_TRUE(graph.AddEdge(0, 4, 1.0 / 3.0).ok());
  return graph;
}

TEST_F(SnapshotTest, BinaryIoRoundTrip) {
  BinaryWriter writer;
  writer.WriteU8(7);
  writer.WriteU32(0xdeadbeef);
  writer.WriteU64(0x0123456789abcdefull);
  writer.WriteF64(-0.1);
  writer.WriteString("snapshot");
  BinaryReader reader(writer.data());
  EXPECT_EQ(reader.ReadU8().value(), 7);
  EXPECT_EQ(reader.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(reader.ReadU64().value(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.ReadF64().value(), -0.1);
  EXPECT_EQ(reader.ReadString().value(), "snapshot");
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(reader.ReadU8().status().code(), util::StatusCode::kOutOfRange);
}

// The wire format byte for byte: a writer that changed byte order,
// width or padding would still round-trip through its own reader, so
// pin the bytes themselves.
TEST_F(SnapshotTest, BinaryWriterEmitsLittleEndianBytes) {
  const auto bytes = [](const BinaryWriter& writer) {
    return std::vector<uint8_t>(writer.data().begin(), writer.data().end());
  };
  BinaryWriter u32;
  u32.WriteU32(0xdeadbeef);
  EXPECT_EQ(bytes(u32), (std::vector<uint8_t>{0xef, 0xbe, 0xad, 0xde}));

  BinaryWriter u64;
  u64.WriteU64(0x0123456789abcdefull);
  EXPECT_EQ(bytes(u64), (std::vector<uint8_t>{0xef, 0xcd, 0xab, 0x89, 0x67,
                                              0x45, 0x23, 0x01}));

  // -0.1 is IEEE-754 binary64 0xBFB999999999999A.
  BinaryWriter f64;
  f64.WriteF64(-0.1);
  EXPECT_EQ(bytes(f64), (std::vector<uint8_t>{0x9a, 0x99, 0x99, 0x99, 0x99,
                                              0x99, 0xb9, 0xbf}));

  BinaryWriter str;
  str.Reserve(64);
  str.WriteU8(7);
  str.WriteString("ab");
  EXPECT_EQ(bytes(str), (std::vector<uint8_t>{7, 2, 0, 0, 0, 0, 0, 0, 0,
                                              'a', 'b'}));
}

TEST_F(SnapshotTest, EntityGraphRoundTrip) {
  graph::WeightedGraph graph = SampleGraph();
  const std::string payload = EncodeEntityGraph(graph);
  auto restored = DecodeEntityGraph(payload);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_vertices(), graph.num_vertices());
  EXPECT_EQ(restored->num_edges(), graph.num_edges());
  for (const auto& e : graph.AllEdges()) {
    EXPECT_EQ(restored->EdgeWeight(e.u, e.v), e.weight);
  }
  // Bit-exact re-encode: restoring and re-serializing is a fixpoint.
  EXPECT_EQ(EncodeEntityGraph(*restored), payload);
}

TEST_F(SnapshotTest, FileRoundTrip) {
  const std::string payload = EncodeEntityGraph(SampleGraph());
  const std::string path = Path("eg.snap");
  ASSERT_TRUE(
      WriteSnapshotFile(path, SnapshotKind::kEntityGraph, payload).ok());
  auto file = ReadSnapshotFile(path, SnapshotKind::kEntityGraph);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(*file, payload);
}

TEST_F(SnapshotTest, MissingFileIsCleanError) {
  auto file =
      ReadSnapshotFile(Path("nope.snap"), SnapshotKind::kEntityGraph);
  EXPECT_FALSE(file.ok());
}

TEST_F(SnapshotTest, RejectsWrongMagic) {
  const std::string path = Path("bad.snap");
  ASSERT_TRUE(util::WriteTextFile(path, "NOTASNAPxxxxxxxxxxxx").ok());
  auto file = ReadSnapshotFile(path, SnapshotKind::kEntityGraph);
  EXPECT_EQ(file.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, RejectsVersionSkew) {
  const std::string payload = EncodeEntityGraph(SampleGraph());
  const std::string path = Path("v.snap");
  ASSERT_TRUE(
      WriteSnapshotFile(path, SnapshotKind::kEntityGraph, payload).ok());
  auto bytes = util::ReadTextFile(path);
  ASSERT_TRUE(bytes.ok());
  std::string tampered = bytes.value();
  tampered[8] = static_cast<char>(kSnapshotVersion + 1);  // version field
  ASSERT_TRUE(util::WriteTextFile(path, tampered).ok());
  auto file = ReadSnapshotFile(path, SnapshotKind::kEntityGraph);
  ASSERT_FALSE(file.ok());
  EXPECT_NE(file.status().message().find("version"), std::string::npos);
}

TEST_F(SnapshotTest, EveryTruncationFailsCleanly) {
  const std::string payload = EncodeEntityGraph(SampleGraph());
  const std::string path = Path("t.snap");
  ASSERT_TRUE(
      WriteSnapshotFile(path, SnapshotKind::kEntityGraph, payload).ok());
  auto bytes = util::ReadTextFile(path);
  ASSERT_TRUE(bytes.ok());
  const std::string& full = bytes.value();
  for (size_t len = 0; len < full.size(); ++len) {
    const std::string trunc_path = Path("trunc.snap");
    ASSERT_TRUE(util::WriteTextFile(trunc_path, full.substr(0, len)).ok());
    auto file = ReadSnapshotFile(trunc_path, SnapshotKind::kEntityGraph);
    ASSERT_FALSE(file.ok()) << "truncated to " << len << " bytes";
  }
}

// The entity graph is a build's only resume point: every single-bit
// flip anywhere in its file, header or payload, must fail the read. The
// CRC covers the payload; the header fields are checked one by one, and
// the kind flip 1 -> 3 (a well-framed daemon-window file) fails because
// the reader names the kind it expects.
TEST_F(SnapshotTest, EveryBitFlipInEntityGraphSnapshotIsDetected) {
  const std::string payload = EncodeEntityGraph(SampleGraph());
  const std::string path = Path("flip.snap");
  ASSERT_TRUE(
      WriteSnapshotFile(path, SnapshotKind::kEntityGraph, payload).ok());
  auto bytes = util::ReadTextFile(path);
  ASSERT_TRUE(bytes.ok());
  const std::string& full = bytes.value();
  for (size_t i = 0; i < full.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string tampered = full;
      tampered[i] = static_cast<char>(tampered[i] ^ (1 << bit));
      ASSERT_TRUE(util::WriteTextFile(path, tampered).ok());
      EXPECT_FALSE(ReadSnapshotFile(path, SnapshotKind::kEntityGraph).ok())
          << "byte " << i << " bit " << bit;
    }
  }
}

TEST_F(SnapshotTest, RejectsKindMismatch) {
  const std::string payload = EncodeEntityGraph(SampleGraph());
  const std::string path = Path("k.snap");
  // Written under the wrong kind tag: a reader expecting an entity
  // graph rejects the frame, and one expecting the claimed kind reads
  // it but cannot decode the payload as that kind.
  ASSERT_TRUE(
      WriteSnapshotFile(path, SnapshotKind::kDaemonWindow, payload).ok());
  auto as_graph = ReadSnapshotFile(path, SnapshotKind::kEntityGraph);
  ASSERT_FALSE(as_graph.ok());
  EXPECT_EQ(as_graph.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(as_graph.status().message().find(
                "holds a daemon_window snapshot, expected entity_graph"),
            std::string::npos)
      << as_graph.status().ToString();
  auto file = ReadSnapshotFile(path, SnapshotKind::kDaemonWindow);
  ASSERT_TRUE(file.ok());
  EXPECT_FALSE(DecodeDaemonWindow(*file).ok());
}

// Kind 2 once named mid-HAC cluster state. Nothing writes or reads it
// now, so a well-framed file of that kind is an unknown kind.
TEST_F(SnapshotTest, RejectsRetiredKind2) {
  const std::string path = Path("k2.snap");
  ASSERT_TRUE(WriteSnapshotFile(path, static_cast<SnapshotKind>(2),
                                EncodeEntityGraph(SampleGraph()))
                  .ok());
  auto file = ReadSnapshotFile(path, SnapshotKind::kEntityGraph);
  ASSERT_FALSE(file.ok());
  EXPECT_EQ(file.status().code(), util::StatusCode::kInvalidArgument);
  EXPECT_NE(file.status().message().find("unknown snapshot kind 2"),
            std::string::npos)
      << file.status().ToString();
}

DaemonWindowData SampleDaemonWindow() {
  DaemonWindowData data;
  data.alpha = 0.7;
  data.similarity_threshold = 0.35;
  data.max_items_per_query = 256;
  data.max_degree = 64;
  data.hac_threshold = 0.3;
  data.hac_linkage = 1;
  data.diffusion_iterations = 2;
  data.num_queries = 4;
  data.num_entities = 6;
  data.cycles_done = 3;
  data.published_version = 5;
  data.window.resize(2);
  data.window[0].name = "day-0001.clicks.tsv";
  data.window[0].pairs = {{0, 1, 4}, {0, 2, 1}, {3, 5, 2}};
  data.window[1].name = "day-0002.clicks.tsv";
  data.window[1].pairs = {{1, 0, 7}, {2, 4, 1}};
  data.num_leaves = 6;
  data.merges = {{0, 1, 0.9}, {6, 2, 0.5000000001}};
  data.rankings.resize(2);
  data.rankings[0].dendro_node = 5;
  data.rankings[0].ranking = {{2, 0.8, 0.9, 0.71}, {0, 0.4, 0.6, 0.3}};
  data.rankings[1].dendro_node = 7;
  data.rankings[1].ranking = {{3, 0.5, 0.5, 0.5}};
  return data;
}

// Golden checksums of each encoder's payload for this file's fixtures
// (recorded with a byte-at-a-time writer and CRC): any change to the
// encoded bytes or to the checksum moves one of them.
TEST_F(SnapshotTest, EncodedPayloadsMatchGoldenCrc) {
  EXPECT_EQ(util::Crc32(EncodeEntityGraph(SampleGraph())), 0x4E60E248u);
  EXPECT_EQ(util::Crc32(EncodeDaemonWindow(SampleDaemonWindow())),
            0x30670935u);
}

TEST_F(SnapshotTest, DaemonWindowRoundTrip) {
  const DaemonWindowData data = SampleDaemonWindow();
  const std::string payload = EncodeDaemonWindow(data);
  auto restored = DecodeDaemonWindow(payload);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->cycles_done, data.cycles_done);
  EXPECT_EQ(restored->published_version, data.published_version);
  ASSERT_EQ(restored->window.size(), data.window.size());
  EXPECT_EQ(restored->window[0].name, data.window[0].name);
  ASSERT_EQ(restored->window[0].pairs.size(), data.window[0].pairs.size());
  EXPECT_EQ(restored->window[0].pairs[2].count, 2u);
  EXPECT_EQ(restored->num_leaves, data.num_leaves);
  ASSERT_EQ(restored->merges.size(), data.merges.size());
  EXPECT_EQ(restored->merges[1].similarity, data.merges[1].similarity);
  ASSERT_EQ(restored->rankings.size(), data.rankings.size());
  EXPECT_EQ(restored->rankings[0].ranking[0].query, 2u);
  EXPECT_EQ(restored->rankings[0].ranking[0].concentration, 0.71);
  // Bit-exact re-encode: restoring and re-serializing is a fixpoint.
  EXPECT_EQ(EncodeDaemonWindow(*restored), payload);
}

TEST_F(SnapshotTest, DaemonWindowFileRoundTripUnderKind3) {
  const std::string payload = EncodeDaemonWindow(SampleDaemonWindow());
  const std::string path = Path("dw.snap");
  ASSERT_TRUE(
      WriteSnapshotFile(path, SnapshotKind::kDaemonWindow, payload).ok());
  auto file = ReadSnapshotFile(path, SnapshotKind::kDaemonWindow);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  EXPECT_EQ(*file, payload);
}

TEST_F(SnapshotTest, DaemonWindowRejectsStructuralCorruption) {
  // Unsorted day pairs.
  DaemonWindowData bad = SampleDaemonWindow();
  std::swap(bad.window[0].pairs[0], bad.window[0].pairs[1]);
  EXPECT_EQ(DecodeDaemonWindow(EncodeDaemonWindow(bad)).status().code(),
            util::StatusCode::kInvalidArgument);
  // Zero-count pair (the producer must drop these).
  bad = SampleDaemonWindow();
  bad.window[1].pairs[0].count = 0;
  EXPECT_EQ(DecodeDaemonWindow(EncodeDaemonWindow(bad)).status().code(),
            util::StatusCode::kInvalidArgument);
  // Pair outside the catalog.
  bad = SampleDaemonWindow();
  bad.window[1].pairs[1].entity = 6;
  EXPECT_EQ(DecodeDaemonWindow(EncodeDaemonWindow(bad)).status().code(),
            util::StatusCode::kInvalidArgument);
  // Rankings out of dendro-node order.
  bad = SampleDaemonWindow();
  std::swap(bad.rankings[0], bad.rankings[1]);
  EXPECT_EQ(DecodeDaemonWindow(EncodeDaemonWindow(bad)).status().code(),
            util::StatusCode::kInvalidArgument);
  // Ranking naming an unknown query.
  bad = SampleDaemonWindow();
  bad.rankings[1].ranking[0].query = 9;
  EXPECT_EQ(DecodeDaemonWindow(EncodeDaemonWindow(bad)).status().code(),
            util::StatusCode::kInvalidArgument);
  // Trailing bytes.
  std::string padded = EncodeDaemonWindow(SampleDaemonWindow());
  padded.push_back('\0');
  EXPECT_EQ(DecodeDaemonWindow(padded).status().code(),
            util::StatusCode::kInvalidArgument);
}

TEST_F(SnapshotTest, DaemonWindowEveryTruncationFailsCleanly) {
  const std::string payload = EncodeDaemonWindow(SampleDaemonWindow());
  const std::string path = Path("dwt.snap");
  ASSERT_TRUE(
      WriteSnapshotFile(path, SnapshotKind::kDaemonWindow, payload).ok());
  auto bytes = util::ReadTextFile(path);
  ASSERT_TRUE(bytes.ok());
  const std::string& full = bytes.value();
  for (size_t len = 0; len < full.size(); ++len) {
    const std::string trunc_path = Path("dw_trunc.snap");
    ASSERT_TRUE(util::WriteTextFile(trunc_path, full.substr(0, len)).ok());
    auto file = ReadSnapshotFile(trunc_path, SnapshotKind::kDaemonWindow);
    ASSERT_FALSE(file.ok()) << "truncated to " << len << " bytes";
  }
}

TEST_F(SnapshotTest, DaemonWindowEveryBitFlipIsDetectedOrRejected) {
  const std::string payload = EncodeDaemonWindow(SampleDaemonWindow());
  const std::string path = Path("dwf.snap");
  ASSERT_TRUE(
      WriteSnapshotFile(path, SnapshotKind::kDaemonWindow, payload).ok());
  auto bytes = util::ReadTextFile(path);
  ASSERT_TRUE(bytes.ok());
  const std::string& full = bytes.value();
  const size_t stride = full.size() > 512 ? full.size() / 512 : 1;
  for (size_t i = 0; i < full.size(); i += stride) {
    std::string tampered = full;
    tampered[i] = static_cast<char>(tampered[i] ^ 0x10);
    ASSERT_TRUE(util::WriteTextFile(path, tampered).ok());
    auto file = ReadSnapshotFile(path, SnapshotKind::kDaemonWindow);
    if (!file.ok()) continue;  // caught by header/CRC validation
    (void)DecodeDaemonWindow(*file);
  }
}

TEST_F(SnapshotTest, DecodeRejectsOversizedCounts) {
  // A length field larger than the remaining bytes must error before
  // allocating.
  BinaryWriter writer;
  writer.WriteU64(5);                      // num_vertices
  writer.WriteU64(0xffffffffffffull);      // absurd edge count
  EXPECT_EQ(DecodeEntityGraph(writer.data()).status().code(),
            util::StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace shoal::ckpt
