#include "ckpt/snapshot.h"

#include <cassert>
#include <utility>

#include "ckpt/binary_io.h"
#include "util/crc32.h"
#include "util/atomic_file.h"
#include "util/string_util.h"
#include "util/tsv.h"

namespace shoal::ckpt {

namespace {

constexpr char kMagic[8] = {'S', 'H', 'O', 'A', 'L', 'S', 'N', 'P'};

// Wire sizes, for the encoders' up-front Reserve. Each encoder asserts
// that it wrote exactly what it reserved (checked in Debug builds).
constexpr size_t kU32 = 4;
constexpr size_t kU64 = 8;
constexpr size_t kF64 = 8;
constexpr size_t kEdgeBytes = 2 * kU32 + kF64;   // (u, v, weight)
constexpr size_t kMergeBytes = 2 * kU32 + kF64;  // (left, right, similarity)

bool ValidKind(uint32_t kind) {
  return kind == static_cast<uint32_t>(SnapshotKind::kEntityGraph) ||
         kind == static_cast<uint32_t>(SnapshotKind::kDaemonWindow);
}

}  // namespace

const char* SnapshotKindName(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::kEntityGraph:
      return "entity_graph";
    case SnapshotKind::kDaemonWindow:
      return "daemon_window";
  }
  return "unknown";
}

std::string EncodeEntityGraph(const graph::WeightedGraph& graph) {
  BinaryWriter writer;
  const auto edges = graph.AllEdges();
  const size_t bytes = 2 * kU64 + edges.size() * kEdgeBytes;
  writer.Reserve(bytes);
  writer.WriteU64(graph.num_vertices());
  writer.WriteU64(edges.size());
  for (const auto& e : edges) {
    writer.WriteU32(e.u);
    writer.WriteU32(e.v);
    writer.WriteF64(e.weight);
  }
  assert(writer.size() == bytes && "EncodeEntityGraph reserve is off");
  return writer.Take();
}

util::Result<graph::WeightedGraph> DecodeEntityGraph(
    std::string_view payload) {
  BinaryReader reader(payload);
  SHOAL_ASSIGN_OR_RETURN(uint64_t num_vertices, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(uint64_t num_edges, reader.ReadU64());
  SHOAL_RETURN_IF_ERROR(reader.CheckCount(num_edges, 16));
  if (num_vertices > static_cast<uint64_t>(graph::kInvalidVertex)) {
    return util::Status::InvalidArgument(
        "entity graph snapshot names more vertices than VertexId can hold");
  }
  graph::WeightedGraph graph(num_vertices);
  for (uint64_t i = 0; i < num_edges; ++i) {
    SHOAL_ASSIGN_OR_RETURN(uint32_t u, reader.ReadU32());
    SHOAL_ASSIGN_OR_RETURN(uint32_t v, reader.ReadU32());
    SHOAL_ASSIGN_OR_RETURN(double weight, reader.ReadF64());
    if (u >= num_vertices || v >= num_vertices) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "entity graph snapshot edge %llu (%u, %u) is out of range",
          static_cast<unsigned long long>(i), u, v));
    }
    SHOAL_RETURN_IF_ERROR(graph.AddEdge(u, v, weight));
  }
  if (!reader.AtEnd()) {
    return util::Status::InvalidArgument(
        "entity graph snapshot has trailing bytes");
  }
  return graph;
}

std::string EncodeDaemonWindow(const DaemonWindowData& data) {
  // Options fingerprint and counters, day count, merge list, topic count.
  size_t bytes = 3 * kF64 + kU32 + 7 * kU64 +
                 kU64 +
                 2 * kU64 + data.merges.size() * kMergeBytes +
                 kU64;
  for (const auto& day : data.window) {
    bytes += 2 * kU64 + day.name.size() + day.pairs.size() * 3 * kU32;
  }
  for (const auto& topic : data.rankings) {
    bytes += kU32 + kU64 + topic.ranking.size() * (kU32 + 3 * kF64);
  }
  BinaryWriter writer;
  writer.Reserve(bytes);
  writer.WriteF64(data.alpha);
  writer.WriteF64(data.similarity_threshold);
  writer.WriteU64(data.max_items_per_query);
  writer.WriteU64(data.max_degree);
  writer.WriteF64(data.hac_threshold);
  writer.WriteU32(data.hac_linkage);
  writer.WriteU64(data.diffusion_iterations);
  writer.WriteU64(data.num_queries);
  writer.WriteU64(data.num_entities);

  writer.WriteU64(data.cycles_done);
  writer.WriteU64(data.published_version);

  writer.WriteU64(data.window.size());
  for (const auto& day : data.window) {
    writer.WriteString(day.name);
    writer.WriteU64(day.pairs.size());
    for (const auto& pair : day.pairs) {
      writer.WriteU32(pair.query);
      writer.WriteU32(pair.entity);
      writer.WriteU32(pair.count);
    }
  }

  writer.WriteU64(data.num_leaves);
  writer.WriteU64(data.merges.size());
  for (const auto& m : data.merges) {
    writer.WriteU32(m.left);
    writer.WriteU32(m.right);
    writer.WriteF64(m.similarity);
  }

  writer.WriteU64(data.rankings.size());
  for (const auto& topic : data.rankings) {
    writer.WriteU32(topic.dendro_node);
    writer.WriteU64(topic.ranking.size());
    for (const auto& q : topic.ranking) {
      writer.WriteU32(q.query);
      writer.WriteF64(q.representativeness);
      writer.WriteF64(q.popularity);
      writer.WriteF64(q.concentration);
    }
  }
  assert(writer.size() == bytes && "EncodeDaemonWindow reserve is off");
  return writer.Take();
}

util::Result<DaemonWindowData> DecodeDaemonWindow(std::string_view payload) {
  BinaryReader reader(payload);
  DaemonWindowData data;
  SHOAL_ASSIGN_OR_RETURN(data.alpha, reader.ReadF64());
  SHOAL_ASSIGN_OR_RETURN(data.similarity_threshold, reader.ReadF64());
  SHOAL_ASSIGN_OR_RETURN(data.max_items_per_query, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(data.max_degree, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(data.hac_threshold, reader.ReadF64());
  SHOAL_ASSIGN_OR_RETURN(data.hac_linkage, reader.ReadU32());
  SHOAL_ASSIGN_OR_RETURN(data.diffusion_iterations, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(data.num_queries, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(data.num_entities, reader.ReadU64());

  SHOAL_ASSIGN_OR_RETURN(data.cycles_done, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(data.published_version, reader.ReadU64());

  SHOAL_ASSIGN_OR_RETURN(uint64_t num_days, reader.ReadU64());
  // name length + pair count per day at minimum.
  SHOAL_RETURN_IF_ERROR(reader.CheckCount(num_days, 16));
  data.window.resize(num_days);
  for (uint64_t d = 0; d < num_days; ++d) {
    auto& day = data.window[d];
    SHOAL_ASSIGN_OR_RETURN(day.name, reader.ReadString());
    SHOAL_ASSIGN_OR_RETURN(uint64_t num_pairs, reader.ReadU64());
    SHOAL_RETURN_IF_ERROR(reader.CheckCount(num_pairs, 12));
    day.pairs.resize(num_pairs);
    for (uint64_t i = 0; i < num_pairs; ++i) {
      auto& pair = day.pairs[i];
      SHOAL_ASSIGN_OR_RETURN(pair.query, reader.ReadU32());
      SHOAL_ASSIGN_OR_RETURN(pair.entity, reader.ReadU32());
      SHOAL_ASSIGN_OR_RETURN(pair.count, reader.ReadU32());
      if (pair.query >= data.num_queries || pair.entity >= data.num_entities) {
        return util::Status::InvalidArgument(util::StringPrintf(
            "daemon window snapshot: day %llu pair %llu (%u, %u) is out "
            "of catalog range",
            static_cast<unsigned long long>(d),
            static_cast<unsigned long long>(i), pair.query, pair.entity));
      }
      if (pair.count == 0) {
        return util::Status::InvalidArgument(
            "daemon window snapshot holds a zero-count pair");
      }
      if (i > 0 && !(day.pairs[i - 1].query < pair.query ||
                     (day.pairs[i - 1].query == pair.query &&
                      day.pairs[i - 1].entity < pair.entity))) {
        return util::Status::InvalidArgument(util::StringPrintf(
            "daemon window snapshot: day %llu pairs are not sorted",
            static_cast<unsigned long long>(d)));
      }
    }
  }

  SHOAL_ASSIGN_OR_RETURN(data.num_leaves, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(uint64_t num_merges, reader.ReadU64());
  SHOAL_RETURN_IF_ERROR(reader.CheckCount(num_merges, 16));
  data.merges.resize(num_merges);
  for (uint64_t i = 0; i < num_merges; ++i) {
    SHOAL_ASSIGN_OR_RETURN(data.merges[i].left, reader.ReadU32());
    SHOAL_ASSIGN_OR_RETURN(data.merges[i].right, reader.ReadU32());
    SHOAL_ASSIGN_OR_RETURN(data.merges[i].similarity, reader.ReadF64());
  }

  SHOAL_ASSIGN_OR_RETURN(uint64_t num_rankings, reader.ReadU64());
  SHOAL_RETURN_IF_ERROR(reader.CheckCount(num_rankings, 12));
  data.rankings.resize(num_rankings);
  for (uint64_t t = 0; t < num_rankings; ++t) {
    auto& topic = data.rankings[t];
    SHOAL_ASSIGN_OR_RETURN(topic.dendro_node, reader.ReadU32());
    if (t > 0 && data.rankings[t - 1].dendro_node >= topic.dendro_node) {
      return util::Status::InvalidArgument(
          "daemon window snapshot: rankings are not sorted by dendro node");
    }
    SHOAL_ASSIGN_OR_RETURN(uint64_t num_queries, reader.ReadU64());
    SHOAL_RETURN_IF_ERROR(reader.CheckCount(num_queries, 28));
    topic.ranking.resize(num_queries);
    for (uint64_t i = 0; i < num_queries; ++i) {
      auto& q = topic.ranking[i];
      SHOAL_ASSIGN_OR_RETURN(q.query, reader.ReadU32());
      SHOAL_ASSIGN_OR_RETURN(q.representativeness, reader.ReadF64());
      SHOAL_ASSIGN_OR_RETURN(q.popularity, reader.ReadF64());
      SHOAL_ASSIGN_OR_RETURN(q.concentration, reader.ReadF64());
      if (q.query >= data.num_queries) {
        return util::Status::InvalidArgument(util::StringPrintf(
            "daemon window snapshot: ranking %llu names unknown query %u",
            static_cast<unsigned long long>(t), q.query));
      }
    }
  }
  if (!reader.AtEnd()) {
    return util::Status::InvalidArgument(
        "daemon window snapshot has trailing bytes");
  }
  return data;
}

util::Status WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                               std::string_view payload) {
  BinaryWriter header;
  header.WriteU32(kSnapshotVersion);
  header.WriteU32(static_cast<uint32_t>(kind));
  header.WriteU64(payload.size());
  header.WriteU32(util::Crc32(payload.data(), payload.size()));
  const std::string_view parts[] = {
      std::string_view(kMagic, sizeof(kMagic)), header.data(), payload};
  return util::AtomicWriteFile(path, parts);
}

util::Result<std::string> ReadSnapshotFile(const std::string& path,
                                           SnapshotKind expected) {
  SHOAL_ASSIGN_OR_RETURN(std::string bytes, util::ReadTextFile(path));
  if (bytes.size() < sizeof(kMagic) ||
      bytes.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return util::Status::InvalidArgument(path +
                                         ": not a SHOAL snapshot file");
  }
  BinaryReader reader(
      std::string_view(bytes).substr(sizeof(kMagic)));
  SHOAL_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version != kSnapshotVersion) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "%s: snapshot format version %u, this build reads version %u",
        path.c_str(), version, kSnapshotVersion));
  }
  SHOAL_ASSIGN_OR_RETURN(uint32_t kind, reader.ReadU32());
  if (!ValidKind(kind)) {
    return util::Status::InvalidArgument(
        util::StringPrintf("%s: unknown snapshot kind %u", path.c_str(),
                           kind));
  }
  if (static_cast<SnapshotKind>(kind) != expected) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "%s: holds a %s snapshot, expected %s", path.c_str(),
        SnapshotKindName(static_cast<SnapshotKind>(kind)),
        SnapshotKindName(expected)));
  }
  SHOAL_ASSIGN_OR_RETURN(uint64_t payload_size, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(uint32_t expected_crc, reader.ReadU32());
  if (payload_size != reader.remaining()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "%s: header claims %llu payload bytes but %zu are present",
        path.c_str(), static_cast<unsigned long long>(payload_size),
        reader.remaining()));
  }
  std::string payload(bytes, bytes.size() - payload_size, payload_size);
  const uint32_t actual_crc = util::Crc32(payload.data(), payload.size());
  if (actual_crc != expected_crc) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "%s: payload CRC mismatch (stored %08x, computed %08x) — the "
        "snapshot is corrupt",
        path.c_str(), expected_crc, actual_crc));
  }
  return payload;
}

}  // namespace shoal::ckpt
