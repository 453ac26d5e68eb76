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
constexpr size_t kU8 = 1;
constexpr size_t kU32 = 4;
constexpr size_t kU64 = 8;
constexpr size_t kF64 = 8;
constexpr size_t kEdgeBytes = 2 * kU32 + kF64;   // (u, v, weight)
constexpr size_t kMergeBytes = 2 * kU32 + kF64;  // (left, right, similarity)

bool ValidKind(uint32_t kind) {
  return kind == static_cast<uint32_t>(SnapshotKind::kEntityGraph) ||
         kind == static_cast<uint32_t>(SnapshotKind::kHacState) ||
         kind == static_cast<uint32_t>(SnapshotKind::kDaemonWindow);
}

}  // namespace

const char* SnapshotKindName(SnapshotKind kind) {
  switch (kind) {
    case SnapshotKind::kEntityGraph:
      return "entity_graph";
    case SnapshotKind::kHacState:
      return "hac_state";
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

std::string EncodeHacSnapshot(const HacSnapshotData& data) {
  const core::ClusterGraphState& state = data.clusters;
  // Progress, stats, options, merge list, node count, frontier.
  size_t bytes = kU64 + kU8 +
                 5 * kU64 + data.stats.merges_per_round.size() * kU64 +
                 kF64 + kU32 + kU64 +
                 2 * kU64 + data.merges.size() * kMergeBytes +
                 kU64 +
                 kU64 + state.frontier.size() * kU32 + kF64;
  for (const auto& row : state.rows) {
    bytes += kU8 + 2 * kU32 + kU64 + row.size() * (kU32 + kF64);
  }
  BinaryWriter writer;
  writer.Reserve(bytes);
  writer.WriteU64(data.rounds_done);
  writer.WriteU8(data.finished ? 1 : 0);

  writer.WriteU64(data.stats.rounds);
  writer.WriteU64(data.stats.total_merges);
  writer.WriteU64(data.stats.total_messages);
  writer.WriteU64(data.stats.total_supersteps);
  writer.WriteU64(data.stats.merges_per_round.size());
  for (size_t m : data.stats.merges_per_round) writer.WriteU64(m);

  writer.WriteF64(data.threshold);
  writer.WriteU32(data.linkage);
  writer.WriteU64(data.diffusion_iterations);

  writer.WriteU64(data.num_leaves);
  writer.WriteU64(data.merges.size());
  for (const auto& m : data.merges) {
    writer.WriteU32(m.left);
    writer.WriteU32(m.right);
    writer.WriteF64(m.similarity);
  }

  writer.WriteU64(state.rows.size());
  for (size_t c = 0; c < state.rows.size(); ++c) {
    writer.WriteU8(state.active[c]);
    writer.WriteU32(state.sizes[c]);
    writer.WriteU32(state.mergeable_count[c]);
    writer.WriteU64(state.rows[c].size());
    for (const core::ClusterEdge& e : state.rows[c]) {
      writer.WriteU32(e.id);
      writer.WriteF64(e.similarity);
    }
  }
  writer.WriteU64(state.frontier.size());
  for (uint32_t c : state.frontier) writer.WriteU32(c);
  writer.WriteF64(state.track_threshold);
  assert(writer.size() == bytes && "EncodeHacSnapshot reserve is off");
  return writer.Take();
}

util::Result<HacSnapshotData> DecodeHacSnapshot(std::string_view payload) {
  BinaryReader reader(payload);
  HacSnapshotData data;
  SHOAL_ASSIGN_OR_RETURN(data.rounds_done, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(uint8_t finished, reader.ReadU8());
  if (finished > 1) {
    return util::Status::InvalidArgument(
        "HAC snapshot has a non-boolean finished flag");
  }
  data.finished = finished != 0;

  SHOAL_ASSIGN_OR_RETURN(data.stats.rounds, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(data.stats.total_merges, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(data.stats.total_messages, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(data.stats.total_supersteps, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(uint64_t num_round_entries, reader.ReadU64());
  SHOAL_RETURN_IF_ERROR(reader.CheckCount(num_round_entries, 8));
  data.stats.merges_per_round.resize(num_round_entries);
  for (uint64_t i = 0; i < num_round_entries; ++i) {
    SHOAL_ASSIGN_OR_RETURN(uint64_t m, reader.ReadU64());
    data.stats.merges_per_round[i] = m;
  }

  SHOAL_ASSIGN_OR_RETURN(data.threshold, reader.ReadF64());
  SHOAL_ASSIGN_OR_RETURN(data.linkage, reader.ReadU32());
  SHOAL_ASSIGN_OR_RETURN(data.diffusion_iterations, reader.ReadU64());

  SHOAL_ASSIGN_OR_RETURN(data.num_leaves, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(uint64_t num_merges, reader.ReadU64());
  SHOAL_RETURN_IF_ERROR(reader.CheckCount(num_merges, 16));
  data.merges.resize(num_merges);
  for (uint64_t i = 0; i < num_merges; ++i) {
    SHOAL_ASSIGN_OR_RETURN(data.merges[i].left, reader.ReadU32());
    SHOAL_ASSIGN_OR_RETURN(data.merges[i].right, reader.ReadU32());
    SHOAL_ASSIGN_OR_RETURN(data.merges[i].similarity, reader.ReadF64());
  }

  SHOAL_ASSIGN_OR_RETURN(uint64_t num_nodes, reader.ReadU64());
  // 10 bytes of fixed fields per node before its row entries.
  SHOAL_RETURN_IF_ERROR(reader.CheckCount(num_nodes, 17));
  core::ClusterGraphState& state = data.clusters;
  state.rows.resize(num_nodes);
  state.sizes.resize(num_nodes);
  state.active.resize(num_nodes);
  state.mergeable_count.resize(num_nodes);
  for (uint64_t c = 0; c < num_nodes; ++c) {
    SHOAL_ASSIGN_OR_RETURN(state.active[c], reader.ReadU8());
    SHOAL_ASSIGN_OR_RETURN(state.sizes[c], reader.ReadU32());
    SHOAL_ASSIGN_OR_RETURN(state.mergeable_count[c], reader.ReadU32());
    SHOAL_ASSIGN_OR_RETURN(uint64_t row_len, reader.ReadU64());
    SHOAL_RETURN_IF_ERROR(reader.CheckCount(row_len, 12));
    state.rows[c].resize(row_len);
    for (uint64_t e = 0; e < row_len; ++e) {
      SHOAL_ASSIGN_OR_RETURN(state.rows[c][e].id, reader.ReadU32());
      SHOAL_ASSIGN_OR_RETURN(state.rows[c][e].similarity, reader.ReadF64());
    }
  }
  SHOAL_ASSIGN_OR_RETURN(uint64_t frontier_len, reader.ReadU64());
  SHOAL_RETURN_IF_ERROR(reader.CheckCount(frontier_len, 4));
  state.frontier.resize(frontier_len);
  for (uint64_t i = 0; i < frontier_len; ++i) {
    SHOAL_ASSIGN_OR_RETURN(state.frontier[i], reader.ReadU32());
  }
  SHOAL_ASSIGN_OR_RETURN(state.track_threshold, reader.ReadF64());
  if (!reader.AtEnd()) {
    return util::Status::InvalidArgument(
        "HAC snapshot has trailing bytes");
  }
  return data;
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

HacSnapshotData CaptureHacSnapshot(const core::HacProgress& progress,
                                   const core::ParallelHacOptions& options) {
  HacSnapshotData data;
  data.rounds_done = progress.rounds_done;
  data.finished = progress.finished;
  if (progress.stats != nullptr) data.stats = *progress.stats;
  data.threshold = options.hac.threshold;
  data.linkage = static_cast<uint32_t>(options.hac.linkage);
  data.diffusion_iterations = options.diffusion_iterations;

  const core::Dendrogram& dendrogram = *progress.dendrogram;
  data.num_leaves = dendrogram.num_leaves();
  data.merges.reserve(dendrogram.num_merges());
  for (uint32_t id = dendrogram.num_leaves(); id < dendrogram.num_nodes();
       ++id) {
    const auto& node = dendrogram.node(id);
    data.merges.push_back({node.left, node.right, node.merge_similarity});
  }
  data.clusters = progress.clusters->ExportState();
  return data;
}

util::Result<core::HacResumeState> RestoreHacState(
    const HacSnapshotData& data, const core::ParallelHacOptions& options) {
  if (data.threshold != options.hac.threshold ||
      data.linkage != static_cast<uint32_t>(options.hac.linkage) ||
      data.diffusion_iterations != options.diffusion_iterations) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "snapshot was captured under different clustering options "
        "(threshold %g linkage %u diffusion %llu vs configured %g %u %llu); "
        "resuming would not reproduce the uninterrupted run",
        data.threshold, data.linkage,
        static_cast<unsigned long long>(data.diffusion_iterations),
        options.hac.threshold, static_cast<uint32_t>(options.hac.linkage),
        static_cast<unsigned long long>(options.diffusion_iterations)));
  }

  core::HacResumeState state;
  state.rounds_done = data.rounds_done;
  state.stats = data.stats;

  core::Dendrogram dendrogram(data.num_leaves);
  for (size_t i = 0; i < data.merges.size(); ++i) {
    const auto& m = data.merges[i];
    auto merged = dendrogram.Merge(m.left, m.right, m.similarity);
    if (!merged.ok()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "snapshot merge %zu (%u, %u) does not replay: %s", i, m.left,
          m.right, merged.status().message().c_str()));
    }
  }
  state.dendrogram = std::move(dendrogram);

  core::ClusterGraphState cluster_state = data.clusters;
  SHOAL_ASSIGN_OR_RETURN(state.clusters, core::ClusterGraph::FromState(
                                             std::move(cluster_state)));
  if (state.clusters.num_nodes() != state.dendrogram.num_nodes()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "snapshot is inconsistent: cluster graph has %zu nodes but the "
        "dendrogram replays to %zu",
        state.clusters.num_nodes(), state.dendrogram.num_nodes()));
  }
  return state;
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

util::Result<SnapshotFile> ReadSnapshotFile(const std::string& path) {
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
  SHOAL_ASSIGN_OR_RETURN(uint64_t payload_size, reader.ReadU64());
  SHOAL_ASSIGN_OR_RETURN(uint32_t expected_crc, reader.ReadU32());
  if (payload_size != reader.remaining()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "%s: header claims %llu payload bytes but %zu are present",
        path.c_str(), static_cast<unsigned long long>(payload_size),
        reader.remaining()));
  }
  SnapshotFile file;
  file.kind = static_cast<SnapshotKind>(kind);
  file.payload.assign(bytes, bytes.size() - payload_size, payload_size);
  const uint32_t actual_crc =
      util::Crc32(file.payload.data(), file.payload.size());
  if (actual_crc != expected_crc) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "%s: payload CRC mismatch (stored %08x, computed %08x) — the "
        "snapshot is corrupt",
        path.c_str(), expected_crc, actual_crc));
  }
  return file;
}

}  // namespace shoal::ckpt
