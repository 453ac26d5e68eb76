#ifndef SHOAL_CKPT_SNAPSHOT_H_
#define SHOAL_CKPT_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/topic_describer.h"
#include "graph/weighted_graph.h"
#include "util/result.h"
#include "util/status.h"

namespace shoal::ckpt {

// What a snapshot file contains. Values are part of the wire format.
enum class SnapshotKind : uint32_t {
  kEntityGraph = 1,   // the Sec 2.1 item entity graph, written once
  // 2 is reserved so that no old file can read as a new kind: it named
  // mid-HAC cluster state, which nothing writes or reads now, and
  // ReadSnapshotFile rejects it as unknown.
  kDaemonWindow = 3,  // the daemon's standing sliding-window state
};

const char* SnapshotKindName(SnapshotKind kind);

// Format version stamped into every snapshot header. Readers reject any
// other value — resuming across format changes silently would risk a
// wrong-but-plausible restore.
inline constexpr uint32_t kSnapshotVersion = 1;

// The taxonomy daemon's standing state between cycles (DESIGN.md §13):
// the window's per-day click aggregates (from which the scored edge
// store is a deterministic function), the standing dendrogram as a
// merge list, and the carried per-topic description rankings keyed by
// the topic's backing dendrogram node. A killed daemon restores this,
// replays each day's aggregate as a delta to rebuild the edge store,
// replays the merges, and resumes at the first spool file that sorts
// after the newest window day — re-running an interrupted cycle from
// its start.
struct DaemonWindowData {
  // Options fingerprint: a daemon restarted with different scoring or
  // clustering knobs (or against a different catalog) must rebuild from
  // the spool, not resume into an inconsistent store.
  double alpha = 0.0;
  double similarity_threshold = 0.0;
  uint64_t max_items_per_query = 0;
  uint64_t max_degree = 0;
  double hac_threshold = 0.0;
  uint32_t hac_linkage = 0;
  uint64_t diffusion_iterations = 0;
  uint64_t num_queries = 0;
  uint64_t num_entities = 0;

  uint64_t cycles_done = 0;
  uint64_t published_version = 0;

  // One entry per day currently in the window, oldest first. Pairs are
  // the day's aggregated (query, entity) click counts, sorted by
  // (query, entity).
  struct WindowDay {
    std::string name;  // spool day-file name, e.g. "day-0003.clicks.tsv"
    struct Pair {
      uint32_t query = 0;
      uint32_t entity = 0;
      uint32_t count = 0;
    };
    std::vector<Pair> pairs;
  };
  std::vector<WindowDay> window;

  // Standing dendrogram as leaf count + ordered merge list; replaying
  // the list through Dendrogram::Merge reproduces it exactly.
  uint64_t num_leaves = 0;
  struct MergeRecord {
    uint32_t left = 0;
    uint32_t right = 0;
    double similarity = 0.0;
  };
  std::vector<MergeRecord> merges;

  // Carried per-topic rankings, ascending by dendro_node. Descriptions
  // are not stored: a topic's description is by construction the top
  // query texts of its ranking, so the restore regenerates them.
  struct TopicRanking {
    uint32_t dendro_node = 0;
    std::vector<core::ScoredQuery> ranking;
  };
  std::vector<TopicRanking> rankings;
};

// --- payload codecs ------------------------------------------------------

std::string EncodeEntityGraph(const graph::WeightedGraph& graph);
util::Result<graph::WeightedGraph> DecodeEntityGraph(
    std::string_view payload);

std::string EncodeDaemonWindow(const DaemonWindowData& data);
util::Result<DaemonWindowData> DecodeDaemonWindow(std::string_view payload);

// --- framed snapshot files ----------------------------------------------
// Layout: 8-byte magic "SHOALSNP", u32 version, u32 kind, u64 payload
// size, u32 CRC-32 of the payload, payload bytes. The file is written
// through AtomicWriteFile, so on disk it is either complete or absent;
// the CRC catches bit rot and torn copies made outside that protocol.

util::Status WriteSnapshotFile(const std::string& path, SnapshotKind kind,
                               std::string_view payload);

struct SnapshotFile {
  SnapshotKind kind = SnapshotKind::kEntityGraph;
  std::string payload;
};

// Reads and verifies a snapshot file: magic, version, kind validity,
// payload size vs file size, and CRC. Any mismatch is a clean
// InvalidArgument/OutOfRange Status — never undefined behaviour.
util::Result<SnapshotFile> ReadSnapshotFile(const std::string& path);

}  // namespace shoal::ckpt

#endif  // SHOAL_CKPT_SNAPSHOT_H_
