#ifndef SHOAL_DAEMON_DAEMON_H_
#define SHOAL_DAEMON_DAEMON_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/snapshot.h"
#include "core/dendrogram.h"
#include "core/entity_graph.h"
#include "core/parallel_hac.h"
#include "core/taxonomy.h"
#include "core/topic_describer.h"
#include "daemon/incremental_graph.h"
#include "daemon/splice.h"
#include "daemon/spool.h"
#include "text/word2vec.h"
#include "util/result.h"
#include "util/status.h"

namespace shoal::daemon {

struct DaemonOptions {
  // The on-disk inbox (see spool.h) and the published artefact path.
  std::string spool_dir;
  std::string index_path;
  // Standing-state snapshot written after every cycle through the
  // framed ckpt protocol; a restarted daemon restores from it and
  // resumes at the first unconsumed day file. Empty disables
  // checkpointing.
  std::string snapshot_path;

  // Days kept in the sliding window. Once the window is full, every
  // cycle retires the oldest day as it ingests the newest.
  size_t window_days = 7;

  // Worker threads for delta rescoring and HAC — both stages produce
  // identical results at any setting. > 0 overrides
  // entity_graph.num_threads and hac.num_threads (clamped to 256); 0
  // keeps those per-stage settings, as ShoalOptions::num_threads does.
  // Deliberately does not touch word2vec: the daemon always trains its
  // catalog embedding single-threaded so the standing graph is a
  // deterministic function of the spool.
  size_t num_threads = 1;

  core::EntityGraphOptions entity_graph;
  core::ParallelHacOptions hac;
  core::TaxonomyOptions taxonomy;
  core::DescriberOptions describer;
  text::Word2VecOptions word2vec;

  // Version stamped on the first publish; each later cycle increments.
  uint64_t first_version = 1;
  size_t max_postings_per_query = 64;
};

// What one update cycle did, for logs and the bench harness.
struct CycleReport {
  std::string day_file;
  // First cycle (or none standing): the window is clustered from
  // scratch instead of spliced.
  bool full_rebuild = false;
  size_t window_days = 0;  // days in the window after this cycle

  DeltaStats delta;
  SpliceStats splice;
  // Entities whose dendrogram subtree was re-clustered, over all
  // entities (1.0 on a full rebuild).
  double dirty_fraction = 0.0;

  size_t num_topics = 0;
  size_t touched_topics = 0;  // re-scored + re-described this cycle
  size_t carried_topics = 0;  // rankings/descriptions carried forward
  uint64_t published_version = 0;

  double ingest_seconds = 0.0;    // spool read + day aggregation
  double graph_seconds = 0.0;     // ApplyDelta + Materialize
  double cluster_seconds = 0.0;   // splice (or full HAC)
  double describe_seconds = 0.0;  // DescribeTopics over touched topics
  double publish_seconds = 0.0;   // compile + atomic write
  double snapshot_seconds = 0.0;
  double total_seconds = 0.0;
};

// The sliding-window taxonomy maintenance loop (DESIGN.md §13):
// build -> diff -> publish, one cycle per day file arriving in the
// spool. The standing entity graph is maintained incrementally
// (IncrementalEntityGraph), the standing dendrogram is spliced
// (SpliceDendrogram), only touched topics are re-described, and each
// cycle publishes a versioned ServingIndex through the same
// atomic-rename file the online tier hot-reloads.
//
// Determinism contract: the published index after cycle k is a pure
// function of (catalog, day files 0..k, options) — independent of
// num_threads, of restarts (snapshot restore), and of whether earlier
// cycles ran in the same process.
class TaxonomyDaemon {
 public:
  // Imports the catalog, trains the catalog word2vec embedding
  // (single-threaded — see DaemonOptions::num_threads), and restores
  // the standing window from `snapshot_path` when a valid snapshot is
  // present. A snapshot whose options fingerprint or catalog shape
  // disagrees with `options` is an error, not a silent rebuild.
  static util::Result<std::unique_ptr<TaxonomyDaemon>> Create(
      const DaemonOptions& options);

  TaxonomyDaemon(const TaxonomyDaemon&) = delete;
  TaxonomyDaemon& operator=(const TaxonomyDaemon&) = delete;

  // Processes the next unconsumed day file, publishing a new index
  // version and (when configured) a fresh snapshot. Returns nullopt
  // when no unconsumed day file is waiting.
  util::Result<std::optional<CycleReport>> RunOnce();

  uint64_t cycles_done() const { return cycles_done_; }
  uint64_t published_version() const { return published_version_; }
  bool restored_from_snapshot() const { return restored_; }
  const SpoolCatalog& catalog() const { return catalog_; }
  // Static catalog inputs, exposed so tests and the bench can run the
  // from-scratch reference pipeline over the exact same embedding.
  const std::vector<std::vector<uint32_t>>& title_words() const {
    return title_words_;
  }
  const text::EmbeddingTable& word_vectors() const {
    return word2vec_->vectors();
  }
  const IncrementalEntityGraph& graph() const { return *graph_; }
  // Valid after at least one cycle (or a restore).
  const core::Dendrogram& dendrogram() const { return last_dendrogram_; }
  const core::Taxonomy& taxonomy() const { return taxonomy_; }
  const std::vector<std::vector<core::ScoredQuery>>& rankings() const {
    return rankings_;
  }

 private:
  TaxonomyDaemon() = default;

  util::Status Restore(const ckpt::DaemonWindowData& data);
  util::Status SaveSnapshot() const;
  // Regenerates topic descriptions from `rankings_` (a description is
  // by construction the top query texts of its topic's ranking).
  void ApplyDescriptions(const std::vector<uint32_t>& topics);

  DaemonOptions options_;

  // Static catalog state, fixed at Create.
  SpoolCatalog catalog_;
  std::vector<std::vector<uint32_t>> title_words_;
  std::vector<uint32_t> entity_categories_;
  std::vector<std::vector<uint32_t>> query_words_;
  std::vector<std::string> query_texts_;
  std::unique_ptr<text::Word2Vec> word2vec_;

  // Standing window state.
  std::unique_ptr<IncrementalEntityGraph> graph_;
  std::vector<ckpt::DaemonWindowData::WindowDay> window_;  // oldest first
  bool has_model_ = false;
  graph::WeightedGraph last_graph_;
  core::Dendrogram last_dendrogram_;
  core::Taxonomy taxonomy_;
  std::vector<std::vector<core::ScoredQuery>> rankings_;  // by topic id
  uint64_t cycles_done_ = 0;
  uint64_t published_version_ = 0;
  bool restored_ = false;
};

}  // namespace shoal::daemon

#endif  // SHOAL_DAEMON_DAEMON_H_
