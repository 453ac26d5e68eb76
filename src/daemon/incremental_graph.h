#ifndef SHOAL_DAEMON_INCREMENTAL_GRAPH_H_
#define SHOAL_DAEMON_INCREMENTAL_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/entity_graph.h"
#include "core/similarity.h"
#include "graph/bipartite_graph.h"
#include "graph/weighted_graph.h"
#include "text/embedding.h"
#include "util/result.h"

namespace shoal::daemon {

// Aggregated (query, entity) click-count changes of one sliding-window
// step: the incoming day's counts minus the retiring day's. Entries
// with delta == 0 must be dropped by the producer (they would otherwise
// mark the pair dirty for nothing — the stationary head of traffic
// cancels exactly here).
struct ClickDelta {
  struct Entry {
    uint32_t query = 0;
    uint32_t entity = 0;
    int64_t delta = 0;
  };
  std::vector<Entry> entries;
};

// Per-ApplyDelta telemetry.
struct DeltaStats {
  size_t delta_entries = 0;
  size_t dirty_queries = 0;   // any count change
  size_t dirty_entities = 0;  // query-set membership change
  size_t pairs_rescored = 0;  // pairs in the affected entities' rows
};

// A standing item entity graph maintained under sliding-window click
// deltas (DESIGN.md §13). Invariant after every ApplyDelta:
//
//   store == { (u,v) : (u,v) is a candidate pair under the current
//              window counts and its Eq. 3 score >= threshold }
//
// — exactly the pre-degree-cap edge store BuildEntityGraph computes
// from scratch, so Materialize() (which runs the same ApplyDegreeCap)
// returns a WeightedGraph byte-identical to a full rebuild of the same
// window.
//
// State is kept in sorted flat arrays, not hash maps: each query's
// window counts are (entity, count) links ascending by entity, each
// entity's query set is an ascending id list, and the store is one
// ScoredEdge vector strictly ascending by (u, v) — the order
// ApplyDegreeCap takes, so Materialize() hands it over as is.
//
// A pair is a *candidate* when at least one query holds both entities
// in its capped link set (CappedQueryItems — a pure function of the
// (entity, count) multiset). A window step *affects* an entity when its
// query set changes or when it enters or leaves a changed query's
// capped set. A pair with no affected end keeps its candidacy (no
// capped set gained or lost either end) and its score (Eq. 1 reads only
// the two query sets; Eq. 2 is static), so ApplyDelta drops the
// standing edges with an affected end and re-derives only the affected
// entities' rows, scored by the builder's RowScorer. The scoring work
// scales with the delta, not the window.
class IncrementalEntityGraph {
 public:
  // `title_words` / `word_vectors` describe the static catalog; content
  // profiles are computed once here (titles do not drift), and neither
  // is kept. Fails on options ValidateEntityGraphOptions rejects;
  // `options.num_threads` is not read, as the repair runs on the
  // calling thread.
  static util::Result<IncrementalEntityGraph> Create(
      size_t num_queries,
      const std::vector<std::vector<uint32_t>>& title_words,
      const text::EmbeddingTable& word_vectors,
      const core::EntityGraphOptions& options);

  // Applies one window step. Fails (leaving the graph unusable) if a
  // count would go negative — the producer fed a retirement that was
  // never ingested.
  util::Status ApplyDelta(const ClickDelta& delta, DeltaStats* stats);

  // Finalises the standing store through the shared degree-cap pass.
  util::Result<graph::WeightedGraph> Materialize() const;

  // The current window as a query-item bipartite graph (queries
  // ascending, entities ascending within each query) — input for the
  // topic describer. Aggregate counts match any insertion order, so
  // describer output is identical to the from-scratch path's.
  graph::BipartiteGraph WindowGraph() const;

  size_t num_queries() const { return query_links_.size(); }
  size_t num_entities() const { return queries_of_.size(); }
  size_t store_size() const { return store_.size(); }

  // The standing scored edges, strictly ascending by (u, v). Exposed for
  // snapshot verification and tests; Materialize() is the serving-path
  // view.
  const std::vector<core::ScoredEdge>& StoreEdges() const { return store_; }

 private:
  IncrementalEntityGraph() = default;

  // Capped link set of a query under the current counts, as a sorted
  // vector (empty when the query has no links).
  std::vector<uint32_t> CappedSetOf(uint32_t q) const;

  core::EntityGraphOptions options_;
  std::vector<core::ContentProfile> profiles_;

  // Window state: per-query (entity, count) links ascending by entity,
  // and per-entity sorted query sets (the Eq. 1 inputs).
  std::vector<std::vector<graph::BipartiteGraph::Link>> query_links_;
  std::vector<std::vector<uint32_t>> queries_of_;

  // The standing scored edge store (u < v, Eq. 3 score), strictly
  // ascending by (u, v).
  std::vector<core::ScoredEdge> store_;
};

}  // namespace shoal::daemon

#endif  // SHOAL_DAEMON_INCREMENTAL_GRAPH_H_
