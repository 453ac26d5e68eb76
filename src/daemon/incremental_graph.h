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
  size_t rows_recapped = 0;         // capped rows derived afresh
  size_t capped_edges_changed = 0;  // capped edges added/removed/reweighted
};

// One edge (u < v) that a window step added to, removed from or
// reweighted in the degree-capped graph.
struct CappedEdgeChange {
  uint32_t u = 0;
  uint32_t v = 0;
  bool removed = false;  // in the old capped graph only

  bool operator==(const CappedEdgeChange&) const = default;
};

// A standing item entity graph maintained under sliding-window click
// deltas (DESIGN.md §13). Invariants after every ApplyDelta:
//
//   store == { (u,v) : (u,v) is a candidate pair under the current
//              window counts and its Eq. 3 score >= threshold }
//   capped graph == ApplyDegreeCap(store)
//
// — exactly the pre-degree-cap edge store BuildEntityGraph computes
// from scratch and the graph it returns, so Materialize() is
// byte-identical to a full rebuild of the same window, row order and
// weighted degrees included.
//
// State is kept in sorted flat arrays, not hash maps: each query's
// window counts are (entity, count) links ascending by entity, each
// entity's query set is an ascending id list, and the store is one
// ScoredEdge vector strictly ascending by (u, v).
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
//
// The re-cap then touches only the rows whose incident store edges
// moved: the affected entities and every store partner they had or now
// have. Each touched row is re-capped from its store edges; an
// untouched row's top max_degree is the head of its standing capped
// row, so it changes only where its edge to a touched row flips in or
// out of the cap.
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

  // Applies one window step: repairs the store (span `daemon.delta`),
  // then re-caps the touched rows of the capped graph
  // (`daemon.materialize`). When `changes` is not null it receives every
  // capped edge the step added, removed or reweighted, each once, in no
  // particular order. Fails (leaving the graph unusable) if a count
  // would go negative — the producer fed a retirement that was never
  // ingested.
  util::Status ApplyDelta(const ClickDelta& delta, DeltaStats* stats,
                          std::vector<CappedEdgeChange>* changes = nullptr);

  // The standing degree-capped graph.
  const graph::WeightedGraph& CappedGraph() const { return capped_; }

  // A copy of CappedGraph(), for callers that compare it with a
  // from-scratch build.
  util::Result<graph::WeightedGraph> Materialize() const { return capped_; }

  // The current window as a query-item bipartite graph (queries
  // ascending, entities ascending within each query) — input for the
  // topic describer. Aggregate counts match any insertion order, so
  // describer output is identical to the from-scratch path's.
  graph::BipartiteGraph WindowGraph() const;

  size_t num_queries() const { return query_links_.size(); }
  size_t num_entities() const { return queries_of_.size(); }
  size_t store_size() const { return store_.size(); }

  // The standing scored edges, strictly ascending by (u, v). Exposed for
  // snapshot verification and tests; CappedGraph() is the serving-path
  // view.
  const std::vector<core::ScoredEdge>& StoreEdges() const { return store_; }

 private:
  IncrementalEntityGraph() = default;

  // Capped link set of a query under the current counts, as a sorted
  // vector (empty when the query has no links).
  std::vector<uint32_t> CappedSetOf(uint32_t q) const;

  // Re-caps the rows of `touched` (slot[x] is x's index in it, UINT32_MAX
  // for an untouched row) from the repaired store, and patches each
  // untouched row where its edge to a touched row flips in or out of the
  // cap. Returns the number of capped edges changed, appending them to
  // `changes` when it is not null.
  size_t Recap(const std::vector<uint32_t>& touched,
               const std::vector<uint32_t>& slot,
               std::vector<CappedEdgeChange>* changes);

  core::EntityGraphOptions options_;
  std::vector<core::ContentProfile> profiles_;

  // Window state: per-query (entity, count) links ascending by entity,
  // and per-entity sorted query sets (the Eq. 1 inputs).
  std::vector<std::vector<graph::BipartiteGraph::Link>> query_links_;
  std::vector<std::vector<uint32_t>> queries_of_;

  // The standing scored edge store (u < v, Eq. 3 score), strictly
  // ascending by (u, v), and its degree cap.
  std::vector<core::ScoredEdge> store_;
  graph::WeightedGraph capped_;
};

}  // namespace shoal::daemon

#endif  // SHOAL_DAEMON_INCREMENTAL_GRAPH_H_
