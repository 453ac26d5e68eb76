#ifndef SHOAL_DAEMON_INCREMENTAL_GRAPH_H_
#define SHOAL_DAEMON_INCREMENTAL_GRAPH_H_

#include <cstdint>
#include <unordered_map>
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

struct IncrementalGraphOptions {
  // The Eq. 1-3 scoring knobs shared with BuildEntityGraph, checked by
  // the same ValidateEntityGraphOptions. The standing store reproduces
  // BuildEntityGraph's candidacy rule by construction — that is what
  // makes the maintained graph byte-identical to a from-scratch build.
  core::EntityGraphOptions entity_graph;
};

// Per-ApplyDelta telemetry.
struct DeltaStats {
  size_t delta_entries = 0;
  size_t dirty_queries = 0;        // any count change
  size_t dirty_entities = 0;       // query-set membership change
  size_t new_entities = 0;         // empty -> non-empty query set
  size_t retired_entities = 0;     // non-empty -> empty query set
  size_t pairs_rescored = 0;
  size_t edges_added = 0;          // scored-store transitions
  size_t edges_updated = 0;
  size_t edges_removed = 0;
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
// window, at any thread count.
//
// A pair is a *candidate* when at least one query holds both entities
// in its capped link set (CappedQueryItems — a pure function of the
// (entity, count) multiset). ApplyDelta rescans exactly the pairs whose
// candidacy or score could have changed:
//
//   * dirty-query diff — for each query with changed counts, pairs with
//     an endpoint in the symmetric difference of its old/new capped
//     sets (candidacy gained or lost through this query);
//   * dirty-entity sweep — for each entity whose query-set membership
//     changed, the full capped enumeration over its queries (scores
//     move through clean witness queries too: Eq. 1 is over full query
//     sets, so an entity gaining one query shifts its Jaccard with
//     every partner);
//   * standing edges incident to dirty entities (scores that can only
//     have fallen still need re-checking against the threshold).
//
// Pairs outside this set have unchanged candidacy and unchanged scores,
// which is the whole point: per-cycle work scales with the delta, not
// the window.
class IncrementalEntityGraph {
 public:
  // `title_words` / `word_vectors` describe the static catalog; content
  // profiles are computed once here (titles do not drift), and neither
  // is kept. Fails on options ValidateEntityGraphOptions rejects.
  static util::Result<IncrementalEntityGraph> Create(
      size_t num_queries,
      const std::vector<std::vector<uint32_t>>& title_words,
      const text::EmbeddingTable& word_vectors,
      const IncrementalGraphOptions& options);

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

  // Sorted query ids of entity e under the current window.
  const std::vector<uint32_t>& QueriesOf(uint32_t e) const {
    return queries_of_[e];
  }

  size_t num_queries() const { return query_counts_.size(); }
  size_t num_entities() const { return queries_of_.size(); }
  size_t store_size() const { return store_.size(); }

  // The standing scored edges, sorted by (u, v). Exposed for snapshot
  // verification and tests; Materialize() is the serving-path view.
  std::vector<core::ScoredEdge> StoreEdges() const;

 private:
  IncrementalEntityGraph() = default;

  static uint64_t PairKey(uint32_t u, uint32_t v) {
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  // Capped link set of a query under the current counts, as a sorted
  // vector (empty when the query has no links).
  std::vector<uint32_t> CappedSetOf(uint32_t q) const;

  // True when some query's capped set holds both u and v.
  bool IsCandidate(uint32_t u, uint32_t v,
                   const std::vector<std::vector<uint32_t>>& capped_cache,
                   const std::vector<char>& capped_valid) const;

  double Score(uint32_t u, uint32_t v) const;

  IncrementalGraphOptions options_;
  std::vector<core::ContentProfile> profiles_;

  // Window state: per-query (entity -> count), and per-entity sorted
  // query sets (the Eq. 1 inputs).
  std::vector<std::unordered_map<uint32_t, uint32_t>> query_counts_;
  std::vector<std::vector<uint32_t>> queries_of_;

  // The standing scored edge store: packed (u<<32|v), u < v -> Eq. 3
  // score.
  std::unordered_map<uint64_t, double> store_;
};

}  // namespace shoal::daemon

#endif  // SHOAL_DAEMON_INCREMENTAL_GRAPH_H_
