#ifndef SHOAL_CORE_ENTITY_GRAPH_H_
#define SHOAL_CORE_ENTITY_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/weighted_graph.h"
#include "text/embedding.h"
#include "util/result.h"

namespace shoal::core {

// Builds the item entity graph G(V, E, S) of Sec 2.1.
//
// Candidate pairs come from the query-item bipartite graph: two entities
// are compared only if at least one query links to both (entities with
// disjoint query sets have Sq = 0, and the paper filters low-S edges
// anyway). Head queries are capped to `max_items_per_query` to avoid a
// quadratic blow-up on navigational queries — a standard production
// guard. Capped queries keep their top-N links by click weight (ties
// broken toward the smaller item id), so the strongest co-click edges
// survive the cap regardless of link storage order.
struct EntityGraphOptions {
  double alpha = 0.7;            // Eq. 3 mix (paper's demo value)
  double similarity_threshold = 0.35;  // sparsification (Challenge 1)
  size_t max_items_per_query = 256;
  size_t max_degree = 64;        // keep only the best edges per entity
  // Worker threads for query sets, profiles, and the candidate row
  // pass. 1 (the default) runs the single-shard serial reference path;
  // 0 means hardware concurrency. Every setting produces the same edge
  // set, weights, and stats (timings aside): one worker scores each row
  // in a fixed order, rows concatenate in u order, and the degree cap
  // orders edges by (similarity desc, u, v).
  size_t num_threads = 1;
};

// Checks the Eq. 3 knobs and the head-query cap: `alpha` finite and in
// [0, 1], `similarity_threshold` finite, `max_items_per_query` > 0.
// BuildEntityGraph and the incremental maintenance path both call it,
// so a value one rejects the other rejects too.
util::Status ValidateEntityGraphOptions(const EntityGraphOptions& options);

struct EntityGraphStats {
  size_t candidate_pairs = 0;  // deduped candidate pairs
  size_t scored_pairs = 0;
  size_t kept_edges = 0;
  size_t capped_queries = 0;
  // Per-stage wall-clock, for scaling curves (bench_scalability). The
  // row pass scores each candidate row as it builds it, so
  // candidate_seconds covers Eq. 1-3 too.
  double candidate_seconds = 0.0;   // candidate rows, built and scored
  double profile_seconds = 0.0;     // query sets + content profiles
  // Always 0: no stage scores apart from the row pass. Kept because
  // perfbench reports it as core.entity_graph.scoring_s.
  double scoring_seconds = 0.0;
  double degree_cap_seconds = 0.0;  // per-entity top-k degree cap
};

// One scored candidate edge (u < v), the unit of the pre-degree-cap
// edge store. BuildEntityGraph produces these internally; the
// incremental maintenance path (src/daemon) keeps a standing set of
// them between sliding-window updates.
struct ScoredEdge {
  uint32_t u = 0;
  uint32_t v = 0;
  double s = 0.0;

  bool operator==(const ScoredEdge&) const = default;
};

// Item ids a query contributes to candidate generation. Over-cap
// queries keep the top-`cap` links by click weight (ties toward the
// smaller item id) instead of the first `cap` in storage order, so a
// strong co-click link stored late in the adjacency list still
// generates its pairs. The selected *set* depends only on the
// (id, count) multiset, never on link storage order — the property the
// incremental path relies on to reproduce candidacy from its own
// aggregate counts.
std::vector<uint32_t> CappedQueryItems(
    const std::vector<graph::BipartiteGraph::Link>& links, size_t cap,
    bool* capped);

// The last stage of BuildEntityGraph, exposed so the incremental
// maintenance path can finalize its standing edge store through the
// exact same pass. Keeps an edge iff it ranks within the top
// `max_degree` edges of either endpoint under (similarity desc, u, v) —
// exactly the set the greedy "sort by that order, keep an edge while
// either endpoint is under `max_degree`" keeps — and lists each row in
// that order, so rows and weighted degrees equal the greedy's AddEdge
// sequence. `edges` must be strictly ascending by (u, v) with
// u < v < num_entities (both callers produce them so); self-loops,
// reversed or out-of-range ids, repeats and out-of-order edges are
// rejected with an error Status.
util::Result<graph::WeightedGraph> ApplyDegreeCap(
    std::vector<ScoredEdge> edges, size_t num_entities, size_t max_degree);

// `title_words[i]` are the title token ids of entity i; `word_vectors`
// is the trained word2vec table indexed by those ids. The bipartite
// graph's right side must have exactly `title_words.size()` vertices.
util::Result<graph::WeightedGraph> BuildEntityGraph(
    const graph::BipartiteGraph& query_item_graph,
    const std::vector<std::vector<uint32_t>>& title_words,
    const text::EmbeddingTable& word_vectors,
    const EntityGraphOptions& options, EntityGraphStats* stats = nullptr);

}  // namespace shoal::core

#endif  // SHOAL_CORE_ENTITY_GRAPH_H_
