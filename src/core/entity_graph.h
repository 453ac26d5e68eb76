#ifndef SHOAL_CORE_ENTITY_GRAPH_H_
#define SHOAL_CORE_ENTITY_GRAPH_H_

#include <cstdint>
#include <vector>

#include "core/minhash.h"
#include "graph/bipartite_graph.h"
#include "graph/weighted_graph.h"
#include "text/embedding.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace shoal::core {

// How candidate pairs are generated before exact Eq. 1-3 rescoring.
//
//   kExact      — every pair of entities co-clicked under at least one
//                 query (the reference path; cost grows with the square
//                 of per-query fanout and is the scaling wall before
//                 the paper's 200M-entity regime).
//   kMinHashLsh — streaming MinHash signatures over query sets (Eq. 1
//                 signal) and title token shingles (Eq. 2 signal),
//                 banded LSH buckets emit candidates, exact rescoring
//                 keeps precision. Sub-quadratic; recall vs the exact
//                 graph is measured and CI-gated (bench_scalability
//                 --candidate_strategy=lsh, perf_diff --mode recall).
enum class CandidateStrategy { kExact, kMinHashLsh };

// Knobs of the kMinHashLsh pipeline (DESIGN.md §6.1). With b bands of
// r rows, a pair whose shingle-set Jaccard is j collides somewhere
// with probability 1 - (1 - j^r)^b.
struct EntityGraphLshOptions {
  MinHashConfig minhash;        // bands / rows / hash seed
  // Title token n-gram length for the Eq. 2 content shingles.
  size_t title_shingle_len = 2;
  // Buckets larger than this are skipped (degenerate collisions);
  // 0 = unlimited.
  size_t max_bucket = 1024;
  // Streaming granularity: entities per producer batch and queue slots
  // between the signature producers and the bucket-insert consumer.
  size_t batch_entities = 2048;
  size_t queue_capacity = 16;
};

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
  // Worker threads for candidate generation, profile building, and
  // scoring. 1 (the default) runs the single-shard serial reference
  // path; 0 means hardware concurrency. Every setting produces the
  // same edge set, weights, and stats (timings aside): candidates come
  // out as one sorted key vector, shards concatenate in a fixed order,
  // and the degree cap orders edges by (similarity desc, u, v).
  size_t num_threads = 1;
  // Candidate generation strategy; kMinHashLsh keeps the same
  // determinism contract (candidates are deduped and sorted before
  // rescoring, so the graph is byte-identical at any thread count).
  CandidateStrategy candidate_strategy = CandidateStrategy::kExact;
  EntityGraphLshOptions lsh;
};

struct EntityGraphStats {
  size_t candidate_pairs = 0;  // deduped candidates, either strategy
  size_t scored_pairs = 0;
  size_t kept_edges = 0;
  size_t capped_queries = 0;
  // LSH candidate stage (CandidateStrategy::kMinHashLsh runs only).
  size_t lsh_signed_entities = 0;   // entities with a non-empty shingle set
  size_t lsh_buckets = 0;           // >= 2-member buckets across bands
  size_t lsh_skipped_buckets = 0;   // over max_bucket, dropped
  size_t lsh_emitted_pairs = 0;     // bucket pair emissions before dedup
  // Per-stage wall-clock, for scaling curves (bench_scalability).
  double candidate_seconds = 0.0;   // pair generation + merge (either path)
  double signature_seconds = 0.0;   // MinHash signing share of the above
  double profile_seconds = 0.0;     // query sets + content profiles
  double scoring_seconds = 0.0;     // Eq. 1-3 over candidate pairs
  double degree_cap_seconds = 0.0;  // sort + greedy degree cap
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

// Stage 5 of BuildEntityGraph, exposed so the incremental maintenance
// path can finalize its standing edge store through the exact same
// pass: sort by (similarity desc, u, v) and greedily keep edges while
// either endpoint is under `max_degree`. Consumes `edges` (sorted in
// place). Pure function of the edge multiset — byte-identical output
// for any input order.
util::Result<graph::WeightedGraph> ApplyDegreeCap(
    std::vector<ScoredEdge> edges, size_t num_entities, size_t max_degree);

// The kMinHashLsh candidate stage, exposed for tests and diagnostics:
// returns the deduped, ascending `(u << 32) | v`-packed pairs that
// BuildEntityGraph would rescore. `queries_of[e]` are the sorted query
// ids of entity e (see BipartiteGraph::QueriesOfItem). `pool` may be
// null (serial reference path); the result is identical either way.
std::vector<uint64_t> BuildLshCandidatePairs(
    const std::vector<std::vector<uint32_t>>& queries_of,
    const std::vector<std::vector<uint32_t>>& title_words,
    const EntityGraphLshOptions& options, util::ThreadPool* pool,
    EntityGraphStats* stats = nullptr);

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
