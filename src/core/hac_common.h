#ifndef SHOAL_CORE_HAC_COMMON_H_
#define SHOAL_CORE_HAC_COMMON_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "core/dendrogram.h"
#include "graph/weighted_graph.h"
#include "util/result.h"

namespace shoal::core {

// Rule for computing S(AB, C) when clusters A and B merge. The paper's
// rule is kSqrtNormalized (Eq. 4); the others are ablation alternatives
// (bench_linkage_ablation) corresponding to classic linkage schemes
// adapted to sparse graphs (missing similarity treated as 0).
enum class LinkageRule {
  kSqrtNormalized,   // Eq. 4: sqrt(n)-weighted average
  kArithmeticMean,   // UPGMA-style n-weighted average
  kMax,              // single linkage
  kMin,              // complete linkage
};

const char* LinkageRuleName(LinkageRule rule);

// S(AB, C) given S(A,C), S(B,C) (0 when unavailable) and cluster sizes.
double MergedSimilarity(LinkageRule rule, double s_ac, double s_bc,
                        uint32_t n_a, uint32_t n_b);

// Stopping rule and linkage shared by both HAC implementations.
struct HacOptions {
  // Merging stops when every remaining similarity is below this. The
  // default is calibrated to Eq. 3 similarities with alpha = 0.7, where
  // same-topic pairs typically score 0.4-0.6 (Jaccard rarely saturates
  // even for items with identical intent).
  double threshold = 0.35;
  LinkageRule linkage = LinkageRule::kSqrtNormalized;
};

// InvalidArgument unless the threshold is finite and positive. Every
// HAC entry point checks this first: a NaN threshold passes a `<= 0`
// test, then fails every `>=` comparison and builds an empty dendrogram.
util::Status ValidateHacOptions(const HacOptions& options);

// One entry of a cluster's adjacency row.
struct ClusterEdge {
  uint32_t id = kNoNode;
  double similarity = 0.0;

  bool operator==(const ClusterEdge&) const = default;
};

// Mutable cluster-level overlay over the (static) entity graph used
// while HAC runs. Cluster ids are dendrogram node ids: the original
// entities are leaves [0, n) and every merge appends a node.
//
// Adjacency is stored as flat, id-sorted rows (one contiguous
// vector<ClusterEdge> per cluster) rather than hash maps, so the Eq. 4
// linkage update is a two-pointer sorted merge and row scans are
// sequential reads. Merged clusters always receive the next node id —
// larger than every existing id — so rewiring a neighbour appends at the
// row tail and sortedness is preserved without re-sorting.
class ClusterGraph {
 public:
  // When `track_threshold` > 0 the graph additionally maintains, per
  // cluster, the number of incident edges with similarity >=
  // track_threshold, so callers can iterate only the clusters that can
  // still merge (ParallelHac's per-round frontier).
  explicit ClusterGraph(const graph::WeightedGraph& base,
                        double track_threshold = 0.0);

  size_t num_active() const { return num_active_; }
  size_t num_nodes() const { return rows_.size(); }
  bool IsActive(uint32_t c) const { return active_[c]; }
  uint32_t ClusterSize(uint32_t c) const { return sizes_[c]; }

  // Active cluster ids, ascending.
  std::vector<uint32_t> ActiveClusters() const;

  // Active clusters with at least one edge >= track_threshold, ascending.
  // Requires track_threshold > 0 at construction. Maintained as an
  // incrementally-compacted frontier: the linkage rules never push a
  // similarity above the max of their inputs, so a cluster whose strong
  // edges are gone can never re-enter — each call costs O(frontier), not
  // O(nodes).
  std::vector<uint32_t> MergeableClusters();
  size_t MergeableEdgeCount(uint32_t c) const {
    return mergeable_count_[c];
  }

  // Ids of c's neighbours with similarity >= track_threshold, ascending.
  // Requires track_threshold > 0 at construction. Kept exact by every
  // mutation: scans that only need the mergeable neighbourhood iterate
  // this short dense list instead of filtering the full adjacency row.
  const std::vector<uint32_t>& StrongNeighbors(uint32_t c) const {
    return strong_[c];
  }

  // Adjacency row of an active cluster, sorted ascending by neighbour
  // id (neighbours are active clusters).
  const std::vector<ClusterEdge>& Neighbors(uint32_t c) const {
    return rows_[c];
  }

  // Pointer to the (a, b) entry in a's row, or nullptr when the
  // clusters are not adjacent. Binary search over the sorted row.
  const ClusterEdge* FindEdge(uint32_t a, uint32_t b) const;

  // Similarity of (a, b), or 0.0 when not adjacent (the paper's
  // "S(A,C) = 0 if unavailable" convention).
  double SimilarityOrZero(uint32_t a, uint32_t b) const {
    const ClusterEdge* e = FindEdge(a, b);
    return e == nullptr ? 0.0 : e->similarity;
  }
  bool HasNeighbor(uint32_t a, uint32_t b) const {
    return FindEdge(a, b) != nullptr;
  }

  // Merges active clusters a and b into a new cluster with id `new_id`
  // (must equal the dendrogram node id just created). Applies the
  // linkage rule to every neighbor.
  util::Status Merge(uint32_t a, uint32_t b, uint32_t new_id,
                     LinkageRule rule);

  // Checks that `pairs` is a valid matching over active clusters and
  // that `first_new_id` is the next node id. Never mutates state; the
  // error identifies the offending pair.
  util::Status ValidateMatching(
      const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
      uint32_t first_new_id);

  // Applies a whole round's matching at once: pair m receives id
  // `first_new_id + m`. Produces state bit-identical to calling Merge()
  // on each pair in order: each merged row depends only on the pre-round
  // rows plus a deterministic cross-pair combination (matched pairs are
  // vertex-disjoint), and neighbour patches apply in a cluster-id-ordered
  // reduction. Runs on the calling thread (DESIGN.md §8 has the
  // measurements against a pooled batch). The full matching is validated
  // before any mutation: on error the graph is untouched, so a failed
  // round cannot leave this graph and the dendrogram divergent.
  util::Status MergeBatch(
      const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
      uint32_t first_new_id, LinkageRule rule);

  // Highest-similarity edge among active clusters, or similarity < 0 if
  // the graph has no remaining edges. Ties break toward the
  // lexicographically smallest (min id, max id) pair so every
  // implementation picks the same edge.
  struct BestEdge {
    uint32_t u = kNoNode;
    uint32_t v = kNoNode;
    double similarity = -1.0;
  };
  BestEdge GlobalBestEdge() const;

 private:
  static constexpr uint32_t kUnmatched = static_cast<uint32_t>(-1);

  // Row-tail append plus bookkeeping shared by Merge and MergeBatch.
  void RetireCluster(uint32_t c);

  std::vector<std::vector<ClusterEdge>> rows_;  // id-sorted adjacency
  std::vector<uint32_t> sizes_;
  std::vector<uint8_t> active_;
  std::vector<uint32_t> mergeable_count_;
  // See StrongNeighbors: per-cluster id-sorted mergeable neighbour ids,
  // maintained only when track_threshold_ > 0 (empty otherwise).
  std::vector<std::vector<uint32_t>> strong_;
  // Candidate mergeable clusters (ascending); compacted lazily in
  // MergeableClusters(). Superset property: every cluster with
  // mergeable_count_ > 0 is present.
  std::vector<uint32_t> frontier_;
  // Scratch for MergeBatch: cluster id -> pair index (kUnmatched when
  // not an endpoint). Entries are reset after every batch.
  std::vector<uint32_t> match_slot_;
  double track_threshold_ = 0.0;
  size_t num_active_ = 0;
};

// True if `candidate` beats `incumbent` under the deterministic total
// order (higher similarity wins; ties prefer smaller sorted id pair).
bool EdgeBeats(uint32_t cu, uint32_t cv, double cs, uint32_t iu, uint32_t iv,
               double is);

}  // namespace shoal::core

#endif  // SHOAL_CORE_HAC_COMMON_H_
