#ifndef SHOAL_GRAPH_BIPARTITE_GRAPH_H_
#define SHOAL_GRAPH_BIPARTITE_GRAPH_H_

#include <cstdint>
#include <vector>

#include "util/status.h"

namespace shoal::graph {

// Query-item bipartite graph (Figure 2 of the paper). Left vertices are
// queries, right vertices are item entities. Each edge carries a count
// (how many times the query led to a click on the item within the
// sliding window).
class BipartiteGraph {
 public:
  BipartiteGraph(size_t num_left, size_t num_right);

  size_t num_left() const { return left_adj_.size(); }
  size_t num_right() const { return right_adj_.size(); }
  size_t num_edges() const { return num_edges_; }

  // Adds `count` to the (query, item) edge, creating it if needed.
  util::Status AddInteraction(uint32_t left, uint32_t right,
                              uint32_t count = 1);

  struct Link {
    uint32_t id;        // vertex on the other side
    uint32_t count;     // interaction count
  };

  // Adopts finished per-query links: left_links[q] lists query q's
  // links, each item at most once, with a count > 0 and an id below
  // `num_right` (the caller guarantees this; it is not checked). The
  // item side is filled by a counting transpose in query order, so the
  // graph equals what AddInteraction over every link, queries ascending
  // and each query's links in order, would build: every row in the same
  // order, num_edges() and total_interactions() alike.
  static BipartiteGraph FromLeftLinks(std::vector<std::vector<Link>> left_links,
                                      size_t num_right);

  const std::vector<Link>& LeftNeighbors(uint32_t left) const {
    return left_adj_[left];
  }
  const std::vector<Link>& RightNeighbors(uint32_t right) const {
    return right_adj_[right];
  }

  // Sorted query ids associated with an item (right vertex). Used by the
  // Jaccard similarity (Eq. 1).
  std::vector<uint32_t> QueriesOfItem(uint32_t right) const;

  // Total interaction count over all edges.
  uint64_t total_interactions() const { return total_interactions_; }

 private:
  std::vector<std::vector<Link>> left_adj_;
  std::vector<std::vector<Link>> right_adj_;
  size_t num_edges_ = 0;
  uint64_t total_interactions_ = 0;
};

}  // namespace shoal::graph

#endif  // SHOAL_GRAPH_BIPARTITE_GRAPH_H_
