#ifndef SHOAL_CORE_DENDROGRAM_H_
#define SHOAL_CORE_DENDROGRAM_H_

#include <cstdint>
#include <vector>

#include "util/result.h"

namespace shoal::core {

inline constexpr uint32_t kNoNode = static_cast<uint32_t>(-1);

// Binary merge tree produced by (parallel or sequential) HAC. Leaves are
// the original item entities [0, num_leaves); every merge appends an
// internal node. Multiple roots are expected: clustering stops when all
// remaining similarities fall below the threshold, leaving one root per
// final cluster (these become SHOAL's *root topics*).
class Dendrogram {
 public:
  struct Node {
    uint32_t id = kNoNode;
    uint32_t parent = kNoNode;
    uint32_t left = kNoNode;    // kNoNode for leaves
    uint32_t right = kNoNode;
    uint32_t size = 1;          // leaves under this node
    double merge_similarity = 0.0;  // similarity at which children merged
  };

  explicit Dendrogram(size_t num_leaves);
  // Empty dendrogram (no leaves), e.g. a member assigned later.
  Dendrogram() : Dendrogram(0) {}

  size_t num_leaves() const { return num_leaves_; }
  size_t num_nodes() const { return nodes_.size(); }
  const Node& node(uint32_t id) const { return nodes_[id]; }

  bool IsLeaf(uint32_t id) const { return id < num_leaves_; }
  bool IsRoot(uint32_t id) const { return nodes_[id].parent == kNoNode; }

  // Records the merge of two current roots; returns the new node id.
  // Errors if either argument is not currently a root.
  util::Result<uint32_t> Merge(uint32_t a, uint32_t b, double similarity);

  // Current roots in ascending id order.
  std::vector<uint32_t> Roots() const;

  // All leaf ids under `id` (entity members of the cluster).
  std::vector<uint32_t> LeavesUnder(uint32_t id) const;

  // Cluster label per leaf: the root above each leaf, relabelled densely
  // to [0, num_roots).
  std::vector<uint32_t> FlatClusters() const;

  // Cluster labels obtained by *cutting* the tree: a node is a cluster
  // root if its merge similarity >= min_similarity but its parent's is
  // below (or it has no parent). Leaves not merged at that level are
  // singleton clusters.
  std::vector<uint32_t> CutAt(double min_similarity) const;

  // Total number of merges performed.
  size_t num_merges() const { return nodes_.size() - num_leaves_; }

 private:
  size_t num_leaves_;
  std::vector<Node> nodes_;
};

}  // namespace shoal::core

#endif  // SHOAL_CORE_DENDROGRAM_H_
