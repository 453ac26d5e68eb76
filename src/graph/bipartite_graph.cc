#include "graph/bipartite_graph.h"

#include <algorithm>
#include <utility>

#include "util/string_util.h"

namespace shoal::graph {

BipartiteGraph::BipartiteGraph(size_t num_left, size_t num_right)
    : left_adj_(num_left), right_adj_(num_right) {}

BipartiteGraph BipartiteGraph::FromLeftLinks(
    std::vector<std::vector<Link>> left_links, size_t num_right) {
  BipartiteGraph graph(0, num_right);
  graph.left_adj_ = std::move(left_links);
  std::vector<uint32_t> degree(num_right, 0);
  for (const std::vector<Link>& links : graph.left_adj_) {
    for (const Link& link : links) {
      ++degree[link.id];
      graph.total_interactions_ += link.count;
    }
    graph.num_edges_ += links.size();
  }
  for (uint32_t right = 0; right < num_right; ++right) {
    graph.right_adj_[right].reserve(degree[right]);
  }
  for (uint32_t left = 0; left < graph.num_left(); ++left) {
    for (const Link& link : graph.left_adj_[left]) {
      graph.right_adj_[link.id].push_back(Link{left, link.count});
    }
  }
  return graph;
}

util::Status BipartiteGraph::AddInteraction(uint32_t left, uint32_t right,
                                            uint32_t count) {
  if (left >= num_left() || right >= num_right()) {
    return util::Status::OutOfRange(
        util::StringPrintf("interaction (%u,%u) outside (%zu,%zu)", left,
                           right, num_left(), num_right()));
  }
  if (count == 0) {
    return util::Status::InvalidArgument("interaction count must be > 0");
  }
  auto& links = left_adj_[left];
  auto it = std::find_if(links.begin(), links.end(),
                         [right](const Link& l) { return l.id == right; });
  if (it != links.end()) {
    it->count += count;
    auto& rlinks = right_adj_[right];
    auto rit = std::find_if(rlinks.begin(), rlinks.end(),
                            [left](const Link& l) { return l.id == left; });
    rit->count += count;
  } else {
    links.push_back(Link{right, count});
    right_adj_[right].push_back(Link{left, count});
    ++num_edges_;
  }
  total_interactions_ += count;
  return util::Status::OK();
}

std::vector<uint32_t> BipartiteGraph::QueriesOfItem(uint32_t right) const {
  std::vector<uint32_t> out;
  out.reserve(right_adj_[right].size());
  for (const Link& l : right_adj_[right]) out.push_back(l.id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace shoal::graph
