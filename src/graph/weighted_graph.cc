#include "graph/weighted_graph.h"

#include <utility>

#include "util/string_util.h"

namespace shoal::graph {

WeightedGraph WeightedGraph::FromRows(std::vector<std::vector<Edge>> rows) {
  WeightedGraph graph;
  graph.adjacency_ = std::move(rows);
  graph.weighted_degree_.assign(graph.adjacency_.size(), 0.0);
  size_t entries = 0;
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (const Edge& e : graph.adjacency_[u]) {
      graph.weighted_degree_[u] += e.weight;
      if (e.to > u) graph.total_weight_ += e.weight;
    }
    entries += graph.adjacency_[u].size();
  }
  graph.num_edges_ = entries / 2;
  return graph;
}

void WeightedGraph::Resize(size_t num_vertices) {
  if (num_vertices > adjacency_.size()) {
    adjacency_.resize(num_vertices);
    weighted_degree_.resize(num_vertices, 0.0);
  }
}

util::Status WeightedGraph::AddEdge(VertexId u, VertexId v, double weight) {
  if (u == v) {
    return util::Status::InvalidArgument(
        util::StringPrintf("self-loop on vertex %u", u));
  }
  if (u >= num_vertices() || v >= num_vertices()) {
    return util::Status::OutOfRange(
        util::StringPrintf("edge (%u,%u) outside vertex range [0,%zu)", u, v,
                           num_vertices()));
  }
  if (FindEdge(u, v) != nullptr) {
    return util::Status::AlreadyExists(
        util::StringPrintf("edge (%u,%u) already present", u, v));
  }
  adjacency_[u].push_back(Edge{v, weight});
  adjacency_[v].push_back(Edge{u, weight});
  weighted_degree_[u] += weight;
  weighted_degree_[v] += weight;
  total_weight_ += weight;
  ++num_edges_;
  return util::Status::OK();
}

const Edge* WeightedGraph::FindEdge(VertexId u, VertexId v) const {
  if (adjacency_[u].size() > adjacency_[v].size()) std::swap(u, v);
  for (const Edge& e : adjacency_[u]) {
    if (e.to == v) return &e;
  }
  return nullptr;
}

bool WeightedGraph::HasEdge(VertexId u, VertexId v) const {
  if (u == v || u >= num_vertices() || v >= num_vertices()) return false;
  return FindEdge(u, v) != nullptr;
}

double WeightedGraph::EdgeWeight(VertexId u, VertexId v) const {
  if (u == v || u >= num_vertices() || v >= num_vertices()) return 0.0;
  const Edge* e = FindEdge(u, v);
  return e == nullptr ? 0.0 : e->weight;
}

std::vector<WeightedGraph::FullEdge> WeightedGraph::AllEdges() const {
  std::vector<FullEdge> out;
  out.reserve(num_edges_);
  for (VertexId u = 0; u < num_vertices(); ++u) {
    for (const Edge& e : adjacency_[u]) {
      if (e.to > u) out.push_back(FullEdge{u, e.to, e.weight});
    }
  }
  return out;
}

}  // namespace shoal::graph
