#ifndef SHOAL_GRAPH_WEIGHTED_GRAPH_H_
#define SHOAL_GRAPH_WEIGHTED_GRAPH_H_

#include <cstdint>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace shoal::graph {

using VertexId = uint32_t;

inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

struct Edge {
  VertexId to = kInvalidVertex;
  double weight = 0.0;

  bool operator==(const Edge&) const = default;
};

// Undirected weighted graph over vertices [0, num_vertices), backed by
// per-vertex adjacency rows. Edge lookups scan the shorter of the two
// endpoint rows. This is the *static* input structure; the HAC cluster
// graph in shoal::core keeps its own mutable overlay.
class WeightedGraph {
 public:
  WeightedGraph() = default;
  explicit WeightedGraph(size_t num_vertices) { Resize(num_vertices); }

  // Adopts finished adjacency rows: rows[u] lists u's neighbours in the
  // order Neighbors(u) reports them, and WeightedDegree(u) sums them in
  // that order. The rows must already be symmetric (v appears in rows[u]
  // with weight w exactly when u appears in rows[v] with weight w), with
  // no self-loops, out-of-range ids or repeats; the caller guarantees
  // this, it is not checked. TotalEdgeWeight() sums rows in u order.
  static WeightedGraph FromRows(std::vector<std::vector<Edge>> rows);

  // Replaces u's row with `row` and returns the old one, leaving the
  // graph as FromRows of its current rows would build it:
  // WeightedDegree(u) is re-summed in row order, and once any row has
  // been replaced TotalEdgeWeight() re-sums every row in u order. The
  // caller replaces both ends of every edge it adds, drops or reweights,
  // so the rows are symmetric again before the graph is read, and keeps
  // FromRows' other preconditions; neither is checked.
  std::vector<Edge> ReplaceRow(VertexId u, std::vector<Edge> row);

  // Grows the vertex set to `num_vertices` (never shrinks).
  void Resize(size_t num_vertices);

  size_t num_vertices() const { return adjacency_.size(); }
  size_t num_edges() const { return num_entries_ / 2; }

  // Adds an undirected edge. Self-loops and duplicate edges are rejected.
  util::Status AddEdge(VertexId u, VertexId v, double weight);

  bool HasEdge(VertexId u, VertexId v) const;

  // Weight of edge (u, v), or 0.0 when absent — matching the paper's
  // convention "S(A,C) = 0 if the similarity between A and C is
  // unavailable" (Eq. 4).
  double EdgeWeight(VertexId u, VertexId v) const;

  const std::vector<Edge>& Neighbors(VertexId u) const {
    return adjacency_[u];
  }

  size_t Degree(VertexId u) const { return adjacency_[u].size(); }

  // Sum of weights of edges incident to u.
  double WeightedDegree(VertexId u) const { return weighted_degree_[u]; }

  // Sum of all edge weights (each undirected edge counted once).
  double TotalEdgeWeight() const;

  // All edges, each reported once with to > from.
  struct FullEdge {
    VertexId u;
    VertexId v;
    double weight;
  };
  std::vector<FullEdge> AllEdges() const;

 private:
  // The (u, v) entry of the shorter endpoint row, or null when absent.
  const Edge* FindEdge(VertexId u, VertexId v) const;

  std::vector<std::vector<Edge>> adjacency_;
  std::vector<double> weighted_degree_;
  size_t num_entries_ = 0;  // row entries, two per edge
  double total_weight_ = 0.0;
  bool rows_replaced_ = false;  // total_weight_ is stale; re-sum rows
};

}  // namespace shoal::graph

#endif  // SHOAL_GRAPH_WEIGHTED_GRAPH_H_
