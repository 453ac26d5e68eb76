#include "core/hac_common.h"

#include <algorithm>
#include <cmath>

#include "util/string_util.h"

namespace shoal::core {

const char* LinkageRuleName(LinkageRule rule) {
  switch (rule) {
    case LinkageRule::kSqrtNormalized:
      return "sqrt_normalized";
    case LinkageRule::kArithmeticMean:
      return "arithmetic_mean";
    case LinkageRule::kMax:
      return "max";
    case LinkageRule::kMin:
      return "min";
  }
  return "unknown";
}

double MergedSimilarity(LinkageRule rule, double s_ac, double s_bc,
                        uint32_t n_a, uint32_t n_b) {
  switch (rule) {
    case LinkageRule::kSqrtNormalized: {
      double ra = std::sqrt(static_cast<double>(n_a));
      double rb = std::sqrt(static_cast<double>(n_b));
      return (ra * s_ac + rb * s_bc) / (ra + rb);
    }
    case LinkageRule::kArithmeticMean: {
      double na = static_cast<double>(n_a);
      double nb = static_cast<double>(n_b);
      return (na * s_ac + nb * s_bc) / (na + nb);
    }
    case LinkageRule::kMax:
      return std::max(s_ac, s_bc);
    case LinkageRule::kMin:
      return std::min(s_ac, s_bc);
  }
  return 0.0;
}

util::Status ValidateHacOptions(const HacOptions& options) {
  if (!std::isfinite(options.threshold) || options.threshold <= 0.0) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "threshold must be finite and positive, got %g", options.threshold));
  }
  return util::Status::OK();
}

bool EdgeBeats(uint32_t cu, uint32_t cv, double cs, uint32_t iu, uint32_t iv,
               double is) {
  if (cs != is) return cs > is;
  uint32_t cmin = std::min(cu, cv);
  uint32_t cmax = std::max(cu, cv);
  uint32_t imin = std::min(iu, iv);
  uint32_t imax = std::max(iu, iv);
  if (cmin != imin) return cmin < imin;
  return cmax < imax;
}

namespace {

// Union of two id-sorted rows with the linkage rule applied per entry:
// the Eq. 4 update as a two-pointer sorted merge (missing side = 0).
// Appends every neighbour of a or b except the pair itself to `out`, in
// ascending id order.
void MergeRows(const std::vector<ClusterEdge>& ra,
               const std::vector<ClusterEdge>& rb, uint32_t a, uint32_t b,
               uint32_t n_a, uint32_t n_b, LinkageRule rule,
               std::vector<ClusterEdge>& out) {
  size_t i = 0;
  size_t j = 0;
  const size_t na = ra.size();
  const size_t nb = rb.size();
  while (i < na || j < nb) {
    const uint32_t ca = i < na ? ra[i].id : kNoNode;
    const uint32_t cb = j < nb ? rb[j].id : kNoNode;
    uint32_t c;
    double s_ac = 0.0;
    double s_bc = 0.0;
    if (ca <= cb) {
      c = ca;
      s_ac = ra[i].similarity;
      ++i;
      if (cb == ca) {
        s_bc = rb[j].similarity;
        ++j;
      }
    } else {
      c = cb;
      s_bc = rb[j].similarity;
      ++j;
    }
    if (c == a || c == b) continue;
    out.push_back(
        ClusterEdge{c, MergedSimilarity(rule, s_ac, s_bc, n_a, n_b)});
  }
}

// Orders a row entry before an id: lower_bound over an id-sorted row.
constexpr auto kIdLess = [](const ClusterEdge& e, uint32_t id) {
  return e.id < id;
};

// Erases the elements at `lo` and `hi` (lo before hi; either may be
// v.end() for "absent") in one pass over the tail.
template <typename T>
void EraseAt(std::vector<T>& v, typename std::vector<T>::iterator lo,
             typename std::vector<T>::iterator hi) {
  if (lo == v.end()) std::swap(lo, hi);
  if (lo == v.end()) return;
  auto out = hi == v.end()
                 ? std::move(lo + 1, v.end(), lo)
                 : std::move(hi + 1, v.end(), std::move(lo + 1, hi, lo));
  v.erase(out, v.end());
}

}  // namespace

ClusterGraph::ClusterGraph(const graph::WeightedGraph& base,
                           double track_threshold)
    : track_threshold_(track_threshold) {
  const size_t n = base.num_vertices();
  const bool track = track_threshold_ > 0.0;
  rows_.resize(n);
  sizes_.assign(n, 1);
  active_.assign(n, 1);
  mergeable_count_.assign(n, 0);
  strong_.resize(n);
  num_active_ = n;
  // Size every row from its own base row (symmetric rows: u's row and
  // the transpose's row u hold the same neighbours and weights).
  for (graph::VertexId u = 0; u < n; ++u) {
    const auto& neighbors = base.Neighbors(u);
    rows_[u].reserve(neighbors.size());
    if (!track) continue;
    for (const graph::Edge& e : neighbors) {
      if (e.weight >= track_threshold_) ++mergeable_count_[u];
    }
    strong_[u].reserve(mergeable_count_[u]);
    if (mergeable_count_[u] > 0) frontier_.push_back(u);
  }
  // Fill by transpose: visiting u ascending and appending u to each
  // neighbour's row emits every row id-sorted, with no per-row sort.
  for (graph::VertexId u = 0; u < n; ++u) {
    for (const graph::Edge& e : base.Neighbors(u)) {
      rows_[e.to].push_back(ClusterEdge{u, e.weight});
      if (track && e.weight >= track_threshold_) strong_[e.to].push_back(u);
    }
  }
}

std::vector<uint32_t> ClusterGraph::ActiveClusters() const {
  std::vector<uint32_t> out;
  out.reserve(num_active_);
  for (uint32_t c = 0; c < active_.size(); ++c) {
    if (active_[c]) out.push_back(c);
  }
  return out;
}

std::vector<uint32_t> ClusterGraph::MergeableClusters() {
  size_t keep = 0;
  for (uint32_t c : frontier_) {
    if (active_[c] && mergeable_count_[c] > 0) frontier_[keep++] = c;
  }
  frontier_.resize(keep);
  return frontier_;
}

const ClusterEdge* ClusterGraph::FindEdge(uint32_t a, uint32_t b) const {
  const auto& row = rows_[a];
  auto it = std::lower_bound(row.begin(), row.end(), b, kIdLess);
  if (it == row.end() || it->id != b) return nullptr;
  return &*it;
}

void ClusterGraph::RetireCluster(uint32_t c) {
  std::vector<ClusterEdge>().swap(rows_[c]);
  std::vector<uint32_t>().swap(strong_[c]);
  active_[c] = 0;
  mergeable_count_[c] = 0;
}

void ClusterGraph::RewireNeighbor(uint32_t c, uint32_t a, uint32_t b,
                                  uint32_t new_id, double similarity) {
  const uint32_t lo = std::min(a, b);
  const uint32_t hi = std::max(a, b);
  auto& row = rows_[c];
  auto lo_it = std::lower_bound(row.begin(), row.end(), lo, kIdLess);
  auto hi_it = std::lower_bound(lo_it, row.end(), hi, kIdLess);
  if (lo_it != row.end() && lo_it->id != lo) lo_it = row.end();
  if (hi_it != row.end() && hi_it->id != hi) hi_it = row.end();
  if (track_threshold_ > 0.0) {
    const bool strong_lo =
        lo_it != row.end() && lo_it->similarity >= track_threshold_;
    const bool strong_hi =
        hi_it != row.end() && hi_it->similarity >= track_threshold_;
    auto& strong = strong_[c];
    auto s_lo = strong_lo
                    ? std::lower_bound(strong.begin(), strong.end(), lo)
                    : strong.end();
    auto s_hi = strong_hi
                    ? std::lower_bound(strong.begin(), strong.end(), hi)
                    : strong.end();
    EraseAt(strong, s_lo, s_hi);
    mergeable_count_[c] -= strong_lo + strong_hi;
    if (similarity >= track_threshold_) {
      strong.push_back(new_id);
      ++mergeable_count_[c];
    }
  }
  EraseAt(row, lo_it, hi_it);
  row.push_back(ClusterEdge{new_id, similarity});
}

util::Status ClusterGraph::Merge(uint32_t a, uint32_t b, uint32_t new_id,
                                 LinkageRule rule) {
  if (a >= active_.size() || b >= active_.size() || !active_[a] ||
      !active_[b]) {
    return util::Status::FailedPrecondition(
        util::StringPrintf("merge of inactive clusters (%u,%u)", a, b));
  }
  if (a == b) {
    return util::Status::InvalidArgument("cannot merge cluster with itself");
  }
  if (new_id != rows_.size()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "new_id %u must be the next node id %zu", new_id, rows_.size()));
  }

  const uint32_t n_a = sizes_[a];
  const uint32_t n_b = sizes_[b];
  std::vector<ClusterEdge> merged;
  merged.reserve(rows_[a].size() + rows_[b].size());
  MergeRows(rows_[a], rows_[b], a, b, n_a, n_b, rule, merged);

  // Rewire every neighbour from a/b to the new cluster.
  const bool track = track_threshold_ > 0.0;
  uint32_t new_count = 0;
  for (const ClusterEdge& e : merged) {
    RewireNeighbor(e.id, a, b, new_id, e.similarity);
    if (track && e.similarity >= track_threshold_) ++new_count;
  }

  if (track) {
    std::vector<uint32_t> strong;
    strong.reserve(new_count);
    for (const ClusterEdge& e : merged) {
      if (e.similarity >= track_threshold_) strong.push_back(e.id);
    }
    strong_.push_back(std::move(strong));
  } else {
    strong_.emplace_back();
  }
  rows_.push_back(std::move(merged));
  sizes_.push_back(n_a + n_b);
  active_.push_back(1);
  mergeable_count_.push_back(new_count);
  if (track && new_count > 0) frontier_.push_back(new_id);
  RetireCluster(a);
  RetireCluster(b);
  --num_active_;  // two removed, one added
  return util::Status::OK();
}

util::Status ClusterGraph::ValidateMatching(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t first_new_id) {
  if (first_new_id != rows_.size()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "first_new_id %u must be the next node id %zu", first_new_id,
        rows_.size()));
  }
  matched_.resize(rows_.size(), 0);
  util::Status status = util::Status::OK();
  size_t marked = 0;
  for (const auto& [a, b] : pairs) {
    if (a >= active_.size() || b >= active_.size() || !active_[a] ||
        !active_[b]) {
      status = util::Status::FailedPrecondition(
          util::StringPrintf("merge of inactive clusters (%u,%u)", a, b));
      break;
    }
    if (a == b) {
      status =
          util::Status::InvalidArgument("cannot merge cluster with itself");
      break;
    }
    if (matched_[a] || matched_[b]) {
      status = util::Status::FailedPrecondition(util::StringPrintf(
          "edge (%u,%u) shares an endpoint with another matched edge — "
          "local maximal edges must form a matching",
          a, b));
      break;
    }
    matched_[a] = 1;
    matched_[b] = 1;
    ++marked;
  }
  for (size_t m = 0; m < marked; ++m) {
    matched_[pairs[m].first] = 0;
    matched_[pairs[m].second] = 0;
  }
  return status;
}

util::Status ClusterGraph::MergeBatch(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t first_new_id, LinkageRule rule) {
  if (pairs.empty()) return util::Status::OK();
  // Everything is validated before any mutation so a bad matching leaves
  // the graph (and therefore the caller's dendrogram) untouched; after
  // that no Merge below can fail.
  SHOAL_RETURN_IF_ERROR(ValidateMatching(pairs, first_new_id));
  for (uint32_t m = 0; m < pairs.size(); ++m) {
    SHOAL_RETURN_IF_ERROR(
        Merge(pairs[m].first, pairs[m].second, first_new_id + m, rule));
  }
  return util::Status::OK();
}

ClusterGraph::BestEdge ClusterGraph::GlobalBestEdge() const {
  BestEdge best;
  for (uint32_t c = 0; c < active_.size(); ++c) {
    if (!active_[c]) continue;
    for (const ClusterEdge& e : rows_[c]) {
      if (e.id < c) continue;  // visit each edge once
      if (best.similarity < 0.0 ||
          EdgeBeats(c, e.id, e.similarity, best.u, best.v,
                    best.similarity)) {
        best = BestEdge{c, e.id, e.similarity};
      }
    }
  }
  return best;
}

}  // namespace shoal::core
