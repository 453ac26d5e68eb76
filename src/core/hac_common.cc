#include "core/hac_common.h"

#include <algorithm>
#include <cmath>
#include <tuple>

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
// `visit(c, value)` is called in ascending id order for every neighbour
// of a or b except the pair itself.
template <typename Visit>
void MergeRows(const std::vector<ClusterEdge>& ra,
               const std::vector<ClusterEdge>& rb, uint32_t a, uint32_t b,
               uint32_t n_a, uint32_t n_b, LinkageRule rule, Visit&& visit) {
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
    visit(c, MergedSimilarity(rule, s_ac, s_bc, n_a, n_b));
  }
}

}  // namespace

ClusterGraph::ClusterGraph(const graph::WeightedGraph& base,
                           double track_threshold)
    : track_threshold_(track_threshold) {
  const size_t n = base.num_vertices();
  rows_.resize(n);
  sizes_.assign(n, 1);
  active_.assign(n, 1);
  mergeable_count_.assign(n, 0);
  strong_.resize(n);
  num_active_ = n;
  for (graph::VertexId u = 0; u < n; ++u) {
    const auto& neighbors = base.Neighbors(u);
    auto& row = rows_[u];
    row.reserve(neighbors.size());
    for (const graph::Edge& e : neighbors) {
      row.push_back(ClusterEdge{e.to, e.weight});
      if (track_threshold_ > 0.0 && e.weight >= track_threshold_) {
        ++mergeable_count_[u];
      }
    }
    std::sort(row.begin(), row.end(),
              [](const ClusterEdge& x, const ClusterEdge& y) {
                return x.id < y.id;
              });
    if (track_threshold_ > 0.0) {
      auto& strong = strong_[u];
      strong.reserve(mergeable_count_[u]);
      for (const ClusterEdge& e : row) {
        if (e.similarity >= track_threshold_) strong.push_back(e.id);
      }
      if (mergeable_count_[u] > 0) frontier_.push_back(u);
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
  auto it = std::lower_bound(row.begin(), row.end(), b,
                             [](const ClusterEdge& e, uint32_t id) {
                               return e.id < id;
                             });
  if (it == row.end() || it->id != b) return nullptr;
  return &*it;
}

void ClusterGraph::RetireCluster(uint32_t c) {
  std::vector<ClusterEdge>().swap(rows_[c]);
  std::vector<uint32_t>().swap(strong_[c]);
  active_[c] = 0;
  mergeable_count_[c] = 0;
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
  MergeRows(rows_[a], rows_[b], a, b, n_a, n_b, rule,
            [&merged](uint32_t c, double s) {
              merged.push_back(ClusterEdge{c, s});
            });

  // Rewire neighbours from a/b to the new cluster, keeping the
  // mergeable-edge counts in sync (old edges to a/b leave, the new edge
  // to the merged cluster arrives at the sorted row's tail because
  // new_id is the largest id).
  const bool track = track_threshold_ > 0.0;
  uint32_t new_count = 0;
  for (const ClusterEdge& e : merged) {
    auto& row = rows_[e.id];
    auto dead = std::remove_if(
        row.begin(), row.end(), [&](const ClusterEdge& re) {
          if (re.id != a && re.id != b) return false;
          if (track && re.similarity >= track_threshold_) {
            --mergeable_count_[e.id];
          }
          return true;
        });
    row.erase(dead, row.end());
    row.push_back(ClusterEdge{new_id, e.similarity});
    if (track) {
      auto& strong = strong_[e.id];
      strong.erase(std::remove_if(strong.begin(), strong.end(),
                                  [&](uint32_t id) {
                                    return id == a || id == b;
                                  }),
                   strong.end());
    }
    if (track && e.similarity >= track_threshold_) {
      strong_[e.id].push_back(new_id);
      ++mergeable_count_[e.id];
      ++new_count;
    }
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
  match_slot_.resize(rows_.size(), kUnmatched);
  util::Status status = util::Status::OK();
  size_t marked = 0;
  for (uint32_t m = 0; m < pairs.size(); ++m) {
    const auto [a, b] = pairs[m];
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
    if (match_slot_[a] != kUnmatched || match_slot_[b] != kUnmatched) {
      status = util::Status::FailedPrecondition(util::StringPrintf(
          "edge (%u,%u) shares an endpoint with another matched edge — "
          "local maximal edges must form a matching",
          a, b));
      break;
    }
    match_slot_[a] = m;
    match_slot_[b] = m;
    marked = m + 1;
  }
  for (uint32_t m = 0; m < marked; ++m) {
    match_slot_[pairs[m].first] = kUnmatched;
    match_slot_[pairs[m].second] = kUnmatched;
  }
  return status;
}

util::Status ClusterGraph::MergeBatch(
    const std::vector<std::pair<uint32_t, uint32_t>>& pairs,
    uint32_t first_new_id, LinkageRule rule) {
  if (pairs.empty()) return util::Status::OK();
  // Everything is validated before any mutation so a bad matching leaves
  // the graph (and therefore the caller's dendrogram) untouched.
  SHOAL_RETURN_IF_ERROR(ValidateMatching(pairs, first_new_id));
  const size_t num_merges = pairs.size();
  for (uint32_t m = 0; m < num_merges; ++m) {
    match_slot_[pairs[m].first] = m;
    match_slot_[pairs[m].second] = m;
  }
  const bool track = track_threshold_ > 0.0;

  // Phase 1 — merged rows, computed against the pre-round state.
  // Neighbours that are themselves endpoints of a *later* pair k > m are
  // recorded as cross contributions: the serial ordering applies pair
  // m's linkage weights first and pair k's second, so the earlier pair
  // owns the inner MergedSimilarity application.
  struct CrossContrib {
    uint32_t pair;   // the other (later) pair index
    uint8_t side;    // 0: neighbour is pairs[pair].first, 1: .second
    double value;    // inner linkage value, this pair's sizes
  };
  std::vector<std::vector<ClusterEdge>> merged_rows(num_merges);
  std::vector<std::vector<CrossContrib>> contribs(num_merges);
  auto scan_pair = [&](size_t m) {
    const auto [a, b] = pairs[m];
    auto& out = merged_rows[m];
    out.reserve(rows_[a].size() + rows_[b].size());
    auto& cx = contribs[m];
    MergeRows(rows_[a], rows_[b], a, b, sizes_[a], sizes_[b], rule,
              [&](uint32_t c, double s) {
                const uint32_t k = match_slot_[c];
                if (k == kUnmatched) {
                  out.push_back(ClusterEdge{c, s});
                } else if (k > m) {
                  cx.push_back(CrossContrib{
                      k, static_cast<uint8_t>(c == pairs[k].first ? 0 : 1),
                      s});
                }
                // k == m is the partner (excluded); k < m is owned by
                // pair k's scan.
              });
  };
  for (size_t m = 0; m < num_merges; ++m) scan_pair(m);

  // Phase 2 — resolve cross-pair similarities. For pairs m < k the
  // serial result is MergedSimilarity over the two inner values with
  // pair k's sizes, first argument on pairs[k].first's side.
  std::vector<std::vector<ClusterEdge>> cross(num_merges);
  for (uint32_t m = 0; m < num_merges; ++m) {
    auto& cx = contribs[m];
    std::sort(cx.begin(), cx.end(),
              [](const CrossContrib& x, const CrossContrib& y) {
                return std::tie(x.pair, x.side) < std::tie(y.pair, y.side);
              });
    for (size_t i = 0; i < cx.size();) {
      const uint32_t k = cx[i].pair;
      double first_side = 0.0;
      double second_side = 0.0;
      for (; i < cx.size() && cx[i].pair == k; ++i) {
        (cx[i].side == 0 ? first_side : second_side) = cx[i].value;
      }
      const double s = MergedSimilarity(rule, first_side, second_side,
                                        sizes_[pairs[k].first],
                                        sizes_[pairs[k].second]);
      cross[m].push_back(ClusterEdge{k, s});
      cross[k].push_back(ClusterEdge{m, s});
    }
  }
  for (uint32_t m = 0; m < num_merges; ++m) {
    auto& cr = cross[m];
    std::sort(cr.begin(), cr.end(),
              [](const ClusterEdge& x, const ClusterEdge& y) {
                return x.id < y.id;
              });
    for (const ClusterEdge& e : cr) {
      merged_rows[m].push_back(ClusterEdge{first_new_id + e.id,
                                           e.similarity});
    }
  }

  // Phase 3 — neighbour patches as a deterministic cluster-id-ordered
  // reduction: every (neighbour, pair, similarity) triple, stably sorted
  // by neighbour id (pairs stay ascending within a neighbour, so the
  // appended entries keep rows id-sorted). Groups touch disjoint rows.
  struct Patch {
    uint32_t c;
    uint32_t pair;
    double similarity;
  };
  std::vector<Patch> patches;
  for (uint32_t m = 0; m < num_merges; ++m) {
    for (const ClusterEdge& e : merged_rows[m]) {
      if (e.id >= first_new_id) break;  // cross entries live at the tail
      patches.push_back(Patch{e.id, m, e.similarity});
    }
  }
  std::stable_sort(patches.begin(), patches.end(),
                   [](const Patch& x, const Patch& y) { return x.c < y.c; });
  std::vector<size_t> group_starts;
  for (size_t i = 0; i < patches.size(); ++i) {
    if (i == 0 || patches[i].c != patches[i - 1].c) group_starts.push_back(i);
  }
  group_starts.push_back(patches.size());
  auto apply_group = [&](size_t g) {
    const size_t begin = group_starts[g];
    const size_t end = group_starts[g + 1];
    const uint32_t c = patches[begin].c;
    auto& row = rows_[c];
    // The only entries the batch can retire in a surviving row are
    // endpoints of the pairs that patch it (every merged row emits a
    // patch for each surviving union neighbour, so a row adjacent to a
    // pair is always in that pair's group). Rows are id-sorted: locate
    // the few dead entries by binary search and compact once from the
    // first hit, instead of running a predicate over the whole row.
    constexpr size_t kMaxGroupSearch = 32;  // beyond this, a scan is cheaper
    uint32_t dead_pos[2 * kMaxGroupSearch];
    uint32_t dead_strong[2 * kMaxGroupSearch];
    size_t num_dead = 0;
    size_t num_dead_strong = 0;
    const bool overflow = end - begin > kMaxGroupSearch;
    if (!overflow) {
      for (size_t i = begin; i < end; ++i) {
        for (const uint32_t id : {pairs[patches[i].pair].first,
                                  pairs[patches[i].pair].second}) {
          const auto it = std::lower_bound(
              row.begin(), row.end(), id,
              [](const ClusterEdge& e, uint32_t key) { return e.id < key; });
          if (it != row.end() && it->id == id) {
            dead_pos[num_dead++] = static_cast<uint32_t>(it - row.begin());
            if (track && it->similarity >= track_threshold_) {
              dead_strong[num_dead_strong++] = id;
            }
          }
        }
      }
    }
    if (overflow) {
      auto dead = std::remove_if(
          row.begin(), row.end(), [&](const ClusterEdge& re) {
            if (match_slot_[re.id] == kUnmatched) return false;
            if (track && re.similarity >= track_threshold_) {
              --mergeable_count_[c];
            }
            return true;
          });
      row.erase(dead, row.end());
      if (track) {
        auto& strong = strong_[c];
        strong.erase(std::remove_if(strong.begin(), strong.end(),
                                    [&](uint32_t id) {
                                      return match_slot_[id] != kUnmatched;
                                    }),
                     strong.end());
      }
    } else if (num_dead > 0) {
      std::sort(dead_pos, dead_pos + num_dead);
      size_t w = dead_pos[0];
      size_t d = 0;
      for (size_t r = dead_pos[0]; r < row.size(); ++r) {
        if (d < num_dead && r == dead_pos[d]) {
          if (track && row[r].similarity >= track_threshold_) {
            --mergeable_count_[c];
          }
          ++d;
          continue;
        }
        row[w++] = row[r];
      }
      row.resize(w);
      if (num_dead_strong > 0) {
        auto& strong = strong_[c];
        for (size_t d2 = 0; d2 < num_dead_strong; ++d2) {
          const auto it = std::lower_bound(strong.begin(), strong.end(),
                                           dead_strong[d2]);
          strong.erase(it);  // guaranteed present: the row entry was strong
        }
      }
    }
    for (size_t i = begin; i < end; ++i) {
      row.push_back(
          ClusterEdge{first_new_id + patches[i].pair, patches[i].similarity});
      if (track && patches[i].similarity >= track_threshold_) {
        strong_[c].push_back(first_new_id + patches[i].pair);
        ++mergeable_count_[c];
      }
    }
  };
  const size_t num_groups = group_starts.size() - 1;
  for (size_t g = 0; g < num_groups; ++g) apply_group(g);

  // Phase 4 — commit the new clusters and retire the merged ones.
  for (uint32_t m = 0; m < num_merges; ++m) {
    const auto [a, b] = pairs[m];
    uint32_t new_count = 0;
    if (track) {
      for (const ClusterEdge& e : merged_rows[m]) {
        if (e.similarity >= track_threshold_) ++new_count;
      }
      std::vector<uint32_t> strong;
      strong.reserve(new_count);
      for (const ClusterEdge& e : merged_rows[m]) {
        if (e.similarity >= track_threshold_) strong.push_back(e.id);
      }
      strong_.push_back(std::move(strong));
    } else {
      strong_.emplace_back();
    }
    rows_.push_back(std::move(merged_rows[m]));
    sizes_.push_back(sizes_[a] + sizes_[b]);
    active_.push_back(1);
    mergeable_count_.push_back(new_count);
    if (track && new_count > 0) {
      frontier_.push_back(first_new_id + m);
    }
  }
  for (const auto& [a, b] : pairs) {
    match_slot_[a] = kUnmatched;
    match_slot_[b] = kUnmatched;
    RetireCluster(a);
    RetireCluster(b);
  }
  match_slot_.resize(rows_.size(), kUnmatched);
  num_active_ -= num_merges;
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
