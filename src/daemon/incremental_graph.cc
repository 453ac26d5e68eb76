#include "daemon/incremental_graph.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <tuple>

#include "obs/trace.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace shoal::daemon {

namespace {

// Sorted-set insert/erase for the per-entity query lists.
bool SortedInsert(std::vector<uint32_t>& v, uint32_t x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it != v.end() && *it == x) return false;
  v.insert(it, x);
  return true;
}

bool SortedErase(std::vector<uint32_t>& v, uint32_t x) {
  auto it = std::lower_bound(v.begin(), v.end(), x);
  if (it == v.end() || *it != x) return false;
  v.erase(it);
  return true;
}

bool PairLess(const core::ScoredEdge& a, const core::ScoredEdge& b) {
  return std::tie(a.u, a.v) < std::tie(b.u, b.v);
}

// Marker value that no entity id takes.
constexpr uint32_t kNoEntity = std::numeric_limits<uint32_t>::max();

using Link = graph::BipartiteGraph::Link;

// Cap heads as the (s, other) of their lowest-ranked edge: an edge
// (s, other) seen from x is in x's top max_degree iff it ranks no lower
// than x's cutoff. Stored scores are finite (they pass the finite
// threshold), so these two never tie with an edge.
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr core::CapIncident kKeepAll{-kInf, kNoEntity, 0};
constexpr core::CapIncident kKeepNone{kInf, 0, 0};

bool InHead(const core::CapIncident& cutoff, double s, uint32_t other) {
  return !core::CapRanksBefore{}(cutoff, {s, other, 0});
}

// Rank order of a capped row's entries, as CapRanksBefore.
struct EdgeRanksBefore {
  bool operator()(const graph::Edge& a, const graph::Edge& b) const {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.to < b.to;
  }
};

}  // namespace

util::Result<IncrementalEntityGraph> IncrementalEntityGraph::Create(
    size_t num_queries,
    const std::vector<std::vector<uint32_t>>& title_words,
    const text::EmbeddingTable& word_vectors,
    const core::EntityGraphOptions& options) {
  SHOAL_RETURN_IF_ERROR(core::ValidateEntityGraphOptions(options));
  IncrementalEntityGraph graph;
  graph.options_ = options;
  graph.query_links_.resize(num_queries);
  graph.queries_of_.resize(title_words.size());
  graph.profiles_ =
      core::BuildContentProfiles(word_vectors, title_words, nullptr);
  graph.capped_ = graph::WeightedGraph(title_words.size());
  return graph;
}

std::vector<uint32_t> IncrementalEntityGraph::CappedSetOf(uint32_t q) const {
  // The links are ascending by entity, so the under-cap path returns
  // sorted ids directly; only a capped selection needs sorting.
  bool capped = false;
  std::vector<uint32_t> items = core::CappedQueryItems(
      query_links_[q], options_.max_items_per_query, &capped);
  if (capped) std::sort(items.begin(), items.end());
  return items;
}

util::Status IncrementalEntityGraph::ApplyDelta(
    const ClickDelta& delta, DeltaStats* stats,
    std::vector<CappedEdgeChange>* changes) {
  obs::ScopedSpan repair_span("daemon.delta");
  DeltaStats local;
  local.delta_entries = delta.entries.size();

  // ---- dirty queries, with every entry checked before a count moves ----
  std::vector<uint32_t> dirty_queries;
  {
    std::vector<char> seen(query_links_.size(), 0);
    for (const ClickDelta::Entry& entry : delta.entries) {
      if (entry.query >= query_links_.size() ||
          entry.entity >= queries_of_.size()) {
        return util::Status::InvalidArgument(util::StringPrintf(
            "delta entry (%u, %u) out of range", entry.query, entry.entity));
      }
      if (entry.delta == 0) continue;
      if (!seen[entry.query]) {
        seen[entry.query] = 1;
        dirty_queries.push_back(entry.query);
      }
    }
  }

  // old_capped[i] is the pre-delta capped set of dirty_queries[i].
  std::vector<std::vector<uint32_t>> old_capped;
  old_capped.reserve(dirty_queries.size());
  for (uint32_t q : dirty_queries) old_capped.push_back(CappedSetOf(q));

  // ---- apply the count changes -----------------------------------------
  // An entity is affected when its query set changes ...
  std::vector<char> affected(queries_of_.size(), 0);
  std::vector<uint32_t> affected_entities;
  const auto affect = [&](uint32_t e) {
    if (affected[e]) return;
    affected[e] = 1;
    affected_entities.push_back(e);
  };
  // ... and its capped row is touched, as is the row of every store
  // partner it has before or after the step (slot[x]: x's index in
  // `touched`).
  std::vector<uint32_t> slot(queries_of_.size(), kNoEntity);
  std::vector<uint32_t> touched;
  const auto touch = [&](uint32_t e) {
    if (slot[e] != kNoEntity) return;
    slot[e] = static_cast<uint32_t>(touched.size());
    touched.push_back(e);
  };
  for (const ClickDelta::Entry& entry : delta.entries) {
    if (entry.delta == 0) continue;
    std::vector<Link>& links = query_links_[entry.query];
    const auto it = std::lower_bound(
        links.begin(), links.end(), entry.entity,
        [](const Link& link, uint32_t e) { return link.id < e; });
    const bool present = it != links.end() && it->id == entry.entity;
    const int64_t old_count = present ? it->count : 0;
    const int64_t new_count = old_count + entry.delta;
    if (new_count < 0) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "window count for (%u, %u) went negative (%lld)", entry.query,
          entry.entity, static_cast<long long>(new_count)));
    }
    if (new_count == 0) {
      if (present) links.erase(it);
    } else if (!present) {
      links.insert(it, {entry.entity, static_cast<uint32_t>(new_count)});
    } else {
      it->count = static_cast<uint32_t>(new_count);
    }
    // Membership transitions drive the Eq. 1 query sets.
    if (old_count == 0 && new_count > 0) {
      SortedInsert(queries_of_[entry.entity], entry.query);
      affect(entry.entity);
    } else if (old_count > 0 && new_count == 0) {
      SortedErase(queries_of_[entry.entity], entry.query);
      affect(entry.entity);
    }
  }

  // Post-delta capped sets, computed once each on first use.
  std::vector<std::vector<uint32_t>> capped(query_links_.size());
  std::vector<char> have_capped(query_links_.size(), 0);
  const auto capped_set = [&](uint32_t q) -> const std::vector<uint32_t>& {
    if (!have_capped[q]) {
      capped[q] = CappedSetOf(q);
      have_capped[q] = 1;
    }
    return capped[q];
  };

  // ... or when it enters or leaves a dirty query's capped set.
  std::vector<uint32_t> moved;
  for (size_t i = 0; i < dirty_queries.size(); ++i) {
    const std::vector<uint32_t>& after = capped_set(dirty_queries[i]);
    moved.clear();
    std::set_symmetric_difference(old_capped[i].begin(), old_capped[i].end(),
                                  after.begin(), after.end(),
                                  std::back_inserter(moved));
    for (uint32_t e : moved) affect(e);
  }

  for (uint32_t e : affected_entities) touch(e);

  // ---- drop every standing edge with an affected end -------------------
  // The edges left keep their candidacy and their scores (class comment).
  // A dropped edge's ends are touched: their old partners.
  std::erase_if(store_, [&](const core::ScoredEdge& edge) {
    if (!affected[edge.u] && !affected[edge.v]) return false;
    touch(edge.u);
    touch(edge.v);
    return true;
  });

  // ---- re-derive the affected rows -------------------------------------
  // Row x is every v sharing a capped set with x, deduplicated by a
  // dense marker (last_seen[v] == x once v is in the row). A pair with
  // both ends affected is taken once, from its smaller end's row.
  core::RowScorer scorer(queries_of_, profiles_, options_,
                         query_links_.size());
  std::vector<uint32_t> last_seen(queries_of_.size(), kNoEntity);
  std::vector<uint32_t> row;
  std::vector<core::ScoredEdge> fresh;
  for (uint32_t x : affected_entities) {
    row.clear();
    for (uint32_t q : queries_of_[x]) {
      const std::vector<uint32_t>& members = capped_set(q);
      // x may be in q's dropped tail, outside the capped set.
      if (!std::binary_search(members.begin(), members.end(), x)) continue;
      for (uint32_t v : members) {
        if ((affected[v] && v <= x) || last_seen[v] == x) continue;
        last_seen[v] = x;
        row.push_back(v);
      }
    }
    scorer.Score(x, row, &fresh);
  }
  for (const core::ScoredEdge& edge : fresh) {
    touch(edge.u);  // one end is affected, the other a new partner
    touch(edge.v);
  }

  // ---- merge the fresh edges into the store ----------------------------
  // Both runs ascend by (u, v), so the store does too; it is never
  // sorted whole.
  std::sort(fresh.begin(), fresh.end(), PairLess);
  const size_t standing = store_.size();
  store_.insert(store_.end(), fresh.begin(), fresh.end());
  std::inplace_merge(store_.begin(), store_.begin() + standing, store_.end(),
                     PairLess);
  repair_span.End();

  obs::ScopedSpan recap_span("daemon.materialize");
  local.rows_recapped = touched.size();
  local.capped_edges_changed = Recap(touched, slot, changes);
  if (stats != nullptr) *stats = local;
  return util::Status::OK();
}

size_t IncrementalEntityGraph::Recap(const std::vector<uint32_t>& touched,
                                     const std::vector<uint32_t>& slot,
                                     std::vector<CappedEdgeChange>* changes) {
  const size_t max_degree = options_.max_degree;

  // ---- each touched row's incident store edges, in one pass -----------
  // Counted first, then filled: incident[offset[i], offset[i + 1]) are
  // touched[i]'s edges, seen from it.
  std::vector<size_t> offset(touched.size() + 1, 0);
  for (const core::ScoredEdge& e : store_) {
    if (slot[e.u] != kNoEntity) ++offset[slot[e.u] + 1];
    if (slot[e.v] != kNoEntity) ++offset[slot[e.v] + 1];
  }
  for (size_t i = 0; i < touched.size(); ++i) offset[i + 1] += offset[i];
  std::vector<core::CapIncident> incident(offset.back());
  {
    std::vector<size_t> fill(offset.begin(), offset.end() - 1);
    for (const core::ScoredEdge& e : store_) {
      if (slot[e.u] != kNoEntity) incident[fill[slot[e.u]]++] = {e.s, e.v, 0};
      if (slot[e.v] != kNoEntity) incident[fill[slot[e.v]]++] = {e.s, e.u, 0};
    }
  }

  // ---- each touched row's top max_degree, as its cutoff ---------------
  std::vector<core::CapIncident> cutoff(touched.size());
  for (size_t i = 0; i < touched.size(); ++i) {
    core::CapIncident* first = incident.data() + offset[i];
    core::CapIncident* last = incident.data() + offset[i + 1];
    core::CapIncident* head = core::SelectCapHead(first, last, max_degree);
    cutoff[i] = head == last ? kKeepAll : head == first ? kKeepNone : head[-1];
  }
  // An untouched row's store edges did not move, so its top max_degree is
  // still the head of its standing capped row (which lists its top
  // max_degree first). Flips below insert or drop only edges ranked
  // after that head, so the head reads the same before and after them.
  const auto cutoff_of = [&](uint32_t x) -> core::CapIncident {
    if (slot[x] != kNoEntity) return cutoff[slot[x]];
    if (max_degree == 0) return kKeepNone;
    const std::vector<graph::Edge>& row = capped_.Neighbors(x);
    if (row.size() < max_degree) return kKeepAll;
    return {row[max_degree - 1].weight, row[max_degree - 1].to, 0};
  };

  // ---- new rows, diffed against the standing ones ---------------------
  // An edge is kept iff it is in the head of either end. A change between
  // two touched rows is reported by its smaller end; a change at an
  // untouched row is patched into that row (only a flip can reach it: an
  // edge with no affected end keeps its score).
  size_t changed = 0;
  const auto report = [&](uint32_t x, uint32_t other, bool removed) {
    if (slot[other] != kNoEntity && other < x) return;
    ++changed;
    if (changes != nullptr) {
      changes->push_back({std::min(x, other), std::max(x, other), removed});
    }
  };
  const auto flip = [&](uint32_t y, graph::Edge edge, bool in) {
    std::vector<graph::Edge> row = capped_.Neighbors(y);
    auto at =
        std::lower_bound(row.begin(), row.end(), edge, EdgeRanksBefore{});
    if (in) {
      row.insert(at, edge);
    } else {
      // The standing entry: an edge at an untouched row keeps its score.
      SHOAL_CHECK(at != row.end() && at->to == edge.to);
      row.erase(at);
    }
    capped_.ReplaceRow(y, std::move(row));
  };
  std::vector<uint32_t> mark(queries_of_.size(), kNoEntity);
  std::vector<double> old_weight(queries_of_.size(), 0.0);
  for (size_t i = 0; i < touched.size(); ++i) {
    const uint32_t x = touched[i];
    core::CapIncident* first = incident.data() + offset[i];
    core::CapIncident* last = std::partition(
        first, incident.data() + offset[i + 1],
        [&](const core::CapIncident& in) {
          return InHead(cutoff[i], in.s, in.other) ||
                 InHead(cutoff_of(in.other), in.s, x);
        });
    std::sort(first, last, core::CapRanksBefore{});
    std::vector<graph::Edge> row;
    row.reserve(last - first);
    for (; first != last; ++first) row.push_back({first->other, first->s});
    const std::vector<graph::Edge> old_row =
        capped_.ReplaceRow(x, std::move(row));

    // mark[o] == x: o is in x's old row and not (yet) in its new one.
    for (const graph::Edge& e : old_row) {
      mark[e.to] = x;
      old_weight[e.to] = e.weight;
    }
    // Flips patch untouched rows only, so x's new row stays in place.
    for (const graph::Edge& e : capped_.Neighbors(x)) {
      if (mark[e.to] == x) {
        mark[e.to] = kNoEntity;
        if (old_weight[e.to] != e.weight) report(x, e.to, false);
        continue;
      }
      report(x, e.to, false);
      if (slot[e.to] == kNoEntity) flip(e.to, {x, e.weight}, true);
    }
    for (const graph::Edge& e : old_row) {
      if (mark[e.to] != x) continue;
      report(x, e.to, true);
      if (slot[e.to] == kNoEntity) flip(e.to, {x, e.weight}, false);
    }
  }
  return changed;
}

graph::BipartiteGraph IncrementalEntityGraph::WindowGraph() const {
  return graph::BipartiteGraph::FromLeftLinks(query_links_,
                                              queries_of_.size());
}

}  // namespace shoal::daemon
