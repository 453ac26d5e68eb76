#include "daemon/incremental_graph.h"

#include <algorithm>
#include <iterator>
#include <limits>
#include <tuple>

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

util::Status IncrementalEntityGraph::ApplyDelta(const ClickDelta& delta,
                                                DeltaStats* stats) {
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
  local.dirty_queries = dirty_queries.size();

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
  local.dirty_entities = affected_entities.size();

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

  // ---- drop every standing edge with an affected end -------------------
  // The edges left keep their candidacy and their scores (class comment).
  std::erase_if(store_, [&](const core::ScoredEdge& edge) {
    return affected[edge.u] || affected[edge.v];
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
    local.pairs_rescored += row.size();
    scorer.Score(x, row, &fresh);
  }

  // ---- merge the fresh edges into the store ----------------------------
  // Both runs ascend by (u, v), so the store does too; it is never
  // sorted whole.
  std::sort(fresh.begin(), fresh.end(), PairLess);
  const size_t standing = store_.size();
  store_.insert(store_.end(), fresh.begin(), fresh.end());
  std::inplace_merge(store_.begin(), store_.begin() + standing, store_.end(),
                     PairLess);

  if (stats != nullptr) *stats = local;
  return util::Status::OK();
}

util::Result<graph::WeightedGraph> IncrementalEntityGraph::Materialize()
    const {
  return core::ApplyDegreeCap(store_, queries_of_.size(), options_.max_degree);
}

graph::BipartiteGraph IncrementalEntityGraph::WindowGraph() const {
  graph::BipartiteGraph graph(query_links_.size(), queries_of_.size());
  for (uint32_t q = 0; q < query_links_.size(); ++q) {
    for (const Link& link : query_links_[q]) {
      auto status = graph.AddInteraction(q, link.id, link.count);
      (void)status;  // ids validated on ingest
    }
  }
  return graph;
}

}  // namespace shoal::daemon
