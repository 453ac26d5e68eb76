#include "daemon/incremental_graph.h"

#include <algorithm>

#include "util/logging.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

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

bool SortedContains(const std::vector<uint32_t>& v, uint32_t x) {
  return std::binary_search(v.begin(), v.end(), x);
}

using Link = graph::BipartiteGraph::Link;

}  // namespace

util::Result<IncrementalEntityGraph> IncrementalEntityGraph::Create(
    size_t num_queries,
    const std::vector<std::vector<uint32_t>>& title_words,
    const text::EmbeddingTable& word_vectors,
    const IncrementalGraphOptions& options) {
  SHOAL_RETURN_IF_ERROR(core::ValidateEntityGraphOptions(options.entity_graph));
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
      query_links_[q], options_.entity_graph.max_items_per_query, &capped);
  if (capped) std::sort(items.begin(), items.end());
  return items;
}

double IncrementalEntityGraph::Score(uint32_t u, uint32_t v) const {
  const double sq = core::QueryJaccard(queries_of_[u], queries_of_[v]);
  const double sc = core::ContentSimilarity(profiles_[u], profiles_[v]);
  return core::CombinedSimilarity(sq, sc, options_.entity_graph.alpha);
}

bool IncrementalEntityGraph::IsCandidate(
    uint32_t u, uint32_t v,
    const std::vector<std::vector<uint32_t>>& capped_cache,
    const std::vector<char>& capped_valid) const {
  // Walk the (sorted) common queries of u and v; the pair is a
  // candidate iff some common query's capped set holds both.
  const auto& qu = queries_of_[u];
  const auto& qv = queries_of_[v];
  size_t i = 0, j = 0;
  while (i < qu.size() && j < qv.size()) {
    if (qu[i] < qv[j]) {
      ++i;
    } else if (qu[i] > qv[j]) {
      ++j;
    } else {
      // ApplyDelta pre-fills the cache for every query set of every
      // rescored pair's endpoints; a miss here would be a logic bug,
      // not a data condition (and must not be repaired lazily — this
      // runs from parallel workers over shared read-only state).
      const uint32_t q = qu[i];
      SHOAL_CHECK(capped_valid[q]) << "capped set of query " << q
                                   << " was not pre-filled";
      const std::vector<uint32_t>& capped = capped_cache[q];
      if (SortedContains(capped, u) && SortedContains(capped, v)) return true;
      ++i;
      ++j;
    }
  }
  return false;
}

util::Status IncrementalEntityGraph::ApplyDelta(const ClickDelta& delta,
                                                DeltaStats* stats) {
  DeltaStats local;
  local.delta_entries = delta.entries.size();

  // ---- pass 1: dirty queries and their pre-delta capped sets ----------
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
  std::sort(dirty_queries.begin(), dirty_queries.end());
  local.dirty_queries = dirty_queries.size();

  // old_capped[i] is the pre-delta capped set of dirty_queries[i].
  std::vector<std::vector<uint32_t>> old_capped;
  old_capped.reserve(dirty_queries.size());
  for (uint32_t q : dirty_queries) old_capped.push_back(CappedSetOf(q));

  // ---- pass 2: apply the count changes ---------------------------------
  std::vector<uint32_t> dirty_entities;  // membership changed
  {
    std::vector<char> entity_seen(queries_of_.size(), 0);
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
        if (!entity_seen[entry.entity]) {
          entity_seen[entry.entity] = 1;
          dirty_entities.push_back(entry.entity);
        }
      } else if (old_count > 0 && new_count == 0) {
        SortedErase(queries_of_[entry.entity], entry.query);
        if (!entity_seen[entry.entity]) {
          entity_seen[entry.entity] = 1;
          dirty_entities.push_back(entry.entity);
        }
        if (queries_of_[entry.entity].empty()) ++local.retired_entities;
      }
    }
  }
  std::sort(dirty_entities.begin(), dirty_entities.end());
  local.dirty_entities = dirty_entities.size();

  // ---- pass 3: post-delta capped sets for every query we may touch -----
  std::vector<std::vector<uint32_t>> capped_cache(query_links_.size());
  std::vector<char> capped_valid(query_links_.size(), 0);
  {
    std::vector<uint32_t> needed = dirty_queries;
    // Witness checks walk the common queries of pair endpoints; every
    // endpoint is either a dirty entity or a member of some dirty
    // query's capped set, so pre-filling the union of their query sets
    // covers every lookup the rescore loop can make.
    auto need_entity = [&](uint32_t e) {
      needed.insert(needed.end(), queries_of_[e].begin(),
                    queries_of_[e].end());
    };
    for (uint32_t e : dirty_entities) need_entity(e);
    for (const std::vector<uint32_t>& before : old_capped) {
      for (uint32_t e : before) need_entity(e);
      // New capped members are part of the post-delta set, computed
      // below once the cache knows it is needed.
    }
    // The post-delta capped set of a dirty query can include entities
    // that were not in the old set; their query sets are needed too.
    for (uint32_t q : dirty_queries) {
      std::vector<uint32_t> capped = CappedSetOf(q);
      for (uint32_t e : capped) need_entity(e);
      capped_cache[q] = std::move(capped);
      capped_valid[q] = 1;
    }
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    std::vector<uint32_t> to_fill;
    for (uint32_t q : needed) {
      if (!capped_valid[q]) to_fill.push_back(q);
    }
    const size_t threads = options_.entity_graph.num_threads;
    if (threads != 1 && to_fill.size() > 256) {
      util::ThreadPool pool(threads);
      pool.ParallelFor(to_fill.size(), [&](size_t i) {
        capped_cache[to_fill[i]] = CappedSetOf(to_fill[i]);
      });
    } else {
      for (uint32_t q : to_fill) capped_cache[q] = CappedSetOf(q);
    }
    for (uint32_t q : to_fill) capped_valid[q] = 1;
  }

  // ---- pass 4: collect the rescore pair set ----------------------------
  std::vector<uint64_t> pairs;
  auto add_pair = [&](uint32_t a, uint32_t b) {
    if (a == b) return;
    if (a > b) std::swap(a, b);
    pairs.push_back(PairKey(a, b));
  };

  // (a) dirty-query diff: pairs with an endpoint in the symmetric
  // difference of the query's old/new capped sets.
  for (size_t i = 0; i < dirty_queries.size(); ++i) {
    const std::vector<uint32_t>& before = old_capped[i];
    const std::vector<uint32_t>& after = capped_cache[dirty_queries[i]];
    std::vector<uint32_t> sym_diff;
    std::set_symmetric_difference(before.begin(), before.end(), after.begin(),
                                  after.end(), std::back_inserter(sym_diff));
    if (sym_diff.empty()) continue;
    std::vector<uint32_t> all;
    std::set_union(before.begin(), before.end(), after.begin(), after.end(),
                   std::back_inserter(all));
    for (uint32_t x : sym_diff) {
      for (uint32_t y : all) add_pair(x, y);
    }
  }

  // (b) dirty-entity sweep: full capped enumeration over their queries.
  {
    std::vector<char> is_dirty(queries_of_.size(), 0);
    for (uint32_t e : dirty_entities) is_dirty[e] = 1;
    for (uint32_t u : dirty_entities) {
      for (uint32_t q : queries_of_[u]) {
        const std::vector<uint32_t>& capped = capped_cache[q];
        if (!SortedContains(capped, u)) continue;
        for (uint32_t v : capped) add_pair(u, v);
      }
    }
    // (c) standing edges incident to dirty entities.
    for (const core::ScoredEdge& edge : store_) {
      if (is_dirty[edge.u] || is_dirty[edge.v]) {
        pairs.push_back(PairKey(edge.u, edge.v));
      }
    }
  }

  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  local.pairs_rescored = pairs.size();

  // ---- pass 5: rescore ----------------------------------------------
  // Each pair's verdict is a pure function of post-delta state; score in
  // parallel, apply serially in sorted order.
  struct Verdict {
    bool keep = false;
    double score = 0.0;
  };
  std::vector<Verdict> verdicts(pairs.size());
  auto judge = [&](size_t i) {
    const uint32_t u = static_cast<uint32_t>(pairs[i] >> 32);
    const uint32_t v = static_cast<uint32_t>(pairs[i]);
    if (!IsCandidate(u, v, capped_cache, capped_valid)) return;
    const double s = Score(u, v);
    if (s >= options_.entity_graph.similarity_threshold) {
      verdicts[i] = {true, s};
    }
  };
  const size_t threads = options_.entity_graph.num_threads;
  if (threads != 1 && pairs.size() > 512) {
    util::ThreadPool pool(threads);
    pool.ParallelFor(pairs.size(), judge);
  } else {
    for (size_t i = 0; i < pairs.size(); ++i) judge(i);
  }

  // Fold the verdicts into the store in place: a second store-sized
  // buffer raised the daemon's peak RSS. `pairs` ascends and PairKey
  // orders as (u, v) does, so one forward pass rewrites or drops each
  // rescored standing edge, slides the runs between them down over the
  // dropped ones, and sets new edges aside in (u, v) order; those are
  // then appended and merged in. The store stays strictly ascending and
  // is never sorted.
  const auto key_less = [](const core::ScoredEdge& edge, uint64_t key) {
    return PairKey(edge.u, edge.v) < key;
  };
  std::vector<core::ScoredEdge> added;
  auto read = store_.begin();
  auto write = store_.begin();
  // Moves the standing run [read, end) down to `write`; runs before the
  // first dropped edge are already in place.
  const auto slide = [&](std::vector<core::ScoredEdge>::iterator end) {
    write = write == read ? end : std::move(read, end, write);
    read = end;
  };
  for (size_t i = 0; i < pairs.size(); ++i) {
    slide(std::lower_bound(read, store_.end(), pairs[i], key_less));
    const bool present =
        read != store_.end() && PairKey(read->u, read->v) == pairs[i];
    const double old_score = present ? read->s : 0.0;
    if (present) ++read;
    if (!verdicts[i].keep) {
      local.edges_removed += present;
      continue;
    }
    const core::ScoredEdge edge{static_cast<uint32_t>(pairs[i] >> 32),
                                static_cast<uint32_t>(pairs[i]),
                                verdicts[i].score};
    if (present) {
      local.edges_updated += old_score != edge.s;
      *write++ = edge;
    } else {
      added.push_back(edge);
    }
  }
  slide(store_.end());
  store_.erase(write, store_.end());
  local.edges_added = added.size();
  const size_t standing = store_.size();
  store_.insert(store_.end(), added.begin(), added.end());
  std::inplace_merge(store_.begin(), store_.begin() + standing, store_.end(),
                     [](const core::ScoredEdge& a, const core::ScoredEdge& b) {
                       return PairKey(a.u, a.v) < PairKey(b.u, b.v);
                     });

  if (stats != nullptr) *stats = local;
  return util::Status::OK();
}

util::Result<graph::WeightedGraph> IncrementalEntityGraph::Materialize()
    const {
  return core::ApplyDegreeCap(store_, queries_of_.size(),
                              options_.entity_graph.max_degree);
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
