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

}  // namespace

util::Result<IncrementalEntityGraph> IncrementalEntityGraph::Create(
    size_t num_queries,
    const std::vector<std::vector<uint32_t>>& title_words,
    const text::EmbeddingTable& word_vectors,
    const IncrementalGraphOptions& options) {
  SHOAL_RETURN_IF_ERROR(core::ValidateEntityGraphOptions(options.entity_graph));
  IncrementalEntityGraph graph;
  graph.options_ = options;
  graph.query_counts_.resize(num_queries);
  graph.queries_of_.resize(title_words.size());
  graph.profiles_ =
      core::BuildContentProfiles(word_vectors, title_words, nullptr);
  return graph;
}

std::vector<uint32_t> IncrementalEntityGraph::CappedSetOf(uint32_t q) const {
  const auto& counts = query_counts_[q];
  std::vector<graph::BipartiteGraph::Link> links;
  links.reserve(counts.size());
  for (const auto& [entity, count] : counts) {
    links.push_back({entity, count});
  }
  // CappedQueryItems selects a set independent of link order, but give
  // it the canonical ascending order anyway so the under-cap fast path
  // returns sorted ids directly.
  std::sort(links.begin(), links.end(),
            [](const graph::BipartiteGraph::Link& a,
               const graph::BipartiteGraph::Link& b) { return a.id < b.id; });
  bool capped = false;
  std::vector<uint32_t> items = core::CappedQueryItems(
      links, options_.entity_graph.max_items_per_query, &capped);
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
    std::vector<char> seen(query_counts_.size(), 0);
    for (const ClickDelta::Entry& entry : delta.entries) {
      if (entry.query >= query_counts_.size() ||
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

  std::unordered_map<uint32_t, std::vector<uint32_t>> old_capped;
  old_capped.reserve(dirty_queries.size());
  for (uint32_t q : dirty_queries) old_capped.emplace(q, CappedSetOf(q));

  // ---- pass 2: apply the count changes ---------------------------------
  std::vector<uint32_t> dirty_entities;  // membership changed
  std::vector<uint32_t> new_entities;    // empty -> non-empty
  {
    std::vector<char> entity_seen(queries_of_.size(), 0);
    for (const ClickDelta::Entry& entry : delta.entries) {
      if (entry.delta == 0) continue;
      auto& counts = query_counts_[entry.query];
      auto it = counts.find(entry.entity);
      const int64_t old_count = it == counts.end() ? 0 : it->second;
      const int64_t new_count = old_count + entry.delta;
      if (new_count < 0) {
        return util::Status::InvalidArgument(util::StringPrintf(
            "window count for (%u, %u) went negative (%lld)", entry.query,
            entry.entity, static_cast<long long>(new_count)));
      }
      if (new_count == 0) {
        if (it != counts.end()) counts.erase(it);
      } else if (it == counts.end()) {
        counts.emplace(entry.entity, static_cast<uint32_t>(new_count));
      } else {
        it->second = static_cast<uint32_t>(new_count);
      }
      // Membership transitions drive the Eq. 1 query sets.
      if (old_count == 0 && new_count > 0) {
        const bool was_empty = queries_of_[entry.entity].empty();
        SortedInsert(queries_of_[entry.entity], entry.query);
        if (!entity_seen[entry.entity]) {
          entity_seen[entry.entity] = 1;
          dirty_entities.push_back(entry.entity);
        }
        if (was_empty) new_entities.push_back(entry.entity);
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
  std::sort(new_entities.begin(), new_entities.end());
  new_entities.erase(std::unique(new_entities.begin(), new_entities.end()),
                     new_entities.end());
  // An entity that appeared and fully retired within one delta is not new.
  new_entities.erase(
      std::remove_if(new_entities.begin(), new_entities.end(),
                     [&](uint32_t e) { return queries_of_[e].empty(); }),
      new_entities.end());
  local.dirty_entities = dirty_entities.size();
  local.new_entities = new_entities.size();

  // ---- pass 3: post-delta capped sets for every query we may touch -----
  std::vector<std::vector<uint32_t>> capped_cache(query_counts_.size());
  std::vector<char> capped_valid(query_counts_.size(), 0);
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
    for (uint32_t q : dirty_queries) {
      for (uint32_t e : old_capped[q]) need_entity(e);
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
  for (uint32_t q : dirty_queries) {
    const std::vector<uint32_t>& before = old_capped[q];
    const std::vector<uint32_t>& after = capped_cache[q];
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
    for (const auto& [key, score] : store_) {
      const uint32_t u = static_cast<uint32_t>(key >> 32);
      const uint32_t v = static_cast<uint32_t>(key);
      if (is_dirty[u] || is_dirty[v]) pairs.push_back(key);
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

  for (size_t i = 0; i < pairs.size(); ++i) {
    auto it = store_.find(pairs[i]);
    if (verdicts[i].keep) {
      if (it == store_.end()) {
        store_.emplace(pairs[i], verdicts[i].score);
        ++local.edges_added;
      } else if (it->second != verdicts[i].score) {
        it->second = verdicts[i].score;
        ++local.edges_updated;
      }
    } else if (it != store_.end()) {
      store_.erase(it);
      ++local.edges_removed;
    }
  }

  if (stats != nullptr) *stats = local;
  return util::Status::OK();
}

std::vector<core::ScoredEdge> IncrementalEntityGraph::StoreEdges() const {
  std::vector<core::ScoredEdge> edges;
  edges.reserve(store_.size());
  for (const auto& [key, score] : store_) {
    edges.push_back({static_cast<uint32_t>(key >> 32),
                     static_cast<uint32_t>(key), score});
  }
  std::sort(edges.begin(), edges.end(),
            [](const core::ScoredEdge& a, const core::ScoredEdge& b) {
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  return edges;
}

util::Result<graph::WeightedGraph> IncrementalEntityGraph::Materialize()
    const {
  return core::ApplyDegreeCap(StoreEdges(), queries_of_.size(),
                              options_.entity_graph.max_degree);
}

graph::BipartiteGraph IncrementalEntityGraph::WindowGraph() const {
  graph::BipartiteGraph graph(query_counts_.size(), queries_of_.size());
  std::vector<std::pair<uint32_t, uint32_t>> links;
  for (uint32_t q = 0; q < query_counts_.size(); ++q) {
    links.assign(query_counts_[q].begin(), query_counts_[q].end());
    std::sort(links.begin(), links.end());
    for (const auto& [entity, count] : links) {
      auto status = graph.AddInteraction(q, entity, count);
      (void)status;  // ids validated on ingest
    }
  }
  return graph;
}

}  // namespace shoal::daemon
