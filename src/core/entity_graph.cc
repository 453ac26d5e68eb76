#include "core/entity_graph.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>
#include <tuple>

#include "core/similarity.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace shoal::core {
namespace {

using graph::BipartiteGraph;

// Entity ranges per worker in the exact projection. Head entities have
// far longer rows than the rest, so workers pull several contiguous
// ranges each off a shared counter instead of taking one fixed block.
constexpr size_t kRangesPerWorker = 8;

// Marker value that no entity id takes.
constexpr uint32_t kNoEntity = std::numeric_limits<uint32_t>::max();

}  // namespace

RowScorer::RowScorer(const std::vector<std::vector<uint32_t>>& queries_of,
                     const std::vector<ContentProfile>& profiles,
                     const EntityGraphOptions& options, size_t num_queries)
    : queries_of_(queries_of),
      profiles_(profiles),
      options_(options),
      query_mark_(num_queries, kNoEntity) {}

void RowScorer::Score(uint32_t u, const std::vector<uint32_t>& row,
                      std::vector<ScoredEdge>* out) {
  const std::vector<uint32_t>& queries_u = queries_of_[u];
  for (uint32_t q : queries_u) query_mark_[q] = u;
  for (uint32_t v : row) {
    const std::vector<uint32_t>& queries_v = queries_of_[v];
    size_t shared = 0;
    for (uint32_t q : queries_v) shared += query_mark_[q] == u;
    // A candidate pair shares a query, so the union is never empty.
    const double sq =
        static_cast<double>(shared) /
        static_cast<double>(queries_u.size() + queries_v.size() - shared);
    const double sc = ContentSimilarity(profiles_[u], profiles_[v]);
    const double s = CombinedSimilarity(sq, sc, options_.alpha);
    if (s >= options_.similarity_threshold) {
      out->push_back({std::min(u, v), std::max(u, v), s});
    }
  }
}

std::vector<uint32_t> CappedQueryItems(
    const std::vector<BipartiteGraph::Link>& links, size_t cap,
    bool* capped) {
  std::vector<uint32_t> items;
  if (links.size() <= cap) {
    *capped = false;
    items.reserve(links.size());
    for (const auto& link : links) items.push_back(link.id);
    return items;
  }
  *capped = true;
  std::vector<BipartiteGraph::Link> by_weight(links);
  std::partial_sort(by_weight.begin(), by_weight.begin() + cap,
                    by_weight.end(),
                    [](const BipartiteGraph::Link& a,
                       const BipartiteGraph::Link& b) {
                      if (a.count != b.count) return a.count > b.count;
                      return a.id < b.id;
                    });
  items.reserve(cap);
  for (size_t i = 0; i < cap; ++i) items.push_back(by_weight[i].id);
  return items;
}

CapIncident* SelectCapHead(CapIncident* first, CapIncident* last,
                           size_t max_degree) {
  if (static_cast<size_t>(last - first) <= max_degree) return last;
  if (max_degree == 0) return first;
  std::nth_element(first, first + (max_degree - 1), last, CapRanksBefore{});
  return first + max_degree;
}

util::Result<graph::WeightedGraph> ApplyDegreeCap(
    const std::vector<ScoredEdge>& edges, size_t num_entities,
    size_t max_degree) {
  if (edges.size() > std::numeric_limits<uint32_t>::max()) {
    return util::Status::InvalidArgument("too many edges for the degree cap");
  }
  // Validate, and count each entity's incident edges for the transpose.
  std::vector<size_t> offset(num_entities + 1, 0);
  for (size_t i = 0; i < edges.size(); ++i) {
    const ScoredEdge& e = edges[i];
    if (e.u >= e.v || e.v >= num_entities ||
        (i > 0 &&
         std::tie(edges[i - 1].u, edges[i - 1].v) >= std::tie(e.u, e.v))) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "edge %zu (%u,%u) breaks u < v < %zu or strict (u, v) order", i,
          e.u, e.v, num_entities));
    }
    ++offset[e.u + 1];
    ++offset[e.v + 1];
  }
  for (size_t x = 0; x < num_entities; ++x) offset[x + 1] += offset[x];

  // Entity x's incident edges, seen from x. For a fixed x the greedy's
  // (s desc, u, v) order is CapRanksBefore.
  std::vector<CapIncident> incident(offset[num_entities]);
  {
    std::vector<size_t> fill(offset.begin(), offset.end() - 1);
    for (uint32_t i = 0; i < edges.size(); ++i) {
      const ScoredEdge& e = edges[i];
      incident[fill[e.u]++] = {e.s, e.v, i};
      incident[fill[e.v]++] = {e.s, e.u, i};
    }
  }

  // An edge survives iff it ranks within the top `max_degree` of either
  // endpoint: the greedy meets each endpoint's top k while that endpoint
  // is still under the cap, and by the time it meets any lower edge both
  // endpoints' top k have already been kept.
  std::vector<char> kept(edges.size(), 0);
  for (size_t x = 0; x < num_entities; ++x) {
    CapIncident* first = incident.data() + offset[x];
    CapIncident* last =
        SelectCapHead(first, incident.data() + offset[x + 1], max_degree);
    for (; first != last; ++first) kept[first->edge] = 1;
  }

  // Row x lists x's kept edges in the greedy's insertion order, so rows
  // and weighted degrees equal what AddEdge in that order would build.
  std::vector<std::vector<graph::Edge>> rows(num_entities);
  for (size_t x = 0; x < num_entities; ++x) {
    CapIncident* first = incident.data() + offset[x];
    CapIncident* last = std::partition(
        first, incident.data() + offset[x + 1],
        [&](const CapIncident& in) { return kept[in.edge] != 0; });
    std::sort(first, last, CapRanksBefore{});
    std::vector<graph::Edge>& row = rows[x];
    row.reserve(last - first);
    for (; first != last; ++first) row.push_back({first->other, first->s});
  }
  return graph::WeightedGraph::FromRows(std::move(rows));
}

util::Status ValidateEntityGraphOptions(const EntityGraphOptions& options) {
  // Negated so that NaN, which fails every comparison, is rejected too.
  if (!(options.alpha >= 0.0 && options.alpha <= 1.0)) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "alpha must be finite and in [0,1], got %g", options.alpha));
  }
  if (!std::isfinite(options.similarity_threshold)) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "similarity_threshold must be finite, got %g",
        options.similarity_threshold));
  }
  if (options.max_items_per_query == 0) {
    return util::Status::InvalidArgument("max_items_per_query must be > 0");
  }
  return util::Status::OK();
}

util::Result<graph::WeightedGraph> BuildEntityGraph(
    const graph::BipartiteGraph& query_item_graph,
    const std::vector<std::vector<uint32_t>>& title_words,
    const text::EmbeddingTable& word_vectors,
    const EntityGraphOptions& options, EntityGraphStats* stats) {
  const size_t num_entities = query_item_graph.num_right();
  if (title_words.size() != num_entities) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "title_words size %zu != entity count %zu", title_words.size(),
        num_entities));
  }
  SHOAL_RETURN_IF_ERROR(ValidateEntityGraphOptions(options));

  EntityGraphStats local_stats;
  util::Stopwatch stage_timer;

  // Workers: num_threads == 1 is the serial reference path (no pool);
  // 0 means hardware concurrency. All paths reduce shards in a fixed
  // order, so the result does not depend on the thread count.
  // Clamp absurd requests (e.g. a -1 cast to size_t) instead of letting
  // ThreadPool throw trying to spawn them; no-exceptions library code.
  size_t num_threads = std::min<size_t>(options.num_threads, 256);
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  std::unique_ptr<util::ThreadPool> pool;
  if (num_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(num_threads);
  }
  // Runs fn(begin, end, shard) over [0, n) — one shard inline when
  // serial, one shard per worker on the pool otherwise. `shard` is a
  // dense index < max_shards().
  const size_t max_shards = pool ? pool->num_threads() : 1;
  const auto for_shards =
      [&](size_t n, const std::function<void(size_t, size_t, size_t)>& fn) {
        if (pool) {
          pool->ParallelForChunked(n, fn);
        } else {
          fn(0, n, 0);
        }
      };

  // --- Stage 1: per-entity query sets and content profiles -------------
  // The Eq. 1 and Eq. 2 inputs, needed before any row is scored. Each
  // worker writes only its own entities' slots.
  obs::ScopedSpan query_sets_span("entity_graph.query_sets");
  std::vector<std::vector<uint32_t>> queries_of(num_entities);
  for_shards(num_entities, [&](size_t begin, size_t end, size_t /*shard*/) {
    for (size_t e = begin; e < end; ++e) {
      queries_of[e] = query_item_graph.QueriesOfItem(static_cast<uint32_t>(e));
    }
  });
  query_sets_span.End();
  obs::ScopedSpan profile_span("entity_graph.profiles");
  const std::vector<ContentProfile> profiles =
      BuildContentProfiles(word_vectors, title_words, pool.get());
  local_stats.profile_seconds = stage_timer.ElapsedSeconds();
  profile_span.End();

  // --- Stage 2: candidate rows, scored as they are built ----------------
  stage_timer.Restart();
  obs::ScopedSpan candidate_span("entity_graph.candidates");
  // Each query's capped item set, computed once and sorted so that the
  // partners of an item are the tail of the set after it.
  std::vector<std::vector<uint32_t>> query_items(query_item_graph.num_left());
  std::vector<size_t> shard_capped(max_shards, 0);
  for_shards(query_items.size(), [&](size_t begin, size_t end, size_t shard) {
    for (size_t q = begin; q < end; ++q) {
      bool capped = false;
      query_items[q] = CappedQueryItems(
          query_item_graph.LeftNeighbors(static_cast<uint32_t>(q)),
          options.max_items_per_query, &capped);
      std::sort(query_items[q].begin(), query_items[q].end());
      if (capped) ++shard_capped[shard];
    }
  });
  for (size_t c : shard_capped) local_stats.capped_queries += c;

  // Row u holds the partners v > u that share a capped set with u,
  // deduplicated by a per-worker dense marker (last_seen[v] == u once v
  // is in the row) and then sorted: no hashing and no global sort.
  // Workers pull contiguous entity ranges off a shared counter (head
  // entities have far longer rows than the rest, so a fixed block per
  // worker would leave most of them idle) and score each row as soon as
  // it is built. Range r's edges land in range_edges[r], so the ranges
  // concatenate into the (u, v)-sorted edge list: one worker scores each
  // row in a fixed order, whatever the thread count.
  const size_t num_ranges =
      std::min(num_entities, max_shards * kRangesPerWorker);
  std::vector<std::vector<ScoredEdge>> range_edges(num_ranges);
  std::atomic<size_t> next_range{0};
  std::vector<size_t> shard_pairs(max_shards, 0);
  for_shards(max_shards, [&](size_t /*begin*/, size_t /*end*/, size_t shard) {
    obs::ScopedSpan shard_span("entity_graph.candidate_shard");
    RowScorer scorer(queries_of, profiles, options,
                     query_item_graph.num_left());
    std::vector<uint32_t> last_seen(num_entities, kNoEntity);
    std::vector<uint32_t> row;
    size_t ranges = 0;
    size_t pairs = 0;
    size_t kept = 0;
    for (size_t r; (r = next_range.fetch_add(1)) < num_ranges;) {
      std::vector<ScoredEdge>& out = range_edges[r];
      const size_t end = (r + 1) * num_entities / num_ranges;
      for (size_t e = r * num_entities / num_ranges; e < end; ++e) {
        const uint32_t u = static_cast<uint32_t>(e);
        row.clear();
        for (uint32_t q : queries_of[u]) {
          const std::vector<uint32_t>& items = query_items[q];
          auto it = std::lower_bound(items.begin(), items.end(), u);
          // u may be in q's dropped tail, outside the capped set.
          if (it == items.end() || *it != u) continue;
          for (++it; it != items.end(); ++it) {
            if (last_seen[*it] == u) continue;
            last_seen[*it] = u;
            row.push_back(*it);
          }
        }
        std::sort(row.begin(), row.end());
        pairs += row.size();
        scorer.Score(u, row, &out);
      }
      ++ranges;
      kept += out.size();
    }
    shard_pairs[shard] = pairs;
    shard_span.AddArg("shard", static_cast<double>(shard));
    shard_span.AddArg("ranges", static_cast<double>(ranges));
    shard_span.AddArg("pairs", static_cast<double>(pairs));
    shard_span.AddArg("kept", static_cast<double>(kept));
  });
  for (size_t pairs : shard_pairs) local_stats.candidate_pairs += pairs;
  local_stats.scored_pairs = local_stats.candidate_pairs;
  local_stats.candidate_seconds = stage_timer.ElapsedSeconds();
  candidate_span.AddArg("pairs",
                        static_cast<double>(local_stats.candidate_pairs));
  candidate_span.End();

  std::vector<ScoredEdge> edges;
  {
    size_t total = 0;
    for (const auto& r : range_edges) total += r.size();
    edges.reserve(total);
    for (auto& r : range_edges) {
      edges.insert(edges.end(), r.begin(), r.end());
      r.clear();
      r.shrink_to_fit();
    }
  }

  // --- Stage 3: degree cap ---------------------------------------------
  // Keep each entity's strongest edges only ("one item entity should
  // have only a few neighbor entities", Sec 2.2). An edge survives if it
  // ranks within the cap for *either* endpoint, so the graph stays
  // connected along strong paths. The (u, v) tie-break pins the order
  // for equal similarities.
  stage_timer.Restart();
  SHOAL_TRACE_SPAN("entity_graph.degree_cap");
  auto capped_graph = ApplyDegreeCap(edges, num_entities, options.max_degree);
  if (!capped_graph.ok()) return capped_graph.status();
  graph::WeightedGraph entity_graph = std::move(capped_graph).value();
  local_stats.kept_edges = entity_graph.num_edges();
  local_stats.degree_cap_seconds = stage_timer.ElapsedSeconds();

  if (stats != nullptr) *stats = local_stats;
  if (obs::MetricsRegistry::Global().enabled()) {
    auto& metrics = obs::MetricsRegistry::Global();
    metrics.GetGauge("entity_graph.candidate_pairs")
        .Set(static_cast<double>(local_stats.candidate_pairs));
    metrics.GetGauge("entity_graph.kept_edges")
        .Set(static_cast<double>(local_stats.kept_edges));
    metrics.GetCounter("entity_graph.capped_queries")
        .Increment(local_stats.capped_queries);
    if (pool != nullptr) {
      obs::RecordThreadPoolStats("entity_graph.pool", pool->GetStats());
    }
  }
  return entity_graph;
}

}  // namespace shoal::core
