#include "core/entity_graph.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <memory>

#include "core/lsh_index.h"
#include "core/minhash.h"
#include "core/similarity.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bounded_queue.h"
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

// One producer batch of the streaming LSH pipeline: the entities of a
// contiguous range that had a non-empty shingle set, with their band
// keys laid out back to back (`bands` keys per entity). Signatures
// themselves never leave the producer — only the folded band keys
// travel, so the n × (bands·rows) signature matrix is never
// materialized.
struct BandKeyBatch {
  std::vector<uint32_t> entities;
  std::vector<uint64_t> band_keys;
};

}  // namespace

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

util::Result<graph::WeightedGraph> ApplyDegreeCap(
    std::vector<ScoredEdge> edges, size_t num_entities, size_t max_degree) {
  std::sort(edges.begin(), edges.end(),
            [](const ScoredEdge& a, const ScoredEdge& b) {
              if (a.s != b.s) return a.s > b.s;
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });
  std::vector<size_t> degree(num_entities, 0);
  graph::WeightedGraph entity_graph(num_entities);
  for (const ScoredEdge& e : edges) {
    if (degree[e.u] >= max_degree && degree[e.v] >= max_degree) {
      continue;
    }
    SHOAL_RETURN_IF_ERROR(entity_graph.AddEdge(e.u, e.v, e.s));
    ++degree[e.u];
    ++degree[e.v];
  }
  return entity_graph;
}

std::vector<uint64_t> BuildLshCandidatePairs(
    const std::vector<std::vector<uint32_t>>& queries_of,
    const std::vector<std::vector<uint32_t>>& title_words,
    const EntityGraphLshOptions& options, util::ThreadPool* pool,
    EntityGraphStats* stats) {
  const MinHasher hasher(options.minhash);
  const size_t bands = hasher.bands();
  const size_t num_entities = queries_of.size();
  const size_t batch_entities = std::max<size_t>(1, options.batch_entities);

  util::Stopwatch sign_timer;
  obs::ScopedSpan sign_span("entity_graph.lsh.sign");

  // Signs entities [begin, end), appending full batches through `push`.
  // A pure function of the inputs: which thread signs an entity never
  // changes its band keys.
  const auto sign_range = [&](size_t begin, size_t end,
                              const std::function<void(BandKeyBatch&&)>&
                                  push) {
    std::vector<uint64_t> shingles;
    std::vector<uint64_t> signature;
    std::vector<uint64_t> band_keys;
    BandKeyBatch batch;
    for (size_t e = begin; e < end; ++e) {
      shingles.clear();
      AppendQueryShingles(queries_of[e], &shingles);
      AppendTitleShingles(title_words[e], options.title_shingle_len,
                          &shingles);
      if (!hasher.BandKeys(shingles, &signature, &band_keys)) continue;
      batch.entities.push_back(static_cast<uint32_t>(e));
      batch.band_keys.insert(batch.band_keys.end(), band_keys.begin(),
                             band_keys.end());
      if (batch.entities.size() >= batch_entities) {
        push(std::move(batch));
        batch = BandKeyBatch{};
      }
    }
    if (!batch.entities.empty()) push(std::move(batch));
  };

  LshIndex index(bands);
  size_t signed_entities = 0;
  const auto insert_batch = [&](const BandKeyBatch& batch) {
    for (size_t i = 0; i < batch.entities.size(); ++i) {
      index.Insert(batch.entities[i], batch.band_keys.data() + i * bands);
    }
    signed_entities += batch.entities.size();
  };

  if (pool != nullptr && num_entities > batch_entities) {
    // Producer/consumer over a bounded queue: pool workers sign
    // fixed-size entity ranges and stream band-key batches to the
    // calling thread, which is the single bucket-insert consumer.
    // Backpressure (queue_capacity slots) bounds the in-flight batches
    // regardless of how far the producers run ahead. Producers
    // decrement the remaining-counter only after their last Push, so
    // Close() cannot drop a batch.
    util::BoundedQueue<BandKeyBatch> queue(
        std::max<size_t>(1, options.queue_capacity));
    const size_t num_ranges =
        (num_entities + batch_entities - 1) / batch_entities;
    std::atomic<size_t> remaining{num_ranges};
    for (size_t r = 0; r < num_ranges; ++r) {
      const size_t begin = r * batch_entities;
      const size_t end = std::min(num_entities, begin + batch_entities);
      pool->Submit([&, begin, end] {
        sign_range(begin, end,
                   [&](BandKeyBatch&& batch) { queue.Push(std::move(batch)); });
        if (remaining.fetch_sub(1) == 1) queue.Close();
      });
    }
    BandKeyBatch batch;
    while (queue.Pop(&batch)) insert_batch(batch);
    pool->Wait();
  } else {
    sign_range(0, num_entities,
               [&](BandKeyBatch&& batch) { insert_batch(batch); });
  }
  const double signature_seconds = sign_timer.ElapsedSeconds();
  sign_span.AddArg("signed", static_cast<double>(signed_entities));
  sign_span.End();

  obs::ScopedSpan emit_span("entity_graph.lsh.emit");
  LshStats lsh_stats;
  std::vector<uint64_t> pairs =
      index.CandidatePairs(options.max_bucket, pool, &lsh_stats);
  emit_span.AddArg("pairs", static_cast<double>(pairs.size()));
  emit_span.End();

  if (stats != nullptr) {
    stats->lsh_signed_entities = signed_entities;
    stats->lsh_buckets = lsh_stats.buckets;
    stats->lsh_skipped_buckets = lsh_stats.skipped_buckets;
    stats->lsh_emitted_pairs = lsh_stats.emitted_pairs;
    stats->signature_seconds = signature_seconds;
  }
  return pairs;
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
  if (options.alpha < 0.0 || options.alpha > 1.0) {
    return util::Status::InvalidArgument("alpha must be in [0,1]");
  }
  if (options.max_items_per_query == 0) {
    return util::Status::InvalidArgument("max_items_per_query must be > 0");
  }

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

  // --- Stage 1: per-entity query sets ----------------------------------
  // Needed ahead of candidate generation: exact rescoring reads them for
  // Eq. 1 and the LSH path shingles them. Each worker writes only its
  // own entities' slots.
  obs::ScopedSpan query_sets_span("entity_graph.query_sets");
  std::vector<std::vector<uint32_t>> queries_of(num_entities);
  for_shards(num_entities, [&](size_t begin, size_t end, size_t /*shard*/) {
    for (size_t e = begin; e < end; ++e) {
      queries_of[e] = query_item_graph.QueriesOfItem(static_cast<uint32_t>(e));
    }
  });
  local_stats.profile_seconds = stage_timer.ElapsedSeconds();
  query_sets_span.End();

  // --- Stage 2: candidate pairs ----------------------------------------
  // Either strategy produces one sorted, duplicate-free key vector:
  // kExact projects the capped query-item graph onto entities row by
  // row; kMinHashLsh streams MinHash band keys into LSH buckets and
  // collects bucket pairs. The sorted order makes the scoring order (and
  // hence the whole build) deterministic regardless of strategy, thread
  // count, or the order buckets emitted candidates.
  stage_timer.Restart();
  obs::ScopedSpan candidate_span("entity_graph.candidates");
  std::vector<uint64_t> candidates;
  if (options.candidate_strategy == CandidateStrategy::kMinHashLsh) {
    candidates = BuildLshCandidatePairs(queries_of, title_words,
                                        options.lsh, pool.get(),
                                        &local_stats);
  } else {
    // Each query's capped item set, computed once and sorted so that
    // the partners of an item are the tail of the set after it.
    std::vector<std::vector<uint32_t>> query_items(
        query_item_graph.num_left());
    std::vector<size_t> shard_capped(max_shards, 0);
    for_shards(query_items.size(),
               [&](size_t begin, size_t end, size_t shard) {
                 for (size_t q = begin; q < end; ++q) {
                   bool capped = false;
                   query_items[q] = CappedQueryItems(
                       query_item_graph.LeftNeighbors(
                           static_cast<uint32_t>(q)),
                       options.max_items_per_query, &capped);
                   std::sort(query_items[q].begin(), query_items[q].end());
                   if (capped) ++shard_capped[shard];
                 }
               });
    for (size_t c : shard_capped) local_stats.capped_queries += c;

    // Row u holds the partners v > u that share a capped set with u,
    // deduplicated by a per-worker dense marker (last_seen[v] == u once
    // v is in the row) and then sorted. Rows are concatenated in u
    // order, so the keys come out ascending and duplicate-free with no
    // hashing and no global sort.
    const size_t num_ranges =
        std::min(num_entities, max_shards * kRangesPerWorker);
    std::vector<std::vector<uint64_t>> range_keys(num_ranges);
    std::atomic<size_t> next_range{0};
    for_shards(max_shards, [&](size_t /*begin*/, size_t /*end*/,
                               size_t shard) {
      obs::ScopedSpan shard_span("entity_graph.candidate_shard");
      std::vector<uint32_t> last_seen(num_entities, kNoEntity);
      std::vector<uint32_t> row;
      size_t ranges = 0;
      size_t pairs = 0;
      for (size_t r; (r = next_range.fetch_add(1)) < num_ranges;) {
        std::vector<uint64_t>& keys = range_keys[r];
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
          for (uint32_t v : row) {
            keys.push_back((static_cast<uint64_t>(u) << 32) | v);
          }
        }
        ++ranges;
        pairs += keys.size();
      }
      shard_span.AddArg("shard", static_cast<double>(shard));
      shard_span.AddArg("ranges", static_cast<double>(ranges));
      shard_span.AddArg("pairs", static_cast<double>(pairs));
    });
    size_t total = 0;
    for (const auto& keys : range_keys) total += keys.size();
    candidates.reserve(total);
    for (auto& keys : range_keys) {
      candidates.insert(candidates.end(), keys.begin(), keys.end());
      keys.clear();
      keys.shrink_to_fit();
    }
  }
  local_stats.candidate_pairs = candidates.size();
  local_stats.candidate_seconds = stage_timer.ElapsedSeconds();
  candidate_span.AddArg("pairs",
                        static_cast<double>(local_stats.candidate_pairs));
  candidate_span.End();

  // --- Stage 3: content profiles (Eq. 2 inputs) ------------------------
  stage_timer.Restart();
  obs::ScopedSpan profile_span("entity_graph.profiles");
  std::vector<ContentProfile> profiles =
      BuildContentProfiles(word_vectors, title_words, pool.get());
  local_stats.profile_seconds += stage_timer.ElapsedSeconds();
  profile_span.End();

  // --- Stage 4: score candidates (Eq. 3), keep those above threshold --
  // Shards scan disjoint ranges of the sorted key vector and emit local
  // edge lists; concatenating them in shard order reproduces exactly the
  // serial scan order over the sorted keys.
  stage_timer.Restart();
  obs::ScopedSpan scoring_span("entity_graph.scoring");
  std::vector<std::vector<ScoredEdge>> shard_edges(max_shards);
  for_shards(candidates.size(), [&](size_t begin, size_t end, size_t shard) {
    obs::ScopedSpan shard_span("entity_graph.score_shard");
    shard_span.AddArg("shard", static_cast<double>(shard));
    shard_span.AddArg("pairs", static_cast<double>(end - begin));
    std::vector<ScoredEdge>& out = shard_edges[shard];
    out.reserve((end - begin) / 4 + 1);
    for (size_t i = begin; i < end; ++i) {
      const uint64_t key = candidates[i];
      const uint32_t u = static_cast<uint32_t>(key >> 32);
      const uint32_t v = static_cast<uint32_t>(key & 0xffffffffULL);
      const double sq = QueryJaccard(queries_of[u], queries_of[v]);
      const double sc = ContentSimilarity(profiles[u], profiles[v]);
      const double s = CombinedSimilarity(sq, sc, options.alpha);
      if (s >= options.similarity_threshold) out.push_back({u, v, s});
    }
  });
  local_stats.scored_pairs = candidates.size();
  std::vector<ScoredEdge> edges;
  {
    size_t total = 0;
    for (const auto& s : shard_edges) total += s.size();
    edges.reserve(total);
    for (auto& s : shard_edges) {
      edges.insert(edges.end(), s.begin(), s.end());
      s.clear();
      s.shrink_to_fit();
    }
  }
  local_stats.scoring_seconds = stage_timer.ElapsedSeconds();
  scoring_span.AddArg("kept", static_cast<double>(edges.size()));
  scoring_span.End();

  // --- Stage 5: degree cap ---------------------------------------------
  // Keep each entity's strongest edges only ("one item entity should
  // have only a few neighbor entities", Sec 2.2). An edge survives if it
  // ranks within the cap for *either* endpoint, so the graph stays
  // connected along strong paths. The (u, v) tie-break pins the greedy
  // order for equal similarities.
  stage_timer.Restart();
  SHOAL_TRACE_SPAN("entity_graph.degree_cap");
  auto capped_graph =
      ApplyDegreeCap(std::move(edges), num_entities, options.max_degree);
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
    if (options.candidate_strategy == CandidateStrategy::kMinHashLsh) {
      metrics.GetGauge("entity_graph.lsh.candidate_pairs")
          .Set(static_cast<double>(local_stats.candidate_pairs));
      metrics.GetGauge("entity_graph.lsh.signed_entities")
          .Set(static_cast<double>(local_stats.lsh_signed_entities));
      metrics.GetGauge("entity_graph.lsh.buckets")
          .Set(static_cast<double>(local_stats.lsh_buckets));
      metrics.GetGauge("entity_graph.lsh.skipped_buckets")
          .Set(static_cast<double>(local_stats.lsh_skipped_buckets));
      metrics.GetGauge("entity_graph.lsh.emitted_pairs")
          .Set(static_cast<double>(local_stats.lsh_emitted_pairs));
    }
    if (pool != nullptr) {
      obs::RecordThreadPoolStats("entity_graph.pool", pool->GetStats());
    }
  }
  return entity_graph;
}

}  // namespace shoal::core
