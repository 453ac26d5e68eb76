// M1: google-benchmark microbenchmarks for the kernels the pipeline
// spends its time in — similarity computation, BM25 scoring, word2vec
// training throughput, the entity-graph degree cap, HAC on fixed 3k
// and 20k entity graphs, and the daemon's per-cycle serialization
// (snapshot encoding and CRC-32).

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "ckpt/snapshot.h"
#include "core/entity_graph.h"
#include "core/hac_common.h"
#include "core/parallel_hac.h"
#include "core/similarity.h"
#include "graph/generators.h"
#include "text/bm25.h"
#include "text/word2vec.h"
#include "util/crc32.h"
#include "util/random.h"

namespace {

using namespace shoal;

void BM_QueryJaccard(benchmark::State& state) {
  const size_t set_size = static_cast<size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<uint32_t> a;
  std::vector<uint32_t> b;
  for (size_t i = 0; i < set_size; ++i) {
    a.push_back(static_cast<uint32_t>(rng.Uniform(set_size * 4)));
    b.push_back(static_cast<uint32_t>(rng.Uniform(set_size * 4)));
  }
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::QueryJaccard(a, b));
  }
}
BENCHMARK(BM_QueryJaccard)->Arg(16)->Arg(64)->Arg(256);

void BM_ContentSimilarity(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  text::EmbeddingTable table(100, dim);
  util::Rng rng(2);
  for (size_t r = 0; r < table.rows(); ++r) {
    for (size_t d = 0; d < dim; ++d) {
      table.Row(r)[d] = static_cast<float>(rng.Gaussian());
    }
  }
  std::vector<uint32_t> words_u = {1, 2, 3, 4, 5, 6};
  std::vector<uint32_t> words_v = {7, 8, 9, 10};
  auto u = core::BuildContentProfile(table, words_u);
  auto v = core::BuildContentProfile(table, words_v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::ContentSimilarity(u, v));
  }
}
BENCHMARK(BM_ContentSimilarity)->Arg(16)->Arg(32)->Arg(64);

void BM_BuildContentProfile(benchmark::State& state) {
  const size_t title_len = static_cast<size_t>(state.range(0));
  text::EmbeddingTable table(1000, 32);
  util::Rng rng(3);
  for (size_t r = 0; r < table.rows(); ++r) {
    for (size_t d = 0; d < 32; ++d) {
      table.Row(r)[d] = static_cast<float>(rng.Gaussian());
    }
  }
  std::vector<uint32_t> words;
  for (size_t i = 0; i < title_len; ++i) {
    words.push_back(static_cast<uint32_t>(rng.Uniform(1000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::BuildContentProfile(table, words));
  }
}
BENCHMARK(BM_BuildContentProfile)->Arg(8)->Arg(32);

void BM_Bm25ScoreMatching(benchmark::State& state) {
  const size_t num_docs = static_cast<size_t>(state.range(0));
  util::Rng rng(4);
  text::Bm25Index index;
  for (size_t d = 0; d < num_docs; ++d) {
    std::vector<uint32_t> doc;
    for (size_t t = 0; t < 200; ++t) {
      doc.push_back(static_cast<uint32_t>(rng.Uniform(5000)));
    }
    index.AddDocument(doc);
  }
  std::vector<uint32_t> query = {17, 42, 99};
  for (auto _ : state) {
    benchmark::DoNotOptimize(index.ScoreMatching(query));
  }
}
BENCHMARK(BM_Bm25ScoreMatching)->Arg(64)->Arg(512);

// One Train call: negative-table and embedding setup plus one SGD epoch
// over `sentences` sentences. Arg(0) keeps the vocabulary and trains on
// no sentences, so it times the setup alone; SGD is the difference
// between the two rows.
void BM_Word2VecEpoch(benchmark::State& state) {
  const size_t sentences = static_cast<size_t>(state.range(0));
  text::Vocabulary vocab;
  util::Rng rng(5);
  for (size_t w = 0; w < 500; ++w) {
    vocab.AddWord("w" + std::to_string(w), 1 + rng.Uniform(50));
  }
  std::vector<std::vector<uint32_t>> corpus;
  for (size_t s = 0; s < sentences; ++s) {
    std::vector<uint32_t> sentence;
    for (size_t t = 0; t < 10; ++t) {
      sentence.push_back(static_cast<uint32_t>(rng.Uniform(500)));
    }
    corpus.push_back(std::move(sentence));
  }
  text::Word2VecOptions options;
  options.dim = 32;
  options.epochs = 1;
  for (auto _ : state) {
    auto model = text::Word2Vec::Train(vocab, corpus, options);
    benchmark::DoNotOptimize(model);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(sentences));
}
BENCHMARK(BM_Word2VecEpoch)->Arg(0)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_ApplyDegreeCap(benchmark::State& state) {
  // A seeded (u, v)-ascending candidate list: 8 random partners after
  // each entity (mean degree 16) with scores on a 1/64 grid, so ties are
  // common. A cap of 8 makes most rows run their top-k selection.
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(6);
  std::vector<core::ScoredEdge> edges;
  for (uint32_t u = 0; u + 1 < n; ++u) {
    for (int i = 0; i < 8; ++i) {
      const uint32_t v = u + 1 + static_cast<uint32_t>(rng.Uniform(n - u - 1));
      edges.push_back({u, v, static_cast<double>(rng.Uniform(64)) / 64.0});
    }
  }
  const auto by_pair = [](const core::ScoredEdge& a,
                          const core::ScoredEdge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::sort(edges.begin(), edges.end(), by_pair);
  edges.erase(std::unique(edges.begin(), edges.end(),
                          [](const core::ScoredEdge& a,
                             const core::ScoredEdge& b) {
                            return a.u == b.u && a.v == b.v;
                          }),
              edges.end());
  for (auto _ : state) {
    auto graph = core::ApplyDegreeCap(edges, n, /*max_degree=*/8);
    benchmark::DoNotOptimize(graph);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(edges.size()));
}
BENCHMARK(BM_ApplyDegreeCap)->Arg(10000)->Unit(benchmark::kMillisecond);

// The entity graph of ScaledDataset(entities, 7), built once per tier
// and process by one BuildShoal run outside every timed loop. The 3k
// tier is perfbench's build workload catalog (92,548 edges).
const graph::WeightedGraph& EntityGraph(size_t entities) {
  static std::map<size_t, graph::WeightedGraph> graphs;
  auto it = graphs.find(entities);
  if (it == graphs.end()) {
    core::ShoalOptions options;
    options.num_threads = 1;
    const bench::Workload workload =
        bench::BuildWorkload(bench::ScaledDataset(entities, 7), options);
    it = graphs.emplace(entities, workload.model.entity_graph()).first;
  }
  return it->second;
}

// ClusterGraph construction with ParallelHac's tracking threshold: the
// id-sorted rows, strong lists and mergeable frontier.
void BM_ClusterGraphBuild(benchmark::State& state) {
  const graph::WeightedGraph& graph = EntityGraph(3000);
  const double threshold = core::HacOptions().threshold;
  for (auto _ : state) {
    core::ClusterGraph clusters(graph, threshold);
    benchmark::DoNotOptimize(clusters.num_nodes());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(graph.num_edges()));
}
BENCHMARK(BM_ClusterGraphBuild)->Unit(benchmark::kMillisecond);

// One whole ParallelHac run with the build's options (Eq. 4, k = 2) on
// one thread, at the 3k tier (234 rounds, 2,933 merges) and at 20k.
void BM_ParallelHac(benchmark::State& state) {
  const graph::WeightedGraph& graph =
      EntityGraph(static_cast<size_t>(state.range(0)));
  core::ParallelHacOptions options;
  options.num_threads = 1;
  for (auto _ : state) {
    auto dendrogram = core::ParallelHac(graph, options);
    benchmark::DoNotOptimize(dendrogram);
  }
}
BENCHMARK(BM_ParallelHac)
    ->Arg(3000)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

// The checksum every snapshot, manifest entry and serving index image
// carries; 64 KiB and 1 MiB bracket the 4k daemon's 0.73 MB index and
// 1.38 MB snapshot payload.
void BM_Crc32(benchmark::State& state) {
  const size_t size = static_cast<size_t>(state.range(0));
  util::Rng rng(8);
  std::string buffer(size, '\0');
  for (char& c : buffer) c = static_cast<char>(rng.Uniform(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(util::Crc32(buffer));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(size));
}
BENCHMARK(BM_Crc32)->Arg(64 << 10)->Arg(1 << 20);

// One daemon snapshot payload of the perfbench 4k replay's shape: a
// 7-day window of ~9k (query, entity) pairs a day, a 4k-leaf merge list,
// and ~1.7k carried topic rankings holding ~19k ranked queries.
void BM_EncodeDaemonWindow(benchmark::State& state) {
  constexpr uint32_t kEntities = 4000;
  constexpr uint32_t kQueries = 6000;
  util::Rng rng(9);
  ckpt::DaemonWindowData data;
  data.num_queries = kQueries;
  data.num_entities = kEntities;
  data.window.resize(7);
  for (size_t d = 0; d < data.window.size(); ++d) {
    auto& day = data.window[d];
    day.name = "day-000" + std::to_string(d) + ".clicks.tsv";
    for (size_t i = 0; i < 9000; ++i) {
      day.pairs.push_back({static_cast<uint32_t>(rng.Uniform(kQueries)),
                           static_cast<uint32_t>(rng.Uniform(kEntities)),
                           static_cast<uint32_t>(1 + rng.Uniform(20))});
    }
  }
  data.num_leaves = kEntities;
  for (uint32_t m = 0; m + 1 < kEntities; ++m) {
    data.merges.push_back({static_cast<uint32_t>(rng.Uniform(kEntities + m)),
                           static_cast<uint32_t>(rng.Uniform(kEntities + m)),
                           rng.UniformDouble()});
  }
  data.rankings.resize(1700);
  for (size_t t = 0; t < data.rankings.size(); ++t) {
    data.rankings[t].dendro_node = static_cast<uint32_t>(kEntities + t);
    const size_t len = 1 + rng.Uniform(21);  // ~11 queries a topic
    for (size_t i = 0; i < len; ++i) {
      data.rankings[t].ranking.push_back(
          {static_cast<uint32_t>(rng.Uniform(kQueries)), rng.UniformDouble(),
           rng.UniformDouble(), rng.UniformDouble()});
    }
  }
  size_t bytes = 0;
  for (auto _ : state) {
    std::string payload = ckpt::EncodeDaemonWindow(data);
    bytes = payload.size();
    benchmark::DoNotOptimize(payload.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_EncodeDaemonWindow)->Unit(benchmark::kMillisecond);

void BM_MergedSimilarity(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MergedSimilarity(
        core::LinkageRule::kSqrtNormalized, 0.7, 0.4, 17, 5));
  }
}
BENCHMARK(BM_MergedSimilarity);

}  // namespace

BENCHMARK_MAIN();
