// M1: google-benchmark microbenchmarks for the kernels the pipeline
// spends its time in — similarity computation, BM25 scoring, word2vec
// training throughput, the entity-graph degree cap, and union-find.

#include <algorithm>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/entity_graph.h"
#include "core/hac_common.h"
#include "core/similarity.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "text/bm25.h"
#include "text/word2vec.h"
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
BENCHMARK(BM_Word2VecEpoch)->Arg(200)->Unit(benchmark::kMillisecond);

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

void BM_UnionFind(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  util::Rng rng(7);
  for (auto _ : state) {
    graph::UnionFind uf(n);
    for (size_t i = 0; i < n; ++i) {
      uf.Union(static_cast<uint32_t>(rng.Uniform(n)),
               static_cast<uint32_t>(rng.Uniform(n)));
    }
    benchmark::DoNotOptimize(uf.num_components());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_UnionFind)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_MergedSimilarity(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::MergedSimilarity(
        core::LinkageRule::kSqrtNormalized, 0.7, 0.4, 17, 5));
  }
}
BENCHMARK(BM_MergedSimilarity);

}  // namespace

BENCHMARK_MAIN();
