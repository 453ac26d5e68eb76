#ifndef SHOAL_CORE_PARALLEL_HAC_H_
#define SHOAL_CORE_PARALLEL_HAC_H_

#include <cstdint>
#include <vector>

#include "core/dendrogram.h"
#include "core/hac_common.h"
#include "graph/weighted_graph.h"
#include "util/result.h"

namespace shoal::core {

// Parallel Hierarchical Agglomerative Clustering (Sec 2.2) — the paper's
// contribution. Each *round*:
//
//   1. Local maximal edges: in the paper, `diffusion_iterations` (k)
//      iterations of graph diffusion in which every cluster exchanges
//      the best edge it knows with its neighbours. An edge survives as a
//      *local maximal edge* when both endpoints still consider it the
//      best edge they have seen — equivalently, when no mergeable edge
//      within k hops of either endpoint beats it. This implementation
//      finds the same set without diffusion: the candidates are the
//      mutually-best pairs (each endpoint's strongest mergeable edge is
//      the other), kept up to date from what each merge batch changed,
//      and an exact serial k-hop check decides each one (DESIGN.md §8).
//   2. All local maximal edges (a matching, hence conflict-free) are
//      merged as one batch — in parallel in the paper, here as serial
//      merges in pair order; similarities to the merged cluster follow
//      the linkage rule (Eq. 4 by default).
//
// Rounds repeat until no remaining similarity reaches the threshold.
// Fewer diffusion iterations -> more local maxima -> more merges per
// round -> higher parallel degree (the trade-off of Figure 3); the paper
// fixes diffusion_iterations = 2.
struct ParallelHacOptions {
  HacOptions hac;
  size_t diffusion_iterations = 2;
  size_t num_threads = 2;
};

struct ParallelHacStats {
  size_t rounds = 0;
  size_t total_merges = 0;
  // Always zero: no round sends messages or runs supersteps. Kept only
  // because perfbench reports them (core.hac.messages/.supersteps).
  uint64_t total_messages = 0;
  size_t total_supersteps = 0;
  // Local maximal edges found (== merges) in each round; the parallel
  // degree trace reported by bench_diffusion.
  std::vector<size_t> merges_per_round;
  // Mutually-best pairs evaluated across all rounds, and how many of
  // those were rejected — by the exact ball-k verification or by a
  // still-live cached refutation. Every round evaluates every current
  // mutually-best pair, so a pair that stays blocked for r rounds counts
  // r times in both: these count pair-rounds, and total_candidates -
  // total_rejected == total_merges.
  uint64_t total_candidates = 0;
  uint64_t total_rejected = 0;
};

util::Result<Dendrogram> ParallelHac(const graph::WeightedGraph& graph,
                                     const ParallelHacOptions& options,
                                     ParallelHacStats* stats = nullptr);

}  // namespace shoal::core

#endif  // SHOAL_CORE_PARALLEL_HAC_H_
