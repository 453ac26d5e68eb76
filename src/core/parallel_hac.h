#ifndef SHOAL_CORE_PARALLEL_HAC_H_
#define SHOAL_CORE_PARALLEL_HAC_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/dendrogram.h"
#include "core/hac_common.h"
#include "graph/weighted_graph.h"
#include "util/result.h"

namespace shoal::core {

struct ParallelHacStats;

// Read-only view of an in-flight HAC run handed to the checkpoint hook
// after a round's merges are fully applied (cluster graph and dendrogram
// are mutually consistent at that instant). `finished` marks the one
// extra invocation after the final round, so a consumer can persist the
// completed dendrogram and a later resume skips HAC entirely.
struct HacProgress {
  const ClusterGraph* clusters = nullptr;
  const Dendrogram* dendrogram = nullptr;
  size_t rounds_done = 0;
  bool finished = false;
  const ParallelHacStats* stats = nullptr;
};

// Parallel Hierarchical Agglomerative Clustering (Sec 2.2) — the paper's
// contribution. Each *round*:
//
//   1. Graph diffusion: for `diffusion_iterations` (k) iterations every
//      cluster exchanges the best edge it knows with its neighbours. An
//      edge survives as a *local maximal edge* when both endpoints still
//      consider it the best edge they have seen — equivalently, when no
//      mergeable edge within k hops of either endpoint beats it.
//   2. All local maximal edges (a matching, hence conflict-free) are
//      merged in parallel; similarities to the merged cluster follow the
//      linkage rule (Eq. 4 by default).
//
// Rounds repeat until no remaining similarity reaches the threshold.
// Fewer diffusion iterations -> more local maxima -> more merges per
// round -> higher parallel degree (the trade-off of Figure 3); the paper
// fixes diffusion_iterations = 2.
//
// How a round finds its local maximal edges. Both modes produce
// byte-identical dendrograms (DESIGN.md §8); only the full-broadcast
// mode sends messages or counts supersteps.
enum class DiffusionMode {
  // Default: no diffusion. The candidates are the mutually-best pairs
  // (each endpoint's strongest mergeable edge is the other), kept up to
  // date from what each merge batch changed, and an exact serial k-hop
  // check decides each one.
  kDelta,
  // Paper-literal reference: a fresh BSP engine per round runs the
  // k-iteration diffusion over a snapshot of the mergeable frontier,
  // every vertex broadcasting each improvement to all mergeable
  // neighbours. O(E) messages per round.
  kFullBroadcast,
};

struct ParallelHacOptions {
  HacOptions hac;
  size_t diffusion_iterations = 2;
  // BSP engine partitions; only the full-broadcast mode runs an engine.
  size_t num_partitions = 8;
  size_t num_threads = 2;
  DiffusionMode diffusion_mode = DiffusionMode::kDelta;
  // Invoke `checkpoint_hook` after every `checkpoint_every`-th completed
  // round (0 disables periodic calls). When a hook is set it is also
  // called once after the final round with HacProgress::finished = true.
  // A failing hook aborts the run with its Status; the hook must not
  // mutate the run (it sees const views).
  size_t checkpoint_every = 0;
  std::function<util::Status(const HacProgress&)> checkpoint_hook;
};

struct ParallelHacStats {
  size_t rounds = 0;
  size_t total_merges = 0;
  // BSP messages and supersteps across all rounds; full-broadcast mode
  // only (always zero in the default mode, which sends no messages).
  uint64_t total_messages = 0;
  size_t total_supersteps = 0;
  // Local maximal edges found (== merges) in each round; the parallel
  // degree trace reported by bench_diffusion.
  std::vector<size_t> merges_per_round;
  // Default-mode telemetry: mutually-best pairs evaluated across all
  // rounds, and how many of those were rejected — by the exact ball-k
  // verification or by a still-live cached refutation. A rejected pair
  // parks until a watched vertex dies and is only re-counted when it is
  // re-evaluated, so these count *evaluations*, not pair-rounds;
  // total_candidates - total_rejected == total_merges. Always zero in
  // full-broadcast mode. Diagnostic only: not part of the checkpoint
  // image, so a resumed run restarts these counters.
  uint64_t total_candidates = 0;
  uint64_t total_rejected = 0;
};

util::Result<Dendrogram> ParallelHac(const graph::WeightedGraph& graph,
                                     const ParallelHacOptions& options,
                                     ParallelHacStats* stats = nullptr);

// Mid-run image of a parallel HAC: everything the round loop needs to
// continue, with no reference back to the original entity graph (the
// ClusterGraph is self-contained). Produced by the checkpoint subsystem
// from a HacProgress snapshot.
struct HacResumeState {
  ClusterGraph clusters;
  Dendrogram dendrogram;
  size_t rounds_done = 0;
  // Cumulative stats of the interrupted run up to `rounds_done`, so the
  // resumed run's final stats match the uninterrupted run's.
  ParallelHacStats stats;
};

// Continues an interrupted run from `state`. The round loop is the same
// code path as ParallelHac, and the restored frontier/adjacency state is
// bit-exact, so the resumed run produces a dendrogram byte-identical to
// the uninterrupted one — at any thread or partition count. Fails with
// InvalidArgument when `state` is inconsistent or was captured under a
// different threshold than `options.hac.threshold`.
util::Result<Dendrogram> ResumeParallelHac(const ParallelHacOptions& options,
                                           HacResumeState state,
                                           ParallelHacStats* stats = nullptr);

}  // namespace shoal::core

#endif  // SHOAL_CORE_PARALLEL_HAC_H_
