// E3 (Sec 2.2 + Figure 3): graph-diffusion trade-off. "The smaller the
// number of iterations of graph diffusion is, the larger the number of
// local maximal edges is, and the higher the degree of parallelization."
// The paper fixes the maximum number of iterations to 2. Sweeps k and
// reports first-round local maxima, total rounds, supersteps, messages,
// and resulting quality. Runs the paper-literal full-broadcast diffusion:
// the default mode finds the same merges without sending messages, so
// only this mode measures what the diffusion itself costs.

#include "bench_common.h"
#include "eval/cluster_metrics.h"
#include "graph/modularity.h"
#include "util/flags.h"

namespace {

using namespace shoal;

int Run(int argc, char** argv) {
  util::FlagParser flags;
  flags.AddInt64("entities", 3000, "entity count");
  flags.AddString("iterations", "1,2,3,4", "diffusion iteration values");
  flags.AddInt64("seed", 2019, "random seed");
  auto status = flags.Parse(argc, argv);
  SHOAL_CHECK(status.ok()) << status.ToString();
  if (flags.help_requested()) return 0;

  bench::PrintHeader(
      "E3 bench_diffusion",
      "fewer diffusion iterations -> more local maximal edges -> higher "
      "parallel degree (Figure 3); SHOAL sets max iterations = 2");

  auto workload = bench::BuildWorkload(
      bench::ScaledDataset(
          static_cast<size_t>(flags.GetInt64("entities")),
          static_cast<uint64_t>(flags.GetInt64("seed"))),
      core::ShoalOptions{});
  const auto& graph = workload.model.entity_graph();
  std::printf("entity graph: %zu vertices, %zu edges\n\n",
              graph.num_vertices(), graph.num_edges());

  std::printf("%-6s %-16s %-10s %-12s %-12s %-10s %-12s %-8s\n", "k",
              "round1_merges", "rounds", "supersteps", "messages",
              "time_s", "modularity", "NMI");
  for (const std::string& k_text :
       util::Split(flags.GetString("iterations"), ',')) {
    size_t k = std::strtoull(k_text.c_str(), nullptr, 10);
    core::ParallelHacOptions options;
    options.diffusion_iterations = k;
    options.diffusion_mode = core::DiffusionMode::kFullBroadcast;
    options.num_threads = 2;
    core::ParallelHacStats stats;
    util::Stopwatch timer;
    auto d = core::ParallelHac(graph, options, &stats);
    double seconds = timer.ElapsedSeconds();
    SHOAL_CHECK(d.ok()) << d.status().ToString();
    auto modularity = graph::Modularity(graph, d->FlatClusters());
    auto nmi = eval::NormalizedMutualInformation(
        d->FlatClusters(), workload.dataset.EntityIntentLabels());
    SHOAL_CHECK(modularity.ok() && nmi.ok());
    std::printf("%-6zu %-16zu %-10zu %-12zu %-12llu %-10.3f %-12.4f %-8.4f\n",
                k, stats.merges_per_round.empty()
                       ? 0
                       : stats.merges_per_round[0],
                stats.rounds, stats.total_supersteps,
                static_cast<unsigned long long>(stats.total_messages),
                seconds, modularity.value(), nmi.value());
  }
  std::printf(
      "\nexpected shape: round1_merges decreases monotonically in k while\n"
      "quality stays flat — matching the paper's choice of k = 2 as a\n"
      "parallelism/coordination sweet spot.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
