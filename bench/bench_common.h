#ifndef SHOAL_BENCH_BENCH_COMMON_H_
#define SHOAL_BENCH_BENCH_COMMON_H_

// Shared helpers for the experiment harness binaries. Each bench binary
// regenerates one table/figure-level claim of the paper (see DESIGN.md's
// experiment index) and prints self-describing rows so the output can be
// pasted into EXPERIMENTS.md.

#include <cstdio>
#include <string>
#include <vector>

#include "core/shoal.h"
#include "data/dataset.h"
#include "data/shoal_adapter.h"
#include "obs/cli_flags.h"
#include "util/flags.h"
#include "util/json.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace shoal::bench {

// A generated workload plus the built SHOAL model and ground truth.
struct Workload {
  data::Dataset dataset;
  data::ShoalInputBundle bundle;
  core::ShoalModel model;
  double build_seconds = 0.0;
};

inline data::DatasetOptions ScaledDataset(size_t entities, uint64_t seed) {
  data::DatasetOptions options;
  options.num_entities = entities;
  options.num_queries = std::max<size_t>(200, entities * 3 / 4);
  options.num_clicks = entities * 50;
  // Keep ~60 entities per leaf intent as the dataset grows.
  options.num_root_intents = std::max<size_t>(4, entities / 180);
  options.children_per_root = 3;
  options.num_departments = std::max<size_t>(4, entities / 500);
  options.leaves_per_department = 8;
  options.seed = seed;
  return options;
}

inline Workload BuildWorkload(const data::DatasetOptions& data_options,
                              const core::ShoalOptions& shoal_options) {
  Workload w;
  auto dataset = data::GenerateDataset(data_options);
  SHOAL_CHECK(dataset.ok()) << dataset.status().ToString();
  w.dataset = std::move(dataset).value();
  w.bundle = data::MakeShoalInput(w.dataset);
  util::Stopwatch timer;
  auto model = core::BuildShoal(w.bundle.View(), shoal_options);
  SHOAL_CHECK(model.ok()) << model.status().ToString();
  w.model = std::move(model).value();
  w.build_seconds = timer.ElapsedSeconds();
  return w;
}

inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("paper claim: %s\n", claim.c_str());
  std::printf("==============================================================\n");
}

}  // namespace shoal::bench

#endif  // SHOAL_BENCH_BENCH_COMMON_H_
