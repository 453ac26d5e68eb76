// shoal_cli: run the SHOAL pipeline over TSV search logs — the
// "bring your own data" path a platform would use in production.
//
//   shoal_cli generate --out log_dir [--entities N --seed S]
//       write a synthetic search log (items/queries/clicks TSVs)
//   shoal_cli build --in log_dir --out taxonomy_dir [--alpha A ...]
//       import the log, build the taxonomy, persist it as TSVs
//   shoal_cli inspect --taxonomy taxonomy_dir [--top K]
//       summarise a persisted taxonomy
//   shoal_cli resume --in log_dir --out taxonomy_dir
//       --checkpoint-dir ckpt_dir
//       continue an interrupted build from its checkpoint; the
//       resulting taxonomy is byte-identical to an uninterrupted build
//
// generate -> build -> inspect round-trips entirely through files, so
// each step can run on a different machine or schedule. `build
// --checkpoint-dir` snapshots the entity graph once, as
// ckpt_dir/entity_graph.snap; after a crash (or kill -9), `resume` with
// the same flags re-runs HAC and the later stages from that snapshot,
// or the whole build when the crash came before it was written.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "ckpt/pipeline.h"
#include "core/shoal.h"
#include "core/taxonomy_io.h"
#include "data/dataset.h"
#include "data/log_io.h"
#include "obs/cli_flags.h"
#include "serve/serving_index.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace {

using namespace shoal;

int Generate(util::FlagParser& flags) {
  data::DatasetOptions options;
  options.num_entities = static_cast<size_t>(flags.GetInt64("entities"));
  options.num_queries = options.num_entities * 3 / 4;
  options.num_clicks = options.num_entities * 50;
  options.seed = static_cast<uint64_t>(flags.GetInt64("seed"));
  auto dataset = data::GenerateDataset(options);
  SHOAL_CHECK(dataset.ok()) << dataset.status().ToString();
  const std::string& dir = flags.GetString("out");
  auto status = data::ExportSearchLog(*dataset, dir);
  SHOAL_CHECK(status.ok()) << status.ToString();
  std::printf("wrote %zu items, %zu queries, %zu clicks to %s\n",
              dataset->entities.size(), dataset->queries.size(),
              dataset->clicks.size(), dir.c_str());
  return 0;
}

// Reads the clustering flags shared by `build` and `resume` into a
// ShoalOptions. Returns false (after printing) on an invalid value.
bool OptionsFromFlags(const util::FlagParser& flags,
                      core::ShoalOptions& options) {
  options.entity_graph.alpha = flags.GetDouble("alpha");
  options.hac.hac.threshold = flags.GetDouble("threshold");
  const int64_t min_strength = flags.GetInt64("min_strength");
  if (min_strength < 0 || min_strength > int64_t{UINT32_MAX}) {
    std::fprintf(stderr, "--min_strength must be in [0, %u], got %lld\n",
                 UINT32_MAX, static_cast<long long>(min_strength));
    return false;
  }
  options.correlation.min_strength = static_cast<uint32_t>(min_strength);
  if (flags.GetInt64("threads") < 0) {
    std::fprintf(stderr, "--threads must be >= 0\n");
    return false;
  }
  options.num_threads = static_cast<size_t>(flags.GetInt64("threads"));
  return true;
}

// Compiles and writes the online serving artefact when
// --serving-index-out is set. Reuses the build's input tensors so the
// serve-time dictionary is interned from exactly the queries the
// pipeline saw.
int MaybeWriteServingIndex(const util::FlagParser& flags,
                           const core::ShoalInput& input,
                           const core::ShoalModel& model) {
  const std::string& index_out = flags.GetString("serving-index-out");
  if (index_out.empty()) return 0;
  core::DescriberInput describe_input;
  describe_input.taxonomy = &model.taxonomy();
  describe_input.query_item_graph = input.query_item_graph;
  describe_input.query_words = input.query_words;
  describe_input.query_texts = input.query_texts;
  describe_input.entity_title_words = input.entity_title_words;
  serve::CompileOptions compile_options;
  compile_options.version =
      static_cast<uint64_t>(flags.GetInt64("serving-index-version"));
  auto index = serve::CompileServingIndex(
      model.taxonomy(), describe_input, core::DescriberOptions(),
      input.entity_categories, compile_options);
  if (!index.ok()) {
    std::fprintf(stderr, "cannot compile serving index: %s\n",
                 index.status().ToString().c_str());
    return 1;
  }
  auto status = serve::WriteServingIndexFile(index_out, *index);
  if (!status.ok()) {
    std::fprintf(stderr, "cannot write serving index: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  std::printf("compiled serving index v%llu (%zu topics, %zu entities, "
              "%zu queries) to %s\n",
              static_cast<unsigned long long>(index->version),
              index->parent.size(), index->entity_topic.size(),
              index->query_text.size(), index_out.c_str());
  return 0;
}

// Prints the model summary and persists the taxonomy + observability
// artefacts; the shared tail of `build` and `resume`.
int FinishBuild(const util::FlagParser& flags,
                const core::ShoalInput& input,
                const core::ShoalModel& model) {
  std::printf("built %zu topics under %zu roots "
              "(%zu entity-graph edges, %zu merges)\n",
              model.taxonomy().num_topics(),
              model.taxonomy().roots().size(),
              model.entity_graph().num_edges(),
              model.stats().hac.total_merges);

  const std::string& out_dir = flags.GetString("out");
  auto status =
      core::SaveTaxonomy(model.taxonomy(), model.correlations(), out_dir);
  SHOAL_CHECK(status.ok()) << status.ToString();
  std::printf("persisted taxonomy to %s\n", out_dir.c_str());
  if (int rc = MaybeWriteServingIndex(flags, input, model); rc != 0) {
    return rc;
  }
  auto written =
      obs::WriteObservability(flags, "build_stats", model.stats().ToJson());
  if (!written.ok()) {
    std::fprintf(stderr, "cannot write observability artefacts: %s\n",
                 written.ToString().c_str());
    return 1;
  }
  return 0;
}

int Build(util::FlagParser& flags, bool resume) {
  const std::string& in_dir = flags.GetString("in");
  auto log = data::ImportSearchLog(in_dir);
  if (!log.ok()) {
    std::fprintf(stderr, "cannot import %s: %s\n", in_dir.c_str(),
                 log.status().ToString().c_str());
    return 1;
  }
  std::printf("imported %zu items, %zu queries, %zu clicks (vocab %zu)\n",
              log->items.size(), log->queries.size(), log->clicks.size(),
              log->vocab.size());

  const double window_days = flags.GetDouble("window_days");
  if (!std::isfinite(window_days) || window_days <= 0.0) {
    std::fprintf(stderr, "--window_days must be finite and > 0, got %g\n",
                 window_days);
    return 1;
  }
  auto bundle = data::MakeShoalInputFromLog(*log, window_days);
  core::ShoalOptions options;
  if (!OptionsFromFlags(flags, options)) return 1;
  const std::string& ckpt_dir = flags.GetString("checkpoint-dir");

  util::Result<core::ShoalModel> model = [&] {
    if (resume) {
      // ResumeShoal restores the entity graph and re-runs the stages
      // after it, or rebuilds when no readable snapshot is there.
      return ckpt::ResumeShoal(bundle.View(), options, ckpt_dir);
    }
    if (!ckpt_dir.empty()) {
      auto attached = ckpt::AttachCheckpointing(ckpt_dir, options);
      if (!attached.ok()) {
        return util::Result<core::ShoalModel>(attached);
      }
      std::printf("checkpointing the entity graph to %s\n",
                  ckpt_dir.c_str());
    }
    return core::BuildShoal(bundle.View(), options);
  }();
  if (!model.ok()) {
    std::fprintf(stderr, "pipeline failed: %s\n",
                 model.status().ToString().c_str());
    return 1;
  }
  return FinishBuild(flags, bundle.View(), *model);
}

int Inspect(util::FlagParser& flags) {
  const std::string& dir = flags.GetString("taxonomy");
  auto loaded = core::LoadTaxonomy(dir);
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot load %s: %s\n", dir.c_str(),
                 loaded.status().ToString().c_str());
    return 1;
  }
  const auto& taxonomy = loaded->taxonomy;
  std::printf("%s: %zu topics, %zu roots, %zu entities, %zu correlations\n",
              dir.c_str(), taxonomy.num_topics(), taxonomy.roots().size(),
              taxonomy.num_entities(), loaded->correlations.pairs().size());

  std::vector<uint32_t> roots = taxonomy.roots();
  std::sort(roots.begin(), roots.end(), [&](uint32_t a, uint32_t b) {
    return taxonomy.topic(a).entities.size() >
           taxonomy.topic(b).entities.size();
  });
  size_t top = static_cast<size_t>(flags.GetInt64("top"));
  for (size_t i = 0; i < roots.size() && i < top; ++i) {
    const auto& topic = taxonomy.topic(roots[i]);
    std::printf("  topic #%-5u %4zu items, %zu sub-topics%s%s\n", topic.id,
                topic.entities.size(), topic.children.size(),
                topic.description.empty() ? "" : "  — ",
                topic.description.empty()
                    ? ""
                    : topic.description.front().c_str());
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <generate|build|resume|inspect> [flags]\n"
                 "       %s <command> --help\n",
                 argv[0], argv[0]);
    return 1;
  }
  std::string command = argv[1];
  util::FlagParser flags;
  flags.AddInt64("entities", 2000, "entities for 'generate'");
  flags.AddInt64("seed", 2019, "seed for 'generate'");
  flags.AddString("out", "shoal_out", "output directory");
  flags.AddString("in", "shoal_log", "input log directory for 'build'");
  flags.AddString("taxonomy", "shoal_out",
                  "taxonomy directory for 'inspect'");
  flags.AddDouble("alpha", 0.7, "similarity mix (Eq. 3)");
  flags.AddDouble("threshold", 0.35, "HAC merge threshold");
  flags.AddDouble("window_days", 7.0, "sliding window length in days (> 0)");
  flags.AddInt64("min_strength", 1, "correlation threshold (paper: 10)");
  flags.AddInt64("threads", 0,
                 "pipeline worker threads (0 = per-stage defaults)");
  flags.AddInt64("top", 10, "roots to print for 'inspect'");
  flags.AddString("checkpoint-dir", "",
                  "snapshot directory for crash-safe builds (empty = off; "
                  "required by 'resume')");
  flags.AddString("serving-index-out", "",
                  "also compile the online serving index (empty = off); "
                  "serve it with shoal_serve --index");
  flags.AddInt64("serving-index-version", 1,
                 "version stamped into --serving-index-out");
  obs::AddObservabilityFlags(flags);
  auto status = flags.Parse(argc - 1, argv + 1);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  if (flags.help_requested()) return 0;
  if (!obs::EnableObservability(flags)) return 1;
  // Arm fault injection from SHOAL_FAULT (CI crash-recovery smoke and
  // local kill-and-resume testing); unset means zero overhead.
  auto fault = util::FaultInjector::Global().ConfigureFromEnv();
  if (!fault.ok()) {
    std::fprintf(stderr, "bad SHOAL_FAULT: %s\n",
                 fault.ToString().c_str());
    return 1;
  }

  if (command == "generate") return Generate(flags);
  if (command == "build") return Build(flags, /*resume=*/false);
  if (command == "resume") {
    if (flags.GetString("checkpoint-dir").empty()) {
      std::fprintf(stderr, "resume requires --checkpoint-dir\n");
      return 1;
    }
    return Build(flags, /*resume=*/true);
  }
  if (command == "inspect") return Inspect(flags);
  std::fprintf(stderr, "unknown command '%s'\n", command.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
