#include "core/shoal.h"

#include <algorithm>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace shoal::core {

util::JsonValue ShoalBuildStats::ToJson() const {
  using util::JsonValue;
  JsonValue out = JsonValue::Object();
  JsonValue seconds = JsonValue::Object();
  seconds.Set("word2vec", JsonValue::Number(word2vec_seconds));
  seconds.Set("entity_graph", JsonValue::Number(entity_graph_seconds));
  seconds.Set("hac", JsonValue::Number(hac_seconds));
  seconds.Set("taxonomy", JsonValue::Number(taxonomy_seconds));
  seconds.Set("describe", JsonValue::Number(describe_seconds));
  seconds.Set("correlation", JsonValue::Number(correlation_seconds));
  out.Set("stage_seconds", std::move(seconds));

  JsonValue eg = JsonValue::Object();
  eg.Set("candidate_pairs", JsonValue::Number(static_cast<double>(
                                entity_graph.candidate_pairs)));
  eg.Set("scored_pairs", JsonValue::Number(static_cast<double>(
                             entity_graph.scored_pairs)));
  eg.Set("kept_edges", JsonValue::Number(static_cast<double>(
                           entity_graph.kept_edges)));
  eg.Set("capped_queries", JsonValue::Number(static_cast<double>(
                               entity_graph.capped_queries)));
  eg.Set("candidate_seconds",
         JsonValue::Number(entity_graph.candidate_seconds));
  eg.Set("profile_seconds", JsonValue::Number(entity_graph.profile_seconds));
  eg.Set("scoring_seconds", JsonValue::Number(entity_graph.scoring_seconds));
  eg.Set("degree_cap_seconds",
         JsonValue::Number(entity_graph.degree_cap_seconds));
  out.Set("entity_graph", std::move(eg));

  JsonValue hac_json = JsonValue::Object();
  hac_json.Set("rounds", JsonValue::Number(static_cast<double>(hac.rounds)));
  hac_json.Set("total_merges",
               JsonValue::Number(static_cast<double>(hac.total_merges)));
  hac_json.Set("total_candidates",
               JsonValue::Number(static_cast<double>(hac.total_candidates)));
  hac_json.Set("total_rejected",
               JsonValue::Number(static_cast<double>(hac.total_rejected)));
  JsonValue merges = JsonValue::Array();
  for (size_t m : hac.merges_per_round) {
    merges.Append(JsonValue::Number(static_cast<double>(m)));
  }
  hac_json.Set("merges_per_round", std::move(merges));
  out.Set("hac", std::move(hac_json));

  out.Set("num_topics",
          JsonValue::Number(static_cast<double>(num_topics)));
  out.Set("num_root_topics",
          JsonValue::Number(static_cast<double>(num_root_topics)));
  return out;
}

std::string ShoalBuildStats::ToJsonString(int indent) const {
  return ToJson().Dump(indent);
}

util::Result<ShoalModel> BuildShoal(const ShoalInput& input,
                                    const ShoalOptions& options,
                                    ShoalResumeState* resume) {
  if (input.query_item_graph == nullptr ||
      input.entity_title_words == nullptr ||
      input.entity_categories == nullptr || input.query_words == nullptr ||
      input.query_texts == nullptr || input.vocab == nullptr) {
    return util::Status::InvalidArgument("ShoalInput has null fields");
  }
  const auto& qi = *input.query_item_graph;
  if (input.entity_title_words->size() != qi.num_right() ||
      input.entity_categories->size() != qi.num_right()) {
    return util::Status::InvalidArgument(
        "entity metadata does not match bipartite graph");
  }
  if (input.query_words->size() != qi.num_left() ||
      input.query_texts->size() != qi.num_left()) {
    return util::Status::InvalidArgument(
        "query metadata does not match bipartite graph");
  }

  ShoalOptions opts = options;
  if (options.num_threads > 0) {
    // Clamped so a bogus huge request (e.g. -1 cast to size_t) cannot
    // make a downstream thread pool attempt to spawn it.
    const size_t threads = std::min<size_t>(options.num_threads, 256);
    opts.entity_graph.num_threads = threads;
    opts.hac.num_threads = threads;
  }

  ShoalModel model;
  util::Stopwatch stopwatch;
  obs::ScopedSpan build_span("shoal.build");

  const bool restore_entity_graph =
      resume != nullptr && resume->has_entity_graph;
  if (restore_entity_graph) {
    // Word2vec vectors feed only the entity-graph stage, so a restored
    // entity graph lets the resume skip both.
    if (resume->entity_graph.num_vertices() != qi.num_right()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "restored entity graph has %zu vertices but the input has %zu "
          "entities; the checkpoint belongs to a different dataset",
          resume->entity_graph.num_vertices(), qi.num_right()));
    }
    model.entity_graph_ = std::move(resume->entity_graph);
  } else {
    // --- word2vec over titles + queries (Sec 2.1, content similarity) --
    obs::ScopedSpan word2vec_span("shoal.word2vec");
    std::vector<std::vector<uint32_t>> corpus;
    corpus.reserve(input.entity_title_words->size() +
                   input.query_words->size());
    for (const auto& title : *input.entity_title_words) {
      corpus.push_back(title);
    }
    for (const auto& words : *input.query_words) corpus.push_back(words);
    auto word2vec = text::Word2Vec::Train(*input.vocab, corpus,
                                          opts.word2vec);
    if (!word2vec.ok()) return word2vec.status();
    model.stats_.word2vec_seconds = stopwatch.ElapsedSeconds();
    word2vec_span.End();
    SHOAL_RETURN_IF_ERROR(
        util::FaultInjector::Global().OnStage("word2vec"));

    // --- item entity graph (Sec 2.1) ------------------------------------
    stopwatch.Restart();
    obs::ScopedSpan entity_graph_span("shoal.entity_graph");
    auto entity_graph = BuildEntityGraph(qi, *input.entity_title_words,
                                         word2vec.value().vectors(),
                                         opts.entity_graph,
                                         &model.stats_.entity_graph);
    if (!entity_graph.ok()) return entity_graph.status();
    model.entity_graph_ = std::move(entity_graph).value();
    model.stats_.entity_graph_seconds = stopwatch.ElapsedSeconds();
    entity_graph_span.AddArg(
        "edges", static_cast<double>(model.entity_graph_.num_edges()));
    entity_graph_span.End();
    if (opts.entity_graph_checkpoint_hook) {
      SHOAL_RETURN_IF_ERROR(
          opts.entity_graph_checkpoint_hook(model.entity_graph_));
    }
  }
  SHOAL_RETURN_IF_ERROR(
      util::FaultInjector::Global().OnStage("entity_graph"));

  // --- Parallel HAC (Sec 2.2) -------------------------------------------
  stopwatch.Restart();
  obs::ScopedSpan hac_span("shoal.hac");
  auto dendrogram =
      (resume != nullptr && resume->hac.has_value())
          ? ResumeParallelHac(opts.hac, std::move(*resume->hac),
                              &model.stats_.hac)
          : ParallelHac(model.entity_graph_, opts.hac, &model.stats_.hac);
  if (!dendrogram.ok()) return dendrogram.status();
  model.dendrogram_ =
      std::make_shared<Dendrogram>(std::move(dendrogram).value());
  model.stats_.hac_seconds = stopwatch.ElapsedSeconds();
  hac_span.AddArg("rounds", static_cast<double>(model.stats_.hac.rounds));
  hac_span.AddArg("merges",
                  static_cast<double>(model.stats_.hac.total_merges));
  hac_span.End();
  SHOAL_RETURN_IF_ERROR(util::FaultInjector::Global().OnStage("hac"));

  // --- taxonomy extraction ------------------------------------------------
  stopwatch.Restart();
  obs::ScopedSpan taxonomy_span("shoal.taxonomy");
  model.taxonomy_ = Taxonomy::Build(*model.dendrogram_,
                                    *input.entity_categories,
                                    opts.taxonomy);
  model.stats_.num_topics = model.taxonomy_.num_topics();
  model.stats_.num_root_topics = model.taxonomy_.roots().size();
  model.stats_.taxonomy_seconds = stopwatch.ElapsedSeconds();
  taxonomy_span.AddArg("topics",
                       static_cast<double>(model.stats_.num_topics));
  taxonomy_span.End();
  SHOAL_RETURN_IF_ERROR(util::FaultInjector::Global().OnStage("taxonomy"));

  // --- topic descriptions (Sec 2.3) ---------------------------------------
  // Describe records the shoal.describe span and keeps the rankings on
  // the taxonomy, where CompileServingIndex reads them.
  stopwatch.Restart();
  DescriberInput describe_input;
  describe_input.taxonomy = &model.taxonomy_;
  describe_input.query_item_graph = &qi;
  describe_input.query_words = input.query_words;
  describe_input.query_texts = input.query_texts;
  describe_input.entity_title_words = input.entity_title_words;
  if (auto rankings = TopicDescriber::Describe(model.taxonomy_,
                                               describe_input, opts.describer);
      !rankings.ok()) {
    return rankings.status();
  }
  model.stats_.describe_seconds = stopwatch.ElapsedSeconds();
  SHOAL_RETURN_IF_ERROR(util::FaultInjector::Global().OnStage("describe"));

  // --- category correlation (Sec 2.4) --------------------------------------
  stopwatch.Restart();
  obs::ScopedSpan correlation_span("shoal.correlation");
  model.correlations_ =
      CategoryCorrelation::Mine(model.taxonomy_, opts.correlation);
  model.stats_.correlation_seconds = stopwatch.ElapsedSeconds();
  correlation_span.End();
  SHOAL_RETURN_IF_ERROR(
      util::FaultInjector::Global().OnStage("correlation"));

  // --- query -> topic search index (demo scenarios A/B) --------------------
  obs::ScopedSpan search_span("shoal.search_index");
  auto index = QueryTopicIndex::Build(model.taxonomy_,
                                      *input.entity_title_words,
                                      input.vocab, opts.search);
  if (!index.ok()) return index.status();
  model.search_index_ =
      std::make_shared<QueryTopicIndex>(std::move(index).value());
  search_span.End();

  auto& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter("shoal.builds").Increment();
    metrics.GetGauge("shoal.num_topics")
        .Set(static_cast<double>(model.stats_.num_topics));
    metrics.GetGauge("shoal.num_root_topics")
        .Set(static_cast<double>(model.stats_.num_root_topics));
  }
  return model;
}

}  // namespace shoal::core
