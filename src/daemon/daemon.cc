#include "daemon/daemon.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/serving_index.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace shoal::daemon {

namespace {

uint64_t PairKey(uint32_t query, uint32_t entity) {
  return (static_cast<uint64_t>(query) << 32) | entity;
}

std::string SpoolPath(const std::string& dir, const std::string& file) {
  return (std::filesystem::path(dir) / file).string();
}

// The snapshot's options fingerprint for `options` — the knobs that
// shape the standing store and dendrogram. Describer/serving knobs are
// applied per cycle and need no resume agreement.
void StampFingerprint(const DaemonOptions& options, size_t num_queries,
                      size_t num_entities, ckpt::DaemonWindowData* data) {
  data->alpha = options.entity_graph.alpha;
  data->similarity_threshold = options.entity_graph.similarity_threshold;
  data->max_items_per_query = options.entity_graph.max_items_per_query;
  data->max_degree = options.entity_graph.max_degree;
  data->hac_threshold = options.hac.hac.threshold;
  data->hac_linkage = static_cast<uint32_t>(options.hac.hac.linkage);
  data->diffusion_iterations = options.hac.diffusion_iterations;
  data->num_queries = num_queries;
  data->num_entities = num_entities;
}

}  // namespace

util::Result<std::unique_ptr<TaxonomyDaemon>> TaxonomyDaemon::Create(
    const DaemonOptions& options) {
  if (options.spool_dir.empty() || options.index_path.empty()) {
    return util::Status::InvalidArgument(
        "daemon needs a spool directory and an index path");
  }
  if (options.window_days == 0) {
    return util::Status::InvalidArgument("window_days must be >= 1");
  }

  std::unique_ptr<TaxonomyDaemon> daemon(new TaxonomyDaemon());
  daemon->options_ = options;
  if (options.num_threads > 0) {
    daemon->options_.hac.num_threads =
        std::min<size_t>(options.num_threads, 256);
  }

  SHOAL_ASSIGN_OR_RETURN(daemon->catalog_,
                         data::ImportSearchCatalog(options.spool_dir));
  const size_t num_entities = daemon->catalog_.items.size();
  const size_t num_queries = daemon->catalog_.queries.size();
  daemon->title_words_.reserve(num_entities);
  daemon->entity_categories_.reserve(num_entities);
  for (const data::ItemEntity& item : daemon->catalog_.items) {
    daemon->title_words_.push_back(item.title_words);
    daemon->entity_categories_.push_back(item.category);
  }
  daemon->query_words_.reserve(num_queries);
  daemon->query_texts_.reserve(num_queries);
  for (const data::SearchQuery& query : daemon->catalog_.queries) {
    daemon->query_words_.push_back(query.words);
    daemon->query_texts_.push_back(query.text);
  }

  // Catalog embedding, trained once: titles then queries, the same
  // corpus order the batch pipeline uses, so the vectors — and through
  // them every standing edge score — are a deterministic function of the
  // catalog.
  {
    obs::ScopedSpan span("daemon.word2vec");
    std::vector<std::vector<uint32_t>> corpus;
    corpus.reserve(num_entities + num_queries);
    for (const auto& title : daemon->title_words_) corpus.push_back(title);
    for (const auto& words : daemon->query_words_) corpus.push_back(words);
    auto trained = text::Word2Vec::Train(daemon->catalog_.vocab, corpus,
                                         daemon->options_.word2vec);
    if (!trained.ok()) return trained.status();
    daemon->word2vec_ =
        std::make_unique<text::Word2Vec>(std::move(trained).value());
  }

  auto graph = IncrementalEntityGraph::Create(
      num_queries, daemon->title_words_, daemon->word2vec_->vectors(),
      daemon->options_.entity_graph);
  if (!graph.ok()) return graph.status();
  daemon->graph_ =
      std::make_unique<IncrementalEntityGraph>(std::move(graph).value());

  if (!options.snapshot_path.empty() &&
      std::filesystem::exists(options.snapshot_path)) {
    SHOAL_ASSIGN_OR_RETURN(
        std::string payload,
        ckpt::ReadSnapshotFile(options.snapshot_path,
                               ckpt::SnapshotKind::kDaemonWindow));
    SHOAL_ASSIGN_OR_RETURN(ckpt::DaemonWindowData data,
                           ckpt::DecodeDaemonWindow(payload));
    SHOAL_RETURN_IF_ERROR(daemon->Restore(data));
  }
  return daemon;
}

util::Status TaxonomyDaemon::Restore(const ckpt::DaemonWindowData& data) {
  ckpt::DaemonWindowData expect;
  StampFingerprint(options_, graph_->num_queries(), graph_->num_entities(),
                   &expect);
  if (data.alpha != expect.alpha ||
      data.similarity_threshold != expect.similarity_threshold ||
      data.max_items_per_query != expect.max_items_per_query ||
      data.max_degree != expect.max_degree ||
      data.hac_threshold != expect.hac_threshold ||
      data.hac_linkage != expect.hac_linkage ||
      data.diffusion_iterations != expect.diffusion_iterations) {
    return util::Status::InvalidArgument(
        "daemon window snapshot was captured under different scoring or "
        "clustering options; resuming would not reproduce an uninterrupted "
        "run — remove the snapshot to rebuild from the spool");
  }
  if (data.num_queries != expect.num_queries ||
      data.num_entities != expect.num_entities) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "daemon window snapshot describes a %llu-query / %llu-entity "
        "catalog but the spool holds %llu / %llu",
        static_cast<unsigned long long>(data.num_queries),
        static_cast<unsigned long long>(data.num_entities),
        static_cast<unsigned long long>(expect.num_queries),
        static_cast<unsigned long long>(expect.num_entities)));
  }
  if (data.num_leaves != expect.num_entities) {
    return util::Status::InvalidArgument(
        "daemon window snapshot dendrogram leaf count does not match the "
        "catalog");
  }
  // An uninterrupted run under these options would hold
  // min(cycles, window_days) days; a window of another length would
  // never retire a day again, or would keep one that run had retired.
  const uint64_t expect_days =
      std::min<uint64_t>(data.cycles_done, options_.window_days);
  if (data.window.size() != expect_days) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "daemon window snapshot holds %zu days after %llu cycles, but a "
        "%zu-day window would hold %llu; resuming would not reproduce an "
        "uninterrupted run — remove the snapshot to rebuild from the spool",
        data.window.size(),
        static_cast<unsigned long long>(data.cycles_done),
        options_.window_days, static_cast<unsigned long long>(expect_days)));
  }

  // Rebuild the standing store and its cap from the window's summed
  // counts, as one all-positive delta: both are a deterministic function
  // of the window counts, so this reproduces the killed daemon's state
  // exactly, with one repair and one re-cap of every row.
  std::vector<ClickDelta::Entry> entries;
  for (const auto& day : data.window) {
    for (const auto& pair : day.pairs) {
      entries.push_back(
          {pair.query, pair.entity, static_cast<int64_t>(pair.count)});
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const ClickDelta::Entry& a, const ClickDelta::Entry& b) {
              return PairKey(a.query, a.entity) < PairKey(b.query, b.entity);
            });
  ClickDelta delta;
  for (const ClickDelta::Entry& entry : entries) {
    if (!delta.entries.empty() && delta.entries.back().query == entry.query &&
        delta.entries.back().entity == entry.entity) {
      delta.entries.back().delta += entry.delta;
    } else {
      delta.entries.push_back(entry);
    }
  }
  DeltaStats stats;
  SHOAL_RETURN_IF_ERROR(graph_->ApplyDelta(delta, &stats));
  window_ = data.window;

  core::Dendrogram dendrogram(data.num_leaves);
  for (size_t i = 0; i < data.merges.size(); ++i) {
    const auto& m = data.merges[i];
    auto merged = dendrogram.Merge(m.left, m.right, m.similarity);
    if (!merged.ok()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "daemon window snapshot merge %zu (%u, %u) does not replay: %s",
          i, m.left, m.right, merged.status().message().c_str()));
    }
  }
  last_dendrogram_ = std::move(dendrogram);

  taxonomy_ = core::Taxonomy::Build(last_dendrogram_, entity_categories_,
                                    options_.taxonomy);
  if (data.rankings.size() != taxonomy_.num_topics()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "daemon window snapshot carries %zu topic rankings but the "
        "restored taxonomy has %zu topics",
        data.rankings.size(), taxonomy_.num_topics()));
  }
  std::vector<uint32_t> topic_of_node(last_dendrogram_.num_nodes(),
                                      core::kNoTopic);
  for (uint32_t t = 0; t < taxonomy_.num_topics(); ++t) {
    topic_of_node[taxonomy_.topic(t).dendro_node] = t;
  }
  std::vector<std::vector<core::ScoredQuery>> rankings(
      taxonomy_.num_topics());
  for (const auto& entry : data.rankings) {
    if (entry.dendro_node >= topic_of_node.size() ||
        topic_of_node[entry.dendro_node] == core::kNoTopic) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "daemon window snapshot ranks dendrogram node %u, which is not "
          "a topic of the restored taxonomy",
          entry.dendro_node));
    }
    rankings[topic_of_node[entry.dendro_node]] = entry.ranking;
  }
  // Nothing to score: the descriptions are written from the rankings.
  SHOAL_RETURN_IF_ERROR(core::TopicDescriber::ApplyRankings(
                            taxonomy_, query_texts_, options_.describer,
                            std::move(rankings))
                            .status());

  cycles_done_ = data.cycles_done;
  published_version_ = data.published_version;
  has_model_ = true;
  restored_ = true;
  return util::Status::OK();
}

util::Status TaxonomyDaemon::SaveSnapshot() const {
  ckpt::DaemonWindowData data;
  StampFingerprint(options_, graph_->num_queries(), graph_->num_entities(),
                   &data);
  data.cycles_done = cycles_done_;
  data.published_version = published_version_;
  data.window = window_;
  data.num_leaves = last_dendrogram_.num_leaves();
  data.merges.reserve(last_dendrogram_.num_merges());
  for (uint32_t id = last_dendrogram_.num_leaves();
       id < last_dendrogram_.num_nodes(); ++id) {
    const auto& node = last_dendrogram_.node(id);
    data.merges.push_back({node.left, node.right, node.merge_similarity});
  }
  const auto& rankings = taxonomy_.rankings()->by_topic;
  data.rankings.reserve(taxonomy_.num_topics());
  for (uint32_t t = 0; t < taxonomy_.num_topics(); ++t) {
    data.rankings.push_back({taxonomy_.topic(t).dendro_node, rankings[t]});
  }
  std::sort(data.rankings.begin(), data.rankings.end(),
            [](const auto& a, const auto& b) {
              return a.dendro_node < b.dendro_node;
            });
  return ckpt::WriteSnapshotFile(options_.snapshot_path,
                                 ckpt::SnapshotKind::kDaemonWindow,
                                 ckpt::EncodeDaemonWindow(data));
}

util::Result<std::optional<CycleReport>> TaxonomyDaemon::RunOnce() {
  SHOAL_ASSIGN_OR_RETURN(std::vector<std::string> names,
                         ListDayFiles(options_.spool_dir));
  const std::string last_consumed =
      window_.empty() ? std::string() : window_.back().name;
  const std::string* next = nullptr;
  for (const std::string& name : names) {
    if (name > last_consumed) {
      next = &name;
      break;
    }
  }
  if (next == nullptr) return std::optional<CycleReport>();

  // Each phase is a child span of daemon.cycle, so a trace splits the
  // cycle the way the report does (graph = delta + materialize).
  obs::ScopedSpan cycle_span("daemon.cycle");
  util::Stopwatch total_watch;
  util::Stopwatch watch;
  CycleReport report;
  report.day_file = *next;

  // ---- ingest: read + aggregate the incoming day ----------------------
  obs::ScopedSpan ingest_span("daemon.ingest");
  // Count the day by sorting its (query, entity) keys: runs of equal
  // keys are the pairs, already in the window's (query, entity) order.
  std::vector<uint64_t> keys;
  {
    SHOAL_ASSIGN_OR_RETURN(
        std::vector<data::ClickEvent> clicks,
        ReadDayClicks(SpoolPath(options_.spool_dir, *next),
                      graph_->num_queries(), graph_->num_entities()));
    keys.reserve(clicks.size());
    for (const data::ClickEvent& click : clicks) {
      keys.push_back(PairKey(click.query, click.entity));
    }
  }
  std::sort(keys.begin(), keys.end());
  size_t num_pairs = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) ++num_pairs;
  }
  ckpt::DaemonWindowData::WindowDay day;
  day.name = *next;
  day.pairs.reserve(num_pairs);
  for (size_t i = 0; i < keys.size();) {
    size_t j = i + 1;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    day.pairs.push_back({static_cast<uint32_t>(keys[i] >> 32),
                         static_cast<uint32_t>(keys[i] & 0xffffffffu),
                         static_cast<uint32_t>(j - i)});
    i = j;
  }

  // ---- diff: incoming counts minus the retiring day's ------------------
  // One merge of two (query, entity)-sorted pair lists (decoding a
  // snapshot checks its days sorted), so the delta comes out sorted.
  const bool retire = window_.size() == options_.window_days;
  const std::vector<ckpt::DaemonWindowData::WindowDay::Pair> no_pairs;
  const auto& incoming = day.pairs;
  const auto& retiring = retire ? window_.front().pairs : no_pairs;
  ClickDelta delta;
  delta.entries.reserve(incoming.size() + retiring.size());
  for (size_t a = 0, b = 0; a < incoming.size() || b < retiring.size();) {
    const uint64_t key_a =
        a < incoming.size() ? PairKey(incoming[a].query, incoming[a].entity)
                            : UINT64_MAX;
    const uint64_t key_b =
        b < retiring.size() ? PairKey(retiring[b].query, retiring[b].entity)
                            : UINT64_MAX;
    const uint64_t key = std::min(key_a, key_b);
    int64_t value = 0;
    if (a < incoming.size() && key_a == key) value += incoming[a++].count;
    if (b < retiring.size() && key_b == key) value -= retiring[b++].count;
    // The stationary head of traffic cancels exactly here; zero-delta
    // pairs must not reach ApplyDelta (they would dirty for nothing).
    if (value == 0) continue;
    delta.entries.push_back({static_cast<uint32_t>(key >> 32),
                             static_cast<uint32_t>(key & 0xffffffffu),
                             value});
  }
  report.ingest_seconds = watch.ElapsedSeconds();
  ingest_span.End();

  // ---- graph: repair the store, re-cap the touched rows ----------------
  // ApplyDelta records the two as the daemon.delta and
  // daemon.materialize spans; the splice needs the capped edges changed.
  watch.Restart();
  std::vector<CappedEdgeChange> changes;
  SHOAL_RETURN_IF_ERROR(graph_->ApplyDelta(delta, &report.delta,
                                           has_model_ ? &changes : nullptr));
  const graph::WeightedGraph& new_graph = graph_->CappedGraph();
  report.graph_seconds = watch.ElapsedSeconds();

  // ---- cluster: splice the standing dendrogram -------------------------
  watch.Restart();
  obs::ScopedSpan splice_span("daemon.splice");
  core::Dendrogram dendrogram;
  std::vector<uint32_t> old_to_new_node;
  const size_t num_entities = graph_->num_entities();
  if (!has_model_) {
    report.full_rebuild = true;
    auto full = core::ParallelHac(new_graph, options_.hac,
                                  &report.splice.hac);
    if (!full.ok()) return full.status();
    dendrogram = std::move(full).value();
    report.splice.dirty_leaves = num_entities;
    report.dirty_fraction = 1.0;
  } else {
    auto spliced =
        SpliceDendrogram(last_dendrogram_, new_graph, changes, options_.hac);
    if (!spliced.ok()) return spliced.status();
    dendrogram = std::move(spliced->dendrogram);
    old_to_new_node = std::move(spliced->old_to_new_node);
    report.splice = spliced->stats;
    report.dirty_fraction =
        num_entities == 0 ? 0.0
                          : static_cast<double>(report.splice.dirty_leaves) /
                                static_cast<double>(num_entities);
  }
  report.cluster_seconds = watch.ElapsedSeconds();
  splice_span.End();

  // ---- describe: re-score touched topics, carry the rest ---------------
  watch.Restart();
  obs::ScopedSpan describe_span("daemon.describe");
  core::Taxonomy taxonomy = core::Taxonomy::Build(
      dendrogram, entity_categories_, options_.taxonomy);
  report.num_topics = taxonomy.num_topics();

  // A new topic is carried when its backing node is the image of an old
  // topic's node under the frozen replay — the subtree (members and
  // structure) is then identical, so the previous cycle's ranking still
  // describes it. Everything else is touched. (A full rebuild maps no
  // old node.)
  std::vector<uint32_t> old_topic_of_new_node(dendrogram.num_nodes(),
                                              core::kNoTopic);
  for (uint32_t t = 0; t < taxonomy_.num_topics(); ++t) {
    const uint32_t old_node = taxonomy_.topic(t).dendro_node;
    if (old_node >= old_to_new_node.size()) continue;
    const uint32_t new_node = old_to_new_node[old_node];
    if (new_node < old_topic_of_new_node.size()) {
      old_topic_of_new_node[new_node] = t;
    }
  }
  std::vector<uint32_t> touched;
  std::vector<std::vector<core::ScoredQuery>> rankings(taxonomy.num_topics());
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    const uint32_t old_topic =
        old_topic_of_new_node[taxonomy.topic(t).dendro_node];
    if (old_topic == core::kNoTopic) {
      touched.push_back(t);
    } else {
      rankings[t] = taxonomy_.rankings()->by_topic[old_topic];
    }
  }
  report.touched_topics = touched.size();
  report.carried_topics = taxonomy.num_topics() - touched.size();

  graph::BipartiteGraph window_graph = graph_->WindowGraph();
  core::DescriberInput describe_input;
  describe_input.taxonomy = &taxonomy;
  describe_input.query_item_graph = &window_graph;
  describe_input.query_words = &query_words_;
  describe_input.query_texts = &query_texts_;
  describe_input.entity_title_words = &title_words_;
  SHOAL_RETURN_IF_ERROR(core::TopicDescriber::DescribeTopics(
                            taxonomy, describe_input, options_.describer,
                            touched, std::move(rankings))
                            .status());
  report.describe_seconds = watch.ElapsedSeconds();
  describe_span.End();

  // ---- publish: compile + atomic write, hot-reloadable -----------------
  watch.Restart();
  obs::ScopedSpan publish_span("daemon.publish");
  const uint64_t version = published_version_ == 0
                               ? options_.first_version
                               : published_version_ + 1;
  serve::CompileOptions compile_options;
  compile_options.version = version;
  compile_options.max_postings_per_query = options_.max_postings_per_query;
  auto index_data =
      serve::CompileServingIndex(taxonomy, describe_input, options_.describer,
                                 &entity_categories_, compile_options);
  if (!index_data.ok()) return index_data.status();
  SHOAL_RETURN_IF_ERROR(
      serve::WriteServingIndexFile(options_.index_path, index_data.value()));
  report.publish_seconds = watch.ElapsedSeconds();
  publish_span.End();
  report.published_version = version;

  // ---- commit the standing state ---------------------------------------
  if (retire) window_.erase(window_.begin());
  window_.push_back(std::move(day));
  report.window_days = window_.size();
  last_dendrogram_ = std::move(dendrogram);
  taxonomy_ = std::move(taxonomy);
  published_version_ = version;
  ++cycles_done_;
  has_model_ = true;

  watch.Restart();
  obs::ScopedSpan snapshot_span("daemon.snapshot");
  if (!options_.snapshot_path.empty()) {
    SHOAL_RETURN_IF_ERROR(SaveSnapshot());
  }
  snapshot_span.End();
  report.snapshot_seconds = watch.ElapsedSeconds();
  report.total_seconds = total_watch.ElapsedSeconds();

  cycle_span.AddArg("delta_entries",
                    static_cast<double>(report.delta.delta_entries));
  cycle_span.AddArg("rows_recapped",
                    static_cast<double>(report.delta.rows_recapped));
  cycle_span.AddArg("capped_edges_changed",
                    static_cast<double>(report.delta.capped_edges_changed));
  cycle_span.AddArg("dirty_fraction", report.dirty_fraction);
  cycle_span.AddArg("reclustered_subtrees",
                    static_cast<double>(report.splice.dirty_components));
  cycle_span.AddArg("publish_seconds", report.publish_seconds);
  auto& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter("daemon.cycles").Increment();
    metrics.GetGauge("daemon.cycle.delta_entries")
        .Set(static_cast<double>(report.delta.delta_entries));
    metrics.GetGauge("daemon.cycle.dirty_fraction")
        .Set(report.dirty_fraction);
    metrics.GetGauge("daemon.cycle.reclustered_subtrees")
        .Set(static_cast<double>(report.splice.dirty_components));
    metrics.GetGauge("daemon.publish.version")
        .Set(static_cast<double>(version));
    metrics.GetHistogram("daemon.cycle.publish_seconds")
        .Record(report.publish_seconds);
    metrics.GetHistogram("daemon.cycle.seconds")
        .Record(report.total_seconds);
  }
  return std::optional<CycleReport>(std::move(report));
}

}  // namespace shoal::daemon
