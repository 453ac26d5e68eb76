#include "daemon/daemon.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>
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
    const size_t threads = std::min<size_t>(options.num_threads, 256);
    daemon->options_.entity_graph.num_threads = threads;
    daemon->options_.hac.num_threads = threads;
  }

  SHOAL_ASSIGN_OR_RETURN(daemon->catalog_,
                         ImportSpoolCatalog(options.spool_dir));
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
  // corpus order the batch pipeline uses. Single-threaded SGD so the
  // vectors — and through them every standing edge score — are a
  // deterministic function of the catalog.
  {
    obs::ScopedSpan span("daemon.word2vec");
    std::vector<std::vector<uint32_t>> corpus;
    corpus.reserve(num_entities + num_queries);
    for (const auto& title : daemon->title_words_) corpus.push_back(title);
    for (const auto& words : daemon->query_words_) corpus.push_back(words);
    text::Word2VecOptions w2v = daemon->options_.word2vec;
    w2v.num_threads = 1;
    auto trained = text::Word2Vec::Train(daemon->catalog_.vocab, corpus, w2v);
    if (!trained.ok()) return trained.status();
    daemon->word2vec_ =
        std::make_unique<text::Word2Vec>(std::move(trained).value());
  }

  IncrementalGraphOptions graph_options;
  graph_options.entity_graph = daemon->options_.entity_graph;
  auto graph = IncrementalEntityGraph::Create(
      num_queries, daemon->title_words_, daemon->word2vec_->vectors(),
      graph_options);
  if (!graph.ok()) return graph.status();
  daemon->graph_ =
      std::make_unique<IncrementalEntityGraph>(std::move(graph).value());

  if (!options.snapshot_path.empty() &&
      std::filesystem::exists(options.snapshot_path)) {
    SHOAL_ASSIGN_OR_RETURN(ckpt::SnapshotFile file,
                           ckpt::ReadSnapshotFile(options.snapshot_path));
    if (file.kind != ckpt::SnapshotKind::kDaemonWindow) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "%s holds a %s snapshot, not daemon window state",
          options.snapshot_path.c_str(), ckpt::SnapshotKindName(file.kind)));
    }
    SHOAL_ASSIGN_OR_RETURN(ckpt::DaemonWindowData data,
                           ckpt::DecodeDaemonWindow(file.payload));
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

  // Rebuild the standing store by replaying each window day's
  // aggregates as an all-positive delta — the store is a deterministic
  // function of the window counts, so this reproduces the killed
  // daemon's store exactly.
  for (const auto& day : data.window) {
    ClickDelta delta;
    delta.entries.reserve(day.pairs.size());
    for (const auto& pair : day.pairs) {
      delta.entries.push_back(
          {pair.query, pair.entity, static_cast<int64_t>(pair.count)});
    }
    DeltaStats stats;
    SHOAL_RETURN_IF_ERROR(graph_->ApplyDelta(delta, &stats));
  }
  window_ = data.window;
  SHOAL_ASSIGN_OR_RETURN(last_graph_, graph_->Materialize());

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
  std::unordered_map<uint32_t, uint32_t> topic_of_node;
  topic_of_node.reserve(taxonomy_.num_topics());
  for (uint32_t t = 0; t < taxonomy_.num_topics(); ++t) {
    topic_of_node[taxonomy_.topic(t).dendro_node] = t;
  }
  if (data.rankings.size() != taxonomy_.num_topics()) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "daemon window snapshot carries %zu topic rankings but the "
        "restored taxonomy has %zu topics",
        data.rankings.size(), taxonomy_.num_topics()));
  }
  rankings_.assign(taxonomy_.num_topics(), {});
  std::vector<uint32_t> all_topics;
  all_topics.reserve(taxonomy_.num_topics());
  for (const auto& entry : data.rankings) {
    auto it = topic_of_node.find(entry.dendro_node);
    if (it == topic_of_node.end()) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "daemon window snapshot ranks dendrogram node %u, which is not "
          "a topic of the restored taxonomy",
          entry.dendro_node));
    }
    rankings_[it->second] = entry.ranking;
    all_topics.push_back(it->second);
  }
  ApplyDescriptions(all_topics);

  cycles_done_ = data.cycles_done;
  published_version_ = data.published_version;
  has_model_ = true;
  restored_ = true;
  return util::Status::OK();
}

void TaxonomyDaemon::ApplyDescriptions(const std::vector<uint32_t>& topics) {
  for (uint32_t t : topics) {
    core::Topic& topic = taxonomy_.topic(t);
    topic.description.clear();
    const auto& ranking = rankings_[t];
    const size_t k =
        std::min(options_.describer.queries_per_topic, ranking.size());
    topic.description.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      topic.description.push_back(query_texts_[ranking[i].query]);
    }
  }
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
  data.rankings.reserve(taxonomy_.num_topics());
  for (uint32_t t = 0; t < taxonomy_.num_topics(); ++t) {
    data.rankings.push_back({taxonomy_.topic(t).dendro_node, rankings_[t]});
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

  obs::ScopedSpan cycle_span("daemon.cycle");
  util::Stopwatch total_watch;
  util::Stopwatch watch;
  CycleReport report;
  report.day_file = *next;

  // ---- ingest: read + aggregate the incoming day ----------------------
  SHOAL_ASSIGN_OR_RETURN(
      std::vector<data::ClickEvent> clicks,
      ReadDayClicks(SpoolPath(options_.spool_dir, *next),
                    graph_->num_queries(), graph_->num_entities()));
  std::unordered_map<uint64_t, uint32_t> day_counts;
  day_counts.reserve(clicks.size());
  for (const data::ClickEvent& click : clicks) {
    ++day_counts[PairKey(click.query, click.entity)];
  }
  ckpt::DaemonWindowData::WindowDay day;
  day.name = *next;
  day.pairs.reserve(day_counts.size());
  for (const auto& [key, count] : day_counts) {
    day.pairs.push_back({static_cast<uint32_t>(key >> 32),
                         static_cast<uint32_t>(key & 0xffffffffu), count});
  }
  std::sort(day.pairs.begin(), day.pairs.end(),
            [](const auto& a, const auto& b) {
              if (a.query != b.query) return a.query < b.query;
              return a.entity < b.entity;
            });

  // ---- diff: incoming counts minus the retiring day's ------------------
  const bool retire = window_.size() == options_.window_days;
  std::unordered_map<uint64_t, int64_t> delta_map;
  delta_map.reserve(day.pairs.size());
  for (const auto& pair : day.pairs) {
    delta_map[PairKey(pair.query, pair.entity)] += pair.count;
  }
  if (retire) {
    for (const auto& pair : window_.front().pairs) {
      delta_map[PairKey(pair.query, pair.entity)] -= pair.count;
    }
  }
  ClickDelta delta;
  delta.entries.reserve(delta_map.size());
  for (const auto& [key, value] : delta_map) {
    // The stationary head of traffic cancels exactly here; zero-delta
    // pairs must not reach ApplyDelta (they would dirty for nothing).
    if (value == 0) continue;
    delta.entries.push_back({static_cast<uint32_t>(key >> 32),
                             static_cast<uint32_t>(key & 0xffffffffu),
                             value});
  }
  std::sort(delta.entries.begin(), delta.entries.end(),
            [](const ClickDelta::Entry& a, const ClickDelta::Entry& b) {
              if (a.query != b.query) return a.query < b.query;
              return a.entity < b.entity;
            });
  report.ingest_seconds = watch.ElapsedSeconds();

  // ---- graph: apply the delta to the standing store --------------------
  watch.Restart();
  SHOAL_RETURN_IF_ERROR(graph_->ApplyDelta(delta, &report.delta));
  SHOAL_ASSIGN_OR_RETURN(graph::WeightedGraph new_graph,
                         graph_->Materialize());
  report.graph_seconds = watch.ElapsedSeconds();

  // ---- cluster: splice the standing dendrogram -------------------------
  watch.Restart();
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
    auto spliced = SpliceDendrogram(last_graph_, last_dendrogram_, new_graph,
                                    options_.hac);
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

  // ---- describe: re-score touched topics, carry the rest ---------------
  watch.Restart();
  core::Taxonomy taxonomy = core::Taxonomy::Build(
      dendrogram, entity_categories_, options_.taxonomy);
  report.num_topics = taxonomy.num_topics();

  // A new topic is carried when its backing node is the image of an old
  // topic's node under the frozen replay — the subtree (members and
  // structure) is then identical, so the previous cycle's ranking and
  // description still describe it. Everything else is touched.
  std::unordered_map<uint32_t, uint32_t> old_topic_of_new_node;
  if (!report.full_rebuild) {
    old_topic_of_new_node.reserve(taxonomy_.num_topics());
    for (uint32_t t = 0; t < taxonomy_.num_topics(); ++t) {
      const uint32_t old_node = taxonomy_.topic(t).dendro_node;
      const uint32_t new_node = old_node < old_to_new_node.size()
                                    ? old_to_new_node[old_node]
                                    : core::kNoNode;
      if (new_node != core::kNoNode) old_topic_of_new_node[new_node] = t;
    }
  }
  std::vector<uint32_t> touched;
  std::vector<std::pair<uint32_t, uint32_t>> carried;  // (new, old)
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    auto it = old_topic_of_new_node.find(taxonomy.topic(t).dendro_node);
    if (it == old_topic_of_new_node.end()) {
      touched.push_back(t);
    } else {
      carried.push_back({t, it->second});
    }
  }
  report.touched_topics = touched.size();
  report.carried_topics = carried.size();

  graph::BipartiteGraph window_graph = graph_->WindowGraph();
  core::DescriberInput describe_input;
  describe_input.taxonomy = &taxonomy;
  describe_input.query_item_graph = &window_graph;
  describe_input.query_words = &query_words_;
  describe_input.query_texts = &query_texts_;
  describe_input.entity_title_words = &title_words_;
  auto scored = core::TopicDescriber::DescribeTopics(
      taxonomy, describe_input, options_.describer, touched);
  if (!scored.ok()) return scored.status();
  std::vector<std::vector<core::ScoredQuery>> rankings =
      std::move(scored).value();
  for (const auto& [new_topic, old_topic] : carried) {
    rankings[new_topic] = rankings_[old_topic];
    taxonomy.topic(new_topic).description =
        taxonomy_.topic(old_topic).description;
  }
  report.describe_seconds = watch.ElapsedSeconds();

  // ---- publish: compile + atomic write, hot-reloadable -----------------
  watch.Restart();
  const uint64_t version = published_version_ == 0
                               ? options_.first_version
                               : published_version_ + 1;
  serve::CompileOptions compile_options;
  compile_options.version = version;
  compile_options.max_postings_per_query = options_.max_postings_per_query;
  auto index_data = serve::BuildServingIndexData(
      taxonomy, rankings, query_texts_, &entity_categories_,
      compile_options);
  if (!index_data.ok()) return index_data.status();
  SHOAL_RETURN_IF_ERROR(
      serve::WriteServingIndexFile(options_.index_path, index_data.value()));
  report.publish_seconds = watch.ElapsedSeconds();
  report.published_version = version;

  // ---- commit the standing state ---------------------------------------
  if (retire) window_.erase(window_.begin());
  window_.push_back(std::move(day));
  report.window_days = window_.size();
  last_graph_ = std::move(new_graph);
  last_dendrogram_ = std::move(dendrogram);
  taxonomy_ = std::move(taxonomy);
  rankings_ = std::move(rankings);
  published_version_ = version;
  ++cycles_done_;
  has_model_ = true;

  watch.Restart();
  if (!options_.snapshot_path.empty()) {
    SHOAL_RETURN_IF_ERROR(SaveSnapshot());
  }
  report.snapshot_seconds = watch.ElapsedSeconds();
  report.total_seconds = total_watch.ElapsedSeconds();

  cycle_span.AddArg("delta_entries",
                    static_cast<double>(report.delta.delta_entries));
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
