#include "core/taxonomy_io.h"

#include <algorithm>
#include <filesystem>
#include <unordered_map>

#include "util/string_util.h"
#include "util/tsv.h"

namespace shoal::core {

namespace {

std::string PathOf(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

using TsvRow = std::span<const std::string_view>;

util::Status ExpectFields(TsvRow row, size_t expected, const char* file) {
  if (row.size() != expected) {
    return util::Status::InvalidArgument(util::StringPrintf(
        "%s: expected %zu fields, got %zu", file, expected, row.size()));
  }
  return util::Status::OK();
}

}  // namespace

util::Status SaveTaxonomy(const Taxonomy& taxonomy,
                          const CategoryCorrelation& correlations,
                          const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::IoError("cannot create directory " + dir + ": " +
                                 ec.message());
  }

  std::vector<std::vector<std::string>> topics;
  std::vector<std::vector<std::string>> members;
  std::vector<std::vector<std::string>> categories;
  std::vector<std::vector<std::string>> descriptions;
  topics.push_back({"# id", "parent", "level", "size"});
  // num_entities is recorded in the header comment of members.tsv.
  members.push_back({"# num_entities=" + std::to_string(
                         taxonomy.num_entities())});
  for (uint32_t t = 0; t < taxonomy.num_topics(); ++t) {
    const Topic& topic = taxonomy.topic(t);
    topics.push_back({std::to_string(topic.id),
                      topic.parent == kNoTopic
                          ? "-"
                          : std::to_string(topic.parent),
                      std::to_string(topic.level),
                      std::to_string(topic.entities.size())});
    for (uint32_t e : topic.entities) {
      members.push_back({std::to_string(t), std::to_string(e)});
    }
    for (const auto& [category, count] : topic.categories) {
      categories.push_back({std::to_string(t), std::to_string(category),
                            std::to_string(count)});
    }
    for (size_t rank = 0; rank < topic.description.size(); ++rank) {
      descriptions.push_back({std::to_string(t), std::to_string(rank),
                              topic.description[rank]});
    }
  }
  std::vector<std::vector<std::string>> pairs;
  for (const auto& pair : correlations.pairs()) {
    pairs.push_back({std::to_string(pair.c1), std::to_string(pair.c2),
                     std::to_string(pair.strength)});
  }

  SHOAL_RETURN_IF_ERROR(util::WriteTsv(PathOf(dir, "topics.tsv"), topics));
  SHOAL_RETURN_IF_ERROR(util::WriteTsv(PathOf(dir, "members.tsv"), members));
  SHOAL_RETURN_IF_ERROR(
      util::WriteTsv(PathOf(dir, "categories.tsv"), categories));
  SHOAL_RETURN_IF_ERROR(
      util::WriteTsv(PathOf(dir, "descriptions.tsv"), descriptions));
  SHOAL_RETURN_IF_ERROR(
      util::WriteTsv(PathOf(dir, "correlations.tsv"), pairs));
  return util::Status::OK();
}

util::Result<Taxonomy> TaxonomyFromTopics(std::vector<Topic> topics,
                                          size_t num_entities) {
  Taxonomy taxonomy;
  // Validate ids, parent links and members before committing.
  for (uint32_t t = 0; t < topics.size(); ++t) {
    Topic& topic = topics[t];
    if (topic.id != t) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "topic %u stored at index %u", topic.id, t));
    }
    if (topic.parent != kNoTopic) {
      if (topic.parent >= topics.size()) {
        return util::Status::InvalidArgument(
            util::StringPrintf("topic %u has unknown parent %u", t,
                               topic.parent));
      }
      if (topic.parent == t) {
        return util::Status::InvalidArgument(
            util::StringPrintf("topic %u is its own parent", t));
      }
    }
    for (uint32_t e : topic.entities) {
      if (e >= num_entities) {
        return util::Status::InvalidArgument(util::StringPrintf(
            "topic %u contains entity %u outside [0,%zu)", t, e,
            num_entities));
      }
    }
  }
  // Cycle check via parent-chain walking (paths are short; O(n^2) worst
  // case is fine for the taxonomy sizes involved).
  for (uint32_t t = 0; t < topics.size(); ++t) {
    uint32_t cur = topics[t].parent;
    size_t steps = 0;
    while (cur != kNoTopic) {
      if (++steps > topics.size()) {
        return util::Status::InvalidArgument(
            util::StringPrintf("parent cycle through topic %u", t));
      }
      cur = topics[cur].parent;
    }
  }

  // Rebuild derived structure: children lists, roots, entity mapping.
  for (Topic& topic : topics) topic.children.clear();
  taxonomy.topics_ = std::move(topics);
  for (Topic& topic : taxonomy.topics_) {
    if (topic.parent == kNoTopic) {
      taxonomy.roots_.push_back(topic.id);
    } else {
      taxonomy.topics_[topic.parent].children.push_back(topic.id);
    }
  }
  taxonomy.entity_topic_.assign(num_entities, kNoTopic);
  std::vector<uint32_t> order(taxonomy.topics_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return taxonomy.topics_[a].level < taxonomy.topics_[b].level;
  });
  for (uint32_t t : order) {
    for (uint32_t e : taxonomy.topics_[t].entities) {
      taxonomy.entity_topic_[e] = t;
    }
  }
  return taxonomy;
}

util::Result<CategoryCorrelation> CorrelationFromPairs(
    const std::vector<CategoryCorrelation::Pair>& pairs) {
  CategoryCorrelation correlation;
  for (const auto& pair : pairs) {
    if (pair.c1 == pair.c2) {
      return util::Status::InvalidArgument("self-correlated category");
    }
    if (pair.strength == 0) {
      return util::Status::InvalidArgument("zero-strength correlation");
    }
    uint64_t key = CategoryCorrelation::Key(pair.c1, pair.c2);
    if (!correlation.strength_.emplace(key, pair.strength).second) {
      return util::Status::InvalidArgument(util::StringPrintf(
          "duplicate correlation pair (%u,%u)", pair.c1, pair.c2));
    }
    correlation.related_[pair.c1].emplace_back(pair.c2, pair.strength);
    correlation.related_[pair.c2].emplace_back(pair.c1, pair.strength);
    correlation.pairs_.push_back(pair);
  }
  for (auto& [c, list] : correlation.related_) {
    (void)c;
    std::sort(list.begin(), list.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
  }
  std::sort(correlation.pairs_.begin(), correlation.pairs_.end(),
            [](const CategoryCorrelation::Pair& a,
               const CategoryCorrelation::Pair& b) {
              if (a.strength != b.strength) return a.strength > b.strength;
              if (a.c1 != b.c1) return a.c1 < b.c1;
              return a.c2 < b.c2;
            });
  return correlation;
}

util::Result<LoadedTaxonomy> LoadTaxonomy(const std::string& dir) {
  std::vector<Topic> topics;
  SHOAL_RETURN_IF_ERROR(util::ReadTsvRows(
      PathOf(dir, "topics.tsv"), [&](size_t r, TsvRow row) {
        SHOAL_RETURN_IF_ERROR(ExpectFields(row, 4, "topics.tsv"));
        Topic topic;
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("topics.tsv", r, row[0], &topic.id));
        if (row[1] != "-") {
          SHOAL_RETURN_IF_ERROR(
              util::ParseTsvField("topics.tsv", r, row[1], &topic.parent));
        }
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("topics.tsv", r, row[2], &topic.level));
        topics.push_back(std::move(topic));
        return util::Status::OK();
      }));

  // members.tsv carries the entity count in a header comment, which the
  // row walk skips, so the header is read from the same bytes first.
  SHOAL_ASSIGN_OR_RETURN(const std::string members,
                         util::ReadTextFile(PathOf(dir, "members.tsv")));
  size_t num_entities = 0;
  {
    constexpr std::string_view kKey = "num_entities=";
    const size_t pos = members.find(kKey);
    if (pos == std::string::npos) {
      return util::Status::InvalidArgument(
          "members.tsv missing num_entities header");
    }
    const size_t begin = pos + kKey.size();
    const size_t end = std::min(members.find('\n', begin), members.size());
    const std::string_view value(members.data() + begin, end - begin);
    if (!util::ParseUnsigned(util::Trim(value), &num_entities)) {
      return util::Status::InvalidArgument(
          "members.tsv: bad num_entities header '" + std::string(value) +
          "'");
    }
  }
  SHOAL_RETURN_IF_ERROR(
      util::ForEachTsvRow(members, [&](size_t r, TsvRow row) {
        SHOAL_RETURN_IF_ERROR(ExpectFields(row, 2, "members.tsv"));
        uint32_t t = 0;
        uint32_t entity = 0;
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("members.tsv", r, row[0], &t));
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("members.tsv", r, row[1], &entity));
        if (t >= topics.size()) {
          return util::Status::InvalidArgument("members.tsv: unknown topic");
        }
        topics[t].entities.push_back(entity);
        return util::Status::OK();
      }));

  SHOAL_RETURN_IF_ERROR(util::ReadTsvRows(
      PathOf(dir, "categories.tsv"), [&](size_t r, TsvRow row) {
        SHOAL_RETURN_IF_ERROR(ExpectFields(row, 3, "categories.tsv"));
        uint32_t t = 0;
        uint32_t category = 0;
        size_t count = 0;
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("categories.tsv", r, row[0], &t));
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("categories.tsv", r, row[1], &category));
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("categories.tsv", r, row[2], &count));
        if (t >= topics.size()) {
          return util::Status::InvalidArgument(
              "categories.tsv: unknown topic");
        }
        topics[t].categories.emplace_back(category, count);
        return util::Status::OK();
      }));

  // The rank check below needs the row count, so the bytes are walked
  // once to count and once to parse.
  SHOAL_ASSIGN_OR_RETURN(const std::string descriptions,
                         util::ReadTextFile(PathOf(dir, "descriptions.tsv")));
  size_t num_descriptions = 0;
  SHOAL_RETURN_IF_ERROR(
      util::ForEachTsvRow(descriptions, [&](size_t, TsvRow) {
        ++num_descriptions;
        return util::Status::OK();
      }));
  SHOAL_RETURN_IF_ERROR(
      util::ForEachTsvRow(descriptions, [&](size_t r, TsvRow row) {
        SHOAL_RETURN_IF_ERROR(ExpectFields(row, 3, "descriptions.tsv"));
        uint32_t t = 0;
        size_t rank = 0;
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("descriptions.tsv", r, row[0], &t));
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("descriptions.tsv", r, row[1], &rank));
        if (t >= topics.size()) {
          return util::Status::InvalidArgument(
              "descriptions.tsv: unknown topic");
        }
        // SaveTaxonomy writes each topic's ranks as 0..k-1, so every rank
        // is below the row count; the check also bounds the resize below.
        if (rank >= num_descriptions) {
          return util::Status::InvalidArgument(util::StringPrintf(
              "descriptions.tsv: row %zu: rank %zu is not below the row "
              "count %zu",
              r, rank, num_descriptions));
        }
        auto& description = topics[t].description;
        if (description.size() <= rank) description.resize(rank + 1);
        description[rank] = row[2];
        return util::Status::OK();
      }));

  std::vector<CategoryCorrelation::Pair> pairs;
  SHOAL_RETURN_IF_ERROR(util::ReadTsvRows(
      PathOf(dir, "correlations.tsv"), [&](size_t r, TsvRow row) {
        SHOAL_RETURN_IF_ERROR(ExpectFields(row, 3, "correlations.tsv"));
        CategoryCorrelation::Pair pair{};
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("correlations.tsv", r, row[0], &pair.c1));
        SHOAL_RETURN_IF_ERROR(
            util::ParseTsvField("correlations.tsv", r, row[1], &pair.c2));
        SHOAL_RETURN_IF_ERROR(util::ParseTsvField("correlations.tsv", r,
                                                  row[2], &pair.strength));
        pairs.push_back(pair);
        return util::Status::OK();
      }));

  LoadedTaxonomy loaded;
  SHOAL_ASSIGN_OR_RETURN(loaded.taxonomy,
                         TaxonomyFromTopics(std::move(topics), num_entities));
  SHOAL_ASSIGN_OR_RETURN(loaded.correlations, CorrelationFromPairs(pairs));
  return loaded;
}

}  // namespace shoal::core
