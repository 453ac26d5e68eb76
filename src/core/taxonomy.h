#ifndef SHOAL_CORE_TAXONOMY_H_
#define SHOAL_CORE_TAXONOMY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/dendrogram.h"
#include "util/result.h"

namespace shoal::core {

inline constexpr uint32_t kNoTopic = static_cast<uint32_t>(-1);

// One node of SHOAL's hierarchical topic structure: a conceptual
// shopping scenario holding a cluster of item entities (Figure 1(b)).
struct Topic {
  uint32_t id = kNoTopic;            // index within the taxonomy
  uint32_t dendro_node = kNoNode;    // backing dendrogram node
  uint32_t parent = kNoTopic;        // parent topic (kNoTopic for roots)
  uint32_t level = 0;                // 0 for root topics
  std::vector<uint32_t> children;    // sub-topic ids
  std::vector<uint32_t> entities;    // member item entities
  // Ontology leaf categories of the members with multiplicities,
  // descending by count — the topic->category association of Sec 2.4.
  std::vector<std::pair<uint32_t, size_t>> categories;
  // Representative queries (filled by TopicDescriber), best first.
  std::vector<std::string> description;
};

// The full per-topic rankings a taxonomy was described from and the
// options they ran with (defined in core/topic_describer.h).
struct TopicRankings;

struct TaxonomyOptions {
  // Dendrogram nodes smaller than this are folded into their closest
  // qualifying ancestor instead of becoming topics.
  uint32_t min_topic_size = 3;
  // Root clusters smaller than this are dropped entirely (noise).
  uint32_t min_root_size = 3;
};

// The extracted topic hierarchy. Root topics are the final HAC clusters;
// sub-topics are the qualifying merge nodes beneath them.
class Taxonomy {
 public:
  // `entity_categories[e]` is the ontology leaf category of entity e
  // (or any dense labelling; only used to aggregate per-topic counts).
  static Taxonomy Build(const Dendrogram& dendrogram,
                        const std::vector<uint32_t>& entity_categories,
                        const TaxonomyOptions& options);

  size_t num_topics() const { return topics_.size(); }
  const Topic& topic(uint32_t id) const { return topics_[id]; }
  Topic& topic(uint32_t id) { return topics_[id]; }

  const std::vector<uint32_t>& roots() const { return roots_; }
  size_t num_entities() const { return entity_topic_.size(); }

  // Deepest topic containing the entity; kNoTopic if the entity fell
  // into a dropped root.
  uint32_t TopicOfEntity(uint32_t entity) const {
    return entity_topic_[entity];
  }

  // Root topic above the entity; kNoTopic if dropped.
  uint32_t RootTopicOfEntity(uint32_t entity) const;

  // Per-entity root-topic label (dense ids); entities in dropped roots
  // each get a fresh singleton label so metrics remain well defined.
  std::vector<uint32_t> RootLabels() const;

  // The per-topic query rankings the descriptions were written from,
  // with the DescriberOptions they were written under; the serving-index
  // compiler reads them. Only TopicDescriber sets it (Describe,
  // DescribeTopics with the caller's rankings for unscored topics, and
  // ApplyRankings), always for every topic. Copies of the taxonomy share
  // one immutable block. Null until then; a loaded taxonomy has none.
  // Editing topics afterwards does not update it.
  const TopicRankings* rankings() const { return rankings_.get(); }

 private:
  // Reconstruction path for the TSV loader (taxonomy_io.h).
  friend util::Result<Taxonomy> TaxonomyFromTopics(std::vector<Topic>,
                                                   size_t);
  // Stores and clears the rankings block.
  friend class TopicDescriber;

  std::vector<Topic> topics_;
  std::vector<uint32_t> roots_;
  std::vector<uint32_t> entity_topic_;
  std::shared_ptr<const TopicRankings> rankings_;
};

}  // namespace shoal::core

#endif  // SHOAL_CORE_TAXONOMY_H_
