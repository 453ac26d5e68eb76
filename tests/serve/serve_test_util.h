#ifndef SHOAL_TESTS_SERVE_SERVE_TEST_UTIL_H_
#define SHOAL_TESTS_SERVE_SERVE_TEST_UTIL_H_

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dendrogram.h"
#include "core/taxonomy.h"
#include "core/topic_describer.h"
#include "graph/bipartite_graph.h"
#include "serve/serving_index.h"

namespace shoal::serve {

// The topic_describer_test fixture, reused for the serving layer and
// described with the default options: two root topics with distinct
// vocabularies and three queries, one of them ("Beach Chair")
// deliberately unnormalized so raw and normalized dictionary lookups
// diverge.
//   topic of {0,1}: titles about words {100,101}; q0 concentrated here
//   topic of {2,3}: titles about words {200,201}; q1 concentrated here
//   q2 is diffuse (one click on each side)
struct ServeFixture {
  core::Dendrogram dendrogram{4};
  std::vector<uint32_t> categories{1, 1, 2, 2};
  core::Taxonomy taxonomy;
  graph::BipartiteGraph qi{3, 4};
  std::vector<std::vector<uint32_t>> query_words{{100}, {200}, {300}};
  std::vector<std::string> query_texts{"Beach  Chair", "router", "misc"};
  std::vector<std::vector<uint32_t>> titles{
      {100, 101}, {100, 101}, {200, 201}, {200, 201}};

  ServeFixture() {
    (void)dendrogram.Merge(0, 1, 0.9);
    (void)dendrogram.Merge(2, 3, 0.9);
    core::TaxonomyOptions options;
    options.min_topic_size = 2;
    options.min_root_size = 2;
    taxonomy = core::Taxonomy::Build(dendrogram, categories, options);
    EXPECT_EQ(taxonomy.roots().size(), 2u);
    EXPECT_TRUE(qi.AddInteraction(0, 0, 5).ok());
    EXPECT_TRUE(qi.AddInteraction(0, 1, 3).ok());
    EXPECT_TRUE(qi.AddInteraction(1, 2, 4).ok());
    EXPECT_TRUE(qi.AddInteraction(1, 3, 4).ok());
    EXPECT_TRUE(qi.AddInteraction(2, 1, 1).ok());
    EXPECT_TRUE(qi.AddInteraction(2, 2, 1).ok());
    // CompileServingIndex reads the rankings a full describe keeps.
    EXPECT_TRUE(core::TopicDescriber::Describe(taxonomy, Input(),
                                               core::DescriberOptions())
                    .ok());
  }

  core::DescriberInput Input() {
    core::DescriberInput input;
    input.taxonomy = &taxonomy;
    input.query_item_graph = &qi;
    input.query_words = &query_words;
    input.query_texts = &query_texts;
    input.entity_title_words = &titles;
    return input;
  }

  // The mutable builder form (field access, tamper-then-encode tests).
  util::Result<ServingIndexData> Compile(CompileOptions options = {}) {
    return CompileServingIndex(taxonomy, Input(), core::DescriberOptions(),
                               &categories, options);
  }

  // The frozen flat form the serving path reads.
  util::Result<ServingIndex> CompileIndex(CompileOptions options = {}) {
    SHOAL_ASSIGN_OR_RETURN(ServingIndexData data, Compile(options));
    return data.Build();
  }
};

}  // namespace shoal::serve

#endif  // SHOAL_TESTS_SERVE_SERVE_TEST_UTIL_H_
