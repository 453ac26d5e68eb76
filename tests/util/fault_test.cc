#include "util/fault.h"

#include <vector>

#include <gtest/gtest.h>

namespace shoal::util {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Reset(); }
};

TEST_F(FaultTest, DisarmedByDefaultAfterReset) {
  FaultInjector::Global().Reset();
  EXPECT_FALSE(FaultInjector::Global().armed());
  EXPECT_TRUE(FaultInjector::Global().OnHacRound(0).ok());
  EXPECT_TRUE(FaultInjector::Global().OnStage("hac").ok());
  EXPECT_FALSE(FaultInjector::Global().ShouldFailWrite());
}

TEST_F(FaultTest, EmptyAndOffSpecsDisarm) {
  ASSERT_TRUE(FaultInjector::Global().Configure("abort_at_round:1").ok());
  EXPECT_TRUE(FaultInjector::Global().armed());
  ASSERT_TRUE(FaultInjector::Global().Configure("").ok());
  EXPECT_FALSE(FaultInjector::Global().armed());
  ASSERT_TRUE(FaultInjector::Global().Configure("abort_at_round:1").ok());
  ASSERT_TRUE(FaultInjector::Global().Configure("off").ok());
  EXPECT_FALSE(FaultInjector::Global().armed());
}

TEST_F(FaultTest, MalformedSpecsRejectedAndDisarmed) {
  EXPECT_FALSE(FaultInjector::Global().Configure("bogus_directive:1").ok());
  EXPECT_FALSE(FaultInjector::Global().armed());
  EXPECT_FALSE(FaultInjector::Global().Configure("abort_at_round").ok());
  EXPECT_FALSE(FaultInjector::Global().Configure("abort_at_round:x").ok());
  EXPECT_FALSE(FaultInjector::Global().Configure("fail_write:2.0").ok());
  EXPECT_FALSE(FaultInjector::Global().Configure("fail_write:-0.5").ok());
  // No hook point fires per superstep, so these would arm a fault that
  // can never trigger: they are unknown directives.
  EXPECT_FALSE(FaultInjector::Global().Configure("crash_at_superstep:1").ok());
  EXPECT_FALSE(FaultInjector::Global().Configure("abort_at_superstep:1").ok());
  EXPECT_FALSE(FaultInjector::Global().armed());
}

TEST_F(FaultTest, AbortAtRoundTriggersOnlyAtThatRound) {
  ASSERT_TRUE(FaultInjector::Global().Configure("abort_at_round:3").ok());
  EXPECT_TRUE(FaultInjector::Global().OnHacRound(0).ok());
  EXPECT_TRUE(FaultInjector::Global().OnHacRound(2).ok());
  auto status = FaultInjector::Global().OnHacRound(3);
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("fault injected"), std::string::npos);
  EXPECT_TRUE(FaultInjector::Global().OnHacRound(4).ok());
}

TEST_F(FaultTest, AbortAtStageMatchesByName) {
  ASSERT_TRUE(
      FaultInjector::Global().Configure("abort_at_stage:entity_graph").ok());
  EXPECT_TRUE(FaultInjector::Global().OnStage("word2vec").ok());
  EXPECT_EQ(FaultInjector::Global().OnStage("entity_graph").code(),
            StatusCode::kInternal);
  EXPECT_TRUE(FaultInjector::Global().OnStage("hac").ok());
}

TEST_F(FaultTest, FailWriteProbabilityZeroNeverFires) {
  ASSERT_TRUE(FaultInjector::Global().Configure("fail_write:0.0").ok());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(FaultInjector::Global().ShouldFailWrite());
  }
}

TEST_F(FaultTest, FailWriteProbabilityOneAlwaysFires) {
  ASSERT_TRUE(FaultInjector::Global().Configure("fail_write:1.0").ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(FaultInjector::Global().ShouldFailWrite());
  }
}

TEST_F(FaultTest, FailWriteIsDeterministicAcrossRuns) {
  std::vector<bool> first;
  ASSERT_TRUE(FaultInjector::Global().Configure("fail_write:0.5").ok());
  for (int i = 0; i < 64; ++i) {
    first.push_back(FaultInjector::Global().ShouldFailWrite());
  }
  // Reconfiguring resets the write counter; the same sequence replays.
  ASSERT_TRUE(FaultInjector::Global().Configure("fail_write:0.5").ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(FaultInjector::Global().ShouldFailWrite(), first[i]) << i;
  }
  size_t fired = 0;
  for (bool b : first) fired += b;
  // 0.5 probability over 64 draws: both outcomes must occur.
  EXPECT_GT(fired, 0u);
  EXPECT_LT(fired, 64u);
}

TEST_F(FaultTest, CombinedDirectivesBothActive) {
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("abort_at_round:1,fail_write_at:1")
                  .ok());
  EXPECT_TRUE(FaultInjector::Global().ShouldFailWrite());
  EXPECT_FALSE(FaultInjector::Global().ShouldFailWrite());
  EXPECT_EQ(FaultInjector::Global().OnHacRound(1).code(),
            StatusCode::kInternal);
}

}  // namespace
}  // namespace shoal::util
