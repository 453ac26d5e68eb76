#include "engine/bsp_engine.h"

#include <gtest/gtest.h>

#include "util/thread_pool.h"

namespace shoal::engine {
namespace {

using IntEngine = BspEngine<int, int>;

IntEngine::Options SmallOptions(size_t partitions = 4, size_t threads = 2) {
  IntEngine::Options options;
  options.num_partitions = partitions;
  options.num_threads = threads;
  return options;
}

TEST(BspEngineTest, RejectsEmptyComputeFunction) {
  IntEngine engine(4, SmallOptions());
  EXPECT_FALSE(engine.Run(nullptr).ok());
}

TEST(BspEngineTest, HaltsImmediatelyWhenAllVote) {
  IntEngine engine(8, SmallOptions());
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t, int& value,
                              const std::vector<int>&) {
    value = 1;
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.superstep(), 1u);
  for (uint32_t v = 0; v < 8; ++v) EXPECT_EQ(engine.VertexValue(v), 1);
}

TEST(BspEngineTest, MessagesDeliveredNextSuperstep) {
  // Vertex 0 sends its id to vertex 1 in superstep 0; vertex 1 must see
  // it in superstep 1.
  IntEngine engine(2, SmallOptions());
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v, int& value,
                              const std::vector<int>& messages) {
    if (ctx.superstep() == 0 && v == 0) {
      ctx.SendMessage(1, 41);
    }
    for (int m : messages) value = m + 1;
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.VertexValue(1), 42);
  EXPECT_EQ(engine.total_messages(), 1u);
}

TEST(BspEngineTest, MessageToInvalidVertexFails) {
  IntEngine engine(2, SmallOptions());
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t, int&,
                              const std::vector<int>&) {
    ctx.SendMessage(99, 1);
    ctx.VoteToHalt();
  });
  EXPECT_EQ(status.code(), util::StatusCode::kOutOfRange);
}

TEST(BspEngineTest, ChainPropagation) {
  // Value travels down a chain one hop per superstep: classic BSP.
  const size_t n = 6;
  IntEngine engine(n, SmallOptions());
  auto status = engine.Run([n](IntEngine::Context& ctx, uint32_t v,
                               int& value,
                               const std::vector<int>& messages) {
    if (ctx.superstep() == 0 && v == 0) {
      value = 1;
      ctx.SendMessage(1, 1);
    }
    for (int m : messages) {
      value = m;
      if (v + 1 < n) ctx.SendMessage(v + 1, m);
    }
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  for (uint32_t v = 0; v < n; ++v) EXPECT_EQ(engine.VertexValue(v), 1);
  EXPECT_EQ(engine.superstep(), n);  // n-1 hops + final quiescent step
}

TEST(BspEngineTest, CombinerFoldsMessages) {
  // All vertices send to vertex 0 with a max-combiner; vertex 0 must see
  // exactly one message carrying the max.
  const size_t n = 10;
  IntEngine engine(n, SmallOptions());
  engine.SetCombiner([](int& acc, const int& incoming) {
    acc = std::max(acc, incoming);
  });
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v,
                              int& value,
                              const std::vector<int>& messages) {
    if (ctx.superstep() == 0) {
      ctx.SendMessage(0, static_cast<int>(v) * 10);
    } else if (!messages.empty()) {
      EXPECT_EQ(messages.size(), 1u);
      value = messages[0];
    }
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.VertexValue(0), 90);
}

TEST(BspEngineTest, MaxSuperstepsBoundsRunawayPrograms) {
  IntEngine::Options options = SmallOptions();
  options.max_supersteps = 3;
  IntEngine engine(2, options);
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v, int&,
                              const std::vector<int>&) {
    ctx.SendMessage(1 - v, 1);  // ping-pong forever
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.superstep(), 3u);
}

TEST(BspEngineTest, DeterministicAcrossThreadCounts) {
  // Same program, 1 thread vs 4 threads: identical vertex values. The
  // program sums incoming neighbour ids over a ring.
  auto run_with_threads = [&](size_t threads) {
    const size_t n = 64;
    IntEngine::Options options;
    options.num_partitions = 8;
    options.num_threads = threads;
    IntEngine engine(n, options);
    auto status = engine.Run([n](IntEngine::Context& ctx, uint32_t v,
                                 int& value,
                                 const std::vector<int>& messages) {
      if (ctx.superstep() == 0) {
        ctx.SendMessage((v + 1) % n, static_cast<int>(v));
        ctx.SendMessage((v + n - 1) % n, static_cast<int>(v));
      }
      for (int m : messages) value += m;
      ctx.VoteToHalt();
    });
    EXPECT_TRUE(status.ok());
    std::vector<int> values;
    for (uint32_t v = 0; v < n; ++v) values.push_back(engine.VertexValue(v));
    return values;
  };
  EXPECT_EQ(run_with_threads(1), run_with_threads(4));
}

TEST(BspEngineTest, HaltedVertexReactivatedByMessage) {
  IntEngine engine(2, SmallOptions());
  auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v, int& value,
                              const std::vector<int>& messages) {
    if (ctx.superstep() == 0) {
      if (v == 1) {
        ctx.VoteToHalt();  // vertex 1 halts immediately
        return;
      }
      ctx.SendMessage(1, 7);  // vertex 0 wakes it back up
      ctx.VoteToHalt();
      return;
    }
    for (int m : messages) value = m;  // must run again to see 7
    ctx.VoteToHalt();
  });
  ASSERT_TRUE(status.ok());
  EXPECT_EQ(engine.VertexValue(1), 7);
}

TEST(BspEngineTest, InjectedPoolSpawnsNoThreads) {
  util::ThreadPool pool(2);
  const uint64_t threads_before = util::ThreadPool::TotalThreadsCreated();
  IntEngine::Options options = SmallOptions();
  options.pool = &pool;
  // Constructing and running several engines on a borrowed pool must not
  // create a single thread.
  for (int run = 0; run < 3; ++run) {
    IntEngine engine(16, options);
    auto status = engine.Run([](IntEngine::Context& ctx, uint32_t v,
                                int& value, const std::vector<int>& messages) {
      if (ctx.superstep() == 0) ctx.SendMessage((v + 1) % 16, 1);
      for (int m : messages) value += m;
      ctx.VoteToHalt();
    });
    ASSERT_TRUE(status.ok());
    for (uint32_t v = 0; v < 16; ++v) EXPECT_EQ(engine.VertexValue(v), 1);
  }
  EXPECT_EQ(util::ThreadPool::TotalThreadsCreated(), threads_before);
}

TEST(BspEngineTest, InjectedPoolMatchesOwnedPoolResults) {
  auto program = [](IntEngine::Context& ctx, uint32_t v, int& value,
                    const std::vector<int>& messages) {
    if (ctx.superstep() == 0) {
      ctx.SendMessage((v + 3) % 32, static_cast<int>(v));
    }
    for (int m : messages) value += m;
    ctx.VoteToHalt();
  };
  IntEngine owned(32, SmallOptions(5, 3));
  ASSERT_TRUE(owned.Run(program).ok());

  util::ThreadPool pool(3);
  IntEngine::Options options = SmallOptions(5, 3);
  options.pool = &pool;
  IntEngine borrowed(32, options);
  ASSERT_TRUE(borrowed.Run(program).ok());

  for (uint32_t v = 0; v < 32; ++v) {
    EXPECT_EQ(borrowed.VertexValue(v), owned.VertexValue(v)) << v;
  }
  EXPECT_EQ(borrowed.total_messages(), owned.total_messages());
  EXPECT_EQ(borrowed.superstep(), owned.superstep());
}

}  // namespace
}  // namespace shoal::engine
