#ifndef SHOAL_ENGINE_BSP_ENGINE_H_
#define SHOAL_ENGINE_BSP_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "engine/partitioner.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/fault.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace shoal::engine {

// In-process stand-in for the distributed graph platform (ODPS) the paper
// deploys Parallel HAC on. Implements the Pregel/BSP model:
//
//  * vertices carry a value of type V and are spread over partitions;
//  * computation proceeds in supersteps; in each superstep every *active*
//    vertex runs the user compute function, may read messages sent to it
//    in the previous superstep, send messages of type M to any vertex,
//    and vote to halt;
//  * a vertex is reactivated by an incoming message;
//  * the run terminates when every vertex has halted and no messages are
//    in flight, or after `max_supersteps`.
//
// Partitions are executed by a thread pool; messages are sharded by
// target partition at send time and delivered by the target partition's
// own task in fixed source order, so a run is fully deterministic for a
// given input regardless of thread count. Per-superstep work is
// proportional to the *frontier* (vertices that are awake or received a
// message), not to the vertex count: inbox clearing walks only the
// previous superstep's dirty list and quiescence is a counter check, so
// algorithms whose activity shrinks (e.g. late HAC rounds) do not pay
// O(V) barrier costs forever.
//
// The worker pool can be injected (`Options::pool`) and shared across
// many engine instances — full-broadcast ParallelHac creates one engine
// per round, and without injection every round would spawn and join a
// fresh set of threads.
template <typename V, typename M>
class BspEngine {
 public:
  struct Options {
    size_t num_partitions = 8;
    size_t num_threads = 2;
    size_t max_supersteps = 1000;
    PartitionStrategy partition_strategy = PartitionStrategy::kRange;
    // Borrowed shared worker pool. When null the engine owns a private
    // pool of `num_threads` workers (and pays the thread spawn/join).
    util::ThreadPool* pool = nullptr;
  };

  class Context;
  // Compute(ctx, vertex_id, vertex_value, incoming_messages)
  using ComputeFn =
      std::function<void(Context&, uint32_t, V&, const std::vector<M>&)>;
  // Optional message combiner: folds `incoming` into `accumulated`.
  // Combiners must be commutative and associative (the Pregel contract);
  // delivery applies them in deterministic source order.
  using CombineFn = std::function<void(M& accumulated, const M& incoming)>;

  BspEngine(size_t num_vertices, Options options)
      : options_(options),
        partitioner_(num_vertices, options.num_partitions,
                     options.partition_strategy),
        values_(num_vertices),
        inbox_(num_vertices) {
    if (options_.pool != nullptr) {
      pool_ = options_.pool;
    } else {
      owned_pool_ = std::make_unique<util::ThreadPool>(options_.num_threads);
      pool_ = owned_pool_.get();
    }
    const uint32_t num_parts = partitioner_.num_partitions();
    awake_.resize(num_parts);
    awake_next_.resize(num_parts);
    dirty_.resize(num_parts);
    compute_set_.resize(num_parts);
    for (uint32_t p = 0; p < num_parts; ++p) {
      awake_[p] = partitioner_.VerticesOf(p);  // every vertex starts active
    }
  }

  size_t num_vertices() const { return values_.size(); }
  size_t superstep() const { return superstep_; }

  V& VertexValue(uint32_t v) { return values_[v]; }
  const V& VertexValue(uint32_t v) const { return values_[v]; }

  void SetCombiner(CombineFn combine) { combine_ = std::move(combine); }

  // Per-vertex execution context handed to the compute function. One
  // context per partition, reused across supersteps (outbox shards keep
  // their capacity between rounds).
  class Context {
   public:
    Context(BspEngine* engine, uint32_t partition)
        : engine_(engine),
          partition_(partition),
          shards_(engine->partitioner_.num_partitions()) {}

    size_t superstep() const { return engine_->superstep_; }
    size_t num_vertices() const { return engine_->num_vertices(); }

    // Queues a message for delivery at the start of the next superstep.
    // Messages are placed straight into the shard of the target's
    // partition; with a combiner set, back-to-back sends to the same
    // target fold immediately instead of buffering.
    void SendMessage(uint32_t target, M message) {
      if (target >= engine_->num_vertices()) {
        invalid_target_ = true;
        return;
      }
      auto& shard = shards_[engine_->partitioner_.PartitionOf(target)];
      ++messages_sent_;
      if (engine_->combine_ && !shard.empty() &&
          shard.back().first == target) {
        engine_->combine_(shard.back().second, message);
        return;
      }
      shard.emplace_back(target, std::move(message));
    }

    // The current vertex becomes inactive until a message arrives.
    void VoteToHalt() { halt_current_ = true; }

   private:
    friend class BspEngine;
    void ResetForSuperstep() {
      for (auto& shard : shards_) shard.clear();
      messages_sent_ = 0;
      invalid_target_ = false;
    }

    BspEngine* engine_;
    uint32_t partition_;
    // Outgoing messages sharded by target partition.
    std::vector<std::vector<std::pair<uint32_t, M>>> shards_;
    uint64_t messages_sent_ = 0;
    bool halt_current_ = false;
    bool invalid_target_ = false;
  };

  // Runs supersteps until quiescence. Statistics are collected into the
  // public counters below.
  util::Status Run(const ComputeFn& compute) {
    if (!compute) {
      return util::Status::InvalidArgument("compute function is empty");
    }
    const uint32_t num_parts = partitioner_.num_partitions();
    superstep_ = 0;
    total_messages_ = 0;
    if (contexts_.empty()) {
      contexts_.reserve(num_parts);
      for (uint32_t p = 0; p < num_parts; ++p) contexts_.emplace_back(this, p);
    }
    // Observability: spans/metrics only read clocks and write side
    // buffers, so enabling them cannot change the computation.
    const bool metrics_on = obs::MetricsRegistry::Global().enabled();

    while (superstep_ < options_.max_supersteps) {
      SHOAL_RETURN_IF_ERROR(
          util::FaultInjector::Global().OnBspSuperstep(superstep_));
      obs::ScopedSpan superstep_span("bsp.superstep");
      superstep_span.AddArg("superstep",
                            static_cast<double>(superstep_));

      // --- compute phase (parallel over partitions). Each partition
      // runs the union of its awake list and its dirty (message-
      // receiving) list, in ascending vertex order — the same order a
      // full scan would produce, so message emission order (and thus
      // combining order) is independent of the thread count.
      std::atomic<uint64_t> active_vertices{0};
      pool_->ParallelForChunked(
          num_parts, [&](size_t begin, size_t end, size_t /*worker*/) {
            SHOAL_TRACE_SPAN("bsp.compute_chunk");
            uint64_t chunk_active = 0;
            for (size_t p = begin; p < end; ++p) {
              auto& to_run = compute_set_[p];
              to_run.clear();
              std::set_union(awake_[p].begin(), awake_[p].end(),
                             dirty_[p].begin(), dirty_[p].end(),
                             std::back_inserter(to_run));
              Context& ctx = contexts_[p];
              auto& next_awake = awake_next_[p];
              next_awake.clear();
              for (uint32_t v : to_run) {
                ctx.halt_current_ = false;
                compute(ctx, v, values_[v], inbox_[v]);
                if (!ctx.halt_current_) next_awake.push_back(v);
                ++chunk_active;
              }
              awake_[p].swap(next_awake);
            }
            active_vertices.fetch_add(chunk_active,
                                      std::memory_order_relaxed);
          });

      size_t delivered = 0;
      for (uint32_t p = 0; p < num_parts; ++p) {
        if (contexts_[p].invalid_target_) {
          return util::Status::OutOfRange(
              "message sent to nonexistent vertex");
        }
        delivered += contexts_[p].messages_sent_;
      }

      // --- barrier: deliver shards in parallel — each target partition
      // clears only the inboxes its previous dirty list names and drains
      // the shards addressed to it in source-partition order, which keeps
      // delivery deterministic without a serial O(V) pass.
      pool_->ParallelForChunked(
          num_parts, [&](size_t begin, size_t end, size_t /*worker*/) {
            for (size_t target_part = begin; target_part < end;
                 ++target_part) {
              auto& dirty = dirty_[target_part];
              for (uint32_t v : dirty) inbox_[v].clear();
              dirty.clear();
              for (uint32_t source = 0; source < num_parts; ++source) {
                for (auto& [target, message] :
                     contexts_[source].shards_[target_part]) {
                  auto& box = inbox_[target];
                  if (box.empty()) {
                    dirty.push_back(target);
                    box.push_back(std::move(message));
                  } else if (combine_) {
                    combine_(box.front(), message);
                  } else {
                    box.push_back(std::move(message));
                  }
                }
              }
              std::sort(dirty.begin(), dirty.end());
            }
          });
      for (uint32_t p = 0; p < num_parts; ++p) {
        contexts_[p].ResetForSuperstep();
      }
      total_messages_ += delivered;
      ++superstep_;

      superstep_span.AddArg("active_vertices",
                            static_cast<double>(active_vertices.load()));
      superstep_span.AddArg("delivered_messages",
                            static_cast<double>(delivered));
      if (metrics_on) {
        auto& metrics = obs::MetricsRegistry::Global();
        metrics.GetHistogram("bsp.superstep.messages")
            .Record(static_cast<double>(delivered));
        metrics.GetHistogram("bsp.superstep.active_vertices")
            .Record(static_cast<double>(active_vertices.load()));
      }

      if (delivered == 0) {
        // Quiescent iff nothing is awake — an O(partitions) counter
        // check instead of an O(V) halted scan.
        size_t awake_total = 0;
        for (uint32_t p = 0; p < num_parts; ++p) {
          awake_total += awake_[p].size();
        }
        if (awake_total == 0) {
          RecordRunMetrics();
          return util::Status::OK();
        }
      }
    }
    RecordRunMetrics();
    return util::Status::OK();  // hit max_supersteps; callers may inspect
  }

  uint64_t total_messages() const { return total_messages_; }

 private:
  // Pushes run totals into the global registry after a completed run.
  void RecordRunMetrics() {
    auto& metrics = obs::MetricsRegistry::Global();
    if (!metrics.enabled()) return;
    metrics.GetCounter("bsp.runs").Increment();
    metrics.GetCounter("bsp.supersteps").Increment(superstep_);
    metrics.GetCounter("bsp.messages").Increment(total_messages_);
  }
  Options options_;
  Partitioner partitioner_;
  std::vector<V> values_;
  std::vector<std::vector<M>> inbox_;
  // Frontier state, all ascending per partition: vertices that did not
  // vote to halt, their double buffer, vertices whose inbox is nonempty,
  // and the per-superstep union actually run.
  std::vector<std::vector<uint32_t>> awake_;
  std::vector<std::vector<uint32_t>> awake_next_;
  std::vector<std::vector<uint32_t>> dirty_;
  std::vector<std::vector<uint32_t>> compute_set_;
  std::vector<Context> contexts_;
  util::ThreadPool* pool_ = nullptr;
  std::unique_ptr<util::ThreadPool> owned_pool_;
  CombineFn combine_;
  size_t superstep_ = 0;
  uint64_t total_messages_ = 0;
};

}  // namespace shoal::engine

#endif  // SHOAL_ENGINE_BSP_ENGINE_H_
