#ifndef SHOAL_UTIL_FAULT_H_
#define SHOAL_UTIL_FAULT_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>

#include "util/status.h"

namespace shoal::util {

// Process-wide fault injection for crash-safety testing. Disabled it
// costs one relaxed atomic load per hook call; the pipeline threads hook
// calls through the HAC round loop, the stage boundaries of BuildShoal,
// and every atomic file write.
//
// A fault spec is a comma-separated list of directives:
//
//   crash_at_round:N        _Exit(kCrashExitCode) entering HAC round N
//   abort_at_round:N        same point, but return an Internal Status
//   crash_at_stage:NAME     _Exit after pipeline stage NAME completes
//   abort_at_stage:NAME       (word2vec, entity_graph, hac, taxonomy,
//                             describe, correlation), or fail cleanly
//   fail_write:P            each atomic file write fails independently
//                             with probability P (deterministic hash of
//                             the write counter, so runs reproduce)
//   fail_write_at:N         exactly the Nth atomic write fails (1-based)
//
// The crash_* variants simulate a killed worker: the process exits
// immediately without flushing or running atexit handlers, so whatever
// is on disk is exactly what the atomic-write protocol guarantees. The
// abort_* variants return a clean error Status instead, which lets
// in-process tests exercise the identical recovery path.
//
// CLI binaries arm the injector from the SHOAL_FAULT environment
// variable at startup; tests call Configure()/Reset() directly.
class FaultInjector {
 public:
  // Exit code used by crash_* faults, checked by the CI crash-recovery
  // smoke job to distinguish an injected crash from a real failure.
  static constexpr int kCrashExitCode = 42;

  static FaultInjector& Global();

  // Parses and arms `spec`. An empty spec (or "off") disarms. On a
  // malformed spec the injector is left disarmed and an error returned.
  Status Configure(std::string_view spec);

  // Configure() from the SHOAL_FAULT environment variable (no-op when
  // unset or empty).
  Status ConfigureFromEnv();

  // Disarms and clears all counters.
  void Reset();

  bool armed() const { return armed_.load(std::memory_order_acquire); }

  // --- hook points -------------------------------------------------------
  // Called at the top of each HAC round with the cumulative round index.
  Status OnHacRound(size_t round) {
    if (!armed()) return Status::OK();
    return OnHacRoundSlow(round);
  }
  // Called after pipeline stage `stage` completes.
  Status OnStage(std::string_view stage) {
    if (!armed()) return Status::OK();
    return OnStageSlow(stage);
  }
  // Consulted by AtomicWriteFile after the temp file is written but
  // before the rename: true means this write must fail (the temp file
  // is discarded and the target left untouched).
  bool ShouldFailWrite() {
    if (!armed()) return false;
    return ShouldFailWriteSlow();
  }

 private:
  enum class Action : uint8_t { kNone, kCrash, kAbort };

  Status OnHacRoundSlow(size_t round);
  Status OnStageSlow(std::string_view stage);
  bool ShouldFailWriteSlow();

  [[noreturn]] static void Crash(const std::string& what);

  // Configuration, written under `mu_` before `armed_` is released.
  mutable std::mutex mu_;
  Action round_action_ = Action::kNone;
  size_t round_trigger_ = 0;
  Action stage_action_ = Action::kNone;
  std::string stage_trigger_;
  double fail_write_probability_ = 0.0;
  uint64_t fail_write_at_ = 0;

  // Runtime counters (hooks may run concurrently).
  std::atomic<uint64_t> writes_seen_{0};
  std::atomic<bool> armed_{false};
};

}  // namespace shoal::util

#endif  // SHOAL_UTIL_FAULT_H_
