#include "util/fault.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "util/string_util.h"

namespace shoal::util {

namespace {

// SplitMix64: a deterministic, well-mixed hash of the write counter so
// `fail_write:P` reproduces exactly across runs and threads.
uint64_t Mix64(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

bool ParseSize(std::string_view text, size_t* out) {
  if (text.empty()) return false;
  size_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  *out = value;
  return true;
}

}  // namespace

FaultInjector& FaultInjector::Global() {
  static FaultInjector* injector = new FaultInjector();
  return *injector;
}

void FaultInjector::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_release);
  round_action_ = Action::kNone;
  round_trigger_ = 0;
  stage_action_ = Action::kNone;
  stage_trigger_.clear();
  fail_write_probability_ = 0.0;
  fail_write_at_ = 0;
  writes_seen_.store(0, std::memory_order_relaxed);
}

Status FaultInjector::Configure(std::string_view spec) {
  Reset();
  std::string_view trimmed = Trim(spec);
  if (trimmed.empty() || trimmed == "off") return Status::OK();

  std::lock_guard<std::mutex> lock(mu_);
  bool any = false;
  for (const std::string& directive : Split(trimmed, ',')) {
    std::string_view d = Trim(directive);
    if (d.empty()) continue;
    const size_t colon = d.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument(
          "fault directive missing ':': " + std::string(d));
    }
    const std::string_view name = d.substr(0, colon);
    const std::string_view arg = d.substr(colon + 1);
    if (name == "crash_at_round" || name == "abort_at_round") {
      if (!ParseSize(arg, &round_trigger_)) {
        return Status::InvalidArgument("bad round: " + std::string(d));
      }
      round_action_ =
          name[0] == 'c' ? Action::kCrash : Action::kAbort;
    } else if (name == "crash_at_stage" || name == "abort_at_stage") {
      if (arg.empty()) {
        return Status::InvalidArgument("bad stage: " + std::string(d));
      }
      stage_trigger_ = std::string(arg);
      stage_action_ =
          name[0] == 'c' ? Action::kCrash : Action::kAbort;
    } else if (name == "fail_write") {
      char* end = nullptr;
      const std::string text(arg);
      fail_write_probability_ = std::strtod(text.c_str(), &end);
      if (end == text.c_str() || *end != '\0' ||
          fail_write_probability_ < 0.0 || fail_write_probability_ > 1.0) {
        return Status::InvalidArgument(
            "fail_write probability must be in [0,1]: " + std::string(d));
      }
    } else if (name == "fail_write_at") {
      size_t n = 0;
      if (!ParseSize(arg, &n) || n == 0) {
        return Status::InvalidArgument(
            "fail_write_at expects a 1-based count: " + std::string(d));
      }
      fail_write_at_ = n;
    } else {
      return Status::InvalidArgument(
          "unknown fault directive: " + std::string(d));
    }
    any = true;
  }
  armed_.store(any, std::memory_order_release);
  return Status::OK();
}

Status FaultInjector::ConfigureFromEnv() {
  const char* spec = std::getenv("SHOAL_FAULT");
  if (spec == nullptr || spec[0] == '\0') return Status::OK();
  return Configure(spec);
}

void FaultInjector::Crash(const std::string& what) {
  // Simulate a killed worker: no flushing, no atexit — whatever the
  // atomic-write protocol has committed is all that survives.
  std::fprintf(stderr, "shoal: injected crash (%s)\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(kCrashExitCode);
}

Status FaultInjector::OnHacRoundSlow(size_t round) {
  if (round_action_ == Action::kNone || round != round_trigger_) {
    return Status::OK();
  }
  if (round_action_ == Action::kCrash) {
    Crash(StringPrintf("crash_at_round:%zu", round));
  }
  return Status::Internal(
      StringPrintf("fault injected: abort_at_round:%zu", round));
}

Status FaultInjector::OnStageSlow(std::string_view stage) {
  if (stage_action_ == Action::kNone || stage != stage_trigger_) {
    return Status::OK();
  }
  if (stage_action_ == Action::kCrash) {
    Crash("crash_at_stage:" + std::string(stage));
  }
  return Status::Internal("fault injected: abort_at_stage:" +
                          std::string(stage));
}

bool FaultInjector::ShouldFailWriteSlow() {
  const uint64_t count =
      writes_seen_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (fail_write_at_ != 0 && count == fail_write_at_) return true;
  if (fail_write_probability_ > 0.0) {
    const double draw =
        static_cast<double>(Mix64(count) >> 11) * 0x1.0p-53;
    if (draw < fail_write_probability_) return true;
  }
  return false;
}

}  // namespace shoal::util
