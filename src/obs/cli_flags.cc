#include "obs/cli_flags.h"

#include <cstdio>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace shoal::obs {

void AddObservabilityFlags(util::FlagParser& flags) {
  flags.AddString("trace-out", "",
                  "write a Chrome trace-event JSON file (Perfetto loadable)");
  flags.AddString("metrics-out", "",
                  "write a metrics-registry JSON snapshot (with the build "
                  "stats, where the binary builds)");
  AddLogLevelFlag(flags);
}

void AddLogLevelFlag(util::FlagParser& flags) {
  flags.AddString("log-level", "info",
                  "log verbosity: debug, info, warning, error");
}

bool ApplyLogLevelFlag(const util::FlagParser& flags) {
  util::LogLevel level = util::LogLevel::kInfo;
  if (!util::ParseLogLevel(flags.GetString("log-level"), &level)) {
    std::fprintf(stderr, "unknown --log-level '%s'\n",
                 flags.GetString("log-level").c_str());
    return false;
  }
  util::SetLogLevel(level);
  return true;
}

bool EnableObservability(const util::FlagParser& flags) {
  if (!ApplyLogLevelFlag(flags)) return false;
  if (!flags.GetString("trace-out").empty()) Tracer::Global().Enable();
  if (!flags.GetString("metrics-out").empty()) {
    MetricsRegistry::Global().Enable();
  }
  return true;
}

util::Status WriteObservability(const util::FlagParser& flags,
                                const char* extra_key,
                                util::JsonValue extra) {
  const std::string& trace_path = flags.GetString("trace-out");
  if (!trace_path.empty()) {
    SHOAL_RETURN_IF_ERROR(Tracer::Global().WriteChromeJson(trace_path));
    std::printf("wrote Chrome trace to %s (load in chrome://tracing or "
                "https://ui.perfetto.dev)\n",
                trace_path.c_str());
  }
  const std::string& metrics_path = flags.GetString("metrics-out");
  if (!metrics_path.empty()) {
    util::JsonValue out = util::JsonValue::Object();
    out.Set("metrics", MetricsRegistry::Global().ToJson());
    if (extra_key != nullptr) out.Set(extra_key, std::move(extra));
    SHOAL_RETURN_IF_ERROR(util::WriteJsonFile(metrics_path, out));
    std::printf("wrote metrics snapshot to %s\n", metrics_path.c_str());
  }
  return util::Status::OK();
}

}  // namespace shoal::obs
