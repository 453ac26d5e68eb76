#ifndef SHOAL_OBS_CLI_FLAGS_H_
#define SHOAL_OBS_CLI_FLAGS_H_

// The observability flags of the command-line binaries, registered,
// applied and written out in one place: --trace-out (Chrome trace-event
// JSON), --metrics-out (metrics-registry JSON snapshot) and --log-level.

#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"

namespace shoal::obs {

// Registers --trace-out, --metrics-out and --log-level.
void AddObservabilityFlags(util::FlagParser& flags);

// The level half, for binaries that take --log-level alone.
void AddLogLevelFlag(util::FlagParser& flags);
// Sets the process log level from --log-level. Prints to stderr and
// returns false on an unknown level.
bool ApplyLogLevelFlag(const util::FlagParser& flags);

// ApplyLogLevelFlag, then turns the tracer on for --trace-out and the
// metrics registry on for --metrics-out. Call before the work runs.
bool EnableObservability(const util::FlagParser& flags);

// Writes the files --trace-out and --metrics-out name. The metrics file
// is an object holding the registry snapshot under "metrics" and, when
// `extra_key` is set, `extra` under that key (the build binaries add
// "build_stats").
util::Status WriteObservability(const util::FlagParser& flags,
                                const char* extra_key = nullptr,
                                util::JsonValue extra = util::JsonValue());

}  // namespace shoal::obs

#endif  // SHOAL_OBS_CLI_FLAGS_H_
