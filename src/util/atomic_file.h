#ifndef SHOAL_UTIL_ATOMIC_FILE_H_
#define SHOAL_UTIL_ATOMIC_FILE_H_

#include <span>
#include <string>
#include <string_view>

#include "util/status.h"

namespace shoal::util {

// Crash-safe file write: `contents` goes to a unique temp file in the
// same directory (so the final rename stays within one filesystem), is
// flushed to disk, and then renamed over `path`. At every instant the
// target either holds its previous bytes or the complete new bytes —
// a crash can never leave a torn file, only at worst a stale `*.tmp.*`
// sibling, which readers never look at.
//
// All artefact writers in the pipeline (TSV, JSON, trace, graph,
// embedding and checkpoint snapshots) funnel through this function, so
// it is also the single choke point for FaultInjector's fail_write
// directives: an injected failure discards the temp file and returns
// IoError with the target untouched, exactly like a crash mid-write.
Status AtomicWriteFile(const std::string& path, std::string_view contents);

// The same write with the file's bytes given as consecutive parts (say, a
// header and a payload), so a caller need not join them into one buffer
// first. The file holds the parts' concatenation.
Status AtomicWriteFile(const std::string& path,
                       std::span<const std::string_view> parts);

}  // namespace shoal::util

#endif  // SHOAL_UTIL_ATOMIC_FILE_H_
