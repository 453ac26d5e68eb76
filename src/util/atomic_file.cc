#include "util/atomic_file.h"

#include <atomic>
#include <cstdio>
#include <filesystem>

#ifdef __unix__
#include <unistd.h>
#endif

#include "util/fault.h"
#include "util/string_util.h"

namespace shoal::util {

namespace {

// Unique-enough temp sibling: PID guards against two processes writing
// the same target, the counter against two threads in this process.
std::string TempPathFor(const std::string& path) {
  static std::atomic<uint64_t> counter{0};
#ifdef __unix__
  const unsigned long pid = static_cast<unsigned long>(::getpid());
#else
  const unsigned long pid = 0;
#endif
  return StringPrintf("%s.tmp.%lu.%llu", path.c_str(), pid,
                      static_cast<unsigned long long>(
                          counter.fetch_add(1, std::memory_order_relaxed)));
}

}  // namespace

Status AtomicWriteFile(const std::string& path, std::string_view contents) {
  return AtomicWriteFile(path, std::span<const std::string_view>(&contents, 1));
}

Status AtomicWriteFile(const std::string& path,
                       std::span<const std::string_view> parts) {
  const std::string tmp = TempPathFor(path);
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(
        StringPrintf("cannot open %s for writing", tmp.c_str()));
  }
  size_t bytes = 0;
  size_t written = 0;
  for (std::string_view part : parts) {
    bytes += part.size();
    if (!part.empty()) written += std::fwrite(part.data(), 1, part.size(), f);
  }
  bool flushed = std::fflush(f) == 0;
#ifdef __unix__
  // The rename is only atomic *and durable* if the data reaches disk
  // before the directory entry flips.
  if (flushed && ::fsync(::fileno(f)) != 0) flushed = false;
#endif
  const bool closed = std::fclose(f) == 0;
  if (written != bytes || !flushed || !closed) {
    std::remove(tmp.c_str());
    return Status::IoError(StringPrintf("short write to %s", tmp.c_str()));
  }

  if (FaultInjector::Global().ShouldFailWrite()) {
    // Simulated crash mid-write: the temp vanishes, the target is
    // untouched — indistinguishable from dying before the rename.
    std::remove(tmp.c_str());
    return Status::IoError(
        StringPrintf("fault injected: write of %s failed", path.c_str()));
  }

  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    return Status::IoError(StringPrintf("cannot rename %s -> %s: %s",
                                        tmp.c_str(), path.c_str(),
                                        ec.message().c_str()));
  }
  return Status::OK();
}

}  // namespace shoal::util
