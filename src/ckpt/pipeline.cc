#include "ckpt/pipeline.h"

#include <filesystem>
#include <system_error>
#include <utility>

#include "ckpt/snapshot.h"
#include "obs/metrics.h"
#include "util/logging.h"
#include "util/timer.h"

namespace shoal::ckpt {

namespace {

std::string SnapshotPath(const std::string& dir) {
  return (std::filesystem::path(dir) / "entity_graph.snap").string();
}

util::Status WriteEntityGraphSnapshot(const std::string& path,
                                      const graph::WeightedGraph& graph) {
  util::Stopwatch stopwatch;
  const std::string payload = EncodeEntityGraph(graph);
  SHOAL_RETURN_IF_ERROR(
      WriteSnapshotFile(path, SnapshotKind::kEntityGraph, payload));
  auto& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter("ckpt.writes").Increment();
    metrics.GetCounter("ckpt.bytes").Increment(payload.size());
    metrics.GetHistogram("ckpt.write_seconds")
        .Record(stopwatch.ElapsedSeconds());
  }
  return util::Status::OK();
}

util::Result<graph::WeightedGraph> ReadEntityGraphSnapshot(
    const std::string& path) {
  SHOAL_ASSIGN_OR_RETURN(SnapshotFile file, ReadSnapshotFile(path));
  if (file.kind != SnapshotKind::kEntityGraph) {
    return util::Status::InvalidArgument(
        path + ": holds a " + SnapshotKindName(file.kind) +
        " snapshot, not an entity graph");
  }
  return DecodeEntityGraph(file.payload);
}

}  // namespace

util::Status AttachCheckpointing(const std::string& dir,
                                 core::ShoalOptions& options) {
  if (dir.empty()) {
    return util::Status::InvalidArgument(
        "checkpoint directory must not be empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return util::Status::IoError("cannot create checkpoint directory " +
                                 dir + ": " + ec.message());
  }
  const std::string path = SnapshotPath(dir);
  std::filesystem::remove(path, ec);
  if (ec) {
    return util::Status::IoError("cannot remove the old checkpoint " + path +
                                 ": " + ec.message());
  }
  options.entity_graph_checkpoint_hook =
      [path](const graph::WeightedGraph& graph) {
        return WriteEntityGraphSnapshot(path, graph);
      };
  return util::Status::OK();
}

util::Result<core::ShoalModel> ResumeShoal(const core::ShoalInput& input,
                                           core::ShoalOptions options,
                                           const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    return util::Status::NotFound("no checkpoint directory at " + dir);
  }
  util::Stopwatch stopwatch;
  const std::string path = SnapshotPath(dir);
  auto graph = ReadEntityGraphSnapshot(path);
  if (!graph.ok()) {
    // The build died before its entity graph landed (or the file rotted):
    // nothing is left to resume, so run the whole build, checkpointed.
    SHOAL_LOG(kWarning) << "cannot resume from " << path << ": "
                        << graph.status().ToString()
                        << "; rebuilding from scratch";
    SHOAL_RETURN_IF_ERROR(AttachCheckpointing(dir, options));
    return core::BuildShoal(input, options);
  }
  auto& metrics = obs::MetricsRegistry::Global();
  if (metrics.enabled()) {
    metrics.GetCounter("ckpt.restores").Increment();
    metrics.GetHistogram("ckpt.restore_seconds")
        .Record(stopwatch.ElapsedSeconds());
  }
  core::ShoalResumeState resume{std::move(graph).value()};
  return core::BuildShoal(input, options, &resume);
}

}  // namespace shoal::ckpt
