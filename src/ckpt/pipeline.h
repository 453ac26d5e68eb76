#ifndef SHOAL_CKPT_PIPELINE_H_
#define SHOAL_CKPT_PIPELINE_H_

#include <string>

#include "core/shoal.h"
#include "util/result.h"
#include "util/status.h"

namespace shoal::ckpt {

// Makes a build resumable: installs an entity-graph hook into `options`
// that writes `dir`/entity_graph.snap once, right after the entity graph
// is built. That file is the build's only resume point (DESIGN.md §9).
//
// Creates `dir` when missing and removes any entity_graph.snap already
// in it, so a build that dies before its own graph lands can never be
// resumed from another run's graph.
util::Status AttachCheckpointing(const std::string& dir,
                                 core::ShoalOptions& options);

// Resumes an interrupted checkpointed build from `dir`/entity_graph.snap.
// Word2vec and the entity graph are skipped; HAC and every later stage
// re-run from the restored graph, so the result is byte-identical to the
// uninterrupted build's, at any thread count. The snapshot is left in
// place, so a resumed build that dies resumes again.
//
// NotFound when `dir` does not exist. When the snapshot is absent,
// unreadable or fails its CRC, logs a warning and runs a fresh
// checkpointed build.
util::Result<core::ShoalModel> ResumeShoal(const core::ShoalInput& input,
                                           core::ShoalOptions options,
                                           const std::string& dir);

}  // namespace shoal::ckpt

#endif  // SHOAL_CKPT_PIPELINE_H_
