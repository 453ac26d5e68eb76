# Observability smoke test, run via `cmake -P` from ctest (see
# examples/CMakeLists.txt): drives shoal_cli generate -> build with
# --serving-index-out / --trace-out / --metrics-out / --log-level and
# validates that both artefacts are well-formed JSON carrying the
# expected span / metric names, using the json_lint binary (no external
# JSON tooling needed), and that the trace holds exactly one describe
# pass, then checks that builds with invalid knobs exit 1.
#
# Required -D variables: SHOAL_CLI, JSON_LINT, WORK_DIR.

foreach(var SHOAL_CLI JSON_LINT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_obs_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "cli_obs_smoke: '${ARGN}' exited with ${rv}")
  endif()
endfunction()

run_checked("${SHOAL_CLI}" generate
  "--out=${WORK_DIR}/log" --entities=500 --seed=2019)

run_checked("${SHOAL_CLI}" build
  "--in=${WORK_DIR}/log" "--out=${WORK_DIR}/taxonomy"
  "--serving-index-out=${WORK_DIR}/taxonomy.idx"
  "--trace-out=${WORK_DIR}/trace.json"
  "--metrics-out=${WORK_DIR}/metrics.json"
  --log-level=debug)

# The trace must contain the import span, at least one span per
# pipeline stage, the per-round HAC spans and the serving index's
# compile and write; the metrics snapshot must carry the thread-pool
# gauges and per-round merge counts.
run_checked("${JSON_LINT}"
  --expect=log_io.import
  --expect=shoal.build --expect=shoal.entity_graph --expect=shoal.hac
  --expect=shoal.taxonomy --expect=hac.round --expect=hac.merge
  --expect=hac.delta_update
  --expect=serving_index.compile --expect=serving_index.write
  "${WORK_DIR}/trace.json")
# A build describes its topics once: the compile reads the rankings the
# describe pass kept instead of describing again.
file(READ "${WORK_DIR}/trace.json" trace)
string(REGEX MATCHALL "\"name\":\"shoal\\.describe\"" describes "${trace}")
list(LENGTH describes describe_count)
if(NOT describe_count EQUAL 1)
  message(FATAL_ERROR "cli_obs_smoke: the build recorded ${describe_count} "
    "shoal.describe spans, not 1")
endif()
run_checked("${JSON_LINT}"
  --expect=hac.pool.peak_queue_depth --expect=hac.round.merges
  --expect=hac.rounds --expect=merges_per_round
  "${WORK_DIR}/metrics.json")

# Knobs no build can honour exit 1 instead of building an empty or a
# whole-log taxonomy: a window that is not finite and positive, an Eq. 3
# alpha that is not finite, and a correlation threshold outside uint32.
foreach(bad --window_days=0 --window_days=-1 --window_days=nan
            --window_days=inf --alpha=nan --alpha=inf --min_strength=-1
            --min_strength=4294967296)
  execute_process(COMMAND "${SHOAL_CLI}" build
    "--in=${WORK_DIR}/log" "--out=${WORK_DIR}/rejected" ${bad}
    RESULT_VARIABLE rv OUTPUT_QUIET ERROR_QUIET)
  if(NOT rv EQUAL 1)
    message(FATAL_ERROR "cli_obs_smoke: build ${bad} exited with ${rv}, not 1")
  endif()
endforeach()
# `resume` reads the same knobs. It gets a checkpoint to resume from, so
# only the knob can make it fail.
run_checked("${SHOAL_CLI}" build
  "--in=${WORK_DIR}/log" "--out=${WORK_DIR}/checkpointed"
  "--checkpoint-dir=${WORK_DIR}/ckpt")
foreach(bad --min_strength=-1 --min_strength=4294967296)
  execute_process(COMMAND "${SHOAL_CLI}" resume
    "--in=${WORK_DIR}/log" "--out=${WORK_DIR}/rejected"
    "--checkpoint-dir=${WORK_DIR}/ckpt" ${bad}
    RESULT_VARIABLE rv OUTPUT_QUIET ERROR_QUIET)
  if(NOT rv EQUAL 1)
    message(FATAL_ERROR "cli_obs_smoke: resume ${bad} exited with ${rv}, not 1")
  endif()
endforeach()

message(STATUS "cli_obs_smoke: trace.json and metrics.json validated, "
  "invalid knobs rejected")
