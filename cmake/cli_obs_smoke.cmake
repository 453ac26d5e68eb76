# Observability smoke test, run via `cmake -P` from ctest (see
# examples/CMakeLists.txt): drives shoal_cli generate -> build with
# --trace-out / --metrics-out / --log-level and validates that both
# artefacts are well-formed JSON carrying the expected span / metric
# names, using the json_lint binary (no external JSON tooling needed).
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
  "--trace-out=${WORK_DIR}/trace.json"
  "--metrics-out=${WORK_DIR}/metrics.json"
  --log-level=debug)

# The trace must contain at least one span per pipeline stage and the
# per-round HAC spans; the metrics snapshot must carry the thread-pool
# gauges and per-round merge counts.
run_checked("${JSON_LINT}"
  --expect=shoal.build --expect=shoal.entity_graph --expect=shoal.hac
  --expect=shoal.taxonomy --expect=hac.round --expect=hac.merge
  --expect=hac.delta_update
  "${WORK_DIR}/trace.json")
run_checked("${JSON_LINT}"
  --expect=hac.pool.peak_queue_depth --expect=hac.round.merges
  --expect=hac.rounds --expect=merges_per_round
  "${WORK_DIR}/metrics.json")

# Same build through the MinHash/LSH candidate path: the entity_graph
# lsh.* gauges must land in the metrics snapshot.
run_checked("${SHOAL_CLI}" build
  "--in=${WORK_DIR}/log" "--out=${WORK_DIR}/taxonomy_lsh"
  --candidate-strategy=lsh
  "--metrics-out=${WORK_DIR}/metrics_lsh.json")
run_checked("${JSON_LINT}"
  --expect=entity_graph.lsh.candidate_pairs
  --expect=entity_graph.lsh.signed_entities
  --expect=entity_graph.lsh.buckets
  "${WORK_DIR}/metrics_lsh.json")

message(STATUS "cli_obs_smoke: trace.json and metrics.json validated")
