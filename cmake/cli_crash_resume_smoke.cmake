# Crash-recovery smoke test, run via `cmake -P` from ctest (see
# examples/CMakeLists.txt) and by the CI crash-recovery job:
#
#   1. build a reference taxonomy with no interference,
#   2. rebuild with checkpointing on and an injected hard crash
#      (std::_Exit(42)), leaving only the checkpoint directory behind:
#      once inside HAC (SHOAL_FAULT=crash_at_round:3) and once after
#      HAC, right after the describe stage (crash_at_stage:describe),
#   3. `shoal_cli resume` each from its ckpt/entity_graph.snap at a
#      different thread count, and check that it restored the snapshot,
#   4. byte-compare every taxonomy artefact against the reference.
#
# Required -D variables: SHOAL_CLI, WORK_DIR.

foreach(var SHOAL_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_crash_resume_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "cli_crash_resume_smoke: '${ARGN}' exited with ${rv}")
  endif()
endfunction()

run_checked("${SHOAL_CLI}" generate
  "--out=${WORK_DIR}/log" --entities=600 --seed=2027)

# Reference: uninterrupted build at 2 threads.
run_checked("${SHOAL_CLI}" build
  "--in=${WORK_DIR}/log" "--out=${WORK_DIR}/tax_ref" --threads=2)

# One leg: a checkpointed build that `fault` kills with exit code 42 (a
# real process death, not a clean error return), then a resume at 8
# threads whose artefacts must match the reference byte for byte.
function(crash_and_resume leg fault)
  set(ckpt "${WORK_DIR}/${leg}/ckpt")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env SHOAL_FAULT=${fault}
      "${SHOAL_CLI}" build
      "--in=${WORK_DIR}/log" "--out=${WORK_DIR}/${leg}/tax_crash"
      "--checkpoint-dir=${ckpt}" --threads=2
    RESULT_VARIABLE crash_rv)
  if(NOT crash_rv EQUAL 42)
    message(FATAL_ERROR
      "cli_crash_resume_smoke: ${fault}: expected injected crash (exit 42), "
      "got '${crash_rv}'")
  endif()
  if(EXISTS "${WORK_DIR}/${leg}/tax_crash/topics.tsv")
    message(FATAL_ERROR
      "cli_crash_resume_smoke: ${fault}: crashed build must not have "
      "written taxonomy artefacts")
  endif()
  if(NOT EXISTS "${ckpt}/entity_graph.snap")
    message(FATAL_ERROR
      "cli_crash_resume_smoke: ${fault}: crashed build left no "
      "entity_graph.snap")
  endif()

  # Resume at a different thread count; determinism means the thread
  # count cannot matter.
  run_checked("${SHOAL_CLI}" resume
    "--in=${WORK_DIR}/log" "--out=${WORK_DIR}/${leg}/tax_resumed"
    "--checkpoint-dir=${ckpt}" --threads=8
    "--metrics-out=${WORK_DIR}/${leg}/resume_metrics.json")
  # A rebuild from scratch would also match the reference; only a
  # restore of the snapshot creates the ckpt.restores counter.
  file(READ "${WORK_DIR}/${leg}/resume_metrics.json" metrics)
  string(FIND "${metrics}" "\"ckpt.restores\"" restores_at)
  if(restores_at EQUAL -1)
    message(FATAL_ERROR
      "cli_crash_resume_smoke: ${fault}: resume did not restore "
      "entity_graph.snap (no ckpt.restores in its metrics)")
  endif()

  foreach(artefact
      categories.tsv correlations.tsv descriptions.tsv members.tsv topics.tsv)
    if(NOT EXISTS "${WORK_DIR}/${leg}/tax_resumed/${artefact}")
      message(FATAL_ERROR
        "cli_crash_resume_smoke: ${fault}: resumed build is missing "
        "${artefact}")
    endif()
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files
        "${WORK_DIR}/tax_ref/${artefact}"
        "${WORK_DIR}/${leg}/tax_resumed/${artefact}"
      RESULT_VARIABLE diff_rv)
    if(NOT diff_rv EQUAL 0)
      message(FATAL_ERROR
        "cli_crash_resume_smoke: ${fault}: ${artefact} differs between the "
        "reference and the resumed build")
    endif()
  endforeach()
  message(STATUS
    "cli_crash_resume_smoke: ${fault}: resumed taxonomy byte-identical to "
    "reference")
endfunction()

# Killed inside HAC.
crash_and_resume(in_hac crash_at_round:3)
# Killed after HAC finished: the resume runs HAC again from the graph.
crash_and_resume(after_describe crash_at_stage:describe)
