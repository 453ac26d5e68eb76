# Thread-identity smoke test, run via `cmake -P` from ctest (see
# examples/CMakeLists.txt): the same click log built at --threads=1 and
# --threads=4 must give a byte-identical serving index and taxonomy.
#
#   1. generate a 2000-entity log (seed 7; the default 256-item cap
#      engages on one head query there, so capped candidate sets are
#      exercised too),
#   2. `shoal_cli build --serving-index-out` at 1 and at 4 threads,
#   3. byte-compare the index and every taxonomy file.
#
# Required -D variables: SHOAL_CLI, WORK_DIR.

foreach(var SHOAL_CLI WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_thread_identity_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR
      "cli_thread_identity_smoke: '${ARGN}' exited with ${rv}")
  endif()
endfunction()

function(compare_checked expected actual)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${expected}" "${actual}"
    RESULT_VARIABLE diff_rv)
  if(NOT diff_rv EQUAL 0)
    message(FATAL_ERROR
      "cli_thread_identity_smoke: ${actual} differs from ${expected}")
  endif()
endfunction()

run_checked("${SHOAL_CLI}" generate
  "--out=${WORK_DIR}/log" --entities=2000 --seed=7)

foreach(threads 1 4)
  run_checked("${SHOAL_CLI}" build
    "--in=${WORK_DIR}/log" "--out=${WORK_DIR}/tax_t${threads}"
    "--serving-index-out=${WORK_DIR}/index_t${threads}.idx"
    "--threads=${threads}")
endforeach()

compare_checked("${WORK_DIR}/index_t1.idx" "${WORK_DIR}/index_t4.idx")

# Every file of the single-threaded taxonomy, and no extra file in the
# four-threaded one.
file(GLOB t1_files RELATIVE "${WORK_DIR}/tax_t1" "${WORK_DIR}/tax_t1/*")
file(GLOB t4_files RELATIVE "${WORK_DIR}/tax_t4" "${WORK_DIR}/tax_t4/*")
list(SORT t1_files)
list(SORT t4_files)
if(NOT t1_files)
  message(FATAL_ERROR "cli_thread_identity_smoke: build wrote no taxonomy")
endif()
if(NOT t1_files STREQUAL t4_files)
  message(FATAL_ERROR
    "cli_thread_identity_smoke: taxonomy file sets differ: "
    "'${t1_files}' vs '${t4_files}'")
endif()
foreach(artefact ${t1_files})
  compare_checked("${WORK_DIR}/tax_t1/${artefact}"
                  "${WORK_DIR}/tax_t4/${artefact}")
endforeach()

message(STATUS "cli_thread_identity_smoke: index and taxonomy "
  "(${t1_files}) byte-identical at 1 and 4 threads")
