# End-to-end incremental-maintenance drill, run via `cmake -P` from
# ctest (see examples/CMakeLists.txt):
#
#   1. shoal_daemon --generate-out writes a reproducible 3-day drift
#      workload (static catalog + one clicks file per day).
#   2. Days 1-2 are dropped into a spool; `shoal_daemon --once` drains
#      them (two incremental cycles) and publishes index v2, writing
#      --trace-out and --metrics-out, which json_lint checks for the
#      cycle, splice and HAC spans and the daemon metrics.
#      A restart on its snapshot with a shorter --window-days exits 1.
#   3. A real shoal_serve boots on the published index with --poll-sec 1.
#   4. Day 3 arrives; a SECOND `shoal_daemon --once` process restores
#      the standing window from the snapshot, runs one cycle, and
#      publishes v3 — which the live server must hot-reload.
#   5. http_probe asserts against the live server: ready at v2, the
#      day-2 query resolves, v3 appears after the reload, and the
#      day-3 query (born that day) resolves. Every request must come
#      back 200, and the access log must contain no 5xx at all.
#   6. A low-churn 12-day spool (2000 entities, --drift-clicks=100), in
#      which every spliced cycle carries most topics' rankings, is
#      drained once by one process at --threads=4 and again one day
#      file per process at --threads=2, each process restoring the
#      snapshot the one before wrote. The index and snapshot bytes of
#      the two drains must match.
#
# Required -D variables: SHOAL_DAEMON, SHOAL_SERVE, HTTP_PROBE,
# JSON_LINT, WORK_DIR. Optional: PORT (default 18973).

foreach(var SHOAL_DAEMON SHOAL_SERVE HTTP_PROBE JSON_LINT WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "daemon_smoke: -D${var}=... is required")
  endif()
endforeach()
if(NOT DEFINED PORT)
  set(PORT 18973)
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(STAGE "${WORK_DIR}/staging")
set(SPOOL "${WORK_DIR}/spool")
file(MAKE_DIRECTORY "${SPOOL}")

function(run_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "daemon_smoke: '${ARGN}' exited with ${rv}")
  endif()
endfunction()

# ---- produce the workload --------------------------------------------------

run_checked("${SHOAL_DAEMON}"
  "--generate-out=${STAGE}" --days=3 --entities=600 --queries=500
  --background-pairs=4000 --drift-clicks=1500 --seed=2019)

# probe_queries.tsv: day <TAB> query_id <TAB> text, one query per day
# that first receives clicks that day.
file(STRINGS "${STAGE}/probe_queries.tsv" PROBE_LINES)
function(probe_text day out_var)
  list(GET PROBE_LINES ${day} line)
  string(REPLACE "\t" ";" fields "${line}")
  list(GET fields 2 text)
  string(REPLACE " " "%20" text "${text}")
  set(${out_var} "${text}" PARENT_SCOPE)
endfunction()
probe_text(1 DAY2_QUERY)
probe_text(2 DAY3_QUERY)

# ---- first drill: drain days 1-2, publish v2 -------------------------------

file(COPY "${STAGE}/items.tsv" "${STAGE}/queries.tsv"
  "${STAGE}/day-0000.clicks.tsv" "${STAGE}/day-0001.clicks.tsv"
  DESTINATION "${SPOOL}")

# A negative --threads or a window under one day is rejected (exit 1)
# before any daemon state is built, rather than cast to a huge worker
# count or a window that never retires a day.
foreach(bad --threads=-1 --window-days=0 --window-days=-1)
  execute_process(COMMAND "${SHOAL_DAEMON}"
    "--spool=${SPOOL}" "--index=${WORK_DIR}/rejected.idx" --once ${bad}
    RESULT_VARIABLE rv OUTPUT_QUIET ERROR_QUIET)
  if(NOT rv EQUAL 1)
    message(FATAL_ERROR "daemon_smoke: ${bad} exited with ${rv}, not 1")
  endif()
endforeach()

run_checked("${SHOAL_DAEMON}"
  "--spool=${SPOOL}" "--index=${WORK_DIR}/taxonomy.idx"
  "--snapshot=${WORK_DIR}/daemon.snap" --once --threads=2
  "--trace-out=${WORK_DIR}/daemon_trace.json"
  "--metrics-out=${WORK_DIR}/daemon_metrics.json")

# The drain's trace holds a span per cycle and phase, with HAC rounds
# under the first cycle's full clustering and the second's splice; its
# metrics hold the daemon's counters.
run_checked("${JSON_LINT}"
  --expect=daemon.cycle --expect=daemon.splice --expect=hac.round
  "${WORK_DIR}/daemon_trace.json")
run_checked("${JSON_LINT}"
  --expect=daemon.cycles --expect=daemon.cycle.seconds
  "${WORK_DIR}/daemon_metrics.json")

# Restarting on that snapshot under a shorter window is rejected (exit
# 1) before a cycle runs: its two standing days would never retire one.
execute_process(COMMAND "${SHOAL_DAEMON}"
  "--spool=${SPOOL}" "--index=${WORK_DIR}/rejected.idx"
  "--snapshot=${WORK_DIR}/daemon.snap" --once --window-days=1
  RESULT_VARIABLE rv OUTPUT_QUIET ERROR_QUIET)
if(NOT rv EQUAL 1)
  message(FATAL_ERROR
    "daemon_smoke: --window-days=1 on a 2-day snapshot exited with ${rv}, "
    "not 1")
endif()

# ---- boot the live serving tier --------------------------------------------

# cmake script mode cannot background a process, so fork through sh and
# keep the pid for cleanup (and for the kill on any failed assertion).
execute_process(COMMAND sh -c
  "'${SHOAL_SERVE}' --index='${WORK_DIR}/taxonomy.idx' --host=127.0.0.1 \
   --port=${PORT} --threads=2 --poll-sec=1 \
   --access-log='${WORK_DIR}/access.log' \
   > '${WORK_DIR}/serve.log' 2>&1 & echo $! > '${WORK_DIR}/serve.pid'"
  RESULT_VARIABLE rv)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "daemon_smoke: cannot fork shoal_serve")
endif()

function(kill_server)
  execute_process(COMMAND sh -c
    "kill $(cat '${WORK_DIR}/serve.pid') 2>/dev/null; true")
endfunction()

# run_checked for assertions made while the server is live: the server
# must not outlive a FATAL_ERROR.
function(live_checked)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    kill_server()
    execute_process(COMMAND ${CMAKE_COMMAND} -E cat "${WORK_DIR}/serve.log")
    message(FATAL_ERROR "daemon_smoke: '${ARGN}' exited with ${rv}")
  endif()
endfunction()

# Ready at v2 (days 1-2 consumed), with the freshness fields populated.
live_checked("${HTTP_PROBE}" --port=${PORT} --target=/readyz
  --retries=60 --retry-delay-ms=500 "--out=${WORK_DIR}/readyz_v2.json"
  "\"status\": \"ready\"" "\"index_version\": 2" "index_staleness_sec")

# A query from day 2 resolves with scored results on the live server.
live_checked("${HTTP_PROBE}" --port=${PORT}
  "--target=/v1/query?q=${DAY2_QUERY}&k=3"
  "\"match\": \"exact\"" "\"score\"")

# ---- day 3 arrives: second drill restores the snapshot, publishes v3 -------

file(COPY "${STAGE}/day-0002.clicks.tsv" DESTINATION "${SPOOL}")

execute_process(COMMAND "${SHOAL_DAEMON}"
  "--spool=${SPOOL}" "--index=${WORK_DIR}/taxonomy.idx"
  "--snapshot=${WORK_DIR}/daemon.snap" --once --threads=2
  RESULT_VARIABLE rv OUTPUT_VARIABLE second_run)
message(STATUS "${second_run}")
if(NOT rv EQUAL 0)
  kill_server()
  message(FATAL_ERROR "daemon_smoke: second daemon run exited with ${rv}")
endif()
# The second process must have resumed from the checkpoint, not rebuilt.
if(NOT second_run MATCHES "restored snapshot")
  kill_server()
  message(FATAL_ERROR "daemon_smoke: second run did not restore the snapshot")
endif()

# The live server hot-reloads v3 via its mtime poller — no restart.
live_checked("${HTTP_PROBE}" --port=${PORT} --target=/readyz
  --retries=60 --retry-delay-ms=500 "--out=${WORK_DIR}/readyz_v3.json"
  "\"status\": \"ready\"" "\"index_version\": 3")

# The day-3 probe query (born on day 3, clicks only in the newest day
# file) resolves against the freshly published index.
live_checked("${HTTP_PROBE}" --port=${PORT}
  "--target=/v1/query?q=${DAY3_QUERY}&k=3"
  "\"match\": \"exact\"" "\"score\"")

kill_server()

# Zero 5xx across everything the drill sent (the probes individually
# demanded 200s; the access log catches anything else, e.g. a failed
# hot reload surfacing as a 503 burst).
file(READ "${WORK_DIR}/access.log" access)
if(access MATCHES "\"status\": *5")
  message(FATAL_ERROR "daemon_smoke: access log contains a 5xx:\n${access}")
endif()

# ---- low-churn drill: one drain against one process per day -------------

set(LOW "${WORK_DIR}/low_churn")
run_checked("${SHOAL_DAEMON}" "--generate-out=${LOW}/spool" --days=12
  --entities=2000 --drift-clicks=100 --seed=2019)
execute_process(COMMAND "${SHOAL_DAEMON}" "--spool=${LOW}/spool"
  "--index=${LOW}/drained.idx" "--snapshot=${LOW}/drained.snap" --once
  --threads=4
  RESULT_VARIABLE rv OUTPUT_VARIABLE drained)
if(NOT rv EQUAL 0)
  message(FATAL_ERROR "daemon_smoke: low-churn drain exited with ${rv}")
endif()
# The drill is for the carried-rankings path: some spliced cycle must
# carry topics.
if(NOT drained MATCHES "carried=[1-9]")
  message(FATAL_ERROR
    "daemon_smoke: no low-churn cycle carried a topic:\n${drained}")
endif()
# A process that did not restore would start over at day 1, so the
# byte comparison below also catches a missed restore.
foreach(day RANGE 1 12)
  run_checked("${SHOAL_DAEMON}" "--spool=${LOW}/spool"
    "--index=${LOW}/stepped.idx" "--snapshot=${LOW}/stepped.snap" --once
    --max-cycles=1 --threads=2)
endforeach()
foreach(artefact idx snap)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
    "${LOW}/drained.${artefact}" "${LOW}/stepped.${artefact}"
    RESULT_VARIABLE rv)
  if(NOT rv EQUAL 0)
    message(FATAL_ERROR "daemon_smoke: the low-churn ${artefact} drained "
      "in one process differs from the one drained a day per process")
  endif()
endforeach()

message(STATUS "daemon_smoke: two incremental drills, hot reload, "
  "day-3 resolution and the low-churn restart identity all validated")
