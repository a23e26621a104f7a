# End-to-end smoke test of segdiff_cli, driven by ctest:
#   cmake -DCLI=<path-to-segdiff_cli> -DWORK=<scratch-dir> -P cli_test.cmake
# Exercises generate -> segment -> build -> append -> search -> stats ->
# sql -> compact -> verify and checks both exit codes and key output
# markers, and that the commands which only read a store (search, stats,
# sql SELECT, compact's source, verify) leave its bytes and its WAL
# sidecar exactly as they were, on a WAL store and on one built with
# --no-wal (which must gain no sidecar), and that a torn sidecar beside
# the --no-wal store is trimmed without rewriting the store; then the
# transect workflow (build -> search -> stats -> verify -> rebalance)
# including the damaged-transect contract: a corrupt sensor store must
# flip stats/verify to exit 2 with the sensor counted in the health
# block, searches must isolate it with a loud warning, and repair must
# report the unsalvageable store honestly; that a negative --threads or
# --max-open, or any malformed numeric flag, is refused as a usage
# error; and that transect search prints the fan-out width it used.

if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DCLI=<binary> -DWORK=<dir>")
endif()

file(MAKE_DIRECTORY ${WORK})
set(CSV ${WORK}/cli_data.csv)
set(CSV2 ${WORK}/cli_more.csv)
set(DB ${WORK}/cli_store.db)
set(SEGMENTS ${WORK}/cli_segments.csv)
set(COMPACT ${WORK}/cli_compact.db)
set(NOWAL ${WORK}/cli_nowal.db)
set(NOWAL_COMPACT ${WORK}/cli_nowal_compact.db)
set(STORES ${DB} ${COMPACT} ${NOWAL} ${NOWAL_COMPACT})
list(TRANSFORM STORES APPEND .wal OUTPUT_VARIABLE SIDECARS)
file(REMOVE ${CSV} ${CSV2} ${SEGMENTS} ${STORES} ${SIDECARS}
     ${WORK}/missing.db)

function(run_cli expect_substring)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "segdiff_cli ${ARGN} failed (${code}): ${out}${err}")
  endif()
  if(NOT "${expect_substring}" STREQUAL "" AND
     NOT out MATCHES "${expect_substring}")
    message(FATAL_ERROR
            "segdiff_cli ${ARGN}: expected '${expect_substring}' in:\n${out}")
  endif()
endfunction()

# Like run_cli, for a command that only reads the store `db`: its bytes
# and its WAL sidecar's (or the sidecar's absence) must be unchanged.
function(run_cli_read_only db expect_substring)
  set(before "")
  foreach(file ${db} ${db}.wal)
    set(hash absent)
    if(EXISTS ${file})
      file(SHA256 ${file} hash)
    endif()
    list(APPEND before ${hash})
  endforeach()
  run_cli("${expect_substring}" ${ARGN})
  set(after "")
  foreach(file ${db} ${db}.wal)
    set(hash absent)
    if(EXISTS ${file})
      file(SHA256 ${file} hash)
    endif()
    list(APPEND after ${hash})
  endforeach()
  if(NOT before STREQUAL after)
    list(JOIN ARGN " " command)
    message(FATAL_ERROR "segdiff_cli ${command} wrote to ${db} "
                        "(sha256 of store;sidecar: ${before} -> ${after})")
  endif()
endfunction()

run_cli("wrote [0-9]+ observations"
        generate --out ${CSV} --days 5 --seed 42)
run_cli("segments \\(r=" segment --csv ${CSV} --eps 0.2 --out ${SEGMENTS})
run_cli("built .*feature rows"
        build --csv ${CSV} --db ${DB} --eps 0.2 --smooth)
# generate emits an inclusive endpoint sample at t = days * 86400, so the
# second chunk starts a full day later to keep time stamps strictly
# increasing (the gap is legal; an equal time stamp is not).
run_cli("wrote [0-9]+ observations"
        generate --out ${CSV2} --days 3 --seed 42 --start-day 6)
run_cli("appended [0-9]+ observations .*eps=0.2"
        append --csv ${CSV2} --db ${DB} --smooth)
if(NOT EXISTS ${DB}.wal)
  message(FATAL_ERROR "the WAL store ${DB} has no sidecar")
endif()
# The same read-only commands on the WAL store (${DB}) and on a --no-wal
# store of the first CSV.
run_cli("built .*feature rows"
        build --csv ${CSV} --db ${NOWAL} --eps 0.2 --smooth --no-wal)
if(EXISTS ${NOWAL}.wal)
  message(FATAL_ERROR "build --no-wal created ${NOWAL}.wal")
endif()
function(run_read_only_commands store compact_out)
  run_cli_read_only(${store} "periods with a drop"
                    search --db ${store} --t-hours 1 --v -3)
  run_cli_read_only(${store} "pages: [0-9]+ scanned, [0-9]+ pruned"
                    search --db ${store} --t-hours 1 --v -3 --stats)
  run_cli_read_only(${store} "kernel: "
                    search --db ${store} --t-hours 1 --v -3 --stats)
  run_cli_read_only(${store} "periods with a jump"
                    search --db ${store} --t-hours 2 --v 2 --jump
                    --mode index)
  run_cli_read_only(${store} "feature rows" stats --db ${store})
  run_cli_read_only(${store} "count" sql --db ${store} --query
      "SELECT COUNT(*) FROM drop2 WHERE dt1 <= 3600 AND dv1 <= -3")
  run_cli_read_only(${store} "compacted"
                    compact --db ${store} --out ${compact_out})
  run_cli_read_only(${store} "verify: ok" verify --db ${store} --scrub)
endfunction()
run_read_only_commands(${DB} ${COMPACT})
run_read_only_commands(${NOWAL} ${NOWAL_COMPACT})
# A torn sidecar creation (shorter than the 32-byte WAL header) beside
# the --no-wal store: the first read trims it to a clean empty log
# without rewriting the store's unchanged pages, after which reads
# change neither file.
file(WRITE ${NOWAL}.wal "0123456789")
file(SHA256 ${NOWAL} nowal_before)
run_cli("trimmed 10 torn-tail bytes" stats --db ${NOWAL})
file(SHA256 ${NOWAL} nowal_after)
if(NOT nowal_before STREQUAL nowal_after)
  message(FATAL_ERROR "stats rewrote ${NOWAL} while trimming its torn "
                      "sidecar (sha256 ${nowal_before} -> ${nowal_after})")
endif()
# No "torn tail" or "wal CORRUPT" line between the log summary and the
# verdict.
run_cli_read_only(${NOWAL}
                  "wal scrub: 32 bytes, 0 frames \\(lsn [0-9.]+\\)\nverify: ok"
                  verify --db ${NOWAL} --scrub)
run_cli_read_only(${NOWAL} "trimmed 0 torn-tail bytes" stats --db ${NOWAL})
run_cli("periods with a drop" search --db ${COMPACT} --t-hours 1 --v -3)
run_cli("0 corrupt" verify --db ${COMPACT} --scrub)

# Like run_cli, but for commands whose exit code is part of the
# contract (verify/stats report damage as 2, transient trouble as 3).
function(run_cli_status expect_code expect_substring)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL ${expect_code})
    message(FATAL_ERROR
            "segdiff_cli ${ARGN}: exit ${code}, expected ${expect_code}:"
            "\n${out}${err}")
  endif()
  if(NOT "${expect_substring}" STREQUAL "" AND
     NOT "${out}${err}" MATCHES "${expect_substring}")
    message(FATAL_ERROR
            "segdiff_cli ${ARGN}: expected '${expect_substring}' in:"
            "\n${out}${err}")
  endif()
endfunction()

# Transect workflow: build a small deployment, search it, rebalance it
# onto a new shard width, then damage one sensor store and walk the
# health commands' exit contract (0 healthy / 2 corrupt / 3 transient).
set(TRANSECT ${WORK}/cli_transect)
file(REMOVE_RECURSE ${TRANSECT})
run_cli("built transect .*6 sensors in 3 shards"
        transect build --dir ${TRANSECT} --sensors 6 --days 2
        --shard-sensors 2)
run_cli("periods on [0-9]+ of 6 sensors with a drop"
        transect search --dir ${TRANSECT} --t-hours 1 --v -1)
run_cli("health: *6/6 sensors scanned, 0 corrupt"
        transect stats --dir ${TRANSECT})
run_cli("transect verify: ok" transect verify --dir ${TRANSECT})
run_cli("rebalanced .*: 2 -> 3 sensors per shard \\(2 shards\\)"
        transect rebalance --dir ${TRANSECT} --shard-sensors 3)
run_cli("transect verify: ok" transect verify --dir ${TRANSECT})

# Clobber one sensor store (the rebalanced layout keeps sensor 0 in the
# first generation-3 shard). Header gone => the store cannot open: the
# health commands must say "corrupt" and exit 2, the search must isolate
# the sensor and warn, and repair must admit there is nothing to
# salvage.
set(VICTIM ${TRANSECT}/g3-shard00000/sensor0.db)
if(NOT EXISTS ${VICTIM})
  message(FATAL_ERROR "expected rebalanced store at ${VICTIM}")
endif()
file(COPY_FILE ${VICTIM} ${WORK}/cli_victim_backup.db)
file(WRITE ${VICTIM} "this is not a segdiff store")
run_cli_status(2 "1 corrupt" transect stats --dir ${TRANSECT})
run_cli_status(2 "transect verify: FAILED"
               transect verify --dir ${TRANSECT})
run_cli("WARNING: 1 sensor skipped \\(store would not open\\)"
        transect search --dir ${TRANSECT} --t-hours 1 --v -1)
run_cli_status(2 "6 sensors checked, 0 repaired, 1 failed"
               transect repair --dir ${TRANSECT})

# Restore the store from backup: the transect must scrub clean again.
file(COPY_FILE ${WORK}/cli_victim_backup.db ${VICTIM})
run_cli("transect verify: ok" transect verify --dir ${TRANSECT})
run_cli_status(0 "0 corrupt" transect stats --dir ${TRANSECT})
file(REMOVE ${WORK}/cli_victim_backup.db)
file(REMOVE_RECURSE ${TRANSECT})

# Failure paths exit non-zero.
execute_process(COMMAND ${CLI} search --db ${WORK}/missing.db
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "search on a missing db unexpectedly succeeded")
endif()
execute_process(COMMAND ${CLI} frobnicate
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "unknown command unexpectedly succeeded")
endif()

# A negative --threads or --max-open is a usage error (exit 2), refused
# before any store opens, never a fan-out width wrapped round to 2^64 - 1.
run_cli_status(2 "--threads must not be negative"
               transect build --dir ${TRANSECT} --sensors 2 --days 1
               --threads -1)
run_cli_status(2 "--max-open must not be negative"
               transect search --dir ${TRANSECT} --max-open -1)
run_cli_status(2 "--threads must not be negative"
               search --db ${DB} --threads -1)
# Every numeric flag parses whole and in range for its type: a
# malformed value is a usage error (exit 2) naming the flag, refused
# before any store opens, never a silent 0 (atoi), a prefix ("3x" as 3)
# or a negative count wrapped round to 2^64 - 1.
run_cli_status(2 "--threads: 'abc' is not a valid integer"
               transect build --dir ${TRANSECT} --sensors 2 --days 1
               --threads abc)
run_cli_status(2 "--threads: '3x' is not a valid integer"
               search --db ${DB} --threads 3x)
run_cli_status(2 "--threads: '2147483648' is not a valid integer"
               search --db ${DB} --threads 2147483648)
run_cli_status(2 "--timeout-ms: '-1' is not a valid non-negative integer"
               search --db ${DB} --timeout-ms -1)
run_cli_status(2 "--max-mem: '-1' is not a valid non-negative integer"
               search --db ${DB} --max-mem -1)
run_cli_status(2 "--t-hours: '1h' is not a valid number"
               transect search --dir ${TRANSECT} --t-hours 1h)
if(EXISTS ${TRANSECT})
  message(FATAL_ERROR "a refused transect build created ${TRANSECT}")
endif()

# transect search prints the fan-out width it ran at: --threads capped
# by the shard count, so a one-shard transect searches serially.
run_cli("built transect" transect build --dir ${TRANSECT} --sensors 2
        --days 1)
run_cli("fan-out 1\\)" transect search --dir ${TRANSECT} --threads 3)
file(REMOVE_RECURSE ${TRANSECT})

file(REMOVE ${CSV} ${CSV2} ${SEGMENTS} ${STORES} ${SIDECARS})
message(STATUS "segdiff_cli workflow OK")
