# Runs the command-line binaries on malformed input and checks that each
# one exits with the expected status code and a one-line "error:" message
# instead of dying on a signal.
#
#   cmake -DBENCH=path/to/dlsched_bench -DCLI=path/to/dlsched_cli \
#         -DREPLAY=path/to/dlsched_replay -P tests/cli_exit_codes.cmake

# expect_exit(<code> <stdout-regex> <binary> [args...]): runs the binary and
# requires exit status <code> (a signal never compares equal).  A nonzero
# code also needs stderr to be one line starting with "error:"; a zero
# code needs stdout to match <stdout-regex>.  The "error:" line is the
# message alone: a source location such as "engine.cpp:42" or a failed
# check's "precondition failed: ... [cond]" wrapper fails the case.
function(expect_exit code stdout_regex binary)
  execute_process(COMMAND ${binary} ${ARGN}
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  get_filename_component(name ${binary} NAME)
  string(REPLACE ";" " " args "${ARGN}")
  set(label "${name} ${args}")
  if(NOT "${status}" STREQUAL "${code}")
    message(SEND_ERROR "${label}: exit status '${status}', expected ${code}")
    return()
  endif()
  string(STRIP "${err}" err)
  if(NOT code EQUAL 0 AND NOT err MATCHES "^error: [^\n]+$")
    message(SEND_ERROR "${label}: want a one-line 'error:' message, got '${err}'")
    return()
  endif()
  if(err MATCHES "\\.(cpp|hpp):[0-9]+")
    message(SEND_ERROR "${label}: the 'error:' line names a source location: '${err}'")
    return()
  endif()
  if(err MATCHES "precondition failed")
    message(SEND_ERROR "${label}: the 'error:' line shows a C++ check: '${err}'")
    return()
  endif()
  if(code EQUAL 0 AND NOT out MATCHES "${stdout_regex}")
    message(SEND_ERROR "${label}: stdout does not match '${stdout_regex}'")
    return()
  endif()
  message(STATUS "${label}: exit ${status} ok")
endfunction()

expect_exit(1 "" ${BENCH} --bogus)
expect_exit(1 "" ${BENCH} --spec)
expect_exit(1 "" ${BENCH} --spec no_such_spec)
expect_exit(0 "--spec-file.*--threads.*--worker" ${BENCH} --help)
expect_exit(1 "" ${CLI} solve --p)
expect_exit(0 "usage: dlsched_cli" ${CLI} --help)
# Unknown options fail loudly instead of being ignored -- including the
# retired filesystem-board knob.
expect_exit(1 "" ${BENCH} --bogus x)
expect_exit(1 "" ${BENCH} --spec smoke --stale-seconds 5)
expect_exit(1 "" ${CLI} bench --bogus x)
expect_exit(1 "" ${CLI} bench --spec smoke --stale-seconds 5)
# Every dlsched_cli subcommand checks its options against one list.
expect_exit(1 "" ${CLI} solve --bogus x)
expect_exit(1 "" ${CLI} compare --bogus x)
# The local fleet has one shape: auto:MAX is refused, naming --workers MAX.
expect_exit(1 "" ${BENCH} --spec smoke --workers auto:2)
# A malformed platform file is a user error, reported as one plain line.
set(bad_platform "${CMAKE_CURRENT_BINARY_DIR}/cli_exit_codes_bad_platform.txt")
file(WRITE ${bad_platform} "just-a-name\n")
expect_exit(1 "" ${CLI} describe ${bad_platform})
# The daemon's retired micro-batch knobs are refused before any daemon
# starts, and a missing --socket is a one-line error too.
expect_exit(1 "" ${CLI} serve --socket s --batch-max 4)
expect_exit(1 "" ${CLI} serve --socket s --batch-wait-ms 2)
expect_exit(1 "" ${CLI} serve)
# dlsched_replay follows the same convention: each subcommand checks its
# options against one list, and every failure is one "error:" line.
expect_exit(1 "" ${REPLAY} run --socket s --stream f --concurency 8)
expect_exit(1 "" ${REPLAY} record --out f --bogus x)
expect_exit(1 "" ${REPLAY} --bogus x)
expect_exit(1 "" ${REPLAY} run)
expect_exit(1 "" ${REPLAY} no_such_command)
