# Runs the command-line binaries on malformed input and checks that each
# one exits with the expected status code and a one-line "error:" message
# instead of dying on a signal.
#
#   cmake -DBENCH=path/to/dlsched_bench -DCLI=path/to/dlsched_cli \
#         -P tests/cli_exit_codes.cmake

# expect_exit(<code> <stdout-regex> <binary> [args...]): runs the binary and
# requires exit status <code> (a signal never compares equal).  A nonzero
# code also needs stderr to be one line starting with "error:"; a zero
# code needs stdout to match <stdout-regex>.  The "error:" line is the
# message alone: a source location such as "engine.cpp:42" fails the case.
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
