# Script-mode runner for the golden guard.
#
#   cmake -DRUNNER=<binary> [-DCONF=<experiment .conf>]
#         -DGOLDEN=<recorded output> -DOUT=<scratch file>
#         -P golden_check.cmake
#
# Runs `RUNNER CONF` (xisa_exp on a conf, or a bench binary on its own
# when CONF is empty) in XISA_QUICK mode and fails unless its stdout is
# byte-identical to the golden: the paper reports must not drift.
#
# When a JSON golden sits beside GOLDEN (name.quick.json next to
# name.quick.txt), the run also writes --json to OUT.json, and the
# report without its host fields (host_fields.cmake) must equal that
# golden byte for byte: every simulated row, count and percentile.
#
# Pass -DAUDIT=1 to run the same guard with the invariant auditor armed
# (XISA_AUDIT=1): the auditor must never change a run.

foreach(var RUNNER GOLDEN OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "golden_check.cmake: ${var} not set")
    endif()
endforeach()
include(${CMAKE_CURRENT_LIST_DIR}/host_fields.cmake)

set(run_env XISA_QUICK=1)
if(DEFINED AUDIT AND AUDIT)
    list(APPEND run_env XISA_AUDIT=1)
endif()
string(REGEX REPLACE "\\.txt$" ".json" json_golden ${GOLDEN})
set(args "")
if(EXISTS ${json_golden})
    set(args --json ${OUT}.json)
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env ${run_env} ${RUNNER} ${args} ${CONF}
    OUTPUT_FILE ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${RUNNER} ${CONF} exited with ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "quick output of ${RUNNER} ${CONF} differs from golden "
            "${GOLDEN} (see ${OUT}); a conf without [faults]/[crashes] "
            "must also match its pre-fault-layer report")
endif()

if(args)
    file(READ ${OUT}.json report)
    drop_host_fields(rows "${report}")
    file(READ ${json_golden} golden_rows)
    if(NOT rows STREQUAL golden_rows)
        file(WRITE ${OUT}.rows.json "${rows}")
        message(FATAL_ERROR
                "--json of ${CONF} without its host fields (${OUT}.rows.json) "
                "differs from golden ${json_golden}")
    endif()
endif()
