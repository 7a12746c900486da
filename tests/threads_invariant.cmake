# Script-mode check that a conf's report does not depend on the number
# of sweep workers.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<experiment .conf>
#         -DOUT=<output directory> [-DJSON=1] -P threads_invariant.cmake
#
# Runs `xisa_exp CONF` in XISA_QUICK mode at XISA_BENCH_THREADS=1 and 4,
# each in its own directory under OUT with the same relative output
# names, and fails unless stdout and --stats-json are byte-identical.
# With -DJSON=1 it also writes --json and compares it after dropping
# the host fields wall_seconds, events_per_sec and sweep_threads.

foreach(var RUNNER CONF OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "threads_invariant.cmake: ${var} not set")
    endif()
endforeach()

set(args --stats-json stats.json)
if(DEFINED JSON AND JSON)
    list(APPEND args --json perf.json)
endif()

foreach(threads 1 4)
    set(dir ${OUT}/t${threads})
    file(MAKE_DIRECTORY ${dir})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1
                XISA_BENCH_THREADS=${threads} ${RUNNER} ${args} ${CONF}
        WORKING_DIRECTORY ${dir}
        OUTPUT_FILE ${dir}/stdout.txt
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "XISA_BENCH_THREADS=${threads} ${RUNNER} "
                            "${CONF} exited with ${rc}")
    endif()
endforeach()

foreach(file stdout.txt stats.json)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/t1/${file}
                ${OUT}/t4/${file}
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR "${CONF}: ${file} differs between 1 and 4 "
                            "sweep workers (see ${OUT})")
    endif()
endforeach()

if(DEFINED JSON AND JSON)
    foreach(threads 1 4)
        file(READ ${OUT}/t${threads}/perf.json text)
        string(REGEX REPLACE
               "\n *\"(wall_seconds|events_per_sec|sweep_threads)\": [^\n]*"
               "" rows${threads} "${text}")
    endforeach()
    if(NOT rows1 STREQUAL rows4)
        message(FATAL_ERROR "${CONF}: --json differs between 1 and 4 "
                            "sweep workers beyond its host fields "
                            "(see ${OUT})")
    endif()
endif()
