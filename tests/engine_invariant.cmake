# Script-mode check that a conf's report does not depend on the
# execution engine.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<experiment .conf>
#         -DOUT=<output directory> -P engine_invariant.cmake
#
# Runs `xisa_exp CONF` in XISA_QUICK mode on the default (threaded)
# engine, on the plain fast path (XISA_THREADED=0) and on the reference
# path (XISA_SLOW_PATH=1), each in its own directory under OUT with the
# same relative output names. Fails unless stdout, --stats-json and the
# --json rows are byte-identical; --json is compared after dropping the
# host fields wall_seconds, mips, events_per_sec and sweep_threads.

foreach(var RUNNER CONF OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "engine_invariant.cmake: ${var} not set")
    endif()
endforeach()

set(engines threaded plain reference)
set(env_threaded "")
set(env_plain XISA_THREADED=0)
set(env_reference XISA_SLOW_PATH=1)

foreach(engine ${engines})
    set(dir ${OUT}/${engine})
    file(MAKE_DIRECTORY ${dir})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1 ${env_${engine}}
                ${RUNNER} --stats-json stats.json --json perf.json
                ${CONF}
        WORKING_DIRECTORY ${dir}
        OUTPUT_FILE ${dir}/stdout.txt
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${engine} engine: ${RUNNER} ${CONF} "
                            "exited with ${rc}")
    endif()
    file(READ ${dir}/perf.json text)
    string(REGEX REPLACE
           "\n *\"(wall_seconds|mips|events_per_sec|sweep_threads)\": [^\n]*"
           "" rows_${engine} "${text}")
endforeach()

foreach(engine plain reference)
    foreach(file stdout.txt stats.json)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${OUT}/threaded/${file} ${OUT}/${engine}/${file}
            RESULT_VARIABLE diff)
        if(NOT diff EQUAL 0)
            message(FATAL_ERROR "${CONF}: ${file} differs between the "
                                "threaded and ${engine} engines "
                                "(see ${OUT})")
        endif()
    endforeach()
    if(NOT rows_threaded STREQUAL rows_${engine})
        message(FATAL_ERROR "${CONF}: --json differs between the "
                            "threaded and ${engine} engines beyond its "
                            "host fields (see ${OUT})")
    endif()
endforeach()
