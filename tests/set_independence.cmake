# Script-mode check that the sets of a fleet conf are independent
# trials: a set's result must not depend on the sets run before it.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<sustained or rack .conf>
#         -DOUT=<output directory> -P set_independence.cmake
#
# Runs CONF in XISA_QUICK mode, then a copy whose only set is CONF's
# last one (seed_base moved to that set's seed, sets_quick = 1). Both
# runs dump the last (pool, set) cell's registry with --stats-json, so
# the two dumps must be byte-identical.

foreach(var RUNNER CONF OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "set_independence.cmake: ${var} not set")
    endif()
endforeach()

file(READ ${CONF} text)
foreach(key seed_base sets_quick)
    if(NOT text MATCHES "\n${key} = ([0-9]+)")
        message(FATAL_ERROR "${CONF}: no '${key} = <n>' line")
    endif()
    set(${key} ${CMAKE_MATCH_1})
endforeach()
math(EXPR last_seed "${seed_base} + ${sets_quick} - 1")
string(REPLACE "\nseed_base = ${seed_base}" "\nseed_base = ${last_seed}"
       text "${text}")
string(REPLACE "\nsets_quick = ${sets_quick}" "\nsets_quick = 1"
       text "${text}")
file(MAKE_DIRECTORY ${OUT})
file(WRITE ${OUT}/last_set_alone.conf "${text}")

foreach(run all last_set_alone)
    if(run STREQUAL "all")
        set(conf ${CONF})
    else()
        set(conf ${OUT}/last_set_alone.conf)
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1
                ${RUNNER} --stats-json ${run}.stats.json ${conf}
        WORKING_DIRECTORY ${OUT}
        OUTPUT_FILE ${OUT}/${run}.stdout.txt
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${RUNNER} ${conf} exited with ${rc}")
    endif()
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/all.stats.json
            ${OUT}/last_set_alone.stats.json
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "${CONF}: set ${last_seed} dumps different stats when the "
            "sets before it ran first (see ${OUT})")
endif()
