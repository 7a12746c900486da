# Script-mode check that a conf's report does not depend on an
# environment switch: the sweep worker count, the execution engine, the
# fleet scheduler's driver or the invariant auditor.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<experiment .conf>
#         -DOUT=<output directory> -DVARIANTS=<variants> [-DJSON=1]
#         -P env_invariant.cmake
#
# VARIANTS is a '|'-separated list of NAME:ENV entries, e.g.
# "threaded:|plain:XISA_THREADED=0"; ENV is one VAR=VALUE assignment or
# empty. Runs `xisa_exp CONF` in XISA_QUICK mode once per variant, each
# in OUT/NAME with the same relative output names, and fails unless
# stdout and --stats-json are byte-identical to the first variant's.
# With -DJSON=1 it also writes --json and compares it after dropping
# its host fields (host_fields.cmake).

foreach(var RUNNER CONF OUT VARIANTS)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "env_invariant.cmake: ${var} not set")
    endif()
endforeach()
include(${CMAKE_CURRENT_LIST_DIR}/host_fields.cmake)

set(args --stats-json stats.json)
if(JSON)
    list(APPEND args --json perf.json)
endif()

string(REPLACE "|" ";" specs "${VARIANTS}")
set(names "")
foreach(spec ${specs})
    if(NOT spec MATCHES "^([A-Za-z0-9_]+):(.*)$")
        message(FATAL_ERROR "env_invariant.cmake: bad variant '${spec}'")
    endif()
    set(name ${CMAKE_MATCH_1})
    set(env ${CMAKE_MATCH_2})
    list(APPEND names ${name})
    set(dir ${OUT}/${name})
    file(MAKE_DIRECTORY ${dir})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1 ${env}
                ${RUNNER} ${args} ${CONF}
        WORKING_DIRECTORY ${dir}
        OUTPUT_FILE ${dir}/stdout.txt
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${name} (${env}): ${RUNNER} ${CONF} "
                            "exited with ${rc}")
    endif()
    if(JSON)
        file(READ ${dir}/perf.json text)
        drop_host_fields(rows_${name} "${text}")
    endif()
endforeach()

list(POP_FRONT names ref)
foreach(name ${names})
    foreach(file stdout.txt stats.json)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files
                    ${OUT}/${ref}/${file} ${OUT}/${name}/${file}
            RESULT_VARIABLE diff)
        if(NOT diff EQUAL 0)
            message(FATAL_ERROR "${CONF}: ${file} differs between "
                                "${ref} and ${name} (see ${OUT})")
        endif()
    endforeach()
    if(JSON AND NOT rows_${ref} STREQUAL rows_${name})
        message(FATAL_ERROR "${CONF}: --json differs between ${ref} and "
                            "${name} beyond its host fields (see ${OUT})")
    endif()
endforeach()
