# Script-mode check that every fault a conf declares actually fires.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<experiment .conf>
#         -DOUT=<output directory> [-DEXEMPT=<class>,...]
#         -P fault_liveness.cmake
#
# Reads the fault classes CONF enables from its canonical spec
# (`xisa_exp --print-spec`), runs it in XISA_QUICK mode with
# --stats-json (the registry of the last (pool, set) cell) and fails
# unless each class shows every one of its counters above zero:
#   drop_prob > 0     xfault.drops
#   spike_prob > 0    xfault.spikes
#   dup_prob > 0      xfault.duplicates
#   [crashes] plan    xfault.crashes and xfault.recovered_seconds;
#                     on kind = serving, serving.<scenario>.failovers
#   [failures] plan   serving.<scenario>.failovers, .shed and
#                     .slo_violations_degraded
# A serving counter counts when any scenario's is above zero. A class
# that cannot fire at the conf's scale is named in EXEMPT, and the conf
# says why in a comment; its counters must then all be zero, so the
# exemption cannot outlive its reason.

cmake_minimum_required(VERSION 3.16) # if(... IN_LIST ...)
foreach(var RUNNER CONF OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "fault_liveness.cmake: ${var} not set")
    endif()
endforeach()
string(REPLACE "," ";" EXEMPT "${EXEMPT}")

execute_process(
    COMMAND ${RUNNER} --print-spec ${CONF}
    OUTPUT_VARIABLE spec
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${RUNNER} --print-spec ${CONF} exited with ${rc}")
endif()

# section(<out-var> <name>): the key lines of [name], empty when absent.
function(section var name)
    set(body "")
    if(spec MATCHES "\n\\[${name}\\]\n([^[]*)")
        set(body "\n${CMAKE_MATCH_1}")
    endif()
    set(${var} "${body}" PARENT_SCOPE)
endfunction()

# Each check is CLASS=COUNTER, COUNTER a regex over stat names.
set(checks "")
section(faults faults)
foreach(pair drop_prob=xfault[.]drops spike_prob=xfault[.]spikes
             dup_prob=xfault[.]duplicates)
    string(REGEX MATCH "^(.*)=(.*)$" pair ${pair})
    set(key ${CMAKE_MATCH_1})
    set(counter ${CMAKE_MATCH_2})
    if(faults MATCHES "\n${key} = ([^\n]*)" AND CMAKE_MATCH_1 GREATER 0)
        list(APPEND checks ${key}=${counter})
    endif()
endforeach()

set(serving serving[.][a-z_]+[.])
section(crashes crashes)
if(crashes MATCHES "\nplan = \"?[^\"\n]")
    if(spec MATCHES "(^|\n)kind = serving\n")
        list(APPEND checks crashes=${serving}failovers)
    else()
        list(APPEND checks crashes=xfault[.]crashes
                           crashes=xfault[.]recovered_seconds)
    endif()
endif()
section(failures failures)
if(failures MATCHES "\nplan = \"?[^\"\n]")
    list(APPEND checks failures=${serving}failovers
                       failures=${serving}slo_violations_degraded
                       failures=${serving}shed)
endif()

set(enabled "")
foreach(check ${checks})
    string(REGEX REPLACE "=.*" "" class ${check})
    list(APPEND enabled ${class})
endforeach()
foreach(class ${EXEMPT})
    if(NOT class IN_LIST enabled)
        message(FATAL_ERROR "${CONF}: exempt fault class '${class}' is "
                            "not enabled; drop the exemption")
    endif()
endforeach()
if(NOT checks)
    return()
endif()

file(MAKE_DIRECTORY ${OUT})
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1
            ${RUNNER} --stats-json stats.json ${CONF}
    WORKING_DIRECTORY ${OUT}
    OUTPUT_FILE ${OUT}/stdout.txt
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${RUNNER} ${CONF} exited with ${rc}")
endif()
file(READ ${OUT}/stats.json stats)

set(errors "")
foreach(check ${checks})
    string(REGEX MATCH "^(.*)=(.*)$" check ${check})
    set(class ${CMAKE_MATCH_1})
    set(counter ${CMAKE_MATCH_2})
    string(REGEX MATCHALL "\"${counter}\": [^,\n]*" hits "${stats}")
    set(fired FALSE)
    foreach(hit ${hits})
        string(REGEX REPLACE ".*: " "" value "${hit}")
        if(value GREATER 0)
            set(fired TRUE)
        endif()
    endforeach()
    if(class IN_LIST EXEMPT AND fired)
        list(APPEND errors
             "exempt ${class} fires now (${counter} > 0): drop the exemption")
    elseif(NOT class IN_LIST EXEMPT AND NOT fired)
        list(APPEND errors "${class} never fires (no ${counter} > 0)")
    endif()
endforeach()
if(errors)
    string(REPLACE ";" "\n  " errors "${errors}")
    message(FATAL_ERROR "${CONF} (quick stats in ${OUT}/stats.json):\n"
                        "  ${errors}")
endif()
