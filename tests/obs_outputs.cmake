# Script-mode smoke of the observability outputs.
#
#   cmake -DRUNNER=<binary> [-DCONF=<experiment .conf>] -DOUT=<directory>
#         [-DSTAT=<counter>] -P obs_outputs.cmake
#
# Runs `RUNNER --stats-json stats.json --trace-out trace.json [CONF]` in
# XISA_QUICK mode inside OUT and fails unless both files parse as JSON
# and the trace holds a Chrome `traceEvents` array. With -DSTAT the stat
# dump must also hold that counter with a value above zero.

cmake_minimum_required(VERSION 3.19) # string(JSON)
foreach(var RUNNER OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "obs_outputs.cmake: ${var} not set")
    endif()
endforeach()

file(MAKE_DIRECTORY ${OUT})
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env XISA_QUICK=1
            ${RUNNER} --stats-json stats.json --trace-out trace.json ${CONF}
    WORKING_DIRECTORY ${OUT}
    OUTPUT_FILE ${OUT}/stdout.txt
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${RUNNER} ${CONF} exited with ${rc}")
endif()

foreach(name stats trace)
    file(READ ${OUT}/${name}.json ${name})
    string(JSON type ERROR_VARIABLE err TYPE "${${name}}")
    if(err OR NOT type STREQUAL "OBJECT")
        message(FATAL_ERROR "${OUT}/${name}.json is not a JSON object: "
                            "${err}")
    endif()
endforeach()

string(JSON type ERROR_VARIABLE err TYPE "${trace}" traceEvents)
if(err OR NOT type STREQUAL "ARRAY")
    message(FATAL_ERROR "${OUT}/trace.json has no traceEvents array")
endif()

if(STAT)
    string(JSON value ERROR_VARIABLE err GET "${stats}" ${STAT})
    if(err OR NOT value GREATER 0)
        message(FATAL_ERROR "${OUT}/stats.json: ${STAT} is '${value}', "
                            "expected a count above zero")
    endif()
endif()
