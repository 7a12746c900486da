# Script-mode check that a conf's canonical spec is a fixed point.
#
#   cmake -DRUNNER=<xisa_exp binary> -DCONF=<experiment .conf>
#         -DOUT=<scratch file prefix> -P conf_canonical.cmake
#
# Runs `xisa_exp --print-spec CONF` and fails unless it succeeds and
# `--print-spec` on that output reproduces it byte for byte.

foreach(var RUNNER CONF OUT)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "conf_canonical.cmake: ${var} not set")
    endif()
endforeach()

set(src ${CONF})
foreach(pass canon recanon)
    execute_process(
        COMMAND ${RUNNER} --print-spec ${src}
        OUTPUT_FILE ${OUT}.${pass}.conf
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${RUNNER} --print-spec ${src} exited with ${rc}")
    endif()
    set(src ${OUT}.${pass}.conf)
endforeach()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}.canon.conf
            ${OUT}.recanon.conf
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR
            "canonical spec of ${CONF} is not a fixed point: "
            "${OUT}.canon.conf and ${OUT}.recanon.conf differ")
endif()
