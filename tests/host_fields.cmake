# The host fields of an `xisa_exp --json` report: the wall time, the
# rates derived from it (mips, events_per_sec) and the sweep's worker
# count; and of bench_fig10_stack_transform's, the measured stack
# transform latency (host_us). Every other field is simulated and deterministic, so
# golden_check.cmake and env_invariant.cmake compare reports without
# these lines. Each sits on a line of its own and is never the last
# field of its object, so what remains is still valid JSON.
#
#   drop_host_fields(<out-var> <json-text>)

function(drop_host_fields var text)
    string(REGEX REPLACE
           "\n *\"(wall_seconds|mips|events_per_sec|sweep_threads|host_us)\": [^\n]*"
           "" text "${text}")
    set(${var} "${text}" PARENT_SCOPE)
endfunction()
