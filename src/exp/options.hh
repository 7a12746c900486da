/**
 * @file
 * The shared command-line parser of xisa_exp and the benches: one flag
 * grammar, selected per binary by a feature mask, with one usage/exit-2
 * path for anything the binary did not enable.
 *
 * Flags by feature:
 *   kOptObs       --stats, --stats-json FILE, --trace-out FILE
 *   kOptQuick     --quick (same as XISA_QUICK=1)
 *   kOptPerfJson  --json FILE, --sweep-json FILE
 *   kOptSpecTools --print-spec, --list-workloads
 *
 * Both `--flag value` and `--flag=value` spellings are accepted. Options
 * come from flags only: the experiment spec (exp/spec.hh) is the one
 * reader of the `.conf` dialect. Fault injection has no flags: a conf's
 * [faults] and [crashes] sections set it (examples/confs/fig12_*.conf).
 */

#ifndef XISA_EXP_OPTIONS_HH
#define XISA_EXP_OPTIONS_HH

#include <string>
#include <vector>

#include "obs/registry.hh"

namespace xisa::exp {

enum : unsigned {
    kOptObs = 1u << 0,
    kOptQuick = 1u << 1,
    kOptPerfJson = 1u << 2,
    /** xisa_exp's own tool flags: --print-spec, --list-workloads. */
    kOptSpecTools = 1u << 3,
};

/** Parsed common options; fields outside the enabled features keep
 *  their defaults. */
struct Options {
    // kOptObs
    bool dumpStats = false;
    std::string statsJsonPath;
    std::string traceOutPath;
    // kOptPerfJson
    std::string perfJsonPath;
    std::string sweepJsonPath;
    // kOptSpecTools
    bool printSpec = false;
    bool listWorkloads = false;
    /** Non-flag arguments, in order (the runner's conf path). */
    std::vector<std::string> positional;
};

/**
 * Parse argv under the feature mask. Unknown flags (and known flags of
 * disabled features) print usage to stderr and exit(2); malformed
 * values exit(2) with a diagnostic. When kOptObs is enabled and
 * --trace-out was given, the global tracer is armed. When kOptQuick is
 * enabled and --quick was given, XISA_QUICK=1 is exported so the
 * sweep helpers and any child observers agree on the mode.
 * `extraUsage` lines are appended to the usage text.
 */
Options parseCommonArgs(int argc, char **argv, unsigned features,
                        const char *extraUsage = nullptr);

/** Emit whatever outputs the obs flags requested from `reg` and the
 *  global tracer; call once at the end of the harness. Prints nothing
 *  when no flag was given, so golden stdout is unaffected. */
void writeOutputs(const Options &o, obs::StatRegistry &reg);

} // namespace xisa::exp

#endif // XISA_EXP_OPTIONS_HH
