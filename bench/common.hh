/**
 * @file
 * Shared helpers for the experiment harnesses. Each bench binary
 * regenerates one table or figure of the paper that no conf `kind`
 * expresses; the paper figures that a conf does express (Figs. 6-9,
 * Figs. 12-13, the rack projection, serving) run through xisa_exp alone.
 * The run plumbing (quick mode, banner) and the flag grammar live in
 * src/exp/ and are shared with that runner.
 *
 * Set XISA_QUICK=1 in the environment (or pass --quick where enabled)
 * to shrink sweeps; the full sweeps match the paper's configurations.
 */

#ifndef XISA_BENCH_COMMON_HH
#define XISA_BENCH_COMMON_HH

#include <cstdio>
#include <vector>

#include "compiler/compile.hh"
#include "exp/options.hh"
#include "exp/sweep.hh"
#include "machine/node.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "os/os.hh"
#include "workload/workloads.hh"

namespace xisa::bench {

using xisa::exp::banner;
using xisa::exp::quickMode;
using xisa::exp::runSingleNode;

using xisa::exp::kOptObs;
using xisa::exp::kOptPerfJson;
using xisa::exp::kOptQuick;
using xisa::exp::Options;
using xisa::exp::parseCommonArgs;
using xisa::exp::writeOutputs;

/** Thread sweep used by Fig. 1. */
inline std::vector<int>
threadSweep()
{
    return quickMode() ? std::vector<int>{1, 4}
                       : std::vector<int>{1, 2, 4, 8};
}

/** Class sweep used by Fig. 1 and Table 1. */
inline std::vector<ProblemClass>
classSweep()
{
    return quickMode()
               ? std::vector<ProblemClass>{ProblemClass::A}
               : std::vector<ProblemClass>{ProblemClass::A,
                                           ProblemClass::B,
                                           ProblemClass::C};
}

} // namespace xisa::bench

#endif // XISA_BENCH_COMMON_HH
