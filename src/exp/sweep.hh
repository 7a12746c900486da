/**
 * @file
 * Run-plumbing of the config-driven xisa_exp runner, also shared by
 * the remaining bench harnesses: quick-mode detection, the parallel
 * sweep driver, the paper-artifact banner, and single-node execution.
 */

#ifndef XISA_EXP_SWEEP_HH
#define XISA_EXP_SWEEP_HH

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "machine/node.hh"
#include "obs/trace.hh"
#include "os/os.hh"

namespace xisa::exp {

/** True if the harness should run a reduced sweep (XISA_QUICK=1). */
inline bool
quickMode()
{
    const char *env = std::getenv("XISA_QUICK");
    return env && env[0] == '1';
}

/** Banner naming the paper artifact being regenerated. */
inline void
banner(const char *figure, const char *what)
{
    std::printf("==============================================================\n");
    std::printf("%s -- %s\n", figure, what);
    std::printf("(CrossBound reproduction; shapes comparable, absolute\n");
    std::printf(" numbers are simulator-scale, see EXPERIMENTS.md)\n");
    std::printf("==============================================================\n");
}

/**
 * Run a workload to completion on a single node of the given spec.
 * `execCache` (optional) shares predecoded streams and lowered
 * superblocks with every other container handed the same cache --
 * sweep drivers pass one cache per compiled binary so repeated cells
 * decode it once (DESIGN.md §10); it must only ever span containers
 * executing the identical binary.
 */
inline OsRunResult
runSingleNode(const MultiIsaBinary &bin, const NodeSpec &spec,
              std::shared_ptr<ExecCache> execCache = nullptr)
{
    OsConfig cfg;
    cfg.nodes = {spec};
    cfg.execCache = std::move(execCache);
    ReplicatedOS os(bin, cfg);
    os.load(0);
    return os.run();
}

/**
 * Worker count of the sweep driver: XISA_BENCH_THREADS when set, else
 * the hardware concurrency. Forced to 1 while the event tracer is
 * armed -- the process-global Tracer and the ambient TraceCursor are
 * unsynchronized by design (zero hot-path cost), so traced runs must
 * stay single-threaded.
 */
inline int
sweepThreads()
{
    if (obs::traceEnabled())
        return 1;
    if (const char *env = std::getenv("XISA_BENCH_THREADS")) {
        int n = std::atoi(env);
        if (n > 0)
            return n;
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? static_cast<int>(hw) : 1;
}

/**
 * Run `n` independent sweep configurations, possibly in parallel, and
 * return their results in index order.
 *
 * Each call fn(i) must be self-contained: build its own module, own its
 * ReplicatedOS / ClusterSim (and thus its own StatRegistry), and derive
 * any seed deterministically from `i` -- never from shared state. Under
 * those rules the schedule cannot affect the results, so a parallel
 * sweep is bit-identical to the sequential one: workers pull indices
 * from an atomic counter, write into their own slot, and the caller
 * prints from the ordered vector after the join.
 */
template <typename Fn>
auto
runSweep(size_t n, Fn fn) -> std::vector<decltype(fn(size_t{0}))>
{
    using R = decltype(fn(size_t{0}));
    std::vector<R> results(n);
    size_t workers = static_cast<size_t>(sweepThreads());
    if (workers > n)
        workers = n ? n : 1;
    if (workers <= 1) {
        for (size_t i = 0; i < n; ++i)
            results[i] = fn(i);
        return results;
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (size_t i = next.fetch_add(1); i < n;
                 i = next.fetch_add(1))
                results[i] = fn(i);
        });
    }
    for (std::thread &t : pool)
        t.join();
    return results;
}

} // namespace xisa::exp

#endif // XISA_EXP_SWEEP_HH
