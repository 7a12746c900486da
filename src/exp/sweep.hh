/**
 * @file
 * Run-plumbing of the config-driven xisa_exp runner, also shared by
 * the remaining bench harnesses: quick-mode detection, the parallel
 * sweep driver, the paper-artifact banner, and single-node execution.
 */

#ifndef XISA_EXP_SWEEP_HH
#define XISA_EXP_SWEEP_HH

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <thread>
#include <vector>

#include "machine/node.hh"
#include "obs/trace.hh"
#include "os/os.hh"
#include "util/logging.hh"

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
 * executing the identical binary. `keep` (optional) receives the
 * finished container, whose stat registry lives as long as it does.
 */
inline OsRunResult
runSingleNode(const MultiIsaBinary &bin, const NodeSpec &spec,
              std::shared_ptr<ExecCache> execCache = nullptr,
              std::unique_ptr<ReplicatedOS> *keep = nullptr)
{
    OsConfig cfg;
    cfg.nodes = {spec};
    cfg.execCache = std::move(execCache);
    auto os = std::make_unique<ReplicatedOS>(bin, cfg);
    os->load(0);
    OsRunResult r = os->run();
    if (keep)
        *keep = std::move(os);
    return r;
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
 * sweep is bit-identical to the sequential one: workers pull claims
 * from an atomic counter, write into their cell's own slot, and the
 * caller prints from the ordered vector after the join.
 *
 * `order`, when given, is the claim order: a permutation of 0..n-1,
 * and the k-th claim runs cell order[k]. Callers whose cells differ
 * widely in cost pass longestFirst() of a cost estimate, so the
 * longest cell does not start last and run alone. Results stay indexed
 * by cell whatever the order; an empty order claims 0..n-1.
 *
 * One exception keeps that guarantee: a cell may wait for work of a
 * cell claimed before it that itself never waits (traffic generation's
 * producer cells). Workers claim in order, so that cell is already
 * running when the wait starts and always finishes; at one worker it
 * has simply run first.
 *
 * A cell may also do helping work for the caller that never blocks:
 * work it takes under a mutex's try_lock, handing it to whichever
 * cell holds the lock (traffic generation's drain). What the caller
 * finally sees must not depend on which cell did it; work that no
 * cell took is the caller's after the sweep.
 */
template <typename Fn>
auto
runSweep(size_t n, Fn fn, const std::vector<size_t> &order = {})
    -> std::vector<decltype(fn(size_t{0}))>
{
    if (!order.empty()) {
        XISA_CHECK(order.size() == n, "claim order has the wrong length");
        std::vector<bool> seen(n);
        for (size_t i : order) {
            XISA_CHECK(i < n && !seen[i], "claim order is no permutation");
            seen[i] = true;
        }
    }
    auto cell = [&](size_t k) { return order.empty() ? k : order[k]; };

    using R = decltype(fn(size_t{0}));
    std::vector<R> results(n);
    size_t workers = static_cast<size_t>(sweepThreads());
    if (workers > n)
        workers = n ? n : 1;
    if (workers <= 1) {
        for (size_t k = 0; k < n; ++k)
            results[cell(k)] = fn(cell(k));
        return results;
    }
    std::atomic<size_t> next{0};
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (size_t w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
            for (size_t k = next.fetch_add(1); k < n;
                 k = next.fetch_add(1))
                results[cell(k)] = fn(cell(k));
        });
    }
    for (std::thread &t : pool)
        t.join();
    return results;
}

/**
 * Claim order for runSweep: cell indices by descending cost, ties in
 * index order.
 */
inline std::vector<size_t>
longestFirst(const std::vector<double> &costs)
{
    std::vector<size_t> order(costs.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return costs[a] > costs[b];
    });
    return order;
}

} // namespace xisa::exp

#endif // XISA_EXP_SWEEP_HH
