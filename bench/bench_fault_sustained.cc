/**
 * @file
 * Figure 12 under fire: the sustained-workload scheduling study rerun
 * on a lossy interconnect with machine crashes.
 *
 * The paper's evaluation assumes a perfect link and immortal servers;
 * this harness sweeps message-drop rates (plus optional latency spikes,
 * partition windows and seeded machine crashes) and reports how the
 * dynamic policies' energy/EDP advantage degrades as the fabric gets
 * worse. Jobs checkpoint periodically; a crash rolls its machine's jobs
 * back to their last checkpoint and the dynamic policies fail them over
 * to the surviving machine, so energy charges the lost work.
 *
 * Flags (in addition to the shared --stats/--stats-json/--trace-out):
 *   --fault-drop P        single drop probability instead of the sweep
 *   --fault-seed S        fault-plan + crash-plan seed (default 1)
 *   --fault-partition P,L every P messages, L sends fail fast
 *                         (sugar: FaultPlan normalizes the pair into
 *                         a whole-link cut-set, the degenerate
 *                         FaultCut with an empty sideA -- one code
 *                         path with the topology-derived cuts, same
 *                         bytes as the pre-cut-set implementation)
 *   --fault-crashes N     machine crashes per run (default 2)
 *   --fault-down SEC      crash downtime, seconds (default 30)
 *   --fault-crash M@T     crash machine M at T seconds (repeatable;
 *                         replaces the seeded random crash plan, so a
 *                         scenario replays exactly)
 */

#include <vector>

#include "common.hh"
#include "sched/jobsets.hh"
#include "util/rng.hh"
#include "util/stats.hh"

using namespace xisa;
using namespace xisa::bench;

namespace {

/** Seeded crash schedule: `count` crashes at random times in the first
 *  `horizon` seconds, alternating over the machines. */
std::vector<CrashEvent>
makeCrashPlan(uint64_t seed, int count, double horizon, int machines,
              double downSeconds)
{
    Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
    std::vector<CrashEvent> plan;
    for (int i = 0; i < count; ++i) {
        CrashEvent ev;
        ev.time = rng.uniform() * horizon;
        ev.machine = static_cast<int>(rng.below(
            static_cast<uint64_t>(machines)));
        ev.downSeconds = downSeconds;
        plan.push_back(ev);
    }
    return plan;
}

} // namespace

int
main(int argc, char **argv)
{
    Options fa =
        parseCommonArgs(argc, argv, kOptObs | kOptFault | kOptQuick);
    banner("Fig. 12 under faults",
           "sustained workload on a lossy fabric with machine crashes");
    JobProfileTable table = JobProfileTable::calibrate();

    std::vector<double> dropRates = {0.0, 0.01, 0.05, 0.1, 0.2};
    if (fa.faultDrop >= 0)
        dropRates = {fa.faultDrop};
    else if (quickMode())
        dropRates = {0.0, 0.05, 0.2};
    const int numSets = quickMode() ? 2 : 5;

    std::printf("\nfault seed %llu, %d crash(es)/run, %.0f s downtime",
                static_cast<unsigned long long>(fa.faultSeed),
                fa.faultCrashes, fa.faultDownSeconds);
    if (fa.faultPartitionPeriod)
        std::printf(", partition %llu/%llu msgs",
                    static_cast<unsigned long long>(fa.faultPartitionPeriod),
                    static_cast<unsigned long long>(fa.faultPartitionLen));
    if (!fa.scriptedCrashes.empty()) {
        std::printf(", scripted crashes:");
        for (const CrashEvent &ev : fa.scriptedCrashes)
            std::printf(" %d@%.0fs", ev.machine, ev.time);
    }
    std::printf("\n\n%-6s | %9s %7s %10s | %4s %4s %4s %8s %8s | %8s\n",
                "drop", "energy kJ", "mksp s", "EDP kJ*s", "crsh",
                "fail", "rstr", "lost s", "recov s", "retries");

    double baseEdp = 0;
    uint64_t deferred = 0;
    obs::StatRegistry *lastStats = nullptr;
    static std::vector<ClusterSim *> sims; // keep alive for obs dump
    for (double drop : dropRates) {
        ClusterSim::Config cc;
        cc.net.faults.seed = fa.faultSeed;
        cc.net.faults.dropProb = drop;
        cc.net.faults.spikeProb = drop / 2;
        cc.net.faults.partitionPeriodMsgs = fa.faultPartitionPeriod;
        cc.net.faults.partitionLenMsgs = fa.faultPartitionLen;
        RunningStat energy, makespan, edp;
        int crashes = 0, failovers = 0, restarts = 0;
        double lost = 0, recovered = 0;
        auto *sim = new ClusterSim(makeHeterogeneousPool(true, 1.0),
                                   table, cc);
        sims.push_back(sim);
        // Bind the handle once per sim; the per-set loop and the final
        // row read it without re-hashing the dotted name.
        const obs::Counter *retries =
            sim->statRegistry().findCounter("xfault.retries");
        for (int set = 0; set < numSets; ++set) {
            auto jobs = makeSustainedSet(1000 + static_cast<uint64_t>(set));
            if (!fa.scriptedCrashes.empty()) {
                // Scripted plan: the exact same machines die at the
                // exact same instants in every set, so a recovery
                // scenario replays byte-for-byte.
                sim->setCrashPlan(fa.scriptedCrashes);
            } else if (fa.faultCrashes > 0) {
                // Crash inside the fault-free makespan so the failover
                // path actually fires.
                sim->setCrashPlan(makeCrashPlan(
                    fa.faultSeed + static_cast<uint64_t>(set),
                    fa.faultCrashes, 400.0, 2, fa.faultDownSeconds));
            }
            ClusterResult r = sim->run(jobs, Policy::DynamicBalanced);
            energy.add(r.totalEnergy / 1e3);
            makespan.add(r.makespan);
            edp.add(r.edp / 1e3);
            crashes += r.crashes;
            failovers += r.failovers;
            for (const auto &kv : r.restartCounts)
                restarts += kv.second;
            lost += r.lostWorkSeconds;
            recovered += r.recoveredWorkSeconds;
        }
        lastStats = &sim->statRegistry();
        if (const obs::Counter *d = sim->statRegistry().findCounter(
                "xfault.crashes_deferred"))
            deferred += d->value();
        if (drop == 0.0)
            baseEdp = edp.mean();
        std::printf("%5.2f%% | %9.1f %7.1f %10.1f | %4d %4d %4d %8.1f"
                    " %8.1f | %8llu",
                    drop * 100, energy.mean(), makespan.mean(),
                    edp.mean(), crashes, failovers, restarts, lost,
                    recovered,
                    static_cast<unsigned long long>(
                        retries ? retries->value() : 0));
        if (baseEdp > 0 && drop > 0)
            std::printf("   (EDP %+.1f%%)",
                        (edp.mean() / baseEdp - 1.0) * 100);
        std::printf("\n");
    }
    std::printf("\nEDP degrades with fault intensity: retries inflate "
                "migration cost,\ncrash rollback discards work the "
                "energy meter already charged.\n");
    if (deferred > 0)
        std::printf("%llu crash(es) hit an already-down machine and "
                    "were deferred past its reboot.\n",
                    static_cast<unsigned long long>(deferred));
    if (lastStats)
        writeOutputs(fa, *lastStats);
    return 0;
}
