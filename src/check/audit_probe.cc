/**
 * @file
 * Standalone audit driver for tools/audit_sweep.py.
 *
 * Runs three scenarios with the invariant auditor armed (the sweep
 * driver sets XISA_AUDIT=1 and XISA_PERTURB=<seed> in the environment):
 *
 *  1. a bare 3-node hDSM fault storm over a lossy, perturbed link,
 *  2. an OS container ping-ponging a thread between heterogeneous
 *     kernels (stack transform + TLB shootdown + context send retry),
 *  3. a crashy ClusterSim run under both dynamic policies.
 *
 * With --crash it instead runs the node-failure recovery scenario
 * (DESIGN.md §9): a migration ping-pong on a same-ISA pair is run
 * crash-free, then re-run with a seeded peer crash and with a crash
 * pinned to the migration handoff; every crashed run must produce
 * byte-identical output, and the auditor's recovery checks stay armed
 * throughout.
 *
 * Any invariant violation panics with a replay line; a clean run prints
 * one summary line and exits 0.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "check/audit.hh"
#include "check/perturb.hh"
#include "compiler/compile.hh"
#include "dsm/dsm.hh"
#include "machine/node.hh"
#include "os/os.hh"
#include "sched/cluster.hh"
#include "sched/jobsets.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "workload/workloads.hh"

using namespace xisa;

namespace {

/** Phase 1: raw protocol storm on a lossy 3-node space. */
uint64_t
dsmStorm(uint64_t seed)
{
    Interconnect::Config nc;
    nc.faults.seed = 0x5eedf417u ^ seed;
    nc.faults.dropProb = 0.05;
    nc.faults.dupProb = 0.05;
    nc.faults.spikeProb = 0.1;
    nc.faults = check::SchedulePerturber::perturbFaults(nc.faults, seed);
    Interconnect net(nc);
    DsmSpace dsm(3, &net, {3.5, 2.4, 2.4});
    check::InvariantAuditor auditor(dsm, {nc.faults.seed, seed});
    auditor.attach();

    constexpr uint64_t kBase = 0x10000000ull;
    constexpr int kPages = 24;
    Rng rng(seed ^ 0x73746f726dull);
    for (int i = 0; i < 3000; ++i) {
        int node = static_cast<int>(rng.below(3));
        uint64_t addr = kBase + rng.below(kPages) * vm::kPageSize +
                        rng.below(vm::kPageSize - 8);
        uint64_t v = rng.next();
        if (rng.below(100) < 55)
            dsm.poke(node, addr, &v, 8);
        else
            dsm.pull(node, addr, &v, 8);
        if (rng.below(100) < 3)
            dsm.broadcastWrite64(vm::kVdsoBase, v);
        if (rng.below(100) < 2)
            dsm.flushTlb(static_cast<int>(rng.below(3)));
    }
    auditor.deepCheck("storm_end");
    return auditor.checksRun();
}

/** Phase 2: heterogeneous migration ping-pong on a perturbed link. */
uint64_t
migrationPingPong(uint64_t seed)
{
    MultiIsaBinary bin =
        compileModule(buildWorkload(WorkloadId::CG, ProblemClass::A, 1));
    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = 2500;
    cfg.net.faults.seed = 0xfa0175ull ^ seed;
    cfg.net.faults.dropProb = 0.03;
    cfg.net.faults.dupProb = 0.05;
    ReplicatedOS os(bin, cfg);
    os.load(0);
    os.migrateProcess(1);
    int bounces = 0;
    os.onQuantum = [&](ReplicatedOS &o) {
        size_t done = o.migrations().size();
        if (done > static_cast<size_t>(bounces) && done < 6) {
            bounces = static_cast<int>(done);
            o.migrateProcess(o.migrations().back().toNode == 1 ? 0 : 1);
        }
    };
    os.run();
    return os.auditor() ? os.auditor()->checksRun() : 0;
}

/** Phase 3: crashy cluster scheduling under the dynamic policies. */
double
crashyCluster(uint64_t seed)
{
    double lost = 0;
    const JobProfileTable profiles = JobProfileTable::synthetic();
    for (Policy p : {Policy::DynamicBalanced, Policy::DynamicUnbalanced}) {
        ClusterSim::Config cc;
        cc.net.faults.seed = seed | 1;
        cc.net.faults.dropProb = 0.02;
        cc.crashes = {{40.0, 0, 25.0}, {90.0, 1, 30.0}, {200.0, 0, 20.0}};
        ClusterSim sim(makeHeterogeneousPool(), profiles, cc);
        ClusterResult res =
            sim.run(makeSustainedSet(seed ^ 0x6a6f6273ull, 12), p);
        lost += res.lostWorkSeconds;
    }
    return lost;
}

/**
 * Phase 4 (--crash): node-failure recovery byte-identity probe.
 *
 * One crash-free reference run, then two crashed runs -- a seeded peer
 * crash mid-ping-pong and a crash pinned to a migration handoff. Both
 * must finish with output and exit code identical to the reference;
 * the auditor (when armed) sweeps the reconstructed directory and the
 * migration ledger after every recovery.
 */
uint64_t
crashRecovery(uint64_t seed)
{
    MultiIsaBinary bin =
        compileModule(buildWorkload(WorkloadId::CG, ProblemClass::A, 1));
    auto runOne = [&](const RecoveryConfig &rc, OsRunResult &out) {
        OsConfig cfg;
        // Same-ISA pair: the survivor can adopt the dead kernel's
        // threads without a cross-ISA transform.
        cfg.nodes = {makeXenoServer(), makeXenoServer()};
        cfg.quantum = 2500;
        cfg.net.faults.seed = 0xc4a54ull ^ seed;
        cfg.net.faults.dropProb = 0.02;
        cfg.recovery = rc;
        ReplicatedOS os(bin, cfg);
        os.load(0);
        os.migrateProcess(1);
        int bounces = 0;
        os.onQuantum = [&bounces](ReplicatedOS &o) {
            size_t done = o.migrations().size();
            if (done > static_cast<size_t>(bounces) && done < 6) {
                bounces = static_cast<int>(done);
                int dest = o.migrations().back().toNode == 1 ? 0 : 1;
                if (o.nodeAlive(dest))
                    o.migrateThread(0, dest);
            }
        };
        out = os.run();
        os.dsm().checkInvariants();
        return os.auditor() ? os.auditor()->checksRun() : 0;
    };

    // Crash-free reference. Recovery stays disabled so the perturber's
    // crash injection cannot touch it (perturbation is inert on a
    // disabled config, and a disabled run is byte-identical to an
    // armed crash-free one).
    OsRunResult ref;
    uint64_t checks = runOne(RecoveryConfig{}, ref);

    // Leg 1: a peer dies at a seeded link-clock step mid-ping-pong.
    RecoveryConfig nodeCrash;
    nodeCrash.enabled = true;
    nodeCrash.crashes = {PeerCrashEvent{
        1, 16 + seed % 48}};
    OsRunResult got;
    checks += runOne(nodeCrash, got);
    if (got.output != ref.output || got.exitCode != ref.exitCode)
        fatal("[audit_probe] crash leg diverged from crash-free run "
              "(node crash, seed=%llu): replay with XISA_PERTURB=%llu",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));

    // Leg 2: the migration source dies mid-handoff; exactly-once
    // delivery means the thread survives on exactly one kernel.
    RecoveryConfig shipCrash;
    shipCrash.enabled = true;
    shipCrash.shipCrashes = {ShipCrashEvent{0, 0, (seed & 1) != 0}};
    checks += runOne(shipCrash, got);
    if (got.output != ref.output || got.exitCode != ref.exitCode) {
        std::fprintf(stderr,
                     "DBG ref exit=%lld lines=%zu | got exit=%lld "
                     "lines=%zu\n",
                     (long long)ref.exitCode, ref.output.size(),
                     (long long)got.exitCode, got.output.size());
        for (size_t i = 0;
             i < std::max(ref.output.size(), got.output.size()); ++i)
            std::fprintf(
                stderr, "  [%zu] ref=%s | got=%s\n", i,
                i < ref.output.size() ? ref.output[i].c_str() : "<none>",
                i < got.output.size() ? got.output[i].c_str() : "<none>");
        fatal("[audit_probe] crash leg diverged from crash-free run "
              "(handoff crash, seed=%llu): replay with XISA_PERTURB=%llu",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(seed));
    }
    return checks;
}

} // namespace

int
main(int argc, char **argv)
{
    bool skipOs = false;
    bool crashOnly = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dsm-only") == 0)
            skipOs = true;
        if (std::strcmp(argv[i], "--crash") == 0)
            crashOnly = true;
    }

    if (!check::auditRequested())
        std::fprintf(stderr,
                     "[audit_probe] warning: XISA_AUDIT not set; "
                     "running without the auditor\n");
    const uint64_t seed = check::SchedulePerturber::envSeed();

    if (crashOnly) {
        uint64_t crashChecks = crashRecovery(seed);
        std::printf("[audit_probe] clean seed=%llu crash_checks=%llu\n",
                    static_cast<unsigned long long>(seed),
                    static_cast<unsigned long long>(crashChecks));
        return 0;
    }

    uint64_t checks = dsmStorm(seed);
    uint64_t osChecks = 0;
    double lost = 0;
    if (!skipOs) {
        osChecks = migrationPingPong(seed);
        lost = crashyCluster(seed);
    }
    std::printf("[audit_probe] clean seed=%llu dsm_checks=%llu "
                "os_checks=%llu cluster_lost=%.3f\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(checks),
                static_cast<unsigned long long>(osChecks), lost);
    return 0;
}
