/**
 * @file
 * Scheduler tests: profile calibration, job-set generation, cluster
 * simulation invariants, and policy behaviour.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <string>

#include "machine/node.hh"
#include "sched/cluster.hh"
#include "sched/jobsets.hh"
#include "sched/profile.hh"
#include "sched/topology.hh"

namespace xisa {
namespace {

/** Real calibration is expensive and exercised by the JobProfile
 *  tests; the ClusterSim tests use the synthetic table. */
const JobProfileTable &
table()
{
    static JobProfileTable t = JobProfileTable::synthetic();
    return t;
}

/** One shared *real* calibration for the JobProfile tests. */
const JobProfileTable &
calibrated()
{
    static JobProfileTable t = JobProfileTable::calibrate();
    return t;
}

TEST(JobProfile, ArmIsSlowerThanX86ForEveryWorkload)
{
    for (WorkloadId wl : allWorkloads()) {
        double x86 = calibrated().baseSeconds(wl, IsaId::Xeno64);
        double arm = calibrated().baseSeconds(wl, IsaId::Aether64);
        EXPECT_GT(x86, 0.0) << workloadName(wl);
        EXPECT_GT(arm, 1.5 * x86) << workloadName(wl);
        EXPECT_LT(arm, 8.0 * x86) << workloadName(wl);
    }
}

TEST(Profile, CalibrateIsWorkerCountInvariant)
{
    const char *prev = std::getenv("XISA_BENCH_THREADS");
    const std::string saved = prev ? prev : "";
    auto calibrateWith = [](const char *threads) {
        setenv("XISA_BENCH_THREADS", threads, 1);
        return JobProfileTable::calibrate();
    };
    const JobProfileTable one = calibrateWith("1");
    const JobProfileTable four = calibrateWith("4");
    if (prev)
        setenv("XISA_BENCH_THREADS", saved.c_str(), 1);
    else
        unsetenv("XISA_BENCH_THREADS");

    for (WorkloadId wl : allWorkloads())
        for (IsaId isa : {IsaId::Xeno64, IsaId::Aether64})
            EXPECT_EQ(one.baseSeconds(wl, isa), four.baseSeconds(wl, isa))
                << workloadName(wl) << " on " << isaName(isa);
}

TEST(JobProfile, ClassesAndThreadsScaleSensibly)
{
    double a = table().seconds(WorkloadId::CG, ProblemClass::A, 1,
                               IsaId::Xeno64);
    double b = table().seconds(WorkloadId::CG, ProblemClass::B, 1,
                               IsaId::Xeno64);
    double c = table().seconds(WorkloadId::CG, ProblemClass::C, 1,
                               IsaId::Xeno64);
    EXPECT_DOUBLE_EQ(b, 4 * a);
    EXPECT_DOUBLE_EQ(c, 16 * a);
    double t4 = table().seconds(WorkloadId::CG, ProblemClass::A, 4,
                                IsaId::Xeno64);
    EXPECT_LT(t4, a);      // faster than serial
    EXPECT_GT(t4, a / 4);  // but not perfectly
}

TEST(JobSets, SustainedSetsAreDeterministicPerSeed)
{
    auto a = makeSustainedSet(7);
    auto b = makeSustainedSet(7);
    auto c = makeSustainedSet(8);
    ASSERT_EQ(a.size(), 40u);
    EXPECT_EQ(a.size(), b.size());
    bool same = true, diff = false;
    for (size_t i = 0; i < a.size(); ++i) {
        same &= a[i].wl == b[i].wl && a[i].cls == b[i].cls;
        diff |= a[i].wl != c[i].wl || a[i].cls != c[i].cls;
    }
    EXPECT_TRUE(same);
    EXPECT_TRUE(diff);
    for (const Job &j : a) {
        EXPECT_DOUBLE_EQ(j.arrival, 0.0);
        EXPECT_GE(j.threads, 1);
        EXPECT_LE(j.threads, 4);
        if (!supportsThreads(j.wl)) {
            EXPECT_EQ(j.threads, 1);
        }
    }
}

TEST(JobSets, PeriodicWavesAreSpacedSixtyToTwoForty)
{
    auto jobs = makePeriodicSet(3);
    ASSERT_FALSE(jobs.empty());
    std::vector<double> waves;
    for (const Job &j : jobs)
        if (waves.empty() || j.arrival != waves.back())
            waves.push_back(j.arrival);
    ASSERT_EQ(waves.size(), 5u);
    for (size_t w = 1; w < waves.size(); ++w) {
        double gap = waves[w] - waves[w - 1];
        EXPECT_GE(gap, 60.0);
        EXPECT_LE(gap, 240.0);
    }
}

TEST(ClusterSim, AllJobsCompleteUnderEveryPolicy)
{
    auto jobs = makeSustainedSet(1, 20);
    for (Policy p : {Policy::StaticBalanced, Policy::StaticUnbalanced,
                     Policy::DynamicBalanced,
                     Policy::DynamicUnbalanced}) {
        ClusterSim sim(makeHeterogeneousPool(), table());
        ClusterResult r = sim.run(jobs, p);
        EXPECT_GT(r.makespan, 0.0) << policyName(p);
        EXPECT_GT(r.totalEnergy, 0.0) << policyName(p);
        EXPECT_GT(r.avgTurnaround, 0.0) << policyName(p);
        ASSERT_EQ(r.energyJoules.size(), 2u);
        EXPECT_NEAR(r.energyJoules[0] + r.energyJoules[1],
                    r.totalEnergy, 1e-6);
        EXPECT_NEAR(r.edp, r.totalEnergy * r.makespan, 1e-6);
    }
}

TEST(ClusterSim, StaticPoliciesNeverMigrate)
{
    auto jobs = makeSustainedSet(2, 24);
    ClusterSim sim(makeHeterogeneousPool(), table());
    EXPECT_EQ(sim.run(jobs, Policy::StaticBalanced).migrations, 0);
    EXPECT_EQ(sim.run(jobs, Policy::StaticUnbalanced).migrations, 0);
}

TEST(ClusterSim, DynamicPolicyMigratesOnPeriodicLoad)
{
    auto jobs = makePeriodicSet(5);
    ClusterSim sim(makeHeterogeneousPool(), table());
    ClusterResult r = sim.run(jobs, Policy::DynamicBalanced);
    EXPECT_GT(r.makespan, 0.0);
}

TEST(ClusterSim, FinfetProjectionCutsArmEnergy)
{
    auto jobs = makeSustainedSet(3, 20);
    ClusterSim projected(makeHeterogeneousPool(true), table());
    ClusterSim measured(makeHeterogeneousPool(false), table());
    ClusterResult a = projected.run(jobs, Policy::StaticBalanced);
    ClusterResult b = measured.run(jobs, Policy::StaticBalanced);
    EXPECT_LT(a.energyJoules[1], 0.75 * b.energyJoules[1]);
    EXPECT_NEAR(a.energyJoules[0], b.energyJoules[0],
                0.01 * b.energyJoules[0]);
}

TEST(ClusterSim, HomogeneousPoolBalancesEvenly)
{
    auto jobs = makeSustainedSet(4, 30);
    ClusterSim sim(makeX86X86Pool(), table());
    ClusterResult r = sim.run(jobs, Policy::StaticBalanced);
    // Two identical machines: energies within 40% of each other.
    double ratio = r.energyJoules[0] / r.energyJoules[1];
    EXPECT_GT(ratio, 0.6);
    EXPECT_LT(ratio, 1.7);
}

// --- Scheduler bugfix regressions and event-core contracts ----------

/** An x86 server with the core count and load weight a scenario
 *  needs (the stock pools all share one shape). */
Machine
customX86(int cores, double weight)
{
    Machine m{makeXenoServer(), 1.0, weight};
    m.spec.cores = cores;
    return m;
}

Job
mkJob(int id, int threads, double arrival)
{
    return Job{id, WorkloadId::CG, ProblemClass::C, threads, arrival};
}

/** Regression for the energy accrual bug: a machine whose run set is
 *  empty must draw sleep power even while jobs sit parked in its
 *  queue. The pre-event-core accrual charged active idle whenever the
 *  queue was non-empty, so a machine parked behind a too-wide job
 *  paid full idle for the whole wait. */
TEST(ClusterSim, ParkedQueueDrawsSleepPowerNotActiveIdle)
{
    // A (8 cores, weight 3) takes the wide job plus a second one
    // that queues behind it; the 3-thread job then scores B (weighted
    // load 3 < 11/3) and parks there -- 3 threads never fit B's 2
    // cores, so B's run set stays empty until the first rebalance
    // tick after the wide job drains moves the parked job over
    // (dropping the weighted peak from 3 to 5/3, so the move is
    // taken while A still runs; nothing ever runs on B, and no
    // counter-move back to B passes the strict-improvement test).
    std::vector<Machine> pool{customX86(8, 3.0), customX86(2, 1.0)};
    ClusterSim::Config cfg;
    cfg.sleepFraction = 0.2;
    cfg.rebalancePeriod = 4e-3;
    ClusterSim sim(pool, table(), cfg);
    std::vector<Job> jobs{mkJob(0, 8, 0.0), mkJob(1, 3, 0.0),
                          mkJob(2, 2, 0.0)};
    ClusterResult r = sim.run(jobs, Policy::DynamicBalanced);
    ASSERT_EQ(r.energyJoules.size(), 2u);
    EXPECT_GT(r.makespan, cfg.rebalancePeriod);
    EXPECT_EQ(r.migrations, 0); // the parked job moves queue-to-queue
    // B never ran anything, so every second of the makespan is
    // empty-running time -- most of it with the queue occupied. The
    // fixed accrual charges exactly sleep power throughout; the old
    // rule charged full idle (5x here) over the parked interval.
    double idleB = pool[1].spec.idleWatts;
    EXPECT_NEAR(r.energyJoules[1],
                cfg.sleepFraction * idleB * r.makespan,
                1e-9 * idleB * r.makespan);
}

/** A job set handed over out of arrival order runs exactly as the
 *  sorted set: the in-order fast path and the sorted copy agree. */
TEST(ClusterSim, UnsortedArrivalsRunAsSorted)
{
    std::vector<Job> sorted;
    for (int i = 0; i < 40; ++i)
        sorted.push_back(mkJob(i, 1 + i % 4, 0.5e-3 * i));
    std::vector<Job> reversed(sorted.rbegin(), sorted.rend());
    ClusterSim::Config cfg;
    cfg.rebalancePeriod = 4e-3;
    auto run = [&](const std::vector<Job> &jobs) {
        ClusterSim sim({customX86(8, 3.0), customX86(2, 1.0)}, table(),
                       cfg);
        return sim.run(jobs, Policy::DynamicBalanced);
    };
    ClusterResult a = run(sorted);
    ClusterResult b = run(reversed);
    EXPECT_EQ(a.energyJoules, b.energyJoules);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.migrations, b.migrations);
}

/** Regression for dropped back-to-back failures: a crash aimed at a
 *  machine that is already down defers to its reboot instant instead
 *  of disappearing, and the deferral is counted. */
TEST(ClusterSim, CrashOnDownMachineDefersToReboot)
{
    std::vector<Machine> pool{customX86(8, 1.0)};
    ClusterSim::Config cfg;
    // Down 2-12 ms; the 5 ms crash finds the machine dark and lands
    // at the reboot instead: down again 12-22 ms.
    cfg.crashes = {{2e-3, 0, 10e-3}, {5e-3, 0, 10e-3}};
    cfg.checkpointPeriod = 1e-3;
    ClusterSim sim(pool, table(), cfg);
    std::vector<Job> jobs{mkJob(0, 4, 0.0)};
    ClusterResult r = sim.run(jobs, Policy::StaticBalanced);
    EXPECT_EQ(r.crashes, 2);
    auto snap = sim.statRegistry().snapshot();
    EXPECT_DOUBLE_EQ(snap.at("xfault.crashes"), 2.0);
    EXPECT_DOUBLE_EQ(snap.at("xfault.crashes_deferred"), 1.0);
    // The job only finishes after the second outage clears.
    EXPECT_GT(r.makespan, 22e-3);
}

/** The rebalance move budget scales with the pool, and exhausting it
 *  is observable: the old fixed 64-move cap silently truncated
 *  fleet-sized rebalances. */
TEST(ClusterSim, RebalanceMoveCapScalesWithPool)
{
    // 2 machines: budget max(64, 16) = 128. B is down when all 300
    // one-thread jobs arrive, so they pile onto A; draining half of
    // them to B after its reboot takes ~150 improving moves -- more
    // than one tick's budget, so the counter must fire.
    {
        std::vector<Machine> pool{customX86(8, 1.0),
                                  customX86(8, 1.0)};
        ClusterSim::Config cfg;
        cfg.rebalancePeriod = 2e-3;
        cfg.crashes = {{0.0, 1, 5e-3}};
        ClusterSim sim(pool, table(), cfg);
        std::vector<Job> jobs;
        for (int i = 0; i < 300; ++i)
            jobs.push_back(mkJob(i, 1, 0.0));
        ClusterResult r = sim.run(jobs, Policy::DynamicBalanced);
        EXPECT_EQ(r.crashes, 1);
        EXPECT_GT(sim.statRegistry().snapshot().at(
                      "sched.rebalance_moves_capped"),
                  0.0);
    }
    // 20 machines: budget max(64, 160) = 160. The same reboot burst
    // needs ~100 moves -- beyond the old fixed 64, within the scaled
    // budget -- so the rebalance completes in one tick uncapped.
    {
        std::vector<Machine> pool(20, customX86(8, 1.0));
        ClusterSim::Config cfg;
        cfg.rebalancePeriod = 2e-3;
        cfg.crashes = {{0.0, 1, 5e-3}};
        ClusterSim sim(pool, table(), cfg);
        std::vector<Job> jobs;
        for (int i = 0; i < 2000; ++i)
            jobs.push_back(mkJob(i, 1, 0.0));
        ClusterResult r = sim.run(jobs, Policy::DynamicBalanced);
        EXPECT_EQ(r.crashes, 1);
        EXPECT_DOUBLE_EQ(sim.statRegistry().snapshot().at(
                             "sched.rebalance_moves_capped"),
                         0.0);
    }
}

/** Phase order at one timestamp: the checkpoint epoch (phase 3) runs
 *  before crash injection (phase 4), so a crash landing exactly on a
 *  checkpoint boundary rolls back zero work. */
TEST(ClusterSim, CheckpointAtCrashInstantLosesNothing)
{
    std::vector<Machine> pool{customX86(8, 1.0)};
    std::vector<Job> jobs{mkJob(0, 4, 0.0)};
    ClusterSim::Config cfg;
    cfg.checkpointPeriod = 2e-3;
    cfg.crashes = {{2e-3, 0, 1e-3}};
    ClusterSim onBoundary(pool, table(), cfg);
    ClusterResult r = onBoundary.run(jobs, Policy::StaticBalanced);
    EXPECT_EQ(r.crashes, 1);
    EXPECT_DOUBLE_EQ(r.lostWorkSeconds, 0.0);
    EXPECT_GT(r.recoveredWorkSeconds, 0.0);
    // Off the boundary, the progress since the last epoch is lost.
    cfg.crashes = {{2.7e-3, 0, 1e-3}};
    ClusterSim offBoundary(pool, table(), cfg);
    ClusterResult r2 = offBoundary.run(jobs, Policy::StaticBalanced);
    EXPECT_GT(r2.lostWorkSeconds, 0.0);
}

/** Phase order at one timestamp: completions (phase 2) run before
 *  crash injection (phase 4), so a job whose completion coincides
 *  with its machine's crash finishes rather than restarting. */
TEST(ClusterSim, CompletionAtCrashInstantWins)
{
    double d = table().seconds(WorkloadId::CG, ProblemClass::C, 2,
                               IsaId::Xeno64);
    std::vector<Machine> pool{customX86(8, 1.0)};
    ClusterSim::Config cfg;
    cfg.crashes = {{d, 0, 3e-3}};
    ClusterSim sim(pool, table(), cfg);
    std::vector<Job> jobs{mkJob(0, 2, 0.0)};
    ClusterResult r = sim.run(jobs, Policy::StaticBalanced);
    EXPECT_EQ(r.crashes, 1);
    EXPECT_TRUE(r.restartCounts.empty());
    EXPECT_DOUBLE_EQ(r.lostWorkSeconds, 0.0);
    EXPECT_DOUBLE_EQ(r.makespan, d);
}

// --- Hierarchical topology ------------------------------------------

TEST(Topology, HopsFactorsAndLatencies)
{
    TopologyConfig c;
    c.machinesPerRack = 4;
    c.racksPerPod = 2;
    c.torOversub = 4.0;
    c.aggOversub = 2.0;
    c.rackHopUs = 5.0;
    c.aggHopUs = 20.0;
    c.localityBias = 0.5;
    Topology t(c);
    EXPECT_TRUE(t.enabled());
    EXPECT_EQ(t.rackOf(3), 0);
    EXPECT_EQ(t.rackOf(4), 1);
    EXPECT_EQ(t.podOf(7), 0);
    EXPECT_EQ(t.podOf(8), 1);
    EXPECT_EQ(t.hops(0, 3), 0);
    EXPECT_EQ(t.hops(0, 5), 1);
    EXPECT_EQ(t.hops(0, 9), 2);
    EXPECT_DOUBLE_EQ(t.bandwidthFactor(0, 3), 1.0);
    EXPECT_DOUBLE_EQ(t.bandwidthFactor(0, 5), 4.0);
    EXPECT_DOUBLE_EQ(t.bandwidthFactor(0, 9), 8.0);
    EXPECT_DOUBLE_EQ(t.extraLatencySeconds(0, 3), 0.0);
    EXPECT_DOUBLE_EQ(t.extraLatencySeconds(0, 5), 5e-6);
    EXPECT_DOUBLE_EQ(t.extraLatencySeconds(0, 9), 25e-6);
    EXPECT_DOUBLE_EQ(t.placementPenalty(0, 9), 1.0);
    EXPECT_DOUBLE_EQ(t.placementPenalty(-1, 9), 0.0);
    // Disabled model: every distance zero, every factor exactly 1.
    Topology flat{TopologyConfig{}};
    EXPECT_FALSE(flat.enabled());
    EXPECT_EQ(flat.hops(0, 9), 0);
    EXPECT_DOUBLE_EQ(flat.bandwidthFactor(0, 9), 1.0);
    EXPECT_DOUBLE_EQ(flat.extraLatencySeconds(0, 9), 0.0);
    // Validation: bad ratios and typo'd hierarchies are rejected.
    TopologyConfig bad = c;
    bad.torOversub = 0.5;
    EXPECT_NE(topologyConfigError(bad), nullptr);
    TopologyConfig inert;
    inert.localityBias = 1.0; // knobs without a rack size
    EXPECT_NE(topologyConfigError(inert), nullptr);
    EXPECT_EQ(topologyConfigError(TopologyConfig{}), nullptr);
    EXPECT_EQ(topologyConfigError(c), nullptr);
}

/** With a locality bias, failover restarts prefer the crashed
 *  machine's rack over an equally-loaded lower-index machine. */
TEST(ClusterSim, LocalityBiasSteersFailoverToSameRack)
{
    // Racks {0,1} and {2,3}; one identical job per machine; m3
    // crashes mid-run. Biased placement restarts its job on m2 (same
    // rack, hops 0); unbiased placement takes m0, the first machine
    // of the argmin tie.
    auto runCase = [&](double bias) {
        std::vector<Machine> pool(4, customX86(8, 1.0));
        ClusterSim::Config cfg;
        cfg.topo.machinesPerRack = 2;
        cfg.topo.localityBias = bias;
        cfg.checkpointPeriod = 2e-3;
        cfg.rebalancePeriod = 1e9; // isolate failover placement
        double d = table().seconds(WorkloadId::CG, ProblemClass::C, 1,
                                   IsaId::Xeno64);
        cfg.crashes = {{0.5 * d, 3, 5e-3}};
        ClusterSim sim(pool, table(), cfg);
        std::vector<Job> jobs;
        for (int i = 0; i < 4; ++i)
            jobs.push_back(mkJob(i, 1, 0.0));
        return sim.run(jobs, Policy::DynamicBalanced);
    };
    ClusterResult biased = runCase(5.0);
    EXPECT_EQ(biased.failovers, 1);
    EXPECT_GT(biased.energyJoules[2], biased.energyJoules[0]);
    ClusterResult blind = runCase(0.0);
    EXPECT_EQ(blind.failovers, 1);
    EXPECT_GT(blind.energyJoules[0], blind.energyJoules[2]);
}

/** Cross-rack migration pays the oversubscription product: the same
 *  schedule over a heavily oversubscribed ToR takes strictly longer
 *  than over the flat interconnect. */
TEST(ClusterSim, CrossRackOversubInflatesMigrationCost)
{
    auto runCase = [&](bool rack) {
        std::vector<Machine> pool = makeX86X86Pool();
        ClusterSim::Config cfg;
        cfg.rebalancePeriod = 0.5e-3;
        if (rack) {
            cfg.topo.machinesPerRack = 1; // every pair crosses the ToR
            cfg.topo.torOversub = 50.0;
            cfg.topo.rackHopUs = 100.0;
        }
        ClusterSim sim(pool, table(), cfg);
        return sim.run(makeSustainedSet(9, 40),
                       Policy::DynamicBalanced);
    };
    ClusterResult flat = runCase(false);
    ClusterResult oversub = runCase(true);
    EXPECT_GT(flat.migrations, 0);
    EXPECT_GT(oversub.makespan, flat.makespan);
}

// --- Correlated failure domains -------------------------------------

TEST(Topology, RackAndPodCutsListDomainMembers)
{
    TopologyConfig c;
    c.machinesPerRack = 4;
    c.racksPerPod = 2;
    Topology t(c);
    FaultCut rack1 = t.rackCut(1, 10, 100, 10);
    EXPECT_EQ(rack1.sideA, (std::vector<int>{4, 5, 6, 7}));
    EXPECT_EQ(rack1.periodMsgs, 100u);
    EXPECT_EQ(rack1.lenMsgs, 10u);
    // A trailing partial rack contributes only the machines that exist.
    EXPECT_EQ(t.rackCut(2, 10, 1, 1).sideA, (std::vector<int>{8, 9}));
    EXPECT_EQ(t.podCut(0, 12, 1, 1).sideA,
              (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(t.podCut(1, 12, 1, 1).sideA,
              (std::vector<int>{8, 9, 10, 11}));
}

/** A ToR outage removes the whole rack from the placement pool at one
 *  instant -- no crashes, no lost work -- and arrivals land on the
 *  surviving rack until the staggered heal readmits the members. */
TEST(ClusterSim, TorOutageIsolatesRackAtomically)
{
    std::vector<Machine> pool(4, customX86(8, 1.0));
    ClusterSim::Config cfg;
    cfg.topo.machinesPerRack = 2;
    cfg.rebalancePeriod = 1e9; // isolate outage-driven placement
    double d = table().seconds(WorkloadId::CG, ProblemClass::C, 1,
                               IsaId::Xeno64);
    DomainOutage out;
    out.kind = DomainKind::Tor;
    out.domain = 1;
    out.time = 0;
    out.healSeconds = 0.25 * d;
    out.staggerSeconds = 0;
    cfg.outages = {out};
    ClusterSim sim(pool, table(), cfg);
    std::vector<Job> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(mkJob(i, 1, 0.0));
    ClusterResult r = sim.run(jobs, Policy::DynamicBalanced);
    EXPECT_EQ(r.isolations, 2);
    EXPECT_EQ(r.crashes, 0) << "isolation is not a crash";
    EXPECT_DOUBLE_EQ(r.lostWorkSeconds, 0.0);
    auto snap = sim.statRegistry().snapshot();
    EXPECT_DOUBLE_EQ(snap.at("xfault.domain_outages"), 1.0);
    EXPECT_DOUBLE_EQ(snap.at("xfault.isolations"), 2.0);
    // All four t=0 jobs landed on the surviving rack {0,1}; the
    // isolated machines only paid idle/sleep power.
    EXPECT_GT(r.energyJoules[0], r.energyJoules[2]);
    EXPECT_GT(r.energyJoules[1], r.energyJoules[3]);
}

/** A PDU outage expands into per-machine crashes whose failovers
 *  avoid the dying rack even against a strong same-rack locality
 *  bias: the rest of the failure domain goes down at the same
 *  instant, so checkpoint-affine placement would be doomed. */
TEST(ClusterSim, PduOutageFailsOverOutsideItsRack)
{
    std::vector<Machine> pool(4, customX86(8, 1.0));
    ClusterSim::Config cfg;
    cfg.topo.machinesPerRack = 2;
    cfg.topo.localityBias = 5.0; // would steer restarts rack-local
    cfg.checkpointPeriod = 2e-3;
    cfg.rebalancePeriod = 1e9;
    double d = table().seconds(WorkloadId::CG, ProblemClass::C, 1,
                               IsaId::Xeno64);
    DomainOutage out;
    out.kind = DomainKind::Pdu;
    out.domain = 1;
    out.time = 0.5 * d;
    out.healSeconds = 5e-3;
    out.staggerSeconds = 1e-3;
    cfg.outages = {out};
    ClusterSim sim(pool, table(), cfg);
    std::vector<Job> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(mkJob(i, 1, 0.0));
    ClusterResult r = sim.run(jobs, Policy::DynamicBalanced);
    EXPECT_EQ(r.crashes, 2);
    EXPECT_EQ(r.failovers, 2);
    EXPECT_EQ(r.isolations, 0);
    // The crash iteration checkpoints before crashPhase runs, so the
    // rolled-back progress is recovered rather than lost.
    EXPECT_GT(r.recoveredWorkSeconds, 0.0);
    // Both failovers landed outside rack 1: machines 0 and 1 each
    // finish their own job plus a restarted one, so each burns more
    // energy than either briefly-crashed rack-1 machine.
    EXPECT_GT(r.energyJoules[0], r.energyJoules[2]);
    EXPECT_GT(r.energyJoules[1], r.energyJoules[3]);
    EXPECT_GT(r.makespan, 0.5 * d);

    // The seeded jitter stream makes the whole schedule replayable:
    // an identical sim produces bit-identical results.
    ClusterSim again(pool, table(), cfg);
    std::vector<Job> jobs2;
    for (int i = 0; i < 4; ++i)
        jobs2.push_back(mkJob(i, 1, 0.0));
    ClusterResult r2 = again.run(jobs2, Policy::DynamicBalanced);
    EXPECT_EQ(r.makespan, r2.makespan);
    EXPECT_EQ(r.totalEnergy, r2.totalEnergy);
    EXPECT_EQ(r.energyJoules, r2.energyJoules);
}

/** Outage expansion runs identically under the event heap and the
 *  stepping oracle: isolation edges, PDU crash legs and staggered
 *  rejoins are bit-identical across drivers. */
TEST(ClusterSim, OutagesMatchSteppingOracle)
{
    auto runCase = [&](bool slow) {
        if (slow)
            setenv("XISA_SLOW_SCHED", "1", 1);
        else
            unsetenv("XISA_SLOW_SCHED");
        std::vector<Machine> pool(4, customX86(8, 1.0));
        ClusterSim::Config cfg;
        cfg.topo.machinesPerRack = 2;
        cfg.checkpointPeriod = 1e-3;
        cfg.rebalancePeriod = 2e-3;
        DomainOutage tor;
        tor.kind = DomainKind::Tor;
        tor.domain = 0;
        tor.time = 1e-3;
        tor.healSeconds = 3e-3;
        tor.staggerSeconds = 0.5e-3;
        DomainOutage pdu;
        pdu.kind = DomainKind::Pdu;
        pdu.domain = 1;
        pdu.time = 2e-3;
        pdu.healSeconds = 2e-3;
        pdu.staggerSeconds = 0.5e-3;
        cfg.outages = {tor, pdu};
        ClusterSim sim(pool, table(), cfg);
        ClusterResult r = sim.run(makeSustainedSet(5, 16),
                                  Policy::DynamicBalanced);
        unsetenv("XISA_SLOW_SCHED");
        return r;
    };
    ClusterResult ev = runCase(false);
    ClusterResult slow = runCase(true);
    EXPECT_EQ(ev.makespan, slow.makespan);
    EXPECT_EQ(ev.totalEnergy, slow.totalEnergy);
    EXPECT_EQ(ev.energyJoules, slow.energyJoules);
    EXPECT_EQ(ev.isolations, slow.isolations);
    EXPECT_EQ(ev.crashes, slow.crashes);
    EXPECT_EQ(ev.failovers, slow.failovers);
    EXPECT_EQ(ev.migrations, slow.migrations);
    EXPECT_GT(ev.isolations, 0);
    EXPECT_GT(ev.crashes, 0);
}

// --- Driver equivalence: event heap vs stepping oracle --------------

struct SweepOutcome {
    ClusterResult r;
    std::map<std::string, double> stats;
};

/** One seeded scenario under either driver. XISA_SLOW_SCHED is
 *  sampled at ClusterSim construction, so toggling it around the
 *  constructor selects the pre-heap stepping loop. */
SweepOutcome
runSweepCase(bool slowOracle, uint64_t seed, Policy p, bool withTopo,
             bool weighted)
{
    if (slowOracle)
        setenv("XISA_SLOW_SCHED", "1", 1);
    else
        unsetenv("XISA_SLOW_SCHED");
    std::vector<Machine> pool;
    for (int i = 0; i < 6; ++i) {
        if (i % 3 == 2)
            pool.push_back(Machine{makeAetherServer(), 0.1, 1.0});
        else
            pool.push_back(Machine{makeXenoServer(), 1.0,
                                   weighted ? 2.0 : 1.0});
    }
    ClusterSim::Config cfg;
    cfg.rebalancePeriod = 1e-3;
    cfg.checkpointPeriod = 1e-3;
    cfg.sleepFraction = 0.4;
    // Includes a back-to-back failure (2.5 ms hits a machine that is
    // down until 5 ms) so the deferral path is compared too.
    cfg.crashes = {{1e-3, 1, 4e-3}, {2.5e-3, 1, 2e-3},
                   {3e-3, 4, 3e-3}};
    if (withTopo) {
        cfg.topo.machinesPerRack = 2;
        cfg.topo.racksPerPod = 2;
        cfg.topo.torOversub = 4.0;
        cfg.topo.aggOversub = 2.0;
        cfg.topo.rackHopUs = 5.0;
        cfg.topo.aggHopUs = 20.0;
        cfg.topo.localityBias = 0.5;
    }
    ClusterSim sim(pool, table(), cfg);
    SweepOutcome out;
    out.r = sim.run(makeSustainedSet(seed, 24), p);
    out.stats = sim.statRegistry().snapshot();
    unsetenv("XISA_SLOW_SCHED");
    return out;
}

/** Bit-identical, not approximately equal: both drivers share every
 *  state-mutation helper and differ only in how they find the next
 *  instant, so == on doubles is the contract (DESIGN.md §11). */
void
expectSameOutcome(const SweepOutcome &ev, const SweepOutcome &slow,
                  const std::string &label)
{
    EXPECT_EQ(ev.r.energyJoules, slow.r.energyJoules) << label;
    EXPECT_EQ(ev.r.totalEnergy, slow.r.totalEnergy) << label;
    EXPECT_EQ(ev.r.makespan, slow.r.makespan) << label;
    EXPECT_EQ(ev.r.edp, slow.r.edp) << label;
    EXPECT_EQ(ev.r.migrations, slow.r.migrations) << label;
    EXPECT_EQ(ev.r.avgTurnaround, slow.r.avgTurnaround) << label;
    EXPECT_EQ(ev.r.crashes, slow.r.crashes) << label;
    EXPECT_EQ(ev.r.failovers, slow.r.failovers) << label;
    EXPECT_EQ(ev.r.lostWorkSeconds, slow.r.lostWorkSeconds) << label;
    EXPECT_EQ(ev.r.recoveredWorkSeconds, slow.r.recoveredWorkSeconds)
        << label;
    EXPECT_EQ(ev.r.restartCounts, slow.r.restartCounts) << label;
    EXPECT_EQ(ev.stats, slow.stats) << label;
}

TEST(ClusterSim, EventCoreMatchesSteppingOracleAcrossSeeds)
{
    for (uint64_t seed : {11u, 12u, 13u}) {
        for (Policy p :
             {Policy::StaticBalanced, Policy::StaticUnbalanced,
              Policy::DynamicBalanced, Policy::DynamicUnbalanced}) {
            for (bool topo : {false, true}) {
                for (bool weighted : {false, true}) {
                    SweepOutcome ev =
                        runSweepCase(false, seed, p, topo, weighted);
                    SweepOutcome slow =
                        runSweepCase(true, seed, p, topo, weighted);
                    expectSameOutcome(
                        ev, slow,
                        "seed=" + std::to_string(seed) + " policy=" +
                            policyName(p) +
                            (topo ? " topo" : " flat") +
                            (weighted ? " weighted" : " uniform"));
                }
            }
        }
    }
}

} // namespace
} // namespace xisa
