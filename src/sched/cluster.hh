/**
 * @file
 * Cluster-level scheduling simulation (Section 6 "Job Scheduling",
 * Figs. 12 and 13), event-driven (DESIGN.md §11).
 *
 * The paper compares, over randomized job sets:
 *  - static policies that assign jobs at arrival and can never move
 *    them: two identical x86 servers (the baseline), or an x86+ARM pair
 *    balanced / unbalanced by thread count;
 *  - dynamic policies enabled by heterogeneous-ISA migration: balanced
 *    and unbalanced (x86 kept busier), re-evaluated periodically with
 *    jobs migrating between the servers.
 *
 * Machines accrue energy through the utilization-proportional power
 * model; an idle machine drops into a low-power state (the
 * consolidation premise of Section 2). The ARM machine's power can be
 * scaled by the McPAT FinFET projection (x0.1), as in the paper's
 * evaluation. Migration charges a cost derived from the measured
 * stack-transformation latency plus working-set transfer over the
 * interconnect model, inflated by the rack/pod topology when one is
 * configured.
 *
 * The simulator is a true discrete-event core: every running job
 * carries an absolute completion timestamp (recomputed only when it is
 * (re)placed), completions and reboots live in an indexed min-heap,
 * and energy accrues lazily per machine between its own state changes.
 * The pre-heap stepping loop survives behind XISA_SLOW_SCHED=1 as a
 * differential oracle: both drivers share every state-mutation helper,
 * so their ClusterResult, stdout, and stats JSON are bit-identical.
 */

#ifndef XISA_SCHED_CLUSTER_HH
#define XISA_SCHED_CLUSTER_HH

#include <map>
#include <vector>

#include "dsm/interconnect.hh"
#include "machine/node.hh"
#include "obs/registry.hh"
#include "sched/profile.hh"
#include "sched/topology.hh"

namespace xisa {

/** One server in the pool. */
struct Machine {
    NodeSpec spec;
    /** Technology scale on power (0.1 = FinFET-projected ARM). */
    double powerScale = 1.0;
    /** Relative load weight for unbalanced policies (x86 > ARM). */
    double loadWeight = 1.0;
};

/** One job of the workload mix. */
struct Job {
    int id = 0;
    WorkloadId wl = WorkloadId::CG;
    ProblemClass cls = ProblemClass::A;
    int threads = 1;
    double arrival = 0; ///< seconds
};

/** Scheduling policies of the paper's comparison. */
enum class Policy {
    StaticBalanced,    ///< assign at arrival, balance threads, no moves
    StaticUnbalanced,  ///< assign at arrival, weight-biased, no moves
    DynamicBalanced,   ///< balance threads; migrate to rebalance
    DynamicUnbalanced, ///< weight-biased; migrate to rebalance
};

const char *policyName(Policy p);

/** One machine failure: at `time`, `machine` dies and stays down for
 *  `downSeconds` (power drops to zero, its work is lost back to the
 *  last checkpoint). A crash aimed at a machine that is already down
 *  is deferred to its reboot instant (back-to-back failure); the
 *  deferral is counted by `sched.crashes_deferred`. */
struct CrashEvent {
    double time = 0;
    int machine = 0;
    double downSeconds = 30.0;
    /** >= 0 when this crash is one leg of a rack-level correlated
     *  outage (DomainOutage expansion): failover placement then
     *  prefers a machine OUTSIDE this rack -- the rest of the failure
     *  domain is going down at the same instant, so the locality bias
     *  toward the checkpoint's rack would steer restarts onto doomed
     *  machines. -1 (every scripted [crashes] event) keeps the legacy
     *  rack-blind/rack-seeking placement bit-identical. */
    int avoidRack = -1;
};

/** Failure-domain kind of one correlated outage. */
enum class DomainKind : uint8_t {
    Tor, ///< ToR switch dies: the rack is isolated, machines keep
         ///< running local work but accept no placements
    Agg, ///< aggregation switch dies: the whole pod is isolated
    Pdu, ///< power distribution unit dies: the rack loses power
         ///< (machines crash, work rolls back to the checkpoint)
};

/**
 * One correlated failure event: at `time`, every machine in the named
 * failure domain (rack for Tor/Pdu, pod for Agg) fails ATOMICALLY --
 * one timestamp, all members. Recovery is deliberately not atomic:
 * member k of the domain comes back at
 * `time + healSeconds + k * staggerSeconds + jitter`, where jitter is
 * drawn uniformly from [0, staggerSeconds) out of a stream seeded by
 * `seed` -- a staggered reboot storm with seeded restart backoff, so a
 * rack powering back on does not thundering-herd the scheduler with
 * simultaneous rejoins. Requires a [topology] (the domain indices are
 * meaningless on a flat pool).
 */
struct DomainOutage {
    DomainKind kind = DomainKind::Tor;
    /** Rack index (Tor/Pdu) or pod index (Agg). */
    int domain = 0;
    double time = 0;
    /** Base outage length; member k heals staggered after this. */
    double healSeconds = 30.0;
    /** Per-member reboot spacing (and jitter bound), seconds. */
    double staggerSeconds = 0.5;
    /** Seeds the per-member restart-backoff jitter stream. */
    uint64_t seed = 0xd04a11ull;
};

/** Result of simulating one job set under one policy. */
struct ClusterResult {
    std::vector<double> energyJoules; ///< per machine
    double totalEnergy = 0;
    double makespan = 0;
    double edp = 0; ///< totalEnergy * makespan
    int migrations = 0;
    double avgTurnaround = 0;
    // Fault/recovery outcome (all zero on a fault-free run).
    int crashes = 0;
    int failovers = 0; ///< restarts placed on a different machine
    /** Machines taken off the placement pool by ToR/agg isolation
     *  outages (running work continued; nothing was lost). */
    int isolations = 0;
    double lostWorkSeconds = 0; ///< progress discarded to checkpoints
    /** Progress the checkpoints preserved across crashes: work the
     *  restarted jobs did NOT have to redo. */
    double recoveredWorkSeconds = 0;
    std::map<int, int> restartCounts; ///< job id -> restarts
};

/** Discrete-event cluster simulator. */
class ClusterSim
{
  public:
    struct Config {
        /** Rebalance period for dynamic policies (seconds). */
        double rebalancePeriod = 1.0;
        /** Fixed per-migration overhead (stack transformation, context
         *  message, scheduler latency), seconds. */
        double migrationFixedSeconds = 0.05;
        /** Working set shipped on migration, bytes per class unit
         *  (multiplied by classScale). */
        double workingSetBytesPerScale = 2.0 * 1024 * 1024;
        /** Power drawn by an idle machine, as a fraction of idle
         *  power. 1.0 matches the paper's testbed (machines stay up
         *  for the whole experiment); lower values model the
         *  consolidation low-power states of Section 2. */
        double sleepFraction = 1.0;
        /** Link model; net.faults makes migration transfers lossy
         *  (retries inflate the charged migration cost). */
        Interconnect::Config net;
        /** Rack/pod hierarchy shaping migration and failover costs;
         *  default-constructed = flat (bit-identical to no model). */
        TopologyConfig topo;
        /** Machine failures to inject (empty = immortal machines; the
         *  fault-free event sequence is then bit-identical to a build
         *  without the fault layer). */
        std::vector<CrashEvent> crashes;
        /** Correlated failure-domain outages (ToR/agg isolation, PDU
         *  power loss). Pdu outages expand into staggered per-machine
         *  CrashEvents at run start; Tor/Agg outages isolate their
         *  members (no placements in or out, running work continues)
         *  until a staggered rejoin. Empty = no domain failures, and
         *  the simulator is bit-identical to a build without them. */
        std::vector<DomainOutage> outages;
        /** Jobs checkpoint this often (seconds); on a crash they
         *  restart from the last checkpoint. Only active when crashes
         *  are scheduled. */
        double checkpointPeriod = 5.0;
    };

    ClusterSim(std::vector<Machine> machines,
               const JobProfileTable &profiles)
        : ClusterSim(std::move(machines), profiles, Config())
    {}
    ClusterSim(std::vector<Machine> machines,
               const JobProfileTable &profiles, Config cfg);

    /** Simulate one job set under one policy. */
    ClusterResult run(const std::vector<Job> &jobs, Policy policy);

    /** This simulator's stat registry: cumulative `sched.*` counters
     *  across every run() call on this instance. */
    obs::StatRegistry &statRegistry() { return stats_; }

    /** Events processed across every run() (the `sched.events`
     *  counter): the numerator of the events/sec throughput gate. */
    uint64_t eventsProcessed() const { return eventsStat_.value(); }

  private:
    struct RunningJob {
        Job job;
        double durationHere = 0; ///< full-job seconds on this machine
        /** Absolute completion instant; recomputed only when the job
         *  is (re)placed, never decremented per step. */
        double endTime = 0;
        double startedAt = 0;
        /** Fraction still to run as of the last checkpoint/placement
         *  (restart target, on THIS machine's clock). */
        double ckptRemaining = 1.0;
        /** Completion event handle (event driver; -1 under the
         *  stepping oracle). */
        int evHandle = -1;
    };
    struct MachineState {
        std::vector<RunningJob> running;
        std::vector<Job> queue;
        /** Checkpointed jobs waiting to restart (crash recovery). */
        std::vector<RunningJob> restartQueue;
        // Thread bookkeeping (running + queued) lives in the Run's
        // compact per-machine arrays, not here: the placement and
        // rebalance scans walk every machine, and at fleet scale
        // striding through these fat structs is the scans' whole cost.
        double energy = 0;
        /** Last instant energy was accrued to (lazy accrual). */
        double energyMark = 0;
        /** Down right now (power 0, no placements). */
        bool down = false;
    };

    /** Per-run() engine state shared by both drivers (cluster.cc). */
    struct Run;

    int capacity(int m) const;
    bool dynamic(Policy p) const
    {
        return p == Policy::DynamicBalanced ||
               p == Policy::DynamicUnbalanced;
    }
    /** Checkpoint-image transfer cost from `from` to `to` (-1 from =
     *  fresh admission: flat link, no topology inflation). */
    double migrationCost(const Job &job, int from, int to);
    /** Interned trace span name of a job, cached per job id (restarts
     *  and rebalances re-begin the span without re-interning). */
    const char *jobSpanName(int id);

    std::vector<Machine> machines_;
    const JobProfileTable &profiles_;
    Config cfg_;
    Topology topo_;
    /** XISA_SLOW_SCHED sampled at construction: run() uses the
     *  stepping oracle instead of the event heap. */
    bool slowSched_ = false;

    /** Declared before the counters so they detach from a live
     *  registry on destruction. */
    obs::StatRegistry stats_;
    /** Link used for migration/restart transfer costs; carries the
     *  fault plan of cfg_.net.faults across every run(). */
    Interconnect net_;
    obs::Counter jobsStarted_;
    obs::Counter jobsCompleted_;
    obs::Counter enqueues_;
    obs::Counter migrationsStat_;
    obs::Counter rebalanceTicks_;
    /** Simulation events processed (loop iterations; identical for
     *  both drivers by construction). */
    obs::Counter eventsStat_;
    /** Rebalance ticks whose move budget was exhausted before the
     *  pool balanced (the truncation the old fixed 64-move cap hid). */
    obs::Counter rebalanceCapStat_;
    // Fault/recovery counters (xfault.*).
    obs::Counter crashesStat_;
    obs::Counter failoversStat_;
    obs::Counter restartsStat_;
    obs::Counter checkpointsStat_;
    /** Crash events that found their machine already down and were
     *  deferred to its reboot instant. */
    obs::Counter crashesDeferredStat_;
    /** Correlated outage events processed (one per DomainOutage). */
    obs::Counter domainOutagesStat_;
    /** Machines isolated by ToR/agg outages (members x events). */
    obs::Counter isolationsStat_;
    obs::Gauge lostSecondsStat_;
    obs::Gauge recoveredSecondsStat_;

    std::map<int, const char *> jobSpanNames_; ///< job id -> interned
};

} // namespace xisa

#endif // XISA_SCHED_CLUSTER_HH
