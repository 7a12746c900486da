#include "sched/cluster.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include "check/audit.hh"
#include "check/perturb.hh"
#include "obs/trace.hh"
#include "sched/events.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace xisa {

namespace {
/** Viewer track for one job's lifetime span (start -> completion). */
constexpr int kJobTrackBase = 1000;

/** Events within this window of the chosen instant process together
 *  (absorbs last-bit float noise in computed timestamps). */
constexpr double kEps = 1e-9;

/** XISA_PERTURB overlay for the cluster link, applied before net_ is
 *  constructed from the stored config. */
ClusterSim::Config
perturbedClusterConfig(ClusterSim::Config cfg)
{
    if (check::SchedulePerturber::enabled())
        cfg.net.faults = check::SchedulePerturber::perturbFaults(
            cfg.net.faults,
            check::SchedulePerturber::envSeed() ^ 0x636c7573ull);
    return cfg;
}

/** `jobs` if already in arrival order, else a stable-sorted copy of it
 *  in `copy` -- the same sequence either way. */
const std::vector<Job> &
inArrivalOrder(const std::vector<Job> &jobs, std::vector<Job> &copy)
{
    auto byArrival = [](const Job &a, const Job &b) {
        return a.arrival < b.arrival;
    };
    if (std::is_sorted(jobs.begin(), jobs.end(), byArrival))
        return jobs;
    copy = jobs;
    std::stable_sort(copy.begin(), copy.end(), byArrival);
    return copy;
}
} // namespace

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::StaticBalanced: return "static-balanced";
      case Policy::StaticUnbalanced: return "static-unbalanced";
      case Policy::DynamicBalanced: return "dynamic-balanced";
      case Policy::DynamicUnbalanced: return "dynamic-unbalanced";
    }
    return "?";
}

ClusterSim::ClusterSim(std::vector<Machine> machines,
                       const JobProfileTable &profiles, Config cfg)
    : machines_(std::move(machines)), profiles_(profiles),
      cfg_(perturbedClusterConfig(std::move(cfg))), topo_(cfg_.topo),
      slowSched_(slowSchedRequested()), net_(cfg_.net)
{
    if (machines_.empty())
        fatal("ClusterSim needs at least one machine");
    if (const char *err = topologyConfigError(cfg_.topo))
        fatal("cluster topology: %s", err);
    for (const CrashEvent &ev : cfg_.crashes) {
        if (ev.machine < 0 ||
            ev.machine >= static_cast<int>(machines_.size()))
            fatal("crash event names machine %d of %zu", ev.machine,
                  machines_.size());
        if (!(ev.downSeconds > 0))
            fatal("crash event downSeconds must be > 0 (got %g)",
                  ev.downSeconds);
    }
    if (!cfg_.outages.empty() && !topo_.enabled())
        fatal("domain outages need a [topology] (rack/pod indices "
              "are meaningless on a flat pool)");
    const int numRacks =
        topo_.enabled() ? topo_.rackOf(static_cast<int>(
                              machines_.size() - 1)) + 1
                        : 0;
    const int numPods =
        topo_.enabled() ? topo_.podOf(static_cast<int>(
                              machines_.size() - 1)) + 1
                        : 0;
    for (const DomainOutage &ev : cfg_.outages) {
        const bool pod = ev.kind == DomainKind::Agg;
        const int domains = pod ? numPods : numRacks;
        if (ev.domain < 0 || ev.domain >= domains)
            fatal("domain outage names %s %d of %d",
                  pod ? "pod" : "rack", ev.domain, domains);
        if (!(ev.healSeconds > 0))
            fatal("domain outage healSeconds must be > 0 (got %g)",
                  ev.healSeconds);
        if (ev.staggerSeconds < 0)
            fatal("domain outage staggerSeconds must be >= 0 (got %g)",
                  ev.staggerSeconds);
    }
    stats_.attach("sched.jobs_started", jobsStarted_);
    stats_.attach("sched.jobs_completed", jobsCompleted_);
    stats_.attach("sched.enqueues", enqueues_);
    stats_.attach("sched.migrations", migrationsStat_);
    stats_.attach("sched.rebalance_ticks", rebalanceTicks_);
    stats_.attach("sched.events", eventsStat_);
    stats_.attach("sched.rebalance_moves_capped", rebalanceCapStat_);
    stats_.attach("xfault.crashes", crashesStat_);
    stats_.attach("xfault.failovers", failoversStat_);
    stats_.attach("xfault.restarts", restartsStat_);
    stats_.attach("xfault.checkpoints", checkpointsStat_);
    stats_.attach("xfault.crashes_deferred", crashesDeferredStat_);
    stats_.attach("xfault.domain_outages", domainOutagesStat_);
    stats_.attach("xfault.isolations", isolationsStat_);
    stats_.attach("xfault.lost_seconds", lostSecondsStat_);
    stats_.attach("xfault.recovered_seconds", recoveredSecondsStat_);
    net_.registerStats(stats_, "net");
}

int
ClusterSim::capacity(int m) const
{
    return machines_[static_cast<size_t>(m)].spec.cores;
}

double
ClusterSim::migrationCost(const Job &job, int from, int to)
{
    double bytes =
        cfg_.workingSetBytesPerScale * classScale(job.cls);
    // The working-set transfer is one message on the link: counted in
    // net.*, and on a lossy link it pays real retries/backoff from the
    // seeded plan (seconds only; no core clock involved).
    const double transfer =
        net_.reliableSend(static_cast<uint64_t>(bytes), 1.0).seconds;
    // Intra-rack (or no topology): the flat link cost, bit-identical
    // to the pre-topology arithmetic. Crossing switch boundaries
    // stretches the transfer by the oversubscription product and adds
    // the path latency; the fixed CPU-side overhead is unaffected.
    if (from < 0 || to < 0 || topo_.hops(from, to) == 0)
        return cfg_.migrationFixedSeconds + transfer;
    return cfg_.migrationFixedSeconds +
           transfer * topo_.bandwidthFactor(from, to) +
           topo_.extraLatencySeconds(from, to);
}

const char *
ClusterSim::jobSpanName(int id)
{
    const char *&span = jobSpanNames_[id];
    if (!span)
        span = obs::intern("job" + std::to_string(id));
    return span;
}

/**
 * One run()'s worth of engine state, shared by the two drivers.
 *
 * Both drivers step through identical (timestamp, phase) sequences:
 * they differ ONLY in how the next event time and the set of machines
 * with due completions/reboots are discovered (indexed heap vs full
 * rescan). Every state mutation -- starts, completions, checkpoints,
 * crashes, restarts, migrations, energy accrual -- lives in a method
 * here that both drivers call at the same instants with the same
 * arguments, which is what makes the ClusterResult, stdout, and stats
 * JSON of the two engines bit-identical (the property the equivalence
 * sweep in test_sched.cc pins).
 *
 * Phase order at one timestamp (the documented tie-break contract,
 * DESIGN.md §11):
 *   1. reboots (machines in ascending index)
 *   2. completions (machines ascending; same-machine jobs in
 *      placement order), each machine then admitting queued work
 *   3. checkpoint epoch
 *   4. crash injections (plan order)
 *   5. arrivals (plan order)
 *   6. rebalance tick
 */
struct ClusterSim::Run {
    ClusterSim &S;
    Policy policy;
    bool isDynamic;
    /** False under XISA_SLOW_SCHED: heap maintenance is skipped and
     *  the stepping driver rescans instead. */
    bool useHeap;

    std::vector<MachineState> st;
    /** The job set in arrival order: the caller's own vector when it
     *  is already sorted (the set generators emit it so), else a
     *  stable-sorted copy held in `sortedJobs`. */
    std::vector<Job> sortedJobs;
    const std::vector<Job> &arrivals;
    size_t next = 0; ///< arrival cursor
    double now = 0;
    double nextTick;
    int migrations = 0;
    double turnaroundSum = 0;
    size_t completed = 0;
    double lastCompletion = 0;

    // Fault machinery: dormant (and event-sequence-identical to the
    // fault-free simulator) unless crash events are configured.
    std::vector<CrashEvent> crashes;
    size_t nextCrash = 0; ///< crash cursor (deferrals re-insert here)
    bool faulty = false;
    double nextCkpt;
    std::vector<double> downUntil;
    /** In the load index (placeable): !down && !isolated. Every
     *  bumpUsed/bumpQueued consults this to keep the index honest. */
    std::vector<char> alive;
    int crashCount = 0;
    int failovers = 0;
    double lostWork = 0;
    double recoveredWork = 0;
    std::map<int, int> restartCounts;

    /** One ToR/agg isolation edge: at `time`, `machine` leaves
     *  (start) or rejoins (heal) the reachable set. Expanded from
     *  DomainOutage at run start into a (time, machine)-sorted stream
     *  both drivers consume through one cursor -- starts share the
     *  outage instant (atomic isolation), heals are staggered. */
    struct IsoEvent {
        double time = 0;
        int machine = 0;
        bool start = true;
    };
    std::vector<IsoEvent> isoEvents;
    size_t nextIso = 0;
    /** Currently isolated (unreachable but powered: jobs keep
     *  running, queues stay parked, no placements in or out). */
    std::vector<char> isolated;
    /** Scheduled rejoin instant of an isolated machine (parking
     *  heuristic when the whole pool is unavailable). */
    std::vector<double> isolatedUntil;
    int isoCount = 0; ///< machines isolated (members x events)

    /** Compact per-machine thread counters (sum of running[].threads
     *  and queue[].threads). They live here rather than in
     *  MachineState because pickMachine and the rebalance hi/lo scans
     *  walk every machine per call: striding through the fat
     *  MachineState structs made those scans cache-bound at fleet
     *  scale, and two flat int arrays keep 1000 machines inside L1. */
    std::vector<int> usedThreads;
    std::vector<int> queuedThreads;
    /** Every machine has the same loadWeight: placement scores order
     *  exactly like the raw integer thread counts, so pickMachine can
     *  skip the per-candidate division. */
    bool uniformWeights;

    /** Jobs currently running, cluster-wide (gates the checkpoint and
     *  rebalance candidates without a machine scan). */
    int runningCount = 0;
    /** Entries sitting in queues + restartQueues, cluster-wide (the
     *  O(1) anyWork test). */
    size_t parkedJobs = 0;

    /**
     * Incremental argmin/argmax index over the alive machines'
     * integer thread loads: one machine-bitmap bucket per load value
     * plus min/max cursors. Placement and the rebalance hi/lo picks
     * become a first-set-bit scan of one bucket (~words ops) instead
     * of an O(machines) array scan per query -- the difference
     * between the event core and the old stepping loop at fleet
     * scale. Every used/queued mutation routes through bumpUsed /
     * bumpQueued so the index never goes stale; down machines are
     * removed outright and re-added at reboot, so every bucket holds
     * alive machines only. Queries return the lowest set index, which
     * is exactly the first-lowest-index tie-break of the scans they
     * replace.
     */
    struct LoadIndex {
        int words = 0;   ///< 64-bit words per bucket
        int buckets = 0; ///< allocated load values [0, buckets)
        std::vector<uint64_t> bits; ///< bucket-major bitmaps
        std::vector<int> cnt;       ///< alive machines per bucket
        int minL = 0, maxL = 0;     ///< tight when aliveCnt > 0
        int aliveCnt = 0;

        void init(int machines)
        {
            words = (machines + 63) / 64;
            buckets = 1;
            bits.assign(static_cast<size_t>(words), 0);
            cnt.assign(1, 0);
            minL = maxL = aliveCnt = 0;
        }
        /** Bucket-major layout: growing appends zeroed buckets past
         *  the end, leaving existing buckets' words in place. */
        void grow(int v)
        {
            if (v < buckets)
                return;
            int nb = std::max(v + 1, buckets * 2);
            bits.resize(static_cast<size_t>(nb) * words, 0);
            cnt.resize(static_cast<size_t>(nb), 0);
            buckets = nb;
        }
        uint64_t *bucket(int v)
        {
            return bits.data() + static_cast<size_t>(v) * words;
        }
        const uint64_t *bucket(int v) const
        {
            return bits.data() + static_cast<size_t>(v) * words;
        }
        /** Machine `m` joins the alive set at load `v` (reboot /
         *  construction). */
        void add(int m, int v)
        {
            grow(v);
            bucket(v)[m >> 6] |= 1ull << (m & 63);
            ++cnt[v];
            if (aliveCnt == 0) {
                minL = maxL = v;
            } else {
                minL = std::min(minL, v);
                maxL = std::max(maxL, v);
            }
            ++aliveCnt;
        }
        /** Machine `m` (at load `v`) leaves the alive set (crash). */
        void del(int m, int v)
        {
            bucket(v)[m >> 6] &= ~(1ull << (m & 63));
            --cnt[v];
            --aliveCnt;
            if (aliveCnt > 0) {
                while (cnt[minL] == 0)
                    ++minL;
                while (cnt[maxL] == 0)
                    --maxL;
            }
        }
        /** Alive machine `m` changes load `a` -> `b`. */
        void move(int m, int a, int b)
        {
            bucket(a)[m >> 6] &= ~(1ull << (m & 63));
            --cnt[a];
            grow(b);
            bucket(b)[m >> 6] |= 1ull << (m & 63);
            ++cnt[b];
            if (b < minL)
                minL = b;
            else
                while (cnt[minL] == 0)
                    ++minL;
            if (b > maxL)
                maxL = b;
            else
                while (cnt[maxL] == 0)
                    --maxL;
        }
        /** Lowest machine index in bucket `v`, optionally restricted
         *  to machines set in `inc` and clear in `exc` (nullable). */
        int firstIn(int v, const uint64_t *inc = nullptr,
                    const uint64_t *exc = nullptr) const
        {
            const uint64_t *w = bucket(v);
            for (int i = 0; i < words; ++i) {
                uint64_t x = w[i];
                if (inc)
                    x &= inc[i];
                if (exc)
                    x &= ~exc[i];
                if (x)
                    return i * 64 + __builtin_ctzll(x);
            }
            return -1;
        }
        int argmin() const { return aliveCnt ? firstIn(minL) : -1; }
        int argmax() const { return aliveCnt ? firstIn(maxL) : -1; }
    };
    LoadIndex lidx;

    /** Precomputed tree coordinates (topology enabled only): the
     *  biased receiver query reads these instead of paying rackOf/
     *  podOf's integer divisions. */
    std::vector<int> rackIdx, podIdx;
    /** Per-rack / per-pod machine bitmaps (lidx.words words each,
     *  rack-major): the biased receiver query intersects them with
     *  load buckets to split candidates by hop count. */
    std::vector<uint64_t> rackMask, podMask;

    EventHeap heap;
    uint64_t placeSeq = 0;
    /** Machines whose capacity was freed by a phase that runs after
     *  the admission pass (rebalance migrating work away): the next
     *  timestamp's admission pass must visit them, exactly when the
     *  stepping driver's all-machine scan would. */
    std::vector<int> pendingWake;
    std::vector<int> due; ///< scratch: machines to admit this step

    bool auditing;

    Run(ClusterSim &sim, const std::vector<Job> &jobs, Policy p)
        : S(sim), policy(p), isDynamic(sim.dynamic(p)),
          useHeap(!sim.slowSched_), st(sim.machines_.size()),
          arrivals(inArrivalOrder(jobs, sortedJobs)),
          nextTick(sim.cfg_.rebalancePeriod),
          crashes(sim.cfg_.crashes),
          nextCkpt(sim.cfg_.checkpointPeriod),
          downUntil(sim.machines_.size(), 0.0),
          alive(sim.machines_.size(), 1),
          auditing(check::auditRequested())
    {
        usedThreads.assign(sim.machines_.size(), 0);
        queuedThreads.assign(sim.machines_.size(), 0);
        isolated.assign(sim.machines_.size(), 0);
        isolatedUntil.assign(sim.machines_.size(), 0.0);
        uniformWeights = true;
        for (const Machine &m : sim.machines_)
            uniformWeights &=
                m.loadWeight == sim.machines_.front().loadWeight;
        lidx.init(static_cast<int>(sim.machines_.size()));
        for (size_t m = 0; m < sim.machines_.size(); ++m)
            lidx.add(static_cast<int>(m), 0);
        if (S.topo_.enabled()) {
            rackIdx.resize(sim.machines_.size());
            podIdx.resize(sim.machines_.size());
            for (size_t m = 0; m < sim.machines_.size(); ++m) {
                rackIdx[m] = S.topo_.rackOf(static_cast<int>(m));
                podIdx[m] = S.topo_.podOf(static_cast<int>(m));
            }
            const size_t W = static_cast<size_t>(lidx.words);
            rackMask.assign(
                (static_cast<size_t>(rackIdx.back()) + 1) * W, 0);
            podMask.assign(
                (static_cast<size_t>(podIdx.back()) + 1) * W, 0);
            for (size_t m = 0; m < sim.machines_.size(); ++m) {
                const uint64_t bit = 1ull << (m & 63);
                rackMask[static_cast<size_t>(rackIdx[m]) * W +
                         (m >> 6)] |= bit;
                podMask[static_cast<size_t>(podIdx[m]) * W +
                        (m >> 6)] |= bit;
            }
        }
        // Expand correlated outages before the crash sort: Pdu events
        // become per-machine CrashEvents (atomic down at the outage
        // instant, staggered seeded reboots) so every crash/restart
        // path -- deferral, rollback, failover, reboot -- applies
        // unchanged; Tor/Agg events become isolation edges consumed
        // by isolationPhase. Both drivers run this same expansion.
        const int M = static_cast<int>(sim.machines_.size());
        for (const DomainOutage &ev : sim.cfg_.outages) {
            Rng jitter(ev.seed);
            int lo, hi; // member machine range [lo, hi)
            if (ev.kind == DomainKind::Agg) {
                const int rpp = S.topo_.config().racksPerPod;
                const int mpp =
                    rpp > 0
                        ? rpp * S.topo_.config().machinesPerRack
                        : M;
                lo = ev.domain * mpp;
                hi = std::min(M, lo + mpp);
            } else {
                const int mpr = S.topo_.config().machinesPerRack;
                lo = ev.domain * mpr;
                hi = std::min(M, lo + mpr);
            }
            for (int m = lo; m < hi; ++m) {
                // Member k rejoins at heal + k*stagger + seeded
                // jitter: the reboot storm is spread out instead of
                // thundering-herding the admission pass.
                const int k = m - lo;
                const double jit =
                    ev.staggerSeconds > 0
                        ? jitter.uniform(0.0, ev.staggerSeconds)
                        : 0.0;
                const double held =
                    ev.healSeconds + k * ev.staggerSeconds + jit;
                if (ev.kind == DomainKind::Pdu) {
                    CrashEvent c;
                    c.time = ev.time;
                    c.machine = m;
                    c.downSeconds = held;
                    c.avoidRack = S.topo_.rackOf(m);
                    crashes.push_back(c);
                } else {
                    isoEvents.push_back({ev.time, m, true});
                    isoEvents.push_back({ev.time + held, m, false});
                    isolatedUntil[static_cast<size_t>(m)] = std::max(
                        isolatedUntil[static_cast<size_t>(m)],
                        ev.time + held);
                }
            }
            ++S.domainOutagesStat_;
        }
        std::stable_sort(isoEvents.begin(), isoEvents.end(),
                         [](const IsoEvent &a, const IsoEvent &b) {
                             return a.time != b.time
                                        ? a.time < b.time
                                        : a.machine < b.machine;
                         });
        std::stable_sort(crashes.begin(), crashes.end(),
                         [](const CrashEvent &a, const CrashEvent &b) {
                             return a.time < b.time;
                         });
        faulty = !crashes.empty();
        // XISA_PERTURB: jitter crash instants around their configured
        // times, exploring crash-vs-checkpoint and crash-vs-migration
        // races the scripted plan would never hit.
        if (faulty && check::SchedulePerturber::enabled()) {
            check::SchedulePerturber pert(
                check::SchedulePerturber::envSeed() ^ 0x6372617368ull);
            for (CrashEvent &ev : crashes)
                ev.time = std::max(
                    0.0, ev.time + pert.jitterSeconds(
                                       0.5 * S.cfg_.checkpointPeriod));
            std::stable_sort(
                crashes.begin(), crashes.end(),
                [](const CrashEvent &a, const CrashEvent &b) {
                    return a.time < b.time;
                });
        }
    }

    int cap(int m) const { return S.capacity(m); }

    /** Fraction of `rj` still to run as of `now` (derived from the
     *  absolute endTime; never decremented step-by-step). */
    double remainingAt(const RunningJob &rj) const
    {
        return (rj.endTime - now) / rj.durationHere;
    }

    /**
     * Lazy energy: charge machine `m` for [energyMark, now) at the
     * power level of the state it held over that whole interval, and
     * move the mark. Called by every mutator that is about to change
     * what the machine draws (run set, down flag), and once at the end
     * of the run; between those instants the machine's power is
     * constant, so one multiply replaces the old per-event accrual
     * over every machine.
     */
    void accrue(size_t m)
    {
        MachineState &ms = st[m];
        double dt = now - ms.energyMark;
        const Machine &mach = S.machines_[m];
        double power;
        if (ms.down) {
            power = 0; // crashed: drawing nothing, doing nothing
        } else if (ms.running.empty()) {
            // Queued-but-unstarted work keeps no core awake: sleep
            // power. (The pre-event-core loop charged active-idle
            // whenever the queue was non-empty -- a machine parked
            // behind a too-wide job paid full idle forever.)
            power = mach.spec.idleWatts * S.cfg_.sleepFraction *
                    mach.powerScale;
        } else {
            double util = std::min(
                1.0, usedThreads[m] /
                         static_cast<double>(cap(static_cast<int>(m))));
            power = mach.spec.power(util, mach.powerScale);
        }
        ms.energy += power * dt;
        ms.energyMark = now;
    }

    void scheduleCompletion(RunningJob &rj, int m)
    {
        if (!useHeap)
            return;
        rj.evHandle = heap.push(
            SchedEvent{rj.endTime, EvKind::Completion, m, placeSeq++});
    }

    void cancelCompletion(RunningJob &rj)
    {
        if (!useHeap || rj.evHandle < 0)
            return;
        heap.erase(rj.evHandle);
        rj.evHandle = -1;
    }

    /** All used/queued-thread mutations route through these two so
     *  the load index tracks every change. Down machines are not
     *  indexed (the crash removed them; the reboot re-adds them at
     *  their then-current load), so their array updates skip the
     *  index. */
    void bumpUsed(size_t m, int d)
    {
        if (alive[m])
            lidx.move(static_cast<int>(m),
                      usedThreads[m] + queuedThreads[m],
                      usedThreads[m] + queuedThreads[m] + d);
        usedThreads[m] += d;
    }
    void bumpQueued(size_t m, int d)
    {
        if (alive[m])
            lidx.move(static_cast<int>(m),
                      usedThreads[m] + queuedThreads[m],
                      usedThreads[m] + queuedThreads[m] + d);
        queuedThreads[m] += d;
    }

    /** Park `job` on machine `m`'s admission queue (no stat here: the
     *  enqueue counter mirrors the policy-level decision sites). */
    void pushQueue(size_t m, const Job &job)
    {
        st[m].queue.push_back(job);
        bumpQueued(m, job.threads);
        ++parkedJobs;
    }

    bool tryStart(int m, const Job &job)
    {
        MachineState &ms = st[static_cast<size_t>(m)];
        if (usedThreads[static_cast<size_t>(m)] + job.threads > cap(m))
            return false;
        accrue(static_cast<size_t>(m));
        RunningJob rj;
        rj.job = job;
        rj.durationHere = S.profiles_.seconds(
            job.wl, job.cls, job.threads,
            S.machines_[static_cast<size_t>(m)].spec.isa);
        rj.endTime = now + rj.durationHere;
        rj.startedAt = now;
        rj.ckptRemaining = 1.0;
        scheduleCompletion(rj, m);
        ms.running.push_back(rj);
        bumpUsed(static_cast<size_t>(m), job.threads);
        ++runningCount;
        ++S.jobsStarted_;
        OBS_TRACE_BEGIN(kJobTrackBase + job.id, "sched",
                        S.jobSpanName(job.id), now);
        return true;
    }

    /** Admit a checkpointed job on `m` if capacity allows, charging
     *  the restore transfer from `from` (where its image lives);
     *  parks it in the restart queue otherwise. */
    void placeRestart(int m, RunningJob rj, int from)
    {
        MachineState &ms = st[static_cast<size_t>(m)];
        if (usedThreads[static_cast<size_t>(m)] + rj.job.threads >
            cap(m)) {
            ms.restartQueue.push_back(std::move(rj));
            ++parkedJobs;
            return;
        }
        accrue(static_cast<size_t>(m));
        double destDuration = S.profiles_.seconds(
            rj.job.wl, rj.job.cls, rj.job.threads,
            S.machines_[static_cast<size_t>(m)].spec.isa);
        // Remaining work is the checkpointed fraction re-expressed on
        // the destination's clock, plus the checkpoint-restore
        // transfer.
        double remSeconds = rj.ckptRemaining * destDuration +
                            S.migrationCost(rj.job, from, m);
        rj.durationHere = destDuration;
        rj.endTime = now + remSeconds;
        rj.ckptRemaining = remSeconds / destDuration;
        rj.startedAt = now;
        scheduleCompletion(rj, m);
        ms.running.push_back(rj);
        bumpUsed(static_cast<size_t>(m), rj.job.threads);
        ++runningCount;
        ++S.restartsStat_;
        OBS_TRACE_INSTANT(kJobTrackBase + rj.job.id, "sched", "restart",
                          now);
    }

    void startFromQueue(int m)
    {
        MachineState &ms = st[static_cast<size_t>(m)];
        if (!alive[static_cast<size_t>(m)])
            return;
        // Checkpointed restarts first (they are in-flight work), then
        // fresh admissions. Restart images are machine-local here.
        for (size_t q = 0; q < ms.restartQueue.size();) {
            if (usedThreads[static_cast<size_t>(m)] +
                    ms.restartQueue[q].job.threads <=
                cap(m)) {
                RunningJob rj = std::move(ms.restartQueue[q]);
                ms.restartQueue.erase(ms.restartQueue.begin() +
                                      static_cast<ptrdiff_t>(q));
                --parkedJobs;
                placeRestart(m, std::move(rj), m);
            } else {
                ++q;
            }
        }
        for (size_t q = 0; q < ms.queue.size();) {
            Job job = ms.queue[q];
            if (tryStart(m, job)) {
                ms.queue.erase(ms.queue.begin() +
                               static_cast<ptrdiff_t>(q));
                bumpQueued(static_cast<size_t>(m), -job.threads);
                --parkedJobs;
            } else {
                ++q;
            }
        }
    }

    double load(int m) const
    {
        // The paper's policies balance the NUMBER of threads between
        // the machines (weighted for the unbalanced variants), not
        // per-core utilization; capacity only constrains what can
        // start.
        return (usedThreads[static_cast<size_t>(m)] +
                queuedThreads[static_cast<size_t>(m)]) /
               S.machines_[static_cast<size_t>(m)].loadWeight;
    }

    /**
     * Least weighted load after hypothetically placing the job,
     * considering live machines only; -1 if every machine is down.
     * When the job has state on machine `from` (failover) and a
     * topology with a locality bias is configured, candidates pay
     * bias * hops(from, cand), steering restarts toward the rack that
     * holds the checkpoint image. `from` = -1 (fresh admission) keeps
     * the score the plain load, bit-identical to the flat scheduler.
     */
    int pickMachine(int threads, int from) const
    {
        // Uniform weights and no locality penalty: the per-candidate
        // score (u + q + threads)/w is a strictly monotone image of
        // the integer thread count (the +threads/w shift is shared and
        // distinct integer loads can never round to the same double at
        // these magnitudes), so the argmin -- including the
        // first-lowest-index tie-break -- is the integer argmin, and
        // the load index answers that in O(words): the lowest set bit
        // of the minimum-load bucket IS the first-lowest-index alive
        // machine an array scan would keep (-1 when everything is
        // down). This O(1)-ish query is what keeps placement cheap at
        // fleet scale.
        if (uniformWeights && !S.topo_.biasActive(from))
            return lidx.argmin();
        int best = -1;
        double bestScore = std::numeric_limits<double>::infinity();
        for (size_t m = 0; m < usedThreads.size(); ++m) {
            if (!alive[m])
                continue;
            double score =
                (usedThreads[m] + queuedThreads[m] + threads) /
                    S.machines_[m].loadWeight +
                S.topo_.placementPenalty(from, static_cast<int>(m));
            if (score < bestScore) {
                bestScore = score;
                best = static_cast<int>(m);
            }
        }
        return best;
    }

    /**
     * pickMachine, but prefer a candidate OUTSIDE `avoidRack`: this
     * crash is one leg of a correlated rack outage, so the rest of
     * that rack is dying at this very instant and the locality bias
     * toward the checkpoint's rack would restart work onto doomed
     * machines. Falls back to the plain pick when nothing outside the
     * rack can take the job (a one-rack pool still restarts its own
     * work at reboot). Only outage-expanded crashes route here.
     */
    int pickMachineAvoiding(int threads, int from, int avoidRack) const
    {
        const size_t W = static_cast<size_t>(lidx.words);
        const uint64_t *rm =
            rackMask.data() + static_cast<size_t>(avoidRack) * W;
        if (uniformWeights && !S.topo_.biasActive(from)) {
            if (lidx.aliveCnt > 0)
                for (int v = lidx.minL; v <= lidx.maxL; ++v) {
                    if (!lidx.cnt[v])
                        continue;
                    int c = lidx.firstIn(v, nullptr, rm);
                    if (c >= 0)
                        return c;
                }
            return lidx.argmin(); // doomed-rack machines (or nobody)
        }
        int best = -1;
        double bestScore = std::numeric_limits<double>::infinity();
        for (size_t m = 0; m < usedThreads.size(); ++m) {
            if (!alive[m] || rackIdx[m] == avoidRack)
                continue;
            double score =
                (usedThreads[m] + queuedThreads[m] + threads) /
                    S.machines_[m].loadWeight +
                S.topo_.placementPenalty(from, static_cast<int>(m));
            if (score < bestScore) {
                bestScore = score;
                best = static_cast<int>(m);
            }
        }
        return best >= 0 ? best : pickMachine(threads, from);
    }

    void reboot(size_t m)
    {
        accrue(m); // closes the zero-power downtime interval
        st[m].down = false;
        if (isolated[m])
            return; // still unreachable: rejoins at the heal edge
        alive[m] = 1;
        // Re-enter the load index at whatever load accumulated while
        // down (static policies leave the queue parked on the dead
        // machine, so this is not always zero).
        lidx.add(static_cast<int>(m),
                 usedThreads[m] + queuedThreads[m]);
    }

    /** Phase 2 for one machine: retire every job whose endTime is due,
     *  then admit queued work into the freed capacity. */
    void completeDue(int m)
    {
        MachineState &ms = st[static_cast<size_t>(m)];
        for (size_t r = 0; r < ms.running.size();) {
            if (ms.running[r].endTime <= now + kEps) {
                // The heap entry (if any) was already popped by the
                // driver; no cancel needed.
                accrue(static_cast<size_t>(m));
                turnaroundSum += now - ms.running[r].job.arrival;
                ++completed;
                ++S.jobsCompleted_;
                OBS_TRACE_END(kJobTrackBase + ms.running[r].job.id,
                              now);
                lastCompletion = now;
                bumpUsed(static_cast<size_t>(m),
                         -ms.running[r].job.threads);
                ms.running.erase(ms.running.begin() +
                                 static_cast<ptrdiff_t>(r));
                --runningCount;
            } else {
                ++r;
            }
        }
        startFromQueue(m);
    }

    /** Phase 3: snapshot every running job's progress as its restart
     *  target (only modeled when crashes are injected). */
    void checkpointPhase()
    {
        if (!faulty || now + kEps < nextCkpt)
            return;
        for (MachineState &ms : st)
            for (RunningJob &rj : ms.running)
                rj.ckptRemaining = remainingAt(rj);
        ++S.checkpointsStat_;
        while (nextCkpt <= now + kEps)
            nextCkpt += S.cfg_.checkpointPeriod;
    }

    /**
     * Phase 3.5: ToR/agg isolation edges due at this instant. A start
     * removes the member from the placement pool atomically with the
     * rest of its domain -- running jobs continue (the machine is
     * powered, just unreachable), its queue stays parked, and no new
     * work can land on it. A heal re-indexes the machine at whatever
     * load accumulated and immediately admits parked work, at the
     * same instant under both drivers. A machine that is ALSO down
     * (crashed mid-isolation) defers its index rejoin to whichever of
     * reboot/heal happens last.
     */
    void isolationPhase()
    {
        while (nextIso < isoEvents.size() &&
               isoEvents[nextIso].time <= now + kEps) {
            const IsoEvent ev = isoEvents[nextIso++];
            size_t m = static_cast<size_t>(ev.machine);
            if (ev.start) {
                if (isolated[m]++ == 0 && !st[m].down) {
                    lidx.del(ev.machine,
                             usedThreads[m] + queuedThreads[m]);
                    alive[m] = 0;
                }
                ++isoCount;
                ++S.isolationsStat_;
                OBS_TRACE_INSTANT(kJobTrackBase - 1, "sched",
                                  "isolate", now);
            } else {
                if (--isolated[m] == 0 && !st[m].down) {
                    alive[m] = 1;
                    lidx.add(ev.machine,
                             usedThreads[m] + queuedThreads[m]);
                    startFromQueue(ev.machine);
                }
            }
        }
    }

    /**
     * Phase 4: machine crashes. The machine goes dark, its in-flight
     * jobs roll back to their last checkpoint and restart -- on
     * another live machine under the dynamic policies (failover), or
     * on the same machine once it reboots under the static ones. The
     * energy already spent on the discarded progress stays charged. A
     * crash aimed at a machine that is already down is deferred to its
     * reboot instant (back-to-back failure) instead of being silently
     * dropped, so scripted [crashes] plans never lose events.
     */
    void crashPhase()
    {
        while (faulty && nextCrash < crashes.size() &&
               crashes[nextCrash].time <= now + kEps) {
            const CrashEvent ev = crashes[nextCrash++];
            size_t cm = static_cast<size_t>(ev.machine);
            if (st[cm].down) {
                CrashEvent deferred = ev;
                deferred.time = downUntil[cm];
                crashes.insert(
                    std::upper_bound(
                        crashes.begin() +
                            static_cast<ptrdiff_t>(nextCrash),
                        crashes.end(), deferred,
                        [](const CrashEvent &a, const CrashEvent &b) {
                            return a.time < b.time;
                        }),
                    deferred);
                ++S.crashesDeferredStat_;
                continue;
            }
            accrue(cm); // close the powered interval
            downUntil[cm] = ev.time + ev.downSeconds;
            st[cm].down = true;
            if (alive[cm]) { // an isolated machine is already deindexed
                lidx.del(static_cast<int>(cm),
                         usedThreads[cm] + queuedThreads[cm]);
                alive[cm] = 0;
            }
            if (useHeap)
                heap.push(SchedEvent{downUntil[cm], EvKind::Reboot,
                                     ev.machine, 0});
            ++crashCount;
            ++S.crashesStat_;
            MachineState &ms = st[cm];
            std::vector<RunningJob> victims = std::move(ms.running);
            ms.running.clear();
            usedThreads[cm] = 0;
            runningCount -= static_cast<int>(victims.size());
            for (RunningJob &rj : victims) {
                cancelCompletion(rj);
                double rem = remainingAt(rj);
                double lost = std::max(
                    0.0, (rj.ckptRemaining - rem) * rj.durationHere);
                lostWork += lost;
                S.lostSecondsStat_.add(lost);
                // What the checkpoint saved: everything finished
                // before the snapshot restarts as done, not redone.
                double recovered = std::max(
                    0.0, (1.0 - rj.ckptRemaining) * rj.durationHere);
                recoveredWork += recovered;
                S.recoveredSecondsStat_.add(recovered);
                ++restartCounts[rj.job.id];
                int target = ev.machine;
                if (isDynamic) {
                    int cand =
                        ev.avoidRack >= 0
                            ? pickMachineAvoiding(rj.job.threads,
                                                  ev.machine,
                                                  ev.avoidRack)
                            : pickMachine(rj.job.threads, ev.machine);
                    if (cand >= 0)
                        target = cand;
                }
                if (target != ev.machine) {
                    ++failovers;
                    ++S.failoversStat_;
                    OBS_TRACE_INSTANT(kJobTrackBase + rj.job.id,
                                      "sched", "failover", now);
                    placeRestart(target, rj, ev.machine);
                } else {
                    ms.restartQueue.push_back(rj);
                    ++parkedJobs;
                }
            }
            // Queued-but-unstarted jobs fail over too under the
            // dynamic policies; static placements wait for the reboot.
            if (isDynamic) {
                std::vector<Job> parked = std::move(ms.queue);
                ms.queue.clear();
                parkedJobs -= parked.size();
                queuedThreads[cm] = 0;
                for (Job &job : parked) {
                    int cand =
                        ev.avoidRack >= 0
                            ? pickMachineAvoiding(job.threads, -1,
                                                  ev.avoidRack)
                            : pickMachine(job.threads, -1);
                    if (cand < 0) {
                        pushQueue(cm, job);
                    } else if (!tryStart(cand, job)) {
                        pushQueue(static_cast<size_t>(cand), job);
                        ++S.enqueues_;
                    }
                }
            }
        }
    }

    /** Phase 5: admit every arrival due at this instant. */
    void arrivalPhase()
    {
        while (next < arrivals.size() &&
               arrivals[next].arrival <= now + kEps) {
            const Job job = arrivals[next++];
            int m = pickMachine(job.threads, -1);
            if (m < 0) {
                // Every machine is down or isolated: park on the
                // first to come back (reboot or isolation heal).
                // With no outages configured availableAt() IS
                // downUntil, bit-identical to the pre-outage scan.
                auto availableAt = [&](size_t k) {
                    return isolated[k]
                               ? std::max(downUntil[k],
                                          isolatedUntil[k])
                               : downUntil[k];
                };
                size_t soonest = 0;
                for (size_t k = 1; k < downUntil.size(); ++k)
                    if (availableAt(k) < availableAt(soonest))
                        soonest = k;
                pushQueue(soonest, job);
                ++S.enqueues_;
            } else if (!tryStart(m, job)) {
                pushQueue(static_cast<size_t>(m), job);
                ++S.enqueues_;
            }
        }
    }

    /** Phase 6: rebalance tick (dynamic policies only). */
    void rebalancePhase()
    {
        if (!isDynamic || now + kEps < nextTick)
            return;
        nextTick = now + S.cfg_.rebalancePeriod;
        ++S.rebalanceTicks_;
        // The move budget scales with the pool (the old fixed 64
        // silently truncated fleet-sized rebalances); exhausting it
        // is still possible and now visible via the counter.
        const int moveCap =
            std::max(64, 8 * static_cast<int>(st.size()));
        bool capped = true;
        for (int moves = 0; moves < moveCap; ++moves) {
            // Down machines neither shed nor receive work: the load
            // index holds alive machines only. With uniform weights,
            // load(m) = (u+q)/w is a strictly monotone image of the
            // integer load (distinct integers never round together at
            // these magnitudes), so the index's argmax -- lowest set
            // bit of the top bucket -- is the machine a first-index
            // strict-> scan over load() keeps.
            int hi = -1;
            if (uniformWeights) {
                hi = lidx.argmax();
            } else {
                for (size_t m = 0; m < st.size(); ++m)
                    if (alive[m] &&
                        (hi < 0 || load(static_cast<int>(m)) >
                                       load(hi)))
                        hi = static_cast<int>(m);
            }
            // The receiver is scored with the topology's locality
            // penalty relative to the shedding machine, so a
            // same-rack sink wins over an equally-loaded remote one;
            // without a topology the score IS the load (adding the
            // 0.0 penalty is exact).
            int lo = -1;
            const bool biased = S.topo_.biasActive(hi);
            const double bias =
                biased ? S.topo_.config().localityBias : 0.0;
            if (!biased && uniformWeights) {
                lo = lidx.argmin();
            } else if (biased && uniformWeights && bias > 0) {
                // Bucket walk instead of a machine scan. A candidate
                // with integer load v scores at least v/w, and the
                // minimum-load bucket's representative scores at most
                // minL/w + 2*bias (hops <= 2), so no machine with
                // v > minL + 2*bias*w can win or even tie; the +2
                // covers the handful of double roundings in that
                // bound. Within one bucket all machines share the
                // same load double, so candidates split by hop count
                // into rack/pod mask intersections whose best member
                // is their lowest set bit; the exact score of each
                // (bucket, hops) representative -- the same
                // load + bias*hops expression the scan computed --
                // then picks the winner, with equal scores resolved
                // to the lowest machine index exactly like the
                // scan's strict-< update.
                const size_t W = static_cast<size_t>(lidx.words);
                const uint64_t *rm =
                    rackMask.data() +
                    static_cast<size_t>(rackIdx[static_cast<size_t>(
                        hi)]) * W;
                const uint64_t *pm =
                    podMask.data() +
                    static_cast<size_t>(podIdx[static_cast<size_t>(
                        hi)]) * W;
                const double w = S.machines_.front().loadWeight;
                const int bound = std::min(
                    lidx.maxL,
                    lidx.minL +
                        static_cast<int>(std::ceil(2.0 * bias * w)) +
                        2);
                double best =
                    std::numeric_limits<double>::infinity();
                for (int v = lidx.minL; v <= bound; ++v) {
                    if (!lidx.cnt[v])
                        continue;
                    const double L = v / w; // load()'s own division
                    const int cand[3] = {
                        lidx.firstIn(v, rm, nullptr),
                        lidx.firstIn(v, pm, rm),
                        lidx.firstIn(v, nullptr, pm)};
                    for (int h = 0; h < 3; ++h) {
                        if (cand[h] < 0)
                            continue;
                        double score = L + bias * h;
                        if (score < best ||
                            (score == best && cand[h] < lo)) {
                            best = score;
                            lo = cand[h];
                        }
                    }
                }
            } else {
                // Non-uniform weights (or a negative bias): the exact
                // scan, scored as load plus the locality penalty.
                double loScore =
                    std::numeric_limits<double>::infinity();
                for (size_t m = 0; m < st.size(); ++m) {
                    if (!alive[m])
                        continue;
                    double score = load(static_cast<int>(m));
                    if (biased)
                        score += bias *
                                 S.topo_.hops(hi, static_cast<int>(m));
                    if (lo < 0 || score < loScore) {
                        lo = static_cast<int>(m);
                        loScore = score;
                    }
                }
            }
            if (hi < 0 || lo < 0 || hi == lo) {
                capped = false;
                break;
            }
            MachineState &from = st[static_cast<size_t>(hi)];
            MachineState &to = st[static_cast<size_t>(lo)];
            double gap = load(hi) - load(lo);
            if (gap <= 1.0) {
                capped = false;
                break;
            }
            double wFrom =
                S.machines_[static_cast<size_t>(hi)].loadWeight;
            double wTo =
                S.machines_[static_cast<size_t>(lo)].loadWeight;
            // Only move a job if it strictly reduces the peak load
            // (otherwise the pair would oscillate forever).
            auto improves = [&](int threads) {
                double newFrom = load(hi) - threads / wFrom;
                double newTo = load(lo) + threads / wTo;
                return std::max(newFrom, newTo) + 1e-9 <
                       std::max(load(hi), load(lo));
            };
            // Prefer moving a queued job (free); else migrate a
            // running one (charges migration overhead).
            if (!from.queue.empty() &&
                improves(from.queue.front().threads)) {
                Job job = from.queue.front();
                from.queue.erase(from.queue.begin());
                bumpQueued(static_cast<size_t>(hi), -job.threads);
                --parkedJobs;
                if (!tryStart(lo, job)) {
                    pushQueue(static_cast<size_t>(lo), job);
                    ++S.enqueues_;
                }
                continue;
            }
            bool moved = false;
            for (size_t r = 0; r < from.running.size(); ++r) {
                RunningJob rj = from.running[r];
                if (usedThreads[static_cast<size_t>(lo)] +
                        rj.job.threads >
                    cap(lo))
                    continue;
                if (!improves(rj.job.threads))
                    continue;
                accrue(static_cast<size_t>(hi));
                accrue(static_cast<size_t>(lo));
                cancelCompletion(from.running[r]);
                bumpUsed(static_cast<size_t>(hi), -rj.job.threads);
                from.running.erase(from.running.begin() +
                                   static_cast<ptrdiff_t>(r));
                --runningCount;
                double destDuration = S.profiles_.seconds(
                    rj.job.wl, rj.job.cls, rj.job.threads,
                    S.machines_[static_cast<size_t>(lo)].spec.isa);
                double remSeconds =
                    remainingAt(rj) * destDuration +
                    S.migrationCost(rj.job, hi, lo);
                rj.durationHere = destDuration;
                rj.endTime = now + remSeconds;
                // The migration shipped the job's full live state: it
                // IS the new restart point. Leaving ckptRemaining at
                // the pre-migration snapshot -- a fraction of the
                // SOURCE machine's duration -- double-charges all
                // pre-migration progress as "lost" if this machine
                // later crashes.
                rj.ckptRemaining = remSeconds / destDuration;
                scheduleCompletion(rj, lo);
                to.running.push_back(rj);
                bumpUsed(static_cast<size_t>(lo), rj.job.threads);
                ++runningCount;
                ++migrations;
                ++S.migrationsStat_;
                OBS_TRACE_INSTANT(kJobTrackBase + rj.job.id, "sched",
                                  "migrate", now);
                // Capacity freed on hi after its admission pass ran:
                // visit it at the next timestamp, exactly when the
                // stepping driver's all-machine scan would.
                pendingWake.push_back(hi);
                moved = true;
                break;
            }
            if (!moved) {
                capped = false;
                break;
            }
        }
        if (capped)
            ++S.rebalanceCapStat_;
    }

    bool anyWork() const
    {
        return next < arrivals.size() || runningCount > 0 ||
               parkedJobs > 0;
    }

    /** Advance the clock to the chosen instant (clamped monotone). */
    void stepTo(double tNext)
    {
        XISA_CHECK(std::isfinite(tNext), "cluster sim stuck");
        if (tNext < now)
            tNext = now;
        now = tNext;
        ++S.eventsStat_;
    }

    /** Candidates shared by both drivers (cursor streams + gated
     *  epochs); the caller merges in its completion/reboot source. */
    double sharedCandidates() const
    {
        double tNext = std::numeric_limits<double>::infinity();
        if (next < arrivals.size())
            tNext = std::min(tNext, arrivals[next].arrival);
        if (nextIso < isoEvents.size())
            tNext = std::min(tNext, isoEvents[nextIso].time);
        if (isDynamic && runningCount > 0)
            tNext = std::min(tNext, nextTick);
        if (faulty) {
            if (nextCrash < crashes.size())
                tNext = std::min(tNext, crashes[nextCrash].time);
            if (runningCount > 0)
                tNext = std::min(tNext, nextCkpt);
        }
        return tNext;
    }

    /** XISA_AUDIT: bookkeeping invariants checked after every event. */
    void audit(const char *where)
    {
        if (!auditing)
            return;
        auto fail = [&](int jobId, size_t m, const char *what) {
            panic("cluster audit at %s (t=%.6f, job %d, machine %zu, "
                  "XISA_PERTURB=%llu): %s",
                  where, now, jobId, m,
                  static_cast<unsigned long long>(
                      check::SchedulePerturber::envSeed()),
                  what);
        };
        int running = 0;
        size_t parked = 0;
        int aliveTotal = 0;
        for (size_t m = 0; m < st.size(); ++m) {
            const MachineState &ms = st[m];
            int threads = 0;
            int queued = 0;
            for (const RunningJob &rj : ms.running) {
                threads += rj.job.threads;
                if (!(rj.durationHere > 0) ||
                    !std::isfinite(rj.durationHere))
                    fail(rj.job.id, m, "non-positive job duration");
                if (!std::isfinite(rj.endTime))
                    fail(rj.job.id, m, "completion time not finite");
                if (remainingAt(rj) > rj.ckptRemaining + 1e-9)
                    fail(rj.job.id, m,
                         "progress behind its own restart point "
                         "(lost-work double charge on crash)");
            }
            for (const Job &j : ms.queue)
                queued += j.threads;
            if (threads != usedThreads[m])
                fail(-1, m, "usedThreads out of sync with running set");
            if (queued != queuedThreads[m])
                fail(-1, m, "queuedThreads out of sync with queue");
            if (!std::isfinite(ms.energy) || ms.energy < 0)
                fail(-1, m, "energy accumulator corrupt");
            bool placeable = !ms.down && !isolated[m];
            if (placeable != static_cast<bool>(alive[m]))
                fail(-1, m,
                     "alive set out of sync with down/isolated state");
            // Load-index membership: every alive machine's bit sits
            // in exactly the bucket of its current load; dead
            // machines are not indexed at all (checked below via the
            // total bit count).
            if (alive[m]) {
                int v = usedThreads[m] + queuedThreads[m];
                if (v >= lidx.buckets ||
                    !(lidx.bucket(v)[m >> 6] & (1ull << (m & 63))))
                    fail(-1, m, "load index missing an alive machine");
                ++aliveTotal;
            }
            running += static_cast<int>(ms.running.size());
            parked += ms.queue.size() + ms.restartQueue.size();
        }
        if (running != runningCount)
            fail(-1, 0, "runningCount out of sync");
        if (parked != parkedJobs)
            fail(-1, 0, "parkedJobs out of sync");
        if (aliveTotal != lidx.aliveCnt)
            fail(-1, 0, "load index alive count out of sync");
        int indexed = 0;
        for (int v = 0; v < lidx.buckets; ++v) {
            int pc = 0;
            for (int i = 0; i < lidx.words; ++i)
                pc += __builtin_popcountll(lidx.bucket(v)[i]);
            if (pc != lidx.cnt[v])
                fail(-1, static_cast<size_t>(v),
                     "load index bucket count out of sync");
            if (pc > 0 && lidx.aliveCnt > 0 &&
                (v < lidx.minL || v > lidx.maxL))
                fail(-1, static_cast<size_t>(v),
                     "load index min/max cursor not tight");
            indexed += pc;
        }
        if (indexed != lidx.aliveCnt)
            fail(-1, 0, "load index holds a dead machine's bit");
    }

    /** The event-driven driver: next instant from the heap top plus
     *  the shared candidates; only machines with due events (or an
     *  explicit wake) are visited. */
    ClusterResult driveHeap()
    {
        while (anyWork()) {
            double tNext = sharedCandidates();
            if (!heap.empty())
                tNext = std::min(tNext, heap.top().time);
            stepTo(tNext);
            due.clear();
            while (!heap.empty() &&
                   heap.top().time <= now + kEps) {
                SchedEvent ev = heap.pop();
                if (ev.kind == EvKind::Reboot)
                    reboot(static_cast<size_t>(ev.machine));
                due.push_back(ev.machine);
            }
            due.insert(due.end(), pendingWake.begin(),
                       pendingWake.end());
            pendingWake.clear();
            std::sort(due.begin(), due.end());
            due.erase(std::unique(due.begin(), due.end()), due.end());
            for (int m : due)
                completeDue(m);
            checkpointPhase();
            isolationPhase();
            crashPhase();
            arrivalPhase();
            rebalancePhase();
            audit("event_loop");
        }
        return finish();
    }

    /** The stepping oracle (XISA_SLOW_SCHED=1): the pre-heap loop
     *  that rescans every machine for the next completion and visits
     *  all of them each step. Kept as the differential reference; any
     *  divergence from driveHeap is a heap/wake bug. */
    ClusterResult driveStepping()
    {
        while (anyWork()) {
            double tNext = sharedCandidates();
            for (const MachineState &ms : st)
                for (const RunningJob &rj : ms.running)
                    tNext = std::min(tNext, rj.endTime);
            for (size_t m = 0; m < st.size(); ++m)
                if (st[m].down)
                    tNext = std::min(tNext, downUntil[m]);
            stepTo(tNext);
            for (size_t m = 0; m < st.size(); ++m)
                if (st[m].down && now + kEps >= downUntil[m])
                    reboot(m);
            pendingWake.clear(); // the full scan below subsumes wakes
            for (size_t m = 0; m < st.size(); ++m)
                completeDue(static_cast<int>(m));
            checkpointPhase();
            isolationPhase();
            crashPhase();
            arrivalPhase();
            rebalancePhase();
            audit("step_loop");
        }
        return finish();
    }

    ClusterResult finish()
    {
        for (size_t m = 0; m < st.size(); ++m)
            accrue(m);
        audit("end_of_run");
        ClusterResult res;
        res.makespan = lastCompletion;
        for (const MachineState &ms : st) {
            res.energyJoules.push_back(ms.energy);
            res.totalEnergy += ms.energy;
        }
        res.edp = res.totalEnergy * res.makespan;
        res.migrations = migrations;
        res.avgTurnaround =
            completed ? turnaroundSum / static_cast<double>(completed)
                      : 0;
        res.crashes = crashCount;
        res.failovers = failovers;
        res.isolations = isoCount;
        res.lostWorkSeconds = lostWork;
        res.recoveredWorkSeconds = recoveredWork;
        res.restartCounts = std::move(restartCounts);
        return res;
    }
};

ClusterResult
ClusterSim::run(const std::vector<Job> &jobs, Policy policy)
{
    Run r(*this, jobs, policy);
    return slowSched_ ? r.driveStepping() : r.driveHeap();
}

} // namespace xisa
