/**
 * @file
 * The replicated-kernel OS model (Sections 4 and 5.1).
 *
 * A ReplicatedOS hosts one heterogeneous OS-container: one process whose
 * threads may run on any of a set of kernels, each kernel natively
 * driving one node (ISA + cores + caches + power model). Kernels share
 * no state; cross-kernel effects (page movement, thread migration,
 * invalidations) go through the Interconnect cost model, mirroring
 * Popcorn's message-passing design.
 *
 * Implemented OS services:
 *  - heterogeneous binary loader: installs the data image and aliases
 *    the per-ISA .text (each node's interpreter executes its own image
 *    under the same virtual addresses);
 *  - hDSM (dsm/): on-demand page coherence between kernels;
 *  - thread migration service: carries a transformed thread context to
 *    the destination kernel and resumes it there;
 *  - heterogeneous continuations: per-ISA kernel-side state is never
 *    migrated -- a thread blocked in a kernel service (barrier/join)
 *    completes that service on its current kernel and can only migrate
 *    at its next user-space migration point;
 *  - the "libc" builtins (malloc, threads, barriers, memcpy, ...),
 *    executed natively by the kernel, during which threads cannot
 *    migrate (the paper's Section 5.4 limitation);
 *  - the vDSO migration-flag page shared between scheduler and threads.
 */

#ifndef XISA_OS_OS_HH
#define XISA_OS_OS_HH

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "binary/multibinary.hh"
#include "core/stacktransform.hh"
#include "dsm/dsm.hh"
#include "machine/interp.hh"
#include "machine/node.hh"
#include "obs/registry.hh"
#include "os/energy.hh"

namespace xisa {

namespace check {
class InvariantAuditor;
class SchedulePerturber;
} // namespace check

/** Configuration of the node pool and kernel parameters. */
struct OsConfig {
    std::vector<NodeSpec> nodes;
    Interconnect::Config net;
    /** Scheduler time slice, in instructions. */
    uint64_t quantum = 4000;
    /** Global instruction budget (runaway guard). */
    uint64_t maxTotalInstrs = 1ull << 62;
    /** Enable per-machine-instruction profiling in the interpreters. */
    bool profile = false;
    /** Memory-sharing strategy (RemoteAccess for the hDSM ablation). */
    DsmMode dsmMode = DsmMode::MigratePages;
    /**
     * Attempts to deliver the thread-context message before a migration
     * aborts (the thread stays runnable on the source; the scheduler
     * may re-request). Page faults instead retry until the link heals:
     * a fault cannot abort. Only reachable when net.faults is set.
     */
    int migrationRetryLimit = 8;
    /** Energy-meter sampling grid (default: the paper's 100 Hz DAQ). */
    double energyBinSeconds = 0.01;
    /**
     * Crash tolerance (DESIGN.md §9): failure detector, page journal,
     * directory reconstruction, and exactly-once migration handoff.
     * Disabled by default; the disabled configuration is bit-identical
     * to a build without the layer (golden-guarded).
     */
    RecoveryConfig recovery;
    /**
     * Optional shared cache of predecoded streams and lowered
     * superblocks (DESIGN.md §10). Sweep drivers that construct many
     * containers from one binary (the overhead kind's exp::runSweep)
     * hand the same cache to every container, so each (ISA, function, timing-signature)
     * artifact is built once per process instead of once per cell.
     * Null (the default) keeps per-interpreter private artifacts.
     */
    std::shared_ptr<ExecCache> execCache;

    /** Two-node ARM + x86 testbed matching the paper's setup. */
    static OsConfig dualServer();
};

/** A completed migration, for experiment harnesses. */
struct MigrationEvent {
    int tid = 0;
    int fromNode = 0;
    int toNode = 0;
    uint32_t siteId = 0;
    double requestTime = 0;   ///< when the scheduler set the flag
    double trapTime = 0;      ///< when the thread reached a point
    double resumeTime = 0;    ///< when it resumed on the destination
    TransformStats transform;
};

/** Result of running a container to completion. */
struct OsRunResult {
    bool finished = false;
    int64_t exitCode = 0;
    bool exitedExplicitly = false;
    std::vector<std::string> output;
    uint64_t totalInstrs = 0;
    double makespanSeconds = 0;
};

/** One process's container spanning the replicated kernels. */
class ReplicatedOS
{
  public:
    ReplicatedOS(const MultiIsaBinary &bin, OsConfig cfg);
    ~ReplicatedOS();

    /** Load the binary and create the main thread on `startNode`. */
    void load(int startNode);

    /** Run until every thread finished (or exit() was called). */
    OsRunResult run();

    /**
     * Run until the given simulated time (seconds) is reached by all
     * runnable work, or the process finishes. Returns true if the
     * process is still running.
     */
    bool runUntil(double seconds);

    // --- Migration control (the datacenter scheduler's interface) -----
    /** Ask every thread of the process to migrate to `destNode`. */
    void migrateProcess(int destNode);
    /** Ask one thread to migrate. */
    void migrateThread(int tid, int destNode);

    // --- Introspection --------------------------------------------------
    /** Latest simulated time (max over cores), seconds. */
    double now() const;
    DsmSpace &dsm() { return *dsm_; }
    const std::vector<MigrationEvent> &migrations() const
    {
        return migrations_;
    }
    EnergyMeter &energy() { return meter_; }
    Interconnect &net() { return net_; }
    /**
     * This container's stat registry. Every component counter (per-node
     * caches, DSM protocol, interconnect, stack transformer, OS
     * services) is attached here at construction; dump()/dumpJson()
     * renders them all, resetAll() zeroes them all.
     */
    obs::StatRegistry &statRegistry() { return stats_; }
    /** The invariant auditor riding along, or nullptr unless
     *  XISA_AUDIT=1 was set at construction. */
    check::InvariantAuditor *auditor() { return auditor_.get(); }
    Interp &interp(int node);
    int threadNode(int tid) const;
    int numThreads() const { return static_cast<int>(threads_.size()); }
    bool finished() const;
    uint64_t totalInstrs() const { return totalInstrs_; }
    const std::vector<std::string> &output() const { return output_; }
    const OsConfig &config() const { return cfg_; }
    StackTransformer &transformer() { return xform_; }
    /** Live heap allocations (addr, bytes) -- the "object graph" the
     *  PadMig serialization baseline reflects over. */
    std::vector<std::pair<uint64_t, uint64_t>> heapObjects() const;
    /**
     * Serialize the whole container at a scheduling boundary: threads
     * (registers, PCs, kernel continuations), kernel-service state
     * (heap, barriers, output), every memory page, and core clocks.
     * This is the checkpoint/restore mechanism of the paper's Section 8
     * related work (CRIU-style) -- only valid between homogeneous
     * kernels, and the baseline our live migration is compared against
     * in bench_ablation_checkpoint.
     */
    std::vector<uint8_t> checkpoint() const;
    /**
     * Restore a checkpoint into this freshly constructed container
     * (construct with the same binary and node configuration, do NOT
     * call load()). Cache contents are not restored (cold caches).
     */
    void restore(const std::vector<uint8_t> &bytes);

    /** Invoked after every scheduling quantum (experiment hooks, e.g.
     *  re-requesting migration to ping-pong a process between nodes). */
    std::function<void(ReplicatedOS &)> onQuantum;

    // --- Crash tolerance (DESIGN.md §9) -------------------------------
    /** The failure detector, or nullptr unless cfg.recovery.enabled. */
    FailureDetector *failureDetector() { return fd_.get(); }
    /** True while `node`'s kernel has not been declared dead. */
    bool nodeAlive(int node) const;
    /**
     * One sequence-numbered migration handoff, for the exactly-once
     * audit: `applied` is set when the context was installed at the
     * destination, `destDied` when that destination later crashed (the
     * installed copy perished with it and the thread rolled back).
     */
    struct MigrationLedgerEntry {
        int tid = 0;
        uint64_t seq = 0;
        int source = 0;
        int dest = 0;
        bool applied = false;
        bool destDied = false;
    };
    const std::vector<MigrationLedgerEntry> &migrationLedger() const
    {
        return migrationLedger_;
    }

  private:
    enum class ThreadState { Ready, Blocked, Done };

    /** Why a thread is blocked in kernel space; stands in for the
     *  per-ISA kernel stack of a heterogeneous continuation. */
    struct KernelContinuation {
        enum class Kind { None, Join, Barrier } kind = Kind::None;
        int joinTid = -1;
        int64_t barrierKey = 0;
        IsaId isa = IsaId::Xeno64; ///< kernel stack's ISA
        int node = 0;
        uint32_t pendingBuiltin = 0; ///< trapped call to finish on wake
    };

    struct OsThread {
        int tid = 0;
        ThreadContext ctx;
        ThreadState state = ThreadState::Ready;
        int node = 0;
        int core = 0;
        uint32_t stackSlot = 0;
        KernelContinuation kcont;
        uint64_t exitValue = 0;
        int migrationTarget = -1;
        double migrationRequestTime = 0;
        /** Crash-consistent snapshot (DESIGN.md §9): the context and
         *  home as of the last commit point. A quantum on a node whose
         *  crash instant passed mid-quantum is voided back to this. */
        ThreadContext committedCtx;
        int committedNode = 0;
        /** Sequence number of this thread's next migration handoff. */
        uint64_t migrationSeq = 0;
    };

    struct NodeRuntime {
        NodeSpec spec;
        std::vector<Core> cores;
        Cache l2;
        std::unique_ptr<Interp> interp;

        NodeRuntime(const NodeSpec &s, const MultiIsaBinary &bin)
            : spec(s), l2(s.l2),
              interp(std::make_unique<Interp>(bin, s.isa, spec))
        {
            for (int c = 0; c < s.cores; ++c)
                cores.emplace_back(s);
        }
    };

    struct Barrier {
        int64_t needed = 0;
        std::vector<int> waiting;
    };

    double coreTime(int node, int core) const;
    void setCoreTimeAtLeast(int node, int core, double seconds);
    int pickCore(int node) const;
    OsThread *pickNext();
    void runQuantum(OsThread &t);
    void execBuiltin(OsThread &t, uint32_t funcId);
    void handleMigrateTrap(OsThread &t, uint32_t siteId);
    void finishThread(OsThread &t, uint64_t exitValue);
    void wake(OsThread &t, double atTime);
    void chargeKernel(OsThread &t, uint64_t cycles);
    int createThread(int node, uint32_t funcId,
                     const std::vector<uint64_t> &intArgs);
    void setupInitialStack(OsThread &t);
    void updateVdsoFlag();

    // Crash tolerance (DESIGN.md §9).
    /** Commit point: snapshot `t` and refresh the page journal. */
    void commitThread(OsThread &t);
    /** Heartbeat round + declare/recover newly detected deaths. */
    void pollFailures();
    /** Kernel-side half of node death: re-home the dead kernel's
     *  threads onto a same-ISA survivor (invoked by the DSM after the
     *  directory was reconstructed). */
    void onNodeDeath(int dead);
    /** Void a quantum that ran on a node whose crash instant passed:
     *  roll `t` back to its committed snapshot. */
    void rollbackThread(OsThread &t);
    /** Recovery-specific invariants (live threads on alive nodes,
     *  exactly-once ledger); no-op unless the auditor is armed. */
    void auditRecovery(const char *where);

    /** Must stay the FIRST member: destroyed last, so component stats
     *  (declared below, destroyed first) detach from a live registry. */
    obs::StatRegistry stats_;

    const MultiIsaBinary &bin_;
    OsConfig cfg_;
    Interconnect net_;
    std::unique_ptr<DsmSpace> dsm_;
    std::vector<NodeRuntime> nodes_;
    std::vector<std::unique_ptr<OsThread>> threads_;
    StackTransformer xform_;
    EnergyMeter meter_;
    /** Armed by XISA_AUDIT / XISA_PERTURB at construction. */
    std::unique_ptr<check::InvariantAuditor> auditor_;
    std::unique_ptr<check::SchedulePerturber> perturb_;
    /** Created when cfg.recovery.enabled; shared with net_ and dsm_. */
    std::unique_ptr<FailureDetector> fd_;
    std::vector<MigrationLedgerEntry> migrationLedger_;

    // Kernel service state.
    uint64_t heapBrk_ = vm::kHeapBase;
    std::map<uint64_t, std::vector<uint64_t>> freeLists_; ///< size->addrs
    std::map<uint64_t, uint64_t> allocSizes_;
    std::map<int64_t, Barrier> barriers_;
    std::vector<std::string> output_;
    std::vector<MigrationEvent> migrations_;
    uint64_t totalInstrs_ = 0;
    /** Interned trace span name per builtin funcId, resolved on first
     *  call so tracing never re-interns per event. */
    std::vector<const char *> builtinSpanNames_;

    // OS-service stats (registered under os.* / machine.* / sched.*).
    obs::Counter quanta_;
    obs::Counter builtinCalls_;
    obs::Counter threadSpawns_;
    obs::Counter migrationsDone_;
    obs::Counter spuriousMigrateTraps_;
    obs::Counter migrationAborts_;  ///< xfault.migration_aborts
    obs::Counter migrationRetries_; ///< xfault.migration_retries
    obs::Counter threadsRecovered_; ///< xfault.threads_recovered
    obs::Counter quantaVoided_;     ///< xfault.quanta_voided
    obs::Counter migrateRequests_; ///< sched.migrate_requests
    obs::Counter instrsStat_;      ///< machine.instrs
    obs::Gauge liveThreads_;
    obs::Histogram migrateResponseUs_; ///< request -> resume, us

    uint32_t nextStackSlot_ = 0;
    bool exited_ = false;
    int64_t exitCode_ = 0;
    bool loaded_ = false;
    uint64_t runSeq_ = 0;
    std::vector<uint64_t> lastRun_;
};

} // namespace xisa

#endif // XISA_OS_OS_HH
