/**
 * @file
 * hDSM -- heterogeneous distributed shared memory (Section 5.1).
 *
 * Page-granular MSI coherence across nodes: each virtual page has a
 * directory entry tracking per-node state (Invalid / Shared / Modified).
 * A read fault copies the page from its current owner and leaves both
 * copies Shared; a write fault additionally invalidates every other
 * copy. Pages therefore migrate on demand -- no stop-the-world -- which
 * is what lets threads of one process keep running on the source node
 * while others have already migrated. Transfer costs are charged through
 * the Interconnect model to the faulting access.
 *
 * Because application data has one common format across ISAs (the whole
 * point of the multi-ISA binary), pages are moved as raw bytes with no
 * conversion -- contrast Mermaid/IVY, which convert page contents.
 *
 * The vDSO page is special-cased: it is the kernel/user shared page for
 * migration requests, kept replicated on every node by kernel broadcast
 * writes, and never faults.
 */

#ifndef XISA_DSM_DSM_HH
#define XISA_DSM_DSM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "dsm/interconnect.hh"
#include "dsm/recovery.hh"
#include "machine/mem.hh"
#include "obs/registry.hh"
#include "util/bytes.hh"

namespace xisa {

namespace check {
class InvariantAuditor;
} // namespace check

/** Per-node MSI state of a page. */
enum class PageState : uint8_t { Invalid = 0, Shared, Modified };

/**
 * Memory-sharing strategy. The paper chose a full DSM protocol over the
 * PCIe interconnect's load/store shared memory "due to the higher
 * latencies for each single operation"; RemoteAccess models that
 * rejected alternative (every non-local access pays a round trip and no
 * page ever moves) for the ablation bench.
 */
enum class DsmMode : uint8_t { MigratePages, RemoteAccess };

/**
 * One process's distributed address space spanning all nodes.
 *
 * Single-owner on construction; ports (one per node) implement MemPort
 * for the interpreters.
 */
class DsmSpace
{
  public:
    /**
     * @param numNodes number of kernels sharing the space
     * @param net interconnect cost model (shared, not owned)
     * @param freqGHz per-node clock, for cycle conversion, indexed by
     *        node id
     */
    DsmSpace(int numNodes, Interconnect *net,
             std::vector<double> freqGHz,
             DsmMode mode = DsmMode::MigratePages);

    /** MemPort for accesses performed on `node`. */
    MemPort &port(int node);

    /**
     * Install initial bytes on `homeNode` (loader use); the pages become
     * Modified there with no cost.
     */
    void populate(int homeNode, uint64_t addr, const void *src, size_t n);
    /** Reserve a zero page range on `homeNode` (bss/stack/heap). */
    void populateZero(int homeNode, uint64_t addr, size_t n);

    /**
     * Kernel broadcast write (vDSO migration flag): updates every node's
     * copy directly, bypassing the protocol.
     */
    void broadcastWrite64(uint64_t addr, uint64_t value);

    /** Read bytes with no protocol action or cost (kernel/debug use;
     *  reads the most recent copy). */
    void peek(uint64_t addr, void *dst, size_t n);
    /**
     * Authoritative bytes of every known page (the most recent copy,
     * as peek() would read them), keyed by vpage. Differential tests
     * compare the images of two runs; identical maps mean identical
     * final memory.
     */
    std::map<uint64_t, std::vector<uint8_t>> pageImage();
    /** Write bytes through the protocol on behalf of `node` (runtime
     *  use, e.g. stack transformation); returns charged cycles. */
    uint64_t poke(int node, uint64_t addr, const void *src, size_t n);
    /** Read bytes through the protocol on behalf of `node`. */
    uint64_t pull(int node, uint64_t addr, void *dst, size_t n);

    /**
     * Attach the protocol counters to `reg`: aggregates under `dsm.*`
     * plus per-node breakdowns under `node<N>.dsm.*` (read_faults,
     * write_faults, invalidations, pages_in).
     */
    void registerStats(obs::StatRegistry &reg);

    /**
     * Drop every TLB entry cached by `node`'s port (TLB shootdown).
     * The OS calls this on thread migration; the protocol invalidates
     * individual entries itself on page steal/invalidation/drop.
     */
    void flushTlb(int node);
    /** Drop every port's TLB (snapshot restore, tests). */
    void flushAllTlbs();

    /** Per-node page state (for tests and diagnostics). */
    PageState state(int node, uint64_t vpage) const;
    /** Node currently owning the page (Modified), or -1 if none. */
    int modifiedOwner(uint64_t vpage) const;
    /** Check protocol invariants for every known page; panics on
     *  violation (used by property tests). */
    void checkInvariants() const;

    int numNodes() const { return numNodes_; }
    DsmMode mode() const { return mode_; }

    /** Serialize every page, directory entry, home assignment, and
     *  protocol counter (container checkpoints). */
    void saveState(ByteWriter &w) const;
    /** Restore a saveState() snapshot into this (fresh) space. */
    void loadState(ByteReader &r);

    // ---- crash tolerance (DESIGN.md §9) -----------------------------

    /**
     * Arm the crash-tolerance layer: share `fd` with the Interconnect,
     * create the page journal, and capture every page currently known
     * (the loader image) as its first committed frame. Page transfers
     * switch to peer-aware reliable sends; a peer the detector declares
     * Dead triggers recoverDeadNode() mid-fault. The detector is owned
     * by the caller (the OS container or the test).
     */
    void armRecovery(FailureDetector *fd);
    bool recoveryArmed() const { return fd_ != nullptr; }
    FailureDetector *failureDetector() const { return fd_; }
    /** Invoked once per recovered node, after the directory has been
     *  rebuilt; the OS re-homes that node's threads here. */
    void setDeathHandler(std::function<void(int)> handler)
    {
        deathHandler_ = std::move(handler);
    }

    /** False once `node` has been declared dead and recovered from. */
    bool nodeAlive(int node) const
    {
        return alive_[static_cast<size_t>(node)] != 0;
    }
    /** Lowest-numbered alive node (where orphaned pages land), or -1. */
    int recoveryTarget() const;

    /**
     * Reconstruct the directory after `dead`'s fail-stop: every copy it
     * held is dropped; pages for which it was the sole holder are
     * restored from the journal onto the recovery target as Modified
     * (xfault.pages_recovered); RemoteAccess homes are reassigned
     * (xfault.pages_rehomed). Idempotent. Fences `dead` in the
     * detector, then invokes the death handler.
     */
    void recoverDeadNode(int dead);

    /**
     * Protocol epoch: refresh the committed frame of every journaled
     * page from its current authoritative copy. The OS calls this at
     * every kernel entry/exit, making quantum boundaries the crash-
     * consistency points re-execution rolls back to.
     */
    void journalCommit();
    const PageJournal *journal() const { return journal_.get(); }

    // ---- topology partitions & epoch fencing (DESIGN.md §12) --------

    /**
     * Cut the node set in two: `minority` on one side, everyone else
     * on the other. While the partition is active every cross-cut
     * transfer fails fast at link latency (xfault.cut_rejects, the
     * detector suspecting -- never fencing -- the far side), and a
     * cross-cut invalidation is DEFERRED into the fenced outbox,
     * leaving the target's copy stale; such pages are tracked as
     * divergent and exempted from the coherence invariants until the
     * heal re-syncs them. Both sides must be non-empty; partitions do
     * not nest.
     */
    void beginPartition(const std::vector<int> &minority);
    /**
     * Heal the active partition. With fencing on (the default), every
     * node first advances its partition epoch, so the deferred
     * pre-heal messages in the outbox -- each stamped with its
     * sender's epoch at send time -- are recognizably stale and
     * REJECTED (xfault.fenced_messages); the minority then rejoins via
     * directory re-sync: every divergent page drops its minority-side
     * copies and the majority copy is authoritative
     * (xfault.pages_resynced), exactly the "healed minority rejoins by
     * re-sync, not by replaying pre-heal writes" rule that prevents
     * split-brain. With fencing off (setEpochFencing(false), a
     * regression knob for the chaos tests) the heal instead applies
     * the stale outbox messages verbatim -- the split-brain failure
     * mode, which the auditor flags as an epoch regression.
     */
    void healPartition();
    bool partitionActive() const { return partActive_; }
    /** Partition epoch of `node` (starts at 1; +1 per heal). */
    uint64_t nodeEpoch(int node) const
    {
        return nodeEpoch_[static_cast<size_t>(node)];
    }
    /** Regression knob: disable the epoch fence (default on). */
    void setEpochFencing(bool on) { fencing_ = on; }

    /**
     * Install a hook invoked after every protocol step (fault, fill,
     * broadcast) with a tag and the affected vpage. One observer at a
     * time; pass nullptr to detach. Used by check::InvariantAuditor.
     */
    void
    setAuditHook(std::function<void(const char *, uint64_t)> hook)
    {
        auditHook_ = std::move(hook);
    }

    /**
     * RAII protocol bypass: while alive, pull() degrades to peek()
     * (no faults, no cost, no TLB fills) and poke() writes every valid
     * replica directly, so a reader/writer inside the scope is
     * invisible to the run's observables. Single-threaded simulator;
     * scopes may nest. For auditing only -- application accesses must
     * never run under a bypass.
     */
    class ProtocolBypass
    {
      public:
        explicit ProtocolBypass(DsmSpace &dsm)
            : dsm_(dsm), prev_(dsm.bypass_)
        {
            dsm_.bypass_ = true;
        }
        ~ProtocolBypass() { dsm_.bypass_ = prev_; }
        ProtocolBypass(const ProtocolBypass &) = delete;
        ProtocolBypass &operator=(const ProtocolBypass &) = delete;

      private:
        DsmSpace &dsm_;
        bool prev_;
    };

  private:
    friend class check::InvariantAuditor;
    struct Dir {
        std::vector<PageState> state; ///< per node
    };

    class Port : public MemPort
    {
      public:
        Port(DsmSpace &dsm, int node) : dsm_(dsm), node_(node) {}
        uint64_t read(uint64_t addr, void *dst, unsigned n) override;
        uint64_t write(uint64_t addr, const void *src,
                       unsigned n) override;

        // Re-exposed so DsmSpace (the directory) can fill entries; the
        // class itself is private to DsmSpace.
        using MemPort::tlbInstallRead;
        using MemPort::tlbInstallWrite;

      private:
        DsmSpace &dsm_;
        int node_;
    };

    Dir &dir(uint64_t vpage);
    /** RemoteAccess mode: resolve (or claim) the page's home node. */
    int homeOf(int toucher, uint64_t vpage);

    /** Outcome of one reliable protocol transfer. */
    struct Xfer {
        uint64_t cycles = 0;
        bool duplicate = false;
        /** False when `peer` was declared dead mid-transfer; the
         *  directory has been rebuilt and the caller must re-resolve
         *  holders before retrying. */
        bool ok = true;
        /** Rejected by an active partition: `peer` is across the cut
         *  and alive. The caller must defer (invalidations) or give
         *  up (page fetches); retrying cannot succeed until the
         *  heal. */
        bool fenced = false;
    };
    /** Reliable transfer to `peer` charged at `forNode`'s clock, for
     *  protocol traffic about `vpage`. Panics on an undeliverable
     *  message when recovery is unarmed; runs death handling
     *  otherwise. Fails fast (fenced) across an active partition cut. */
    Xfer xfer(int peer, uint64_t bytes, int forNode, uint64_t vpage);
    /** Record one DELIVERED protocol message `from` -> `to` carrying
     *  `epoch`: flags cross-cut deliveries and per-peer epoch
     *  regressions to the auditor, then advances the seen-epoch
     *  watermark. */
    void noteDelivery(int from, int to, uint64_t vpage, uint64_t epoch);
    /** Apply one stale outbox invalidation verbatim (fencing-off
     *  path): drops `to`'s copy as if the pre-heal message arrived. */
    void applyStaleInval(int to, uint64_t vpage);
    /** Drop every minority-side copy of each divergent page; the
     *  majority copy (when one exists) becomes authoritative. */
    void resyncDivergent();
    /** Capture `vpage`'s content on `node` into the journal (no-op
     *  unless recovery is armed). */
    void journalTouch(uint64_t vpage, int node);
    /** Ensure `node` has a readable copy; returns charged cycles. */
    uint64_t faultRead(int node, uint64_t vpage);
    /** Ensure `node` has an exclusive copy; returns charged cycles. */
    uint64_t faultWrite(int node, uint64_t vpage);
    /** Any node with a valid copy, preferring Modified; -1 if none. */
    int anyHolder(const Dir &d) const;
    bool isVdso(uint64_t vpage) const;

    /**
     * Install TLB entries on `node`'s port after a slow-path access
     * left the page locally valid: the read translation whenever the
     * node holds a copy, the write translation only while it is the
     * exclusive (Modified) owner. The vDSO page is never cached for
     * writes (user stores to it are local-only by design and must keep
     * taking the slow path). RemoteAccess mode caches only pages homed
     * on the accessing node -- remote accesses pay per-access charges
     * and must never be short-circuited.
     */
    void tlbFill(int node, uint64_t vpage, bool writable);

    /** Write under ProtocolBypass: patch every valid replica in place
     *  so coherence is preserved without any protocol action. */
    void bypassWrite(uint64_t addr, const void *src, size_t n);

    /** Notify the attached auditor of one protocol step. Suppressed
     *  under ProtocolBypass so the auditor can use pull()/poke()
     *  without recursing into itself. */
    void
    auditStep(const char *what, uint64_t vpage)
    {
        if (auditHook_ && !bypass_)
            auditHook_(what, vpage);
    }

    int numNodes_;
    Interconnect *net_;
    std::vector<double> freqGHz_;
    bool tlbEnabled_ = true; ///< false under XISA_SLOW_PATH
    bool bypass_ = false;    ///< true inside a ProtocolBypass scope
    std::function<void(const char *, uint64_t)> auditHook_;
    DsmMode mode_ = DsmMode::MigratePages;
    /** Crash-tolerance state: unarmed by default (all of it inert). */
    FailureDetector *fd_ = nullptr;
    std::unique_ptr<PageJournal> journal_;
    std::vector<char> alive_; ///< sized numNodes_, all 1 at ctor
    bool recovering_ = false; ///< inside recoverDeadNode's sweep
    std::function<void(int)> deathHandler_;
    // Topology-partition state (all inert until beginPartition()).
    bool partActive_ = false; ///< a cut is currently open
    bool fencing_ = true;     ///< epoch fence armed (regression knob)
    std::vector<char> cutSide_; ///< 1 = minority side of the last cut
    /** Per-node partition epoch (starts at 1, +1 per heal). */
    std::vector<uint64_t> nodeEpoch_;
    /** Highest epoch `to` has seen from `from` (index to*N + from):
     *  the per-peer monotonicity watermark the auditor checks. */
    std::vector<uint64_t> epochSeen_;
    /** One deferred cross-cut message, stamped with the sender's
     *  epoch at send time (which is what makes it recognizably stale
     *  after the heal bumps every epoch). */
    struct FencedMsg {
        int from = 0;
        int to = 0;
        uint64_t vpage = 0;
        uint64_t epoch = 0;
    };
    std::vector<FencedMsg> outbox_; ///< deferred cross-cut invals
    /** Pages whose replicas straddle the cut with suppressed
     *  invalidations: exempt from coherence checks until the heal
     *  re-syncs them (ordered for deterministic re-sync order). */
    std::set<uint64_t> divergent_;
    /** RemoteAccess mode: home node of each page (first toucher). */
    std::unordered_map<uint64_t, int> home_;
    std::vector<SimMemory> mem_;   ///< per-node backing store
    std::vector<Port> ports_;
    std::unordered_map<uint64_t, Dir> dirs_;

    /** Per-node protocol counters, registered as `node<N>.dsm.*`. */
    struct NodeStats {
        obs::Counter readFaults;
        obs::Counter writeFaults;
        obs::Counter invalidations; ///< copies invalidated ON this node
        obs::Counter pagesIn;       ///< pages copied TO this node
    };

    obs::Counter readFaults_;
    obs::Counter writeFaults_;
    obs::Counter invalidations_;
    obs::Counter pageTransfers_;
    obs::Counter bytesTransferred_;
    obs::Counter extraCycles_;
    obs::Counter pagesRecovered_; ///< sole copies restored from journal
    obs::Counter pagesRehomed_;   ///< orphaned pages given a new home
    obs::Counter cutRejects_;     ///< transfers refused by a live cut
    obs::Counter fencedMessages_; ///< stale pre-heal messages rejected
    obs::Counter pagesResynced_;  ///< divergent pages re-synced at heal
    std::vector<NodeStats> nodeStats_; ///< sized numNodes_ at ctor
};

} // namespace xisa

#endif // XISA_DSM_DSM_HH
