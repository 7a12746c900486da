/**
 * @file
 * Crash tolerance for the live DSM/OS stack: fail-stop crash schedule,
 * heartbeat failure detector, and the incremental page journal.
 *
 * The paper's hDSM assumes both kernels stay up; a datacenter does not
 * ("Instruction Set Migration at Warehouse Scale" treats machine failure
 * as the common case). This module supplies the three primitives the
 * recovery protocol is built from:
 *
 *  - A deterministic fail-stop schedule (RecoveryConfig::crashes):
 *    nodes die at instants expressed on the link-event clock -- one
 *    tick per interconnect send attempt or heartbeat round -- the same
 *    message-index space the FaultPlan windows use, so a (seed, config)
 *    pair replays the exact same crash.
 *  - A FailureDetector: per-peer Alive -> Suspect -> Dead state machine
 *    fed by heartbeat rounds and data-send outcomes, with seeded
 *    per-peer threshold jitter. Declared death is a fence: a peer
 *    declared dead is never trusted again even if it was merely
 *    partitioned (split-brain avoidance); a Suspect that produces
 *    evidence of life is counted in xfault.false_suspects.
 *  - A PageJournal: one committed frame per touched page, refreshed at
 *    protocol epochs (kernel entries and ownership transfers). Memory
 *    is bounded by the working set -- exactly one frame per page ever
 *    touched -- and the refresh cost is counted in diff bytes. Sole-
 *    Modified pages on a crashed node are restored from it.
 *
 * All of it is inert unless RecoveryConfig::enabled is set: the default
 * configuration adds no cost and no behavior change (golden-guarded).
 */

#ifndef XISA_DSM_RECOVERY_HH
#define XISA_DSM_RECOVERY_HH

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "obs/registry.hh"
#include "util/rng.hh"

namespace xisa {

/**
 * One scheduled fail-stop crash. `atStep` is a link-event clock value:
 * the node is gone once the clock reaches it. Clock ticks are send
 * attempts and heartbeat rounds, which makes crash instants land at
 * hDSM protocol-step granularity.
 */
struct PeerCrashEvent {
    int node = -1;
    uint64_t atStep = 0;
};

/**
 * A crash pinned to the migration handoff window: fires at the
 * `atShip`-th (0-based) context-ship attempt of the run, either just
 * before the context goes on the wire (`afterDelivery = false`, the
 * state is lost with the sender) or just after it was delivered but
 * before the ack is processed (`afterDelivery = true`). This is how
 * tests deterministically land a crash "between state-ship and ack".
 */
struct ShipCrashEvent {
    int node = -1;
    uint64_t atShip = 0;
    bool afterDelivery = false;
};

/** Configuration of the crash-tolerance layer. */
struct RecoveryConfig {
    /** Master switch; everything below is inert when false. */
    bool enabled = false;
    /** Scheduled fail-stop crashes on the link-event clock. */
    std::vector<PeerCrashEvent> crashes;
    /** Crashes pinned inside the migration handoff window. */
    std::vector<ShipCrashEvent> shipCrashes;
    /** Consecutive missed evidence before a peer turns Suspect. */
    int suspectAfterMisses = 4;
    /** Consecutive missed evidence before a peer is declared Dead.
     *  High enough that the perturber's capped drop storms cannot
     *  plausibly fake a death (0.3^12 per window). */
    int deadAfterMisses = 12;
    /** Seeds the per-peer +-jitter on both thresholds. */
    uint64_t detectorSeed = 0x4d00dcedull;

    bool empty() const
    {
        return !enabled && crashes.empty() && shipCrashes.empty();
    }
};

/**
 * Heartbeat-based failure detector plus the ground-truth fail-stop
 * schedule it observes. One instance serves one OS container (or one
 * DsmSpace in DSM-only tests); the Interconnect and the DSM share it.
 *
 * Ground truth and observation are deliberately separate: crashed()
 * answers "has this node actually failed" (the simulator's omniscient
 * view, used to fail sends addressed to it), while state() answers
 * "what does the surviving kernel believe". Recovery may only act on
 * the latter.
 */
class FailureDetector
{
  public:
    enum class PeerState : uint8_t { Alive, Suspect, Dead };

    FailureDetector(int numNodes, const RecoveryConfig &cfg);

    // ---- ground truth ----------------------------------------------

    /** Current link-event clock. */
    uint64_t clock() const { return clock_; }
    /** Advance the clock by one link event (send attempt). */
    void tick() { ++clock_; }
    /** True once `node`'s scheduled crash instant has passed. */
    bool crashed(int node) const
    {
        return clock_ >= crashStep_[static_cast<size_t>(node)];
    }
    /**
     * Count one migration context-ship attempt; fires any
     * ShipCrashEvent with afterDelivery == false scheduled for it.
     */
    void onMigrationShip();
    /** Fire afterDelivery ship crashes of the attempt onMigrationShip
     *  just counted (call once the delivery outcome is known). */
    void onMigrationShipDone();

    // ---- observed state machine ------------------------------------

    PeerState state(int node) const
    {
        return obs_[static_cast<size_t>(node)].state;
    }
    bool dead(int node) const
    {
        return state(node) == PeerState::Dead;
    }
    /**
     * Feed one data-send outcome toward `peer`. A success is evidence
     * of life (clears suspicion, counting a false suspect); a failure
     * is a miss. Returns true if `peer` transitioned to Dead here.
     */
    bool observeSend(int peer, bool delivered);
    /**
     * Feed one cross-partition rejection toward `peer`: evidence the
     * far side is unreachable, not that it died. Counts a miss and can
     * raise Suspect, but clamps the state machine below Dead -- a cut
     * heals, a death does not, and fencing a merely-partitioned peer
     * is exactly the split-brain the partition epochs exist to
     * prevent. A peer already declared Dead stays Dead.
     */
    void observeCut(int peer);
    /**
     * One heartbeat round: ticks the clock and probes every node.
     * Heartbeats ride a control channel that fault injection does not
     * touch, so a miss means the peer has actually crashed -- data-send
     * outcomes are the only source of false suspicion. Returns true if
     * any node transitioned to Dead.
     */
    bool heartbeatRound();
    /**
     * Fence: force-declare `node` dead (idempotent). Used when the
     * recovery protocol commits to a death it inferred elsewhere.
     */
    void declareDead(int node);

    int numNodes() const { return static_cast<int>(obs_.size()); }

    /** Attach xfault.deaths / xfault.false_suspects. */
    void registerStats(obs::StatRegistry &reg);

  private:
    struct Obs {
        PeerState state = PeerState::Alive;
        int misses = 0;    ///< consecutive missed evidence
        int suspectAt = 0; ///< jittered Suspect threshold
        int deadAt = 0;    ///< jittered Dead threshold
    };

    /** Record one miss; returns true on a transition to Dead. */
    bool miss(int node);
    /** Record evidence of life. */
    void beat(int node);

    RecoveryConfig cfg_;
    uint64_t clock_ = 0;
    uint64_t shipIndex_ = 0; ///< context-ship attempts counted so far
    std::vector<uint64_t> crashStep_; ///< per-node fail-stop instant
    std::vector<Obs> obs_;
    obs::Counter deaths_;
    obs::Counter falseSuspects_;
};

/**
 * The incremental page journal: the last committed frame of every page
 * the program has touched. capture() refreshes a frame in place (one
 * allocation per page, ever), counting how many bytes actually changed
 * since the previous commit -- the "diff" the incremental scheme would
 * have shipped.
 */
class PageJournal
{
  public:
    explicit PageJournal(size_t pageSize) : pageSize_(pageSize) {}

    bool has(uint64_t vpage) const
    {
        return entries_.find(vpage) != entries_.end();
    }
    /** Committed frame of `vpage`, or nullptr if never captured. */
    const uint8_t *lookup(uint64_t vpage) const;
    /**
     * Commit the current content of `vpage`. Returns the number of
     * bytes that differed from the previous committed frame (the full
     * page size for a first capture).
     */
    size_t capture(uint64_t vpage, const uint8_t *bytes);

    size_t pages() const { return entries_.size(); }
    /** Journaled page numbers (auditor coverage check). */
    const std::unordered_map<uint64_t, std::vector<uint8_t>> &
    entries() const
    {
        return entries_;
    }

    /**
     * Protocol epoch: refresh every journaled frame in place from
     * `src(vpage)` (skipped when src returns nullptr), counting diff
     * bytes. Never allocates.
     */
    template <typename Fn>
    void
    commitAll(Fn &&src)
    {
        for (auto &e : entries_) {
            const uint8_t *bytes = src(e.first);
            if (bytes)
                refreshFrame(e.second, bytes);
        }
    }

    /** Attach xfault.journal_appends / _diff_bytes / _pages. */
    void registerStats(obs::StatRegistry &reg);

  private:
    /** Refresh one existing frame, counting the bytes that changed. */
    size_t refreshFrame(std::vector<uint8_t> &frame,
                        const uint8_t *bytes);

    size_t pageSize_;
    std::unordered_map<uint64_t, std::vector<uint8_t>> entries_;
    obs::Counter appends_;
    obs::Counter diffBytes_;
    obs::Gauge pagesGauge_;
};

} // namespace xisa

#endif // XISA_DSM_RECOVERY_HH
