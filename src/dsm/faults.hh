/**
 * @file
 * Seeded, deterministic fault injection for the interconnect and the
 * control layers above it.
 *
 * The paper's testbed joins two immortal servers with a perfect Dolphin
 * PXH810 link; a datacenter does not. A FaultPlan decides, message by
 * message, whether the next interconnect send is delivered, dropped,
 * duplicated, delayed by a latency spike, degraded to a fraction of the
 * link bandwidth, or rejected outright because the link is partitioned.
 * Every decision is drawn from a seeded Rng plus message-index windows,
 * so a (seed, config) pair replays the exact same fault schedule --
 * which is what makes the chaos test suite assertable.
 *
 * An empty FaultConfig (the default) injects nothing and adds no cost:
 * the fault-free paths are bit-identical to a build without this layer
 * (guarded by the golden-output tests).
 */

#ifndef XISA_DSM_FAULTS_HH
#define XISA_DSM_FAULTS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hh"

namespace xisa {

/**
 * One named cut-set: a topology-derived partition of the peer set.
 * While one of its windows is open, every message whose endpoints
 * straddle the cut fails fast exactly like the legacy whole-link
 * partition (no wire traffic, latency-only cost). `sideA` lists the
 * peers on one side of the cut -- typically the members of one rack or
 * pod, as produced by Topology::rackCut()/podCut(). An EMPTY sideA
 * severs the whole link (every pair crosses, peer-less sends
 * included), which is exactly what the legacy
 * partitionPeriodMsgs/LenMsgs fields meant: FaultPlan normalizes those
 * fields into a whole-link cut at construction, so the legacy flag is
 * sugar for a one-entry cut-set.
 */
struct FaultCut {
    /** Peers on one side of the cut; empty = whole-link cut. */
    std::vector<int> sideA;
    /** Window schedule, message-index space (like every window here):
     *  every `periodMsgs` messages the cut is open for `lenMsgs`. */
    uint64_t periodMsgs = 0;
    uint64_t lenMsgs = 0;
};

/**
 * One fault schedule. Probabilities are per message; windows are
 * expressed in message-index space (message k counts every send()
 * attempt on the link, retries included), which keeps the model
 * deterministic without requiring the interconnect to track simulated
 * time.
 *
 * UNITS -- message indices vs duration fractions. This struct is the
 * single place where the two time bases meet, so the conversion rule
 * lives here: every window in a FaultConfig (partition, degrade,
 * cut-set) counts MESSAGES, because the interconnect has no wall
 * clock; every time in the conf surface above it ([failures] at/heal,
 * serving [crashes] time) is a FRACTION of the experiment's active
 * duration in [0, 1), because conf authors think in wall time. The
 * layer that owns a clock converts exactly once at parse time
 * (`t = fraction * durationSeconds`, see exp::applyFailures), and
 * nothing downstream ever mixes the bases: a fraction never reaches a
 * FaultPlan, a message index never appears in a conf.
 */
struct FaultConfig {
    uint64_t seed = 0x5eedf417u;
    /** Probability a message is lost in flight (sender times out). */
    double dropProb = 0;
    /** Probability a delivered message arrives twice (NIC retransmit
     *  races the ack); receivers must be idempotent. */
    double dupProb = 0;
    /** Probability of a latency spike on a delivered message. */
    double spikeProb = 0;
    /** Spike magnitude: uniform in (0, spikeMaxUs] extra latency. */
    double spikeMaxUs = 50.0;
    /** Serialization-time multiplier inside degradation windows
     *  (2.0 = half the bandwidth). 1.0 disables. */
    double degradeFactor = 1.0;
    /** Bandwidth-degradation windows: every `degradePeriodMsgs`
     *  messages, the next `degradeLenMsgs` are degraded. 0 = never. */
    uint64_t degradePeriodMsgs = 0;
    uint64_t degradeLenMsgs = 0;
    /** Legacy whole-link partition windows: every
     *  `partitionPeriodMsgs` messages the link is down for
     *  `partitionLenMsgs` attempts (sends fail fast with no wire
     *  traffic). 0 = never. Normalized into a whole-link FaultCut at
     *  FaultPlan construction; prefer cutSets in new code. */
    uint64_t partitionPeriodMsgs = 0;
    uint64_t partitionLenMsgs = 0;
    /** Topology-level partitions: named cut-sets, each with its own
     *  window schedule. Only messages that cross an open cut fail. */
    std::vector<FaultCut> cutSets;
    /** Scripted drops by absolute message index (0-based), for tests
     *  that pin exact retry/accounting behaviour. */
    std::vector<uint64_t> scriptedDrops;

    /** True if this config can never perturb a message. */
    bool empty() const;
};

/**
 * Retry discipline for reliable transfers: per-attempt ack timeout plus
 * capped exponential backoff (timeout, then backoff * 2^k up to the
 * cap). All figures are sender-side wall time.
 */
struct RetryPolicy {
    int maxAttempts = 64;     ///< reliableSend() panics beyond this
    double timeoutUs = 10.0;  ///< ack timeout charged per failed attempt
    double backoffUs = 5.0;   ///< initial backoff after a failure
    double backoffCapUs = 320.0;

    /** Circuit breaker: after this many consecutive timeouts to one
     *  peer the circuit opens and a reliableSend() naming that peer
     *  fails fast (xfault.circuit_open) instead of blocking callers
     *  through a permanent partition. 0 disables it (the legacy
     *  behaviour). */
    int breakerThreshold = 0;
    /** Half-open probing while open: one real attempt is let through
     *  every 2..(2+breakerProbeSpread) suppressed calls, with the gap
     *  drawn from a seeded stream so probing stays deterministic. */
    int breakerProbeSpread = 3;
    /** Seeds the half-open probe-gap stream. */
    uint64_t breakerSeed = 0xb4ea4e55ull;

    /** Largest exponent fed to the 2^k backoff scale. Shifting by the
     *  raw attempt count is undefined beyond 63 and, before the cap
     *  was applied, wrapped the delay back to a tiny (or zero)
     *  backoff on long retry storms. */
    static constexpr int kMaxBackoffExp = 62;

    /**
     * Backoff charged after failed attempt `attempt` (1-based):
     * backoffUs * 2^(attempt-1), with the exponent capped before the
     * shift and the result clamped to backoffCapUs. Identical to the
     * classic doubling sequence for every in-range attempt, but safe
     * for arbitrarily large retry counts.
     */
    double
    backoffForAttempt(int attempt) const
    {
        int exp = attempt > 1 ? attempt - 1 : 0;
        if (exp > kMaxBackoffExp)
            exp = kMaxBackoffExp;
        double raw = backoffUs *
                     static_cast<double>(1ull << static_cast<unsigned>(exp));
        return raw < backoffCapUs ? raw : backoffCapUs;
    }
};

/** The fate of one message, as decided by the plan. */
struct FaultDecision {
    bool delivered = true;
    bool duplicated = false;
    /** Link down: the send fails fast, nothing crosses the wire. */
    bool partitioned = false;
    /** The partition came from a SIDED cut-set (a topology partition,
     *  not a dead link): the far side should be suspected, never
     *  declared dead -- a cut heals. False for whole-link cuts, which
     *  keep the legacy partition-to-death escalation. */
    bool sidedCut = false;
    double extraLatencySeconds = 0;
    double bandwidthFactor = 1.0; ///< multiplies serialization time
};

/** Stateful, seeded evaluator of a FaultConfig. */
class FaultPlan
{
  public:
    /** The empty plan: every message is delivered untouched. */
    FaultPlan() = default;
    explicit FaultPlan(const FaultConfig &cfg);

    bool empty() const { return empty_; }
    /** Effective config after constructor normalization (the legacy
     *  partition pair folded into a whole-link cut-set). */
    const FaultConfig &config() const { return cfg_; }
    /** Decide the fate of the next message (advances the stream).
     *  Equivalent to nextBetween(-1, -1): a peer-less message crosses
     *  whole-link cuts but never a sided one. */
    FaultDecision next() { return nextBetween(-1, -1); }
    /**
     * Decide the fate of the next message sent from `from` to `to`
     * (advances the stream). A cut-set window only fires when the
     * endpoints straddle the cut; everything else is identical to
     * next(), so on a config without sided cuts the decision stream is
     * byte-identical for any (from, to).
     */
    FaultDecision nextBetween(int from, int to);
    /** Messages decided so far. */
    uint64_t messagesSeen() const { return msgIndex_; }

  private:
    bool inWindow(uint64_t period, uint64_t len) const;
    static bool crosses(const FaultCut &cut, int from, int to);

    FaultConfig cfg_;
    Rng rng_;
    uint64_t msgIndex_ = 0;
    size_t nextScripted_ = 0;
    bool empty_ = true;
};

} // namespace xisa

#endif // XISA_DSM_FAULTS_HH
