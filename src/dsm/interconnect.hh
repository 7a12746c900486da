/**
 * @file
 * Model of the inter-server link.
 *
 * The paper's testbed joins the ARM and x86 boards with a Dolphin ICS
 * PXH810 PCIe interconnect (up to 64 Gb/s, ~1 us end-to-end latency).
 * We model a message as latency + size/bandwidth and convert to cycles
 * at the requesting node's clock. The paper chose a full DSM protocol
 * over load/store PCIe shared memory because per-operation latencies are
 * too high; the bench_ablation_dsm harness reproduces that trade-off by
 * comparing page migration against always-remote access through this
 * same model.
 *
 * Unlike the paper's testbed the link is not assumed perfect: a seeded
 * FaultPlan (Config::faults) can drop, duplicate, delay, degrade, or
 * partition individual messages. send() reports the fate of one message
 * attempt; reliableSend() layers ack-timeout + capped-exponential-
 * backoff retry on top and is the primitive the hDSM protocol uses.
 * With the default (empty) fault config both collapse to exactly the
 * historical charge() behaviour.
 */

#ifndef XISA_DSM_INTERCONNECT_HH
#define XISA_DSM_INTERCONNECT_HH

#include <cstdint>
#include <string>
#include <unordered_map>

#include "dsm/faults.hh"
#include "dsm/recovery.hh"
#include "obs/registry.hh"

namespace xisa {

/** Fate of one send() attempt. */
enum class SendStatus : uint8_t { Delivered, Dropped, Partitioned };

/** Latency/bandwidth message-cost model plus traffic counters. */
class Interconnect
{
  public:
    struct Config {
        double latencyUs = 1.2;   ///< one-way message latency
        double gbitPerSec = 40.0; ///< effective bandwidth
        /** Fault schedule for this link (default: perfect link). */
        FaultConfig faults;
        /** Retry discipline for reliableSend(). */
        RetryPolicy retry;
    };

    /** Result of one message attempt. */
    struct SendResult {
        SendStatus status = SendStatus::Delivered;
        /** Delivered twice; the receiver must apply idempotently. */
        bool duplicate = false;
        /** Partitioned by a SIDED cut-set (topology partition): the
         *  peer is unreachable, not dead -- the detector clamps at
         *  Suspect instead of escalating toward a death verdict. */
        bool sidedCut = false;
        /** Sender-side wall time of the attempt (delivery time, or the
         *  wasted wire time of a loss; retry timeouts are the caller's
         *  or reliableSend()'s concern). */
        double seconds = 0;
        /** `seconds` at the requested clock. */
        uint64_t cycles = 0;
    };

    /** Result of a reliableSend(): total cost across every attempt,
     *  timeouts and backoff included. */
    struct ReliableResult {
        int attempts = 1;
        bool duplicate = false;
        /** False when a peer-aware reliableSend() gave up: the peer
         *  was declared dead by the failure detector, or the circuit
         *  breaker opened and this call failed fast. A peer-less call
         *  never clears it (it panics instead). */
        bool delivered = true;
        double seconds = 0;
        uint64_t cycles = 0;
    };

    Interconnect() = default;
    explicit Interconnect(const Config &cfg)
        : cfg_(cfg), plan_(cfg.faults)
    {}

    /** Seconds to move `bytes` one way (latency + serialization). */
    double
    transferSeconds(uint64_t bytes) const
    {
        return cfg_.latencyUs * 1e-6 +
               static_cast<double>(bytes) * 8.0 /
                   (cfg_.gbitPerSec * 1e9);
    }

    /** Same cost expressed in cycles of a `freqGHz` clock; also counts
     *  the message in the traffic statistics. Assumes delivery -- use
     *  send()/reliableSend() on fault-injected links. */
    uint64_t
    charge(uint64_t bytes, double freqGHz)
    {
        ++messages_;
        bytes_.add(bytes);
        return static_cast<uint64_t>(transferSeconds(bytes) * freqGHz *
                                     1e9);
    }

    /**
     * Attempt to send one message to `peer` on behalf of `self`.
     * Dropped messages still count as wire traffic (the bytes were
     * sent, then lost); partitioned attempts fail fast with no wire
     * traffic and cost only the link latency. A duplicate delivery
     * counts the retransmission as extra traffic. `self`/`peer` name
     * the endpoints for sided cut-set windows; -1 (a peer-less
     * message) crosses whole-link cuts only.
     *
     * With a failure detector armed and `peer >= 0`, the attempt also
     * advances the detector's link-event clock, fails (without
     * consuming a fault decision) when `peer` has actually crashed,
     * and feeds the outcome to the detector as evidence; a sided-cut
     * rejection goes through FailureDetector::observeCut (suspicion
     * clamped below Dead).
     */
    SendResult send(uint64_t bytes, double freqGHz, int peer = -1,
                    int self = -1);

    /**
     * Send until delivered, charging ack timeouts and capped
     * exponential backoff for every failed attempt. Deterministic
     * under the seeded plan. After Config::retry.maxAttempts it panics
     * (an unrecoverable link), unless a failure detector is armed and
     * `peer >= 0`: then it fences the peer and returns
     * delivered = false. With `peer >= 0` it additionally
     *  - returns delivered = false once an armed detector declares the
     *    peer Dead;
     *  - when RetryPolicy::breakerThreshold > 0, opens the per-peer
     *    circuit after that many consecutive timeouts
     *    (xfault.circuit_open) and from then on fails fast, letting a
     *    seeded half-open probe through every few calls; a delivered
     *    probe closes the circuit.
     */
    ReliableResult reliableSend(uint64_t bytes, double freqGHz,
                                int peer = -1, int self = -1);

    /** Arm the crash-tolerance layer: the detector is owned by the
     *  caller (the OS container or the test) and shared with the DSM. */
    void armRecovery(FailureDetector *fd) { detector_ = fd; }
    FailureDetector *detector() const { return detector_; }

    /** True while `peer`'s circuit is open (fail-fast mode). */
    bool circuitOpen(int peer) const;

    const RetryPolicy &retryPolicy() const { return cfg_.retry; }

    /**
     * Attach the traffic counters as `<prefix>.messages/.bytes`, and
     * the fault/recovery counters under the fixed `xfault.` namespace
     * (drops, duplicates, spikes, partition_rejects, retries,
     * backoff_cycles). One fault-injected link per registry.
     */
    void
    registerStats(obs::StatRegistry &reg, const std::string &prefix)
    {
        reg.attach(prefix + ".messages", messages_);
        reg.attach(prefix + ".bytes", bytes_);
        reg.attach("xfault.drops", drops_);
        reg.attach("xfault.duplicates", duplicates_);
        reg.attach("xfault.spikes", spikes_);
        reg.attach("xfault.partition_rejects", partitionRejects_);
        reg.attach("xfault.retries", retries_);
        reg.attach("xfault.backoff_cycles", backoffCycles_);
        reg.attach("xfault.circuit_open", circuitOpens_);
        reg.attach("xfault.circuit_fail_fast", circuitFailFast_);
        reg.attach("xfault.circuit_probes", circuitProbes_);
        reg.attach("xfault.dead_sends", deadSends_);
    }
    const Config &config() const { return cfg_; }

  private:
    /** Per-peer circuit-breaker state (created on first use). */
    struct Breaker {
        bool open = false;
        int consecutive = 0; ///< consecutive timeouts to this peer
        int sinceProbe = 0;  ///< suppressed calls since the last probe
        int probeGap = 0;    ///< calls to suppress before the next probe
        Rng rng;             ///< seeded probe-gap stream
    };

    Breaker &breakerState(int peer);

    Config cfg_;
    FaultPlan plan_;
    FailureDetector *detector_ = nullptr;
    std::unordered_map<int, Breaker> breakers_;
    obs::Counter messages_;
    obs::Counter bytes_;
    obs::Counter drops_;
    obs::Counter duplicates_;
    obs::Counter spikes_;
    obs::Counter partitionRejects_;
    obs::Counter retries_;
    obs::Counter backoffCycles_;
    obs::Counter circuitOpens_;
    obs::Counter circuitFailFast_;
    obs::Counter circuitProbes_;
    obs::Counter deadSends_;
};

} // namespace xisa

#endif // XISA_DSM_INTERCONNECT_HH
