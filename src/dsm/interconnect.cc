#include "dsm/interconnect.hh"

#include "util/logging.hh"

namespace xisa {

Interconnect::SendResult
Interconnect::send(uint64_t bytes, double freqGHz, int peer, int self)
{
    FailureDetector *fd = peer >= 0 ? detector_ : nullptr;
    if (fd)
        fd->tick();
    SendResult r;
    if (fd && fd->crashed(peer)) {
        // The bytes hit the wire and vanish into a dead host: full wire
        // traffic and transfer time, no ack, and -- because the link
        // itself is fine -- no FaultDecision consumed from the plan.
        ++messages_;
        bytes_.add(bytes);
        r.status = SendStatus::Dropped;
        r.seconds = transferSeconds(bytes);
        ++deadSends_;
    } else if (plan_.empty()) {
        ++messages_;
        bytes_.add(bytes);
        r.seconds = transferSeconds(bytes);
    } else if (FaultDecision d = plan_.nextBetween(self, peer);
               d.partitioned) {
        // Fail-fast NIC error: nothing crossed the wire, the sender
        // only paid the link latency to learn the path is down.
        r.status = SendStatus::Partitioned;
        r.sidedCut = d.sidedCut;
        r.seconds = cfg_.latencyUs * 1e-6;
        ++partitionRejects_;
    } else {
        // The message went on the wire: count it whether or not it
        // arrives.
        ++messages_;
        bytes_.add(bytes);
        double serialization =
            transferSeconds(bytes) - cfg_.latencyUs * 1e-6;
        r.seconds = cfg_.latencyUs * 1e-6 +
                    serialization * d.bandwidthFactor +
                    d.extraLatencySeconds;
        if (d.extraLatencySeconds > 0)
            ++spikes_;
        if (!d.delivered) {
            r.status = SendStatus::Dropped;
            ++drops_;
        } else if (d.duplicated) {
            // The retransmission is real wire traffic too.
            r.duplicate = true;
            ++messages_;
            bytes_.add(bytes);
            ++duplicates_;
        }
    }
    r.cycles = static_cast<uint64_t>(r.seconds * freqGHz * 1e9);
    if (!fd)
        return r;
    if (r.sidedCut)
        // A topology cut, not a dead host: suspicion may not escalate
        // to a death verdict (the cut will heal; a fence would not).
        fd->observeCut(peer);
    else
        fd->observeSend(peer, r.status == SendStatus::Delivered);
    return r;
}

Interconnect::Breaker &
Interconnect::breakerState(int peer)
{
    auto [it, inserted] = breakers_.try_emplace(peer);
    if (inserted)
        it->second.rng.reseed(cfg_.retry.breakerSeed ^
                              (0x9e3779b97f4a7c15ull *
                               static_cast<uint64_t>(peer + 1)));
    return it->second;
}

bool
Interconnect::circuitOpen(int peer) const
{
    auto it = breakers_.find(peer);
    return it != breakers_.end() && it->second.open;
}

Interconnect::ReliableResult
Interconnect::reliableSend(uint64_t bytes, double freqGHz, int peer,
                           int self)
{
    FailureDetector *fd = peer >= 0 ? detector_ : nullptr;
    Breaker *b = peer >= 0 && cfg_.retry.breakerThreshold > 0
                     ? &breakerState(peer)
                     : nullptr;
    ReliableResult total;
    total.attempts = 0;
    for (;;) {
        if (b && b->open) {
            if (++b->sinceProbe < b->probeGap) {
                // Open circuit: fail fast at link-latency cost; no
                // wire traffic, no fault decision, no retry charges.
                ++circuitFailFast_;
                double s = cfg_.latencyUs * 1e-6;
                total.seconds += s;
                total.cycles +=
                    static_cast<uint64_t>(s * freqGHz * 1e9);
                total.delivered = false;
                return total;
            }
            // Half-open: let one seeded probe through for real.
            b->sinceProbe = 0;
            b->probeGap =
                2 + static_cast<int>(b->rng.below(static_cast<uint64_t>(
                        cfg_.retry.breakerProbeSpread + 1)));
            ++circuitProbes_;
        }
        SendResult r = send(bytes, freqGHz, peer, self);
        ++total.attempts;
        total.seconds += r.seconds;
        total.cycles += r.cycles;
        if (r.status == SendStatus::Delivered) {
            if (b) {
                b->open = false;
                b->consecutive = 0;
            }
            total.duplicate = r.duplicate;
            total.delivered = true;
            return total;
        }
        if (b) {
            ++b->consecutive;
            if (!b->open &&
                b->consecutive >= cfg_.retry.breakerThreshold) {
                b->open = true;
                ++circuitOpens_;
                b->sinceProbe = 0;
                b->probeGap = 2 + static_cast<int>(b->rng.below(
                                      static_cast<uint64_t>(
                                          cfg_.retry.breakerProbeSpread +
                                          1)));
            }
        }
        if (fd && fd->dead(peer)) {
            // Declared dead: the caller's recovery protocol takes over.
            total.delivered = false;
            return total;
        }
        if (b && b->open) {
            // Newly opened (or a failed probe): fail fast from here on.
            total.delivered = false;
            return total;
        }
        if (total.attempts >= cfg_.retry.maxAttempts) {
            if (fd) {
                // A peer we cannot reach within the full retry budget
                // is fenced rather than panicked on: recovery treats a
                // permanently partitioned peer like a dead one.
                fd->declareDead(peer);
                total.delivered = false;
                return total;
            }
            fatal("interconnect: message undeliverable after %d "
                  "attempts (permanent partition?)",
                  total.attempts);
        }
        // Ack timeout, then capped exponential backoff.
        double waitUs = cfg_.retry.timeoutUs +
                        cfg_.retry.backoffForAttempt(total.attempts);
        uint64_t waitCycles =
            static_cast<uint64_t>(waitUs * 1e-6 * freqGHz * 1e9);
        total.seconds += waitUs * 1e-6;
        total.cycles += waitCycles;
        ++retries_;
        backoffCycles_.add(waitCycles);
    }
}

} // namespace xisa
