#include "dsm/dsm.hh"

#include <algorithm>
#include <cstring>

#include "obs/trace.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace xisa {

namespace {
/** Protocol message header size modeled for control traffic. */
constexpr uint64_t kMsgHeader = 64;

/** Record a DSM fault as a span at the ambient cursor, advancing the
 *  cursor by the charged cycles converted at `freqGHz`. */
void
traceFault(const char *name, uint64_t cyc, double freqGHz)
{
    if (!obs::traceEnabled())
        return;
    obs::TraceCursor &cur = obs::traceCursor();
    double dur = static_cast<double>(cyc) * 1e-9 / freqGHz;
    obs::Tracer::global().begin(cur.track, "dsm", name, cur.tsSeconds);
    obs::Tracer::global().end(cur.track, cur.tsSeconds + dur);
    cur.tsSeconds += dur;
}
} // namespace

DsmSpace::DsmSpace(int numNodes, Interconnect *net,
                   std::vector<double> freqGHz, DsmMode mode)
    : numNodes_(numNodes), net_(net), freqGHz_(std::move(freqGHz)),
      tlbEnabled_(!slowPathRequested()), mode_(mode)
{
    if (numNodes < 1)
        fatal("DsmSpace needs at least one node");
    if (freqGHz_.size() != static_cast<size_t>(numNodes))
        fatal("DsmSpace: %zu frequencies for %d nodes", freqGHz_.size(),
              numNodes);
    XISA_CHECK(net_ != nullptr, "DsmSpace needs an interconnect");
    mem_.resize(static_cast<size_t>(numNodes));
    ports_.reserve(static_cast<size_t>(numNodes));
    for (int n = 0; n < numNodes; ++n)
        ports_.emplace_back(*this, n);
    nodeStats_ = std::vector<NodeStats>(static_cast<size_t>(numNodes));
    alive_.assign(static_cast<size_t>(numNodes), 1);
    cutSide_.assign(static_cast<size_t>(numNodes), 0);
    nodeEpoch_.assign(static_cast<size_t>(numNodes), 1);
    epochSeen_.assign(static_cast<size_t>(numNodes) *
                          static_cast<size_t>(numNodes),
                      0);
}

void
DsmSpace::armRecovery(FailureDetector *fd)
{
    XISA_CHECK(fd != nullptr, "armRecovery needs a detector");
    fd_ = fd;
    net_->armRecovery(fd);
    if (!journal_)
        journal_ = std::make_unique<PageJournal>(vm::kPageSize);
    // First commit: every page the loader already installed gets its
    // initial frame, so even a crash before the first protocol epoch
    // restores the program image.
    for (auto &[vpage, d] : dirs_) {
        int holder = anyHolder(d);
        if (holder >= 0)
            journal_->capture(
                vpage, mem_[static_cast<size_t>(holder)].page(vpage));
    }
}

int
DsmSpace::recoveryTarget() const
{
    for (int n = 0; n < numNodes_; ++n)
        if (alive_[static_cast<size_t>(n)])
            return n;
    return -1;
}

void
DsmSpace::journalTouch(uint64_t vpage, int node)
{
    if (journal_)
        journal_->capture(vpage,
                          mem_[static_cast<size_t>(node)].page(vpage));
}

void
DsmSpace::journalCommit()
{
    if (!journal_)
        return;
    journal_->commitAll([&](uint64_t vpage) -> const uint8_t * {
        auto it = dirs_.find(vpage);
        if (it == dirs_.end())
            return nullptr;
        int holder = anyHolder(it->second);
        if (holder < 0 || !alive_[static_cast<size_t>(holder)])
            return nullptr;
        return mem_[static_cast<size_t>(holder)].page(vpage);
    });
}

DsmSpace::Xfer
DsmSpace::xfer(int peer, uint64_t bytes, int forNode, uint64_t vpage)
{
    double freq = freqGHz_[static_cast<size_t>(forNode)];
    if (partActive_ && cutSide_[static_cast<size_t>(peer)] !=
                           cutSide_[static_cast<size_t>(forNode)]) {
        // The peer is across the cut: fail fast at link latency, no
        // wire traffic, no fault decision. The detector is told this
        // is a cut (suspicion capped below Dead) -- the peer is
        // unreachable, not gone, and fencing it would be split-brain.
        Xfer x;
        x.ok = false;
        x.fenced = true;
        x.cycles = static_cast<uint64_t>(net_->transferSeconds(0) *
                                         freq * 1e9);
        ++cutRejects_;
        if (fd_)
            fd_->observeCut(peer);
        return x;
    }
    Xfer x;
    // With the breaker open most rounds fail fast and only the seeded
    // half-open probes feed the detector, so the number of rounds to a
    // declared death is bounded but larger than the miss threshold.
    constexpr int kMaxRounds = 4096;
    for (int round = 0; round < kMaxRounds; ++round) {
        auto r = net_->reliableSend(bytes, freq, peer, forNode);
        x.cycles += r.cycles;
        if (r.delivered) {
            x.duplicate = r.duplicate;
            noteDelivery(forNode, peer, vpage,
                         nodeEpoch_[static_cast<size_t>(forNode)]);
            return x;
        }
        if (!fd_)
            // No recovery to run, so an undeliverable message is fatal.
            fatal("dsm: transfer to node %d failed fast with no "
                  "recovery armed (open circuit on a dead link?)",
                  peer);
        if (fd_->dead(peer)) {
            recoverDeadNode(peer);
            x.ok = false;
            return x;
        }
    }
    fatal("dsm: transfer to node %d failed %d rounds without the "
          "detector declaring it dead",
          peer, kMaxRounds);
}

void
DsmSpace::noteDelivery(int from, int to, uint64_t vpage, uint64_t epoch)
{
    if (partActive_ && cutSide_[static_cast<size_t>(from)] !=
                           cutSide_[static_cast<size_t>(to)])
        // Auditor-enforced: nothing may be delivered across an open
        // cut. By construction xfer() fails fast first, so reaching
        // this tag means the partition check regressed.
        auditStep("cross_cut_delivery", vpage);
    uint64_t &seen = epochSeen_[static_cast<size_t>(to) *
                                    static_cast<size_t>(numNodes_) +
                                static_cast<size_t>(from)];
    if (epoch < seen ||
        epoch < nodeEpoch_[static_cast<size_t>(from)])
        // Auditor-enforced: the epoch a receiver sees from each peer
        // is monotone, and a message may not arrive from a sender's
        // PAST epoch (heals mint a new one everywhere). Only a stale
        // pre-heal message applied without the fence (the
        // setEpochFencing(false) knob) can get here.
        auditStep("epoch_regression", vpage);
    else
        seen = epoch;
}

void
DsmSpace::beginPartition(const std::vector<int> &minority)
{
    XISA_CHECK(!partActive_, "dsm: partitions do not nest");
    XISA_CHECK(!minority.empty(), "dsm: empty minority side");
    std::fill(cutSide_.begin(), cutSide_.end(), 0);
    for (int n : minority) {
        XISA_CHECK(n >= 0 && n < numNodes_,
                   "dsm: partition member out of range");
        cutSide_[static_cast<size_t>(n)] = 1;
    }
    int minoritySize = 0;
    for (char c : cutSide_)
        minoritySize += c;
    XISA_CHECK(minoritySize < numNodes_,
               "dsm: partition needs nodes on both sides");
    partActive_ = true;
    auditStep("partition_begin", 0);
}

void
DsmSpace::healPartition()
{
    XISA_CHECK(partActive_, "dsm: no partition to heal");
    partActive_ = false;
    // Every heal mints a new epoch on every node FIRST: anything
    // still carrying a pre-heal stamp is now provably stale. The
    // mint is unconditional -- fencing only controls whether the
    // receiver ENFORCES it by rejecting, so the knob-off shape below
    // is recognizably wrong to the auditor.
    for (uint64_t &e : nodeEpoch_)
        ++e;
    if (fencing_) {
        for (const FencedMsg &m : outbox_) {
            if (m.epoch < nodeEpoch_[static_cast<size_t>(m.from)]) {
                ++fencedMessages_;
                auditStep("fenced_stale", m.vpage);
                continue;
            }
            applyStaleInval(m.to, m.vpage); // unreachable with the
                                            // fence up; kept for the
                                            // knob-off shape below
        }
        outbox_.clear();
        resyncDivergent();
    } else {
        // Regression knob: no rejection, no re-sync -- the deferred
        // pre-heal messages apply as if the partition never happened.
        // This is the split-brain shape the chaos tests pin down: the
        // minority's stale invalidations kill the majority's good
        // copies, and the auditor (via noteDelivery's epoch check)
        // flags every one as an epoch regression.
        for (const FencedMsg &m : outbox_) {
            noteDelivery(m.from, m.to, m.vpage, m.epoch);
            applyStaleInval(m.to, m.vpage);
        }
        outbox_.clear();
        divergent_.clear();
    }
    auditStep("partition_heal", 0);
}

void
DsmSpace::applyStaleInval(int to, uint64_t vpage)
{
    Dir &d = dir(vpage);
    size_t sn = static_cast<size_t>(to);
    if (d.state[sn] == PageState::Invalid)
        return;
    d.state[sn] = PageState::Invalid;
    mem_[sn].dropPage(vpage);
    ports_[sn].tlbDropPage(vpage);
}

void
DsmSpace::resyncDivergent()
{
    for (uint64_t vpage : divergent_) {
        Dir &d = dir(vpage);
        // The majority side is authoritative. A page living purely on
        // the minority was never contested; it survives as-is.
        int majHolder = -1;
        for (int n = 0; n < numNodes_; ++n) {
            size_t sn = static_cast<size_t>(n);
            if (cutSide_[sn] ||
                d.state[sn] == PageState::Invalid)
                continue;
            if (majHolder < 0 ||
                d.state[sn] == PageState::Modified)
                majHolder = n;
        }
        if (majHolder < 0)
            continue;
        bool dropped = false;
        for (int n = 0; n < numNodes_; ++n) {
            size_t sn = static_cast<size_t>(n);
            if (!cutSide_[sn] || d.state[sn] == PageState::Invalid)
                continue;
            d.state[sn] = PageState::Invalid;
            mem_[sn].dropPage(vpage);
            ports_[sn].tlbDropPage(vpage);
            dropped = true;
        }
        if (dropped) {
            ++pagesResynced_;
            journalTouch(vpage, majHolder);
            auditStep("partition_resync", vpage);
        }
    }
    divergent_.clear();
}

void
DsmSpace::recoverDeadNode(int dead)
{
    if (!alive_[static_cast<size_t>(dead)])
        return; // already recovered (idempotent)
    if (fd_)
        fd_->declareDead(dead); // fence: never trust this peer again
    alive_[static_cast<size_t>(dead)] = 0;
    int target = recoveryTarget();
    if (target < 0)
        fatal("dsm: no surviving node after node %d died", dead);
    // The directory is inconsistent (dead copies not yet dropped) until
    // the sweep below finishes; the auditor holds its dead-node checks.
    recovering_ = true;
    for (auto &[vpage, d] : dirs_) {
        bool hadCopy =
            d.state[static_cast<size_t>(dead)] != PageState::Invalid;
        d.state[static_cast<size_t>(dead)] = PageState::Invalid;
        if (!hadCopy)
            continue;
        mem_[static_cast<size_t>(dead)].dropPage(vpage);
        ports_[static_cast<size_t>(dead)].tlbDropPage(vpage);
        if (anyHolder(d) >= 0)
            continue; // a surviving replica keeps the page alive
        // Sole copy died with the node: restore the last committed
        // frame (zeros for a page that never reached a commit point --
        // it was cold-materialized and is re-faultable as such).
        uint8_t *pg = mem_[static_cast<size_t>(target)].page(vpage);
        const uint8_t *frame =
            journal_ ? journal_->lookup(vpage) : nullptr;
        if (frame)
            std::memcpy(pg, frame, vm::kPageSize);
        else
            std::memset(pg, 0, vm::kPageSize);
        d.state[static_cast<size_t>(target)] = PageState::Modified;
        ++pagesRecovered_;
        auditStep("page_recovered", vpage);
    }
    ports_[static_cast<size_t>(dead)].tlbFlush();
    for (auto &[vpage, h] : home_) {
        if (h == dead) {
            h = target;
            ++pagesRehomed_;
        }
    }
    recovering_ = false;
    auditStep("recover_node", static_cast<uint64_t>(dead));
    if (deathHandler_)
        deathHandler_(dead);
}

void
DsmSpace::registerStats(obs::StatRegistry &reg)
{
    reg.attach("dsm.read_faults", readFaults_);
    reg.attach("dsm.write_faults", writeFaults_);
    reg.attach("dsm.invalidations", invalidations_);
    reg.attach("dsm.page_transfers", pageTransfers_);
    reg.attach("dsm.bytes_transferred", bytesTransferred_);
    reg.attach("dsm.extra_cycles", extraCycles_);
    reg.attach("xfault.pages_recovered", pagesRecovered_);
    reg.attach("xfault.pages_rehomed", pagesRehomed_);
    reg.attach("xfault.cut_rejects", cutRejects_);
    reg.attach("xfault.fenced_messages", fencedMessages_);
    reg.attach("xfault.pages_resynced", pagesResynced_);
    if (journal_)
        journal_->registerStats(reg);
    for (int n = 0; n < numNodes_; ++n) {
        std::string p = "node" + std::to_string(n) + ".dsm";
        NodeStats &ns = nodeStats_[static_cast<size_t>(n)];
        reg.attach(p + ".read_faults", ns.readFaults);
        reg.attach(p + ".write_faults", ns.writeFaults);
        reg.attach(p + ".invalidations", ns.invalidations);
        reg.attach(p + ".pages_in", ns.pagesIn);
    }
}

MemPort &
DsmSpace::port(int node)
{
    return ports_[static_cast<size_t>(node)];
}

void
DsmSpace::flushTlb(int node)
{
    ports_[static_cast<size_t>(node)].tlbFlush();
}

void
DsmSpace::flushAllTlbs()
{
    for (Port &p : ports_)
        p.tlbFlush();
}

void
DsmSpace::tlbFill(int node, uint64_t vpage, bool writable)
{
    if (!tlbEnabled_)
        return;
    if (mode_ == DsmMode::RemoteAccess) {
        // Only node-local home pages are free to access directly.
        if (isVdso(vpage) || homeOf(node, vpage) != node)
            return;
        uint8_t *base = mem_[static_cast<size_t>(node)].page(vpage);
        ports_[static_cast<size_t>(node)].tlbInstallRead(vpage, base);
        ports_[static_cast<size_t>(node)].tlbInstallWrite(vpage, base);
        auditStep("tlb_fill", vpage);
        return;
    }
    uint8_t *base = mem_[static_cast<size_t>(node)].page(vpage);
    ports_[static_cast<size_t>(node)].tlbInstallRead(vpage, base);
    if (writable && !isVdso(vpage))
        ports_[static_cast<size_t>(node)].tlbInstallWrite(vpage, base);
    auditStep("tlb_fill", vpage);
}

DsmSpace::Dir &
DsmSpace::dir(uint64_t vpage)
{
    auto it = dirs_.find(vpage);
    if (it == dirs_.end()) {
        Dir d;
        d.state.assign(static_cast<size_t>(numNodes_),
                       PageState::Invalid);
        it = dirs_.emplace(vpage, std::move(d)).first;
    }
    return it->second;
}

bool
DsmSpace::isVdso(uint64_t vpage) const
{
    return vpage == vm::kVdsoBase / vm::kPageSize;
}

int
DsmSpace::anyHolder(const Dir &d) const
{
    int shared = -1;
    for (int n = 0; n < numNodes_; ++n) {
        if (d.state[static_cast<size_t>(n)] == PageState::Modified)
            return n;
        if (d.state[static_cast<size_t>(n)] == PageState::Shared)
            shared = n;
    }
    return shared;
}

uint64_t
DsmSpace::faultRead(int node, uint64_t vpage)
{
    if (isVdso(vpage))
        return 0; // replicated by kernel broadcast, never faults
    Dir &d = dir(vpage);
    if (d.state[static_cast<size_t>(node)] != PageState::Invalid)
        return 0;
    NodeStats &ns = nodeStats_[static_cast<size_t>(node)];
    ++readFaults_;
    ++ns.readFaults;
    uint64_t cyc = 0;
    for (;;) {
        if (d.state[static_cast<size_t>(node)] != PageState::Invalid)
            break; // recovery restored the page onto this very node
        int holder = anyHolder(d);
        if (holder < 0) {
            // Cold anonymous page: materializes zero-filled locally.
            d.state[static_cast<size_t>(node)] = PageState::Shared;
            mem_[static_cast<size_t>(node)].page(vpage);
            journalTouch(vpage, node);
            auditStep("read_fault_cold", vpage);
            return cyc;
        }
        // Idempotent transfer application: a duplicate delivery (NIC
        // retransmission racing the ack) re-runs the same state change.
        auto applyCopy = [&] {
            std::memcpy(mem_[static_cast<size_t>(node)].page(vpage),
                        mem_[static_cast<size_t>(holder)].page(vpage),
                        vm::kPageSize);
            if (d.state[static_cast<size_t>(holder)] ==
                PageState::Modified) {
                d.state[static_cast<size_t>(holder)] = PageState::Shared;
                // Exclusive-ownership downgrade: the holder loses its
                // cached write translation (reads stay valid).
                ports_[static_cast<size_t>(holder)].tlbDropWrite(vpage);
            }
            d.state[static_cast<size_t>(node)] = PageState::Shared;
        };
        Xfer sent = xfer(holder, vm::kPageSize + kMsgHeader, node,
                         vpage);
        cyc += sent.cycles;
        if (sent.fenced)
            // The only copy lives across an open cut. A real node
            // would block here until the heal; the simulator makes
            // the dependency fatal so chaos tests must keep each
            // side's working set on its own side of the cut.
            fatal("dsm: node %d read-faulted page 0x%llx whose only "
                  "copy is across an active partition",
                  node, static_cast<unsigned long long>(vpage));
        if (!sent.ok)
            continue; // holder died mid-transfer; directory rebuilt
        applyCopy();
        if (sent.duplicate)
            applyCopy();
        ++pageTransfers_;
        ++ns.pagesIn;
        bytesTransferred_.add(vm::kPageSize);
        break;
    }
    extraCycles_.add(cyc);
    traceFault("read_fault", cyc, freqGHz_[static_cast<size_t>(node)]);
    auditStep("read_fault", vpage);
    return cyc;
}

uint64_t
DsmSpace::faultWrite(int node, uint64_t vpage)
{
    if (isVdso(vpage))
        return 0;
    Dir &d = dir(vpage);
    if (d.state[static_cast<size_t>(node)] == PageState::Modified)
        return 0;
    NodeStats &ns = nodeStats_[static_cast<size_t>(node)];
    ++writeFaults_;
    ++ns.writeFaults;
    uint64_t cyc = 0;
    while (d.state[static_cast<size_t>(node)] == PageState::Invalid) {
        int holder = anyHolder(d);
        if (holder < 0) {
            mem_[static_cast<size_t>(node)].page(vpage);
            break;
        }
        auto applyCopy = [&] {
            std::memcpy(mem_[static_cast<size_t>(node)].page(vpage),
                        mem_[static_cast<size_t>(holder)].page(vpage),
                        vm::kPageSize);
        };
        Xfer sent = xfer(holder, vm::kPageSize + kMsgHeader, node,
                         vpage);
        cyc += sent.cycles;
        if (sent.fenced)
            fatal("dsm: node %d write-faulted page 0x%llx whose only "
                  "copy is across an active partition",
                  node, static_cast<unsigned long long>(vpage));
        if (!sent.ok)
            continue; // holder died mid-transfer; directory rebuilt
        applyCopy();
        if (sent.duplicate)
            applyCopy();
        ++pageTransfers_;
        ++ns.pagesIn;
        bytesTransferred_.add(vm::kPageSize);
        break;
    }
    // Ownership transfer is a journal epoch: freeze the pre-write
    // content before the surviving replicas are invalidated, so a
    // crash of the new owner rolls back to this instant.
    journalTouch(vpage, node);
    // Invalidate every other copy. Each invalidation is a reliable
    // control message; applying one twice (duplicate delivery) is a
    // no-op, the copy is already gone.
    for (int n = 0; n < numNodes_; ++n) {
        if (n == node)
            continue;
        while (d.state[static_cast<size_t>(n)] != PageState::Invalid) {
            auto applyInval = [&] {
                d.state[static_cast<size_t>(n)] = PageState::Invalid;
                mem_[static_cast<size_t>(n)].dropPage(vpage);
                // The backing page is gone; both translations die.
                ports_[static_cast<size_t>(n)].tlbDropPage(vpage);
            };
            Xfer sent = xfer(n, kMsgHeader, node, vpage);
            cyc += sent.cycles;
            if (sent.fenced) {
                // The invalidation cannot cross the cut: defer it
                // into the fenced outbox (stamped with the sender's
                // CURRENT epoch, which the heal will make stale) and
                // leave n's copy in place. The page now has replicas
                // on both sides with different histories -- divergent
                // until the heal re-syncs it.
                outbox_.push_back(
                    {node, n, vpage,
                     nodeEpoch_[static_cast<size_t>(node)]});
                divergent_.insert(vpage);
                break;
            }
            if (!sent.ok)
                break; // n died; recovery already dropped its copy
            applyInval();
            if (sent.duplicate)
                applyInval();
            ++invalidations_;
            ++nodeStats_[static_cast<size_t>(n)].invalidations;
            break;
        }
    }
    d.state[static_cast<size_t>(node)] = PageState::Modified;
    extraCycles_.add(cyc);
    traceFault("write_fault", cyc, freqGHz_[static_cast<size_t>(node)]);
    auditStep("write_fault", vpage);
    return cyc;
}

int
DsmSpace::homeOf(int toucher, uint64_t vpage)
{
    auto [it, fresh] = home_.try_emplace(vpage, toucher);
    if (fresh)
        dir(vpage).state[static_cast<size_t>(toucher)] =
            PageState::Modified;
    return it->second;
}

uint64_t
DsmSpace::Port::read(uint64_t addr, void *dst, unsigned n)
{
    uint64_t cyc = 0;
    uint8_t *d = static_cast<uint8_t *>(dst);
    uint64_t left = n;
    while (left > 0) {
        uint64_t vpage = addr / vm::kPageSize;
        uint64_t inPage = std::min<uint64_t>(
            left, vm::kPageSize - addr % vm::kPageSize);
        if (tryRead(addr, d, static_cast<unsigned>(inPage))) {
            // Cached translation: the copy is local and free.
        } else if (dsm_.mode_ == DsmMode::RemoteAccess &&
                   !dsm_.isVdso(vpage)) {
            int home = dsm_.homeOf(node_, vpage);
            if (home != node_) {
                // Word-granular remote load over the interconnect.
                uint64_t c = dsm_.net_->charge(
                    64 + inPage,
                    dsm_.freqGHz_[static_cast<size_t>(node_)]);
                cyc += c;
                ++dsm_.readFaults_;
                ++dsm_.nodeStats_[static_cast<size_t>(node_)].readFaults;
                dsm_.extraCycles_.add(c);
            }
            dsm_.mem_[static_cast<size_t>(home)].read(addr, d, inPage);
            dsm_.tlbFill(node_, vpage, /*writable=*/false);
        } else {
            cyc += dsm_.faultRead(node_, vpage);
            dsm_.mem_[static_cast<size_t>(node_)].read(addr, d, inPage);
            dsm_.tlbFill(node_, vpage, /*writable=*/false);
        }
        addr += inPage;
        d += inPage;
        left -= inPage;
    }
    return cyc;
}

uint64_t
DsmSpace::Port::write(uint64_t addr, const void *src, unsigned n)
{
    uint64_t cyc = 0;
    const uint8_t *s = static_cast<const uint8_t *>(src);
    uint64_t left = n;
    while (left > 0) {
        uint64_t vpage = addr / vm::kPageSize;
        uint64_t inPage = std::min<uint64_t>(
            left, vm::kPageSize - addr % vm::kPageSize);
        if (tryWrite(addr, s, static_cast<unsigned>(inPage))) {
            // Cached writable translation: exclusive owner, free.
        } else if (dsm_.mode_ == DsmMode::RemoteAccess &&
                   !dsm_.isVdso(vpage)) {
            int home = dsm_.homeOf(node_, vpage);
            if (home != node_) {
                uint64_t c = dsm_.net_->charge(
                    64 + inPage,
                    dsm_.freqGHz_[static_cast<size_t>(node_)]);
                cyc += c;
                ++dsm_.writeFaults_;
                ++dsm_.nodeStats_[static_cast<size_t>(node_)].writeFaults;
                dsm_.extraCycles_.add(c);
            }
            dsm_.mem_[static_cast<size_t>(home)].write(addr, s, inPage);
            dsm_.tlbFill(node_, vpage, /*writable=*/true);
        } else {
            cyc += dsm_.faultWrite(node_, vpage);
            dsm_.mem_[static_cast<size_t>(node_)].write(addr, s, inPage);
            dsm_.tlbFill(node_, vpage, /*writable=*/true);
        }
        addr += inPage;
        s += inPage;
        left -= inPage;
    }
    return cyc;
}

void
DsmSpace::populate(int homeNode, uint64_t addr, const void *src, size_t n)
{
    const uint8_t *s = static_cast<const uint8_t *>(src);
    while (n > 0) {
        uint64_t vpage = addr / vm::kPageSize;
        size_t inPage = std::min<size_t>(
            n, vm::kPageSize - addr % vm::kPageSize);
        dir(vpage).state[static_cast<size_t>(homeNode)] =
            PageState::Modified;
        home_.try_emplace(vpage, homeNode);
        mem_[static_cast<size_t>(homeNode)].write(addr, s, inPage);
        journalTouch(vpage, homeNode);
        addr += inPage;
        s += inPage;
        n -= inPage;
    }
}

void
DsmSpace::populateZero(int homeNode, uint64_t addr, size_t n)
{
    while (n > 0) {
        uint64_t vpage = addr / vm::kPageSize;
        size_t inPage = std::min<size_t>(
            n, vm::kPageSize - addr % vm::kPageSize);
        dir(vpage).state[static_cast<size_t>(homeNode)] =
            PageState::Modified;
        home_.try_emplace(vpage, homeNode);
        mem_[static_cast<size_t>(homeNode)].page(vpage);
        journalTouch(vpage, homeNode);
        addr += inPage;
        n -= inPage;
    }
}

void
DsmSpace::broadcastWrite64(uint64_t addr, uint64_t value)
{
    uint64_t vpage = addr / vm::kPageSize;
    Dir &d = dir(vpage);
    for (int n = 0; n < numNodes_; ++n) {
        if (!alive_[static_cast<size_t>(n)])
            continue; // a dead kernel gets no replica
        mem_[static_cast<size_t>(n)].write(addr, &value, 8);
        // Everyone is demoted to Shared; cached write rights expire.
        ports_[static_cast<size_t>(n)].tlbDropWrite(vpage);
        d.state[static_cast<size_t>(n)] = PageState::Shared;
    }
    auditStep("broadcast_write", vpage);
}

void
DsmSpace::peek(uint64_t addr, void *dst, size_t n)
{
    uint8_t *d = static_cast<uint8_t *>(dst);
    while (n > 0) {
        uint64_t vpage = addr / vm::kPageSize;
        size_t inPage = std::min<size_t>(
            n, vm::kPageSize - addr % vm::kPageSize);
        auto it = dirs_.find(vpage);
        int holder = it == dirs_.end() ? -1 : anyHolder(it->second);
        if (holder < 0)
            std::memset(d, 0, inPage);
        else
            mem_[static_cast<size_t>(holder)].read(addr, d, inPage);
        addr += inPage;
        d += inPage;
        n -= inPage;
    }
}

std::map<uint64_t, std::vector<uint8_t>>
DsmSpace::pageImage()
{
    std::map<uint64_t, std::vector<uint8_t>> image;
    for (const auto &[vpage, d] : dirs_) {
        int holder = anyHolder(d);
        if (holder < 0)
            continue;
        std::vector<uint8_t> bytes(vm::kPageSize);
        mem_[static_cast<size_t>(holder)].read(vpage * vm::kPageSize,
                                               bytes.data(),
                                               bytes.size());
        image.emplace(vpage, std::move(bytes));
    }
    return image;
}

uint64_t
DsmSpace::poke(int node, uint64_t addr, const void *src, size_t n)
{
    if (bypass_) {
        bypassWrite(addr, src, n);
        return 0;
    }
    return port(node).write(addr, src, static_cast<unsigned>(n));
}

uint64_t
DsmSpace::pull(int node, uint64_t addr, void *dst, size_t n)
{
    if (bypass_) {
        peek(addr, dst, n);
        return 0;
    }
    return port(node).read(addr, dst, static_cast<unsigned>(n));
}

void
DsmSpace::bypassWrite(uint64_t addr, const void *src, size_t n)
{
    const uint8_t *s = static_cast<const uint8_t *>(src);
    while (n > 0) {
        uint64_t vpage = addr / vm::kPageSize;
        size_t inPage = std::min<size_t>(
            n, vm::kPageSize - addr % vm::kPageSize);
        auto it = dirs_.find(vpage);
        if (it != dirs_.end()) {
            // Patch every valid replica so Shared copies stay
            // byte-identical; states, TLBs, and counters untouched.
            for (int node = 0; node < numNodes_; ++node)
                if (it->second.state[static_cast<size_t>(node)] !=
                    PageState::Invalid)
                    mem_[static_cast<size_t>(node)].write(addr, s,
                                                          inPage);
        }
        addr += inPage;
        s += inPage;
        n -= inPage;
    }
}

PageState
DsmSpace::state(int node, uint64_t vpage) const
{
    auto it = dirs_.find(vpage);
    if (it == dirs_.end())
        return PageState::Invalid;
    return it->second.state[static_cast<size_t>(node)];
}

int
DsmSpace::modifiedOwner(uint64_t vpage) const
{
    auto it = dirs_.find(vpage);
    if (it == dirs_.end())
        return -1;
    for (int n = 0; n < numNodes_; ++n)
        if (it->second.state[static_cast<size_t>(n)] ==
            PageState::Modified)
            return n;
    return -1;
}

void
DsmSpace::checkInvariants() const
{
    for (const auto &[vpage, d] : dirs_) {
        if (divergent_.count(vpage))
            continue; // straddles the cut (or the heal is mid-drain);
                      // re-synced and cleared by healPartition()
        int modified = 0, shared = 0;
        for (int n = 0; n < numNodes_; ++n) {
            if (d.state[static_cast<size_t>(n)] == PageState::Modified)
                ++modified;
            else if (d.state[static_cast<size_t>(n)] == PageState::Shared)
                ++shared;
        }
        if (modified > 1)
            panic("DSM invariant: page 0x%llx has %d Modified copies",
                  static_cast<unsigned long long>(vpage), modified);
        if (modified == 1 && shared > 0 &&
            vpage != vm::kVdsoBase / vm::kPageSize)
            panic("DSM invariant: page 0x%llx Modified with %d Shared",
                  static_cast<unsigned long long>(vpage), shared);
        for (int n = 0; n < numNodes_; ++n)
            if (!alive_[static_cast<size_t>(n)] &&
                d.state[static_cast<size_t>(n)] != PageState::Invalid)
                panic("DSM invariant: page 0x%llx valid on dead node "
                      "%d",
                      static_cast<unsigned long long>(vpage), n);
    }
}


void
DsmSpace::saveState(ByteWriter &w) const
{
    XISA_CHECK(!partActive_,
               "dsm: cannot snapshot during an active partition "
               "(heal first; the fenced outbox is not serialized)");
    w.u32(static_cast<uint32_t>(numNodes_));
    for (int n = 0; n < numNodes_; ++n) {
        const auto &pages = mem_[static_cast<size_t>(n)].pageMap();
        w.u32(static_cast<uint32_t>(pages.size()));
        for (const auto &[vpage, bytes] : pages) {
            w.u64(vpage);
            w.raw(bytes.data(), bytes.size());
        }
    }
    w.u32(static_cast<uint32_t>(dirs_.size()));
    for (const auto &[vpage, d] : dirs_) {
        w.u64(vpage);
        for (int n = 0; n < numNodes_; ++n)
            w.u8(static_cast<uint8_t>(d.state[static_cast<size_t>(n)]));
    }
    w.u32(static_cast<uint32_t>(home_.size()));
    for (const auto &[vpage, node] : home_) {
        w.u64(vpage);
        w.u32(static_cast<uint32_t>(node));
    }
    // Protocol counters. Without these a restored container's registry
    // reported zeros while the run's history was gone -- the snapshot
    // must carry the counts the pages embody.
    w.u64(readFaults_.value());
    w.u64(writeFaults_.value());
    w.u64(invalidations_.value());
    w.u64(pageTransfers_.value());
    w.u64(bytesTransferred_.value());
    w.u64(extraCycles_.value());
    for (const NodeStats &ns : nodeStats_) {
        w.u64(ns.readFaults.value());
        w.u64(ns.writeFaults.value());
        w.u64(ns.invalidations.value());
        w.u64(ns.pagesIn.value());
    }
}

void
DsmSpace::loadState(ByteReader &r)
{
    if (r.u32() != static_cast<uint32_t>(numNodes_))
        fatal("DSM snapshot node count mismatch");
    for (int n = 0; n < numNodes_; ++n) {
        uint32_t count = r.u32();
        for (uint32_t p = 0; p < count; ++p) {
            uint64_t vpage = r.u64();
            uint8_t *page = mem_[static_cast<size_t>(n)].page(vpage);
            r.raw(page, vm::kPageSize);
        }
    }
    uint32_t dirCount = r.u32();
    for (uint32_t i = 0; i < dirCount; ++i) {
        uint64_t vpage = r.u64();
        Dir &d = dir(vpage);
        for (int n = 0; n < numNodes_; ++n)
            d.state[static_cast<size_t>(n)] =
                static_cast<PageState>(r.u8());
    }
    uint32_t homeCount = r.u32();
    for (uint32_t i = 0; i < homeCount; ++i) {
        uint64_t vpage = r.u64();
        home_[vpage] = static_cast<int>(r.u32());
    }
    auto setCounter = [](obs::Counter &c, uint64_t v) {
        c.reset();
        c.add(v);
    };
    setCounter(readFaults_, r.u64());
    setCounter(writeFaults_, r.u64());
    setCounter(invalidations_, r.u64());
    setCounter(pageTransfers_, r.u64());
    setCounter(bytesTransferred_, r.u64());
    setCounter(extraCycles_, r.u64());
    for (NodeStats &ns : nodeStats_) {
        setCounter(ns.readFaults, r.u64());
        setCounter(ns.writeFaults, r.u64());
        setCounter(ns.invalidations, r.u64());
        setCounter(ns.pagesIn, r.u64());
    }
    flushAllTlbs();
    // A restored space starts from a fresh commit point: re-capture
    // every restored page so post-restore crashes roll back to here.
    if (journal_) {
        for (auto &[vpage, d] : dirs_) {
            int holder = anyHolder(d);
            if (holder >= 0)
                journal_->capture(
                    vpage,
                    mem_[static_cast<size_t>(holder)].page(vpage));
        }
    }
    checkInvariants();
}
} // namespace xisa
