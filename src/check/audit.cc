#include "check/audit.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/stacktransform.hh"
#include "isa/abi.hh"
#include "obs/trace.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace xisa::check {

namespace {

const char *
stateName(PageState s)
{
    switch (s) {
      case PageState::Invalid: return "Invalid";
      case PageState::Shared: return "Shared";
      case PageState::Modified: return "Modified";
    }
    return "?";
}

} // namespace

bool
auditRequested()
{
    return envFlag("XISA_AUDIT");
}

void
SuperblockAudit::onSuperblock(Event ev, uint32_t funcId,
                              uint32_t instrIdx, uint64_t instrsNow)
{
    switch (ev) {
      case Event::Enter: ++enters_; break;
      case Event::Deopt: ++deopts_; break;
      case Event::Exit: ++exits_; break;
    }
    if (inSlice_ && instrsNow < watermark_) {
        std::ostringstream os;
        os << "live instruction count went backwards within a run "
           << "slice: " << watermark_ << " -> " << instrsNow << " at "
           << (ev == Event::Enter   ? "enter"
               : ev == Event::Deopt ? "deopt"
                                    : "exit")
           << " func " << funcId << " instr " << instrIdx
           << " (block-local progress lost or double-counted across "
           << "a deoptimization)";
        audit_.violation("superblock", os.str());
    }
    watermark_ = instrsNow;
    // An Exit ends the slice: the next event belongs to a new quantum,
    // possibly a different thread with a smaller instruction count.
    inSlice_ = ev != Event::Exit;
}

InvariantAuditor::InvariantAuditor(DsmSpace &dsm, Context ctx)
    : dsm_(dsm), ctx_(ctx)
{}

void
InvariantAuditor::attach()
{
    dsm_.setAuditHook(
        [this](const char *what, uint64_t vpage) {
            onProtocolStep(what, vpage);
        });
}

void
InvariantAuditor::onProtocolStep(const char *what, uint64_t vpage)
{
    ++checks_;
    ++steps_;
    // Partition-protocol violations arrive as dedicated step tags:
    // the DSM detects the condition (it owns the cut and epoch
    // state), the auditor turns it into a replayable panic.
    if (std::strcmp(what, "cross_cut_delivery") == 0) {
        std::ostringstream os;
        os << "message about page 0x" << std::hex << vpage
           << " delivered across an open partition cut";
        violation(what, os.str());
    }
    if (std::strcmp(what, "epoch_regression") == 0) {
        std::ostringstream os;
        os << "stale pre-heal message about page 0x" << std::hex
           << vpage
           << " applied: per-peer epoch went backwards (the fence "
           << "is down)";
        violation(what, os.str());
    }
    checkPage(what, vpage, /*bytes=*/true);
    // The affected page is checked exhaustively on every step; the
    // whole directory and the counter sums are swept periodically to
    // bound the audit's cost on fault storms.
    if ((steps_ & 63u) == 0) {
        checkDirectoryAndTlbs(what, /*bytes=*/false);
        checkCounterSums(what);
    }
}

void
InvariantAuditor::deepCheck(const char *where)
{
    ++checks_;
    checkDirectoryAndTlbs(where, /*bytes=*/true);
    checkCounterSums(where);
}

void
InvariantAuditor::checkDirectoryAndTlbs(const char *where, bool bytes)
{
    for (const auto &[vpage, d] : dsm_.dirs_) {
        (void)d;
        checkPage(where, vpage, bytes);
    }
}

void
InvariantAuditor::checkPage(const char *where, uint64_t vpage,
                            bool bytes)
{
    // Membership alone (not partActive_) gates the exemption: the heal
    // clears partActive_ before it drains the outbox and re-syncs, so
    // a divergent page is legitimately still inconsistent for the few
    // protocol steps inside healPartition() itself. The set is cleared
    // by the heal, which re-arms the check.
    if (dsm_.divergent_.count(vpage))
        return; // replicas straddle(d) an open cut; re-synced at heal
    const bool vdso = dsm_.isVdso(vpage);
    auto it = dsm_.dirs_.find(vpage);
    if (it == dsm_.dirs_.end()) {
        // Unknown page: nothing may be resident or cached for it.
        for (int n = 0; n < dsm_.numNodes_; ++n) {
            size_t sn = static_cast<size_t>(n);
            if (dsm_.mem_[sn].hasPage(vpage)) {
                std::ostringstream os;
                os << "node " << n << " holds page 0x" << std::hex
                   << vpage << " with no directory entry";
                violation(where, os.str());
            }
            if (dsm_.ports_[sn].tlbReadBase(vpage) ||
                dsm_.ports_[sn].tlbWriteBase(vpage)) {
                std::ostringstream os;
                os << "node " << n << " caches a translation for "
                   << "unknown page 0x" << std::hex << vpage;
                violation(where, os.str());
            }
        }
        return;
    }

    const auto &state = it->second.state;
    int raHome = -1;
    if (dsm_.mode_ == DsmMode::RemoteAccess) {
        auto h = dsm_.home_.find(vpage);
        raHome = h == dsm_.home_.end() ? -1 : h->second;
    }

    int modified = 0, shared = 0, firstHolder = -1;
    for (int n = 0; n < dsm_.numNodes_; ++n) {
        size_t sn = static_cast<size_t>(n);
        PageState s = state[sn];
        const bool resident = dsm_.mem_[sn].hasPage(vpage);
        if (s == PageState::Modified)
            ++modified;
        else if (s == PageState::Shared)
            ++shared;
        if (s != PageState::Invalid && firstHolder < 0)
            firstHolder = n;
        // Crash recovery: a declared-dead kernel owns nothing. (The
        // residency and TLB corollaries follow from the Invalid checks
        // below once this holds.) Suppressed mid-reconstruction, where
        // not-yet-swept entries still name the dead node.
        if (s != PageState::Invalid && !dsm_.recovering_ &&
            !dsm_.alive_[sn]) {
            std::ostringstream os;
            os << "page 0x" << std::hex << vpage << std::dec << " is "
               << stateName(s) << " on dead node " << n;
            violation(where, os.str());
        }
        if (s != PageState::Invalid && !resident) {
            std::ostringstream os;
            os << "page 0x" << std::hex << vpage << std::dec
               << " is " << stateName(s) << " on node " << n
               << " but the node holds no copy";
            violation(where, os.str());
        }
        if (s == PageState::Invalid && resident) {
            std::ostringstream os;
            os << "page 0x" << std::hex << vpage << std::dec
               << " is resident on node " << n
               << " whose directory state is Invalid (leaked page)";
            violation(where, os.str());
        }

        // TLB-shootdown completeness: a live translation must imply
        // both the right and the exact current backing storage.
        const uint8_t *rb = dsm_.ports_[sn].tlbReadBase(vpage);
        const uint8_t *wb = dsm_.ports_[sn].tlbWriteBase(vpage);
        if ((rb || wb) && !dsm_.tlbEnabled_) {
            std::ostringstream os;
            os << "node " << n << " cached a translation for page 0x"
               << std::hex << vpage << " in slow-path mode";
            violation(where, os.str());
        }
        if ((rb || wb) && dsm_.mode_ == DsmMode::RemoteAccess &&
            (vdso || raHome != n)) {
            std::ostringstream os;
            os << "node " << n << " caches non-home page 0x"
               << std::hex << vpage << " in RemoteAccess mode";
            violation(where, os.str());
        }
        if (rb) {
            if (s == PageState::Invalid) {
                std::ostringstream os;
                os << "node " << n
                   << " survived shootdown: read translation for "
                   << "Invalid page 0x" << std::hex << vpage;
                violation(where, os.str());
            }
            if (rb != dsm_.mem_[sn].peekPage(vpage)) {
                std::ostringstream os;
                os << "node " << n << " read translation for page 0x"
                   << std::hex << vpage
                   << " points at stale storage";
                violation(where, os.str());
            }
        }
        if (wb) {
            const bool allowed =
                dsm_.mode_ == DsmMode::RemoteAccess
                    ? raHome == n && !vdso
                    : s == PageState::Modified && !vdso;
            if (!allowed) {
                std::ostringstream os;
                os << "node " << n
                   << " survived shootdown: write translation for "
                   << stateName(s) << (vdso ? " vDSO" : "")
                   << " page 0x" << std::hex << vpage;
                violation(where, os.str());
            }
            if (wb != dsm_.mem_[sn].peekPage(vpage)) {
                std::ostringstream os;
                os << "node " << n << " write translation for page 0x"
                   << std::hex << vpage
                   << " points at stale storage";
                violation(where, os.str());
            }
        }
    }

    // Crash recovery: every known page keeps at least one live owner
    // (directory reconstruction re-homed or journal-restored orphans),
    // and any sole-Modified page -- the only state a crash could
    // destroy -- is covered by the journal.
    if (dsm_.journal_ && !dsm_.recovering_ && !vdso) {
        if (firstHolder < 0) {
            std::ostringstream os;
            os << "page 0x" << std::hex << vpage
               << " has zero live owners";
            violation(where, os.str());
        }
        if (modified == 1 && shared == 0 &&
            !dsm_.journal_->has(vpage)) {
            std::ostringstream os;
            os << "sole-Modified page 0x" << std::hex << vpage
               << " is not covered by the page journal";
            violation(where, os.str());
        }
    }
    if (modified > 1) {
        std::ostringstream os;
        os << "page 0x" << std::hex << vpage << std::dec << " has "
           << modified << " Modified copies (single-writer violated)";
        violation(where, os.str());
    }
    if (modified == 1 && shared > 0 && !vdso) {
        std::ostringstream os;
        os << "page 0x" << std::hex << vpage << std::dec
           << " mixes one Modified with " << shared
           << " Shared copies";
        violation(where, os.str());
    }

    // Replica agreement: every valid copy must be byte-identical.
    if (bytes && firstHolder >= 0 && modified + shared > 1) {
        const uint8_t *ref =
            dsm_.mem_[static_cast<size_t>(firstHolder)].peekPage(vpage);
        for (int n = firstHolder + 1; n < dsm_.numNodes_; ++n) {
            size_t sn = static_cast<size_t>(n);
            if (state[sn] == PageState::Invalid)
                continue;
            const uint8_t *cur = dsm_.mem_[sn].peekPage(vpage);
            if (ref && cur &&
                std::memcmp(ref, cur, vm::kPageSize) != 0) {
                std::ostringstream os;
                os << "page 0x" << std::hex << vpage << std::dec
                   << " replicas diverge between nodes "
                   << firstHolder << " and " << n;
                violation(where, os.str());
            }
        }
    }
}

void
InvariantAuditor::checkCounterSums(const char *where)
{
    uint64_t rf = 0, wf = 0, inv = 0, in = 0;
    for (const auto &ns : dsm_.nodeStats_) {
        rf += ns.readFaults.value();
        wf += ns.writeFaults.value();
        inv += ns.invalidations.value();
        in += ns.pagesIn.value();
    }
    auto check = [&](const char *what, const obs::Counter &agg,
                     uint64_t sum) {
        if (agg.value() == sum)
            return;
        std::ostringstream os;
        os << what << " disagree: aggregate " << agg.value()
           << " vs per-node sum " << sum;
        violation(where, os.str());
    };
    check("read-fault counters", dsm_.readFaults_, rf);
    check("write-fault counters", dsm_.writeFaults_, wf);
    check("invalidation counters", dsm_.invalidations_, inv);
    check("page-transfer counters", dsm_.pageTransfers_, in);
}

void
InvariantAuditor::auditStackRoundTrip(StackTransformer &xform,
                                      const ThreadContext &srcCtx,
                                      const ThreadContext &destCtx,
                                      uint32_t siteId, int node,
                                      uint64_t stackTopAddr)
{
    const uint64_t base = stackTopAddr - vm::kStackSize;
    std::vector<uint8_t> before(vm::kStackSize);
    dsm_.peek(base, before.data(), before.size());

    ThreadContext back;
    {
        // The reverse transform must not fault pages, charge cycles,
        // bump counters, or emit trace events: the audit has to be
        // invisible to the run it is checking.
        DsmSpace::ProtocolBypass bypass(dsm_);
        StackTransformer::AuditScope scope(xform);
        back = xform.transform(destCtx, siteId, srcCtx.isa, dsm_, node,
                               stackTopAddr);
    }

    std::vector<uint8_t> after(vm::kStackSize);
    dsm_.peek(base, after.data(), after.size());
    if (before != after) {
        size_t off = 0;
        while (off < before.size() && before[off] == after[off])
            ++off;
        std::ostringstream os;
        os << "stack region not reproduced bit-for-bit: first "
           << "difference at 0x" << std::hex << base + off;
        violation("stack_round_trip", os.str());
    }

    const AbiInfo &sabi = AbiInfo::of(srcCtx.isa);
    auto requireEq = [&](const char *what, uint64_t got,
                         uint64_t want) {
        if (got != want) {
            std::ostringstream os;
            os << what << " not reproduced: got 0x" << std::hex << got
               << ", source had 0x" << want;
            violation("stack_round_trip", os.str());
        }
    };
    requireEq("SP", back.gpr[sabi.spReg], srcCtx.gpr[sabi.spReg]);
    requireEq("FP", back.gpr[sabi.fpReg], srcCtx.gpr[sabi.fpReg]);
    requireEq("TLS base", back.tlsBase, srcCtx.tlsBase);
    requireEq("resume funcId", back.pc.funcId, srcCtx.pc.funcId);
    // The source trapped AT the migration Bl; the round trip resumes
    // after it, exactly like the homogeneous ++instrIdx path.
    requireEq("resume instrIdx", back.pc.instrIdx,
              srcCtx.pc.instrIdx + 1);
    ++roundTrips_;
    ++checks_;
}

void
InvariantAuditor::violation(const char *where,
                            const std::string &detail)
{
    std::fprintf(stderr, "[audit] VIOLATION at %s: %s\n", where,
                 detail.c_str());
    std::fprintf(stderr,
                 "[audit] replay: XISA_AUDIT=1 XISA_PERTURB=%llu "
                 "(fault seed 0x%llx)\n",
                 static_cast<unsigned long long>(ctx_.perturbSeed),
                 static_cast<unsigned long long>(ctx_.faultSeed));
#if XISA_TRACE
    if (obs::traceEnabled()) {
        std::string path =
            "xisa_audit_violation_" +
            std::to_string(ctx_.perturbSeed) + ".trace.json";
        std::ofstream out(path);
        if (out) {
            obs::Tracer::global().exportChromeTrace(out);
            std::fprintf(stderr, "[audit] trace dumped to %s\n",
                         path.c_str());
        }
    }
#endif
    panic("audit violation at %s: %s", where, detail.c_str());
}

} // namespace xisa::check
