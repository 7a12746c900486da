/**
 * @file
 * Superblock discovery, micro-op lowering, and the computed-goto
 * dispatch loop (DESIGN.md §10). See interp_threaded.hh for the
 * engine-level contract; the invariants that matter locally:
 *
 *  - Budget: a superblock is entered (and a backward edge taken) only
 *    while at least `len` instructions of quantum remain; the final
 *    sub-`len` tail of a slice is delegated to runImpl<kFast>, so the
 *    hot loop never checks the budget per instruction.
 *  - I-fetch batching: straight-line fetches after a line-start
 *    instruction are guaranteed last-line memo hits of the L1I model
 *    and are applied in one bulkMemoHits() call; an instruction with
 *    `fetchReal` set (block entry, join target, line crossing) flushes
 *    the batch and runs a real access. The fetch-accounting step of a
 *    uop runs AFTER its software-TLB probes, so a deoptimizing
 *    instruction has touched no cache state and the reference step that
 *    replays it performs its one and only fetch.
 *  - Trap accounting: the reference engine computes a trapping
 *    instruction's fetch+cost cycles but never charges them (the
 *    accounting tail is skipped), while the I-cache mutation of the
 *    fetch has already happened. Trap uops therefore perform the real
 *    fetch themselves and discard the penalty.
 *  - Deopt: memory uops probe the software TLB before any side effect
 *    (sp updates and fetch accounting included), so a miss can hand the
 *    untouched instruction to runImpl<kFast> for reference-exact
 *    execution -- slow-path protocol actions, trace cursor updates,
 *    machine-fault messages and all.
 *  - One data probe: LOADU/STOREU first probe the L1D memo slot, whose
 *    host pointer (Cache::hostLoad) stands in for a software-TLB hit.
 *    Pointers are filled only after a TLB grant, and at every run()
 *    entry and after every deopt -- the only points where TLB state
 *    can change under a slice -- they are dropped unless the port's
 *    TLB epoch is unchanged.
 */

#include "machine/interp_threaded.hh"

#include <algorithm>
#include <cstring>
#include <iterator>

#include "emu/dbt.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace xisa {

uint64_t
execTimingSig(const NodeSpec &spec)
{
    // FNV-1a over every timing input the artifacts bake in.
    uint64_t h = 1469598103934665603ull;
    auto mix = [&h](uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ull;
        }
    };
    for (size_t i = 0; i < spec.opCost.size(); ++i)
        mix(spec.opCost[i]);
    mix(spec.l1i.lineBytes);
    mix(spec.memPenaltyCycles);
    mix(static_cast<uint64_t>(spec.isa));
    return h;
}

// ---------------------------------------------------------------------------
// ExecCache
// ---------------------------------------------------------------------------

ExecCache::IsaSlot *
ExecCache::slot(IsaId isa, uint64_t sig)
{
    IsaSlot &s = isa_[static_cast<int>(isa)];
    if (!s.sigSet) {
        s.sigSet = true;
        s.sig = sig;
    }
    return s.sig == sig ? &s : nullptr;
}

ExecCache::PrePtr
ExecCache::pre(IsaId isa, uint32_t funcId, uint64_t sig)
{
    std::lock_guard<std::mutex> lk(mu_);
    IsaSlot *s = slot(isa, sig);
    if (!s || funcId >= s->pre.size())
        return nullptr;
    return s->pre[funcId];
}

ExecCache::PrePtr
ExecCache::setPre(IsaId isa, uint32_t funcId, uint64_t sig, PrePtr p)
{
    std::lock_guard<std::mutex> lk(mu_);
    IsaSlot *s = slot(isa, sig);
    if (!s)
        return p;
    if (funcId >= s->pre.size())
        s->pre.resize(funcId + 1);
    if (!s->pre[funcId])
        s->pre[funcId] = std::move(p);
    return s->pre[funcId];
}

ExecCache::BlockPtr
ExecCache::block(IsaId isa, uint32_t funcId, uint32_t entry, uint64_t sig)
{
    std::lock_guard<std::mutex> lk(mu_);
    IsaSlot *s = slot(isa, sig);
    if (!s || funcId >= s->blocks.size() ||
        entry >= s->blocks[funcId].size())
        return nullptr;
    return s->blocks[funcId][entry];
}

ExecCache::BlockPtr
ExecCache::setBlock(IsaId isa, uint32_t funcId, uint32_t entry,
                    uint64_t sig, BlockPtr b)
{
    std::lock_guard<std::mutex> lk(mu_);
    IsaSlot *s = slot(isa, sig);
    if (!s)
        return b;
    if (funcId >= s->blocks.size())
        s->blocks.resize(funcId + 1);
    if (entry >= s->blocks[funcId].size())
        s->blocks[funcId].resize(entry + 1);
    if (!s->blocks[funcId][entry])
        s->blocks[funcId][entry] = std::move(b);
    return s->blocks[funcId][entry];
}

// ---------------------------------------------------------------------------
// Micro-op kinds
// ---------------------------------------------------------------------------

// One entry per computed-goto handler. Kinds sharing a MOp's name lower
// 1:1 from it; the rest are the control/exit structure.
#define XISA_UOP_KINDS(X) \
    X(Nop) X(MovImm) X(MovReg) \
    X(Add) X(Sub) X(Mul) X(SDiv) X(UDiv) X(SRem) X(URem) \
    X(And) X(Orr) X(Eor) X(Lsl) X(Lsr) X(Asr) \
    X(AddImm) X(SubImm) X(MulImm) X(AndImm) X(OrrImm) X(EorImm) \
    X(LslImm) X(LsrImm) X(AsrImm) X(Neg) \
    X(Cmp) X(CmpImm) X(CSet) \
    X(FAdd) X(FSub) X(FMul) X(FDiv) X(FNeg) X(FMovReg) X(FMovImm) \
    X(FCmp) X(SCvtF) X(FCvtS) X(TlsBase) \
    X(Ldr) X(Ldr32) X(LdrS32) X(LdrB) X(FLdr) \
    X(LdrIdx) X(Ldr32Idx) X(LdrBIdx) X(FLdrIdx) X(Pop) \
    X(Str) X(Str32) X(StrB) X(FStr) \
    X(StrIdx) X(Str32Idx) X(StrBIdx) X(FStrIdx) X(Push) \
    X(AtomicAdd) \
    X(JmpFwd) X(JmpBack) X(CondFwd) X(CondBack) \
    X(JmpExit) X(CondExit) X(FallExit) \
    X(CmpCondFwd) X(CmpCondBack) X(CmpCondExit) \
    X(CmpImmCondFwd) X(CmpImmCondBack) X(CmpImmCondExit) \
    X(AddCmpImmCondFwd) X(AddCmpImmCondBack) X(AddCmpImmCondExit) \
    X(CallLink) X(CallPush) X(RetLink) X(RetPop) \
    X(MigTrap) X(BuiltinTrap) X(SysTrap) X(Hlt) \
    X(Delegate)

namespace {

enum UopKind : uint32_t {
#define X(n) k##n,
    XISA_UOP_KINDS(X)
#undef X
        kNumUopKinds
};

#if XISA_THREADED_CAPABLE
// Handler addresses inside runLoop, captured once per process; blocks
// lowered by any engine instance dispatch through the same table.
const void *gLabels[kNumUopKinds];
std::once_flag gLabelsOnce;
#endif

/** 1:1 uop kind for a straight-line MOp (not control/trap/exit). */
UopKind
kindForOp(MOp op)
{
    switch (op) {
#define K(n) \
  case MOp::n: \
      return k##n;
        K(Nop) K(MovImm) K(MovReg)
        K(Add) K(Sub) K(Mul) K(SDiv) K(UDiv) K(SRem) K(URem)
        K(And) K(Orr) K(Eor) K(Lsl) K(Lsr) K(Asr)
        K(AddImm) K(SubImm) K(MulImm) K(AndImm) K(OrrImm) K(EorImm)
        K(LslImm) K(LsrImm) K(AsrImm) K(Neg)
        K(Cmp) K(CmpImm) K(CSet)
        K(FAdd) K(FSub) K(FMul) K(FDiv) K(FNeg) K(FMovReg) K(FMovImm)
        K(FCmp) K(SCvtF) K(FCvtS) K(TlsBase)
        K(Ldr) K(Ldr32) K(LdrS32) K(LdrB) K(FLdr)
        K(LdrIdx) K(Ldr32Idx) K(LdrBIdx) K(FLdrIdx) K(Pop)
        K(Str) K(Str32) K(StrB) K(FStr)
        K(StrIdx) K(Str32Idx) K(StrBIdx) K(FStrIdx) K(Push)
        K(AtomicAdd)
#undef K
      default:
        panic("kindForOp: op is not a straight-line operation");
    }
}

} // namespace

// ---------------------------------------------------------------------------
// ThreadedEngine
// ---------------------------------------------------------------------------

ThreadedEngine::ThreadedEngine(Interp &interp)
    : interp_(interp), byEntry_(interp.bin_.ir.functions.size())
{
#if XISA_THREADED_CAPABLE
    std::call_once(gLabelsOnce, [this] {
        runLoop(nullptr, nullptr, nullptr, nullptr, 0, gLabels);
    });
#endif
}

void
ThreadedEngine::shareCache(std::shared_ptr<ExecCache> cache)
{
    cache_ = std::move(cache);
}

const SuperBlock *
ThreadedEngine::blockAt(uint32_t funcId, uint32_t entry)
{
    std::vector<const SuperBlock *> &slots = byEntry_[funcId];
    if (entry < slots.size() && slots[entry])
        return slots[entry];
    if (slots.size() != interp_.predecoded(funcId).size())
        slots.resize(interp_.predecoded(funcId).size(), nullptr);
    std::shared_ptr<const SuperBlock> b;
    if (cache_)
        b = cache_->block(interp_.isa_, funcId, entry, interp_.execSig_);
    if (!b) {
        b = lower(funcId, entry);
        if (cache_)
            b = cache_->setBlock(interp_.isa_, funcId, entry,
                                 interp_.execSig_, b);
    }
    slots[entry] = b.get();
    keepalive_.push_back(std::move(b));
    return slots[entry];
}

std::shared_ptr<const SuperBlock>
ThreadedEngine::lower(uint32_t funcId, uint32_t entry)
{
#if XISA_THREADED_CAPABLE
    const std::vector<PreInstr> &ps = interp_.predecoded(funcId);
    const AbiInfo &abi = interp_.abi_;
    const uint32_t n = static_cast<uint32_t>(ps.size());
    const uint32_t lineBytes = interp_.spec_.l1i.lineBytes;

    // Bound the range so `len` (the per-entry budget reservation) stays
    // far below any realistic quantum.
    constexpr uint32_t kMaxRange = 128;
    const uint32_t cap =
        n - entry < kMaxRange ? n : entry + kMaxRange;

    // --- Discovery: grow past block boundaries (the classification
    // shared with the DBT cost model) while an earlier in-window
    // forward branch still jumps over them.
    uint32_t end = entry;
    uint32_t maxFwd = entry;
    while (end < cap) {
        const MachInstr &in = ps[end].in;
        if ((in.op == MOp::B || in.op == MOp::BCond) &&
            in.target > maxFwd && in.target < cap)
            maxFwd = in.target;
        ++end;
        if (emuBlockBoundary(in.op) && maxFwd < end)
            break;
    }

    // --- Join points: in-range direct branch targets start their line
    // with a real fetch, so fall-through memo batching stays exact.
    std::vector<uint8_t> isTarget(end - entry, 0);
    for (uint32_t i = entry; i < end; ++i) {
        const MachInstr &in = ps[i].in;
        if ((in.op == MOp::B || in.op == MOp::BCond) &&
            in.target >= entry && in.target < end)
            isTarget[in.target - entry] = 1;
    }

    // --- Lowering.
    auto sb = std::make_shared<SuperBlock>();
    sb->entry = entry;
    sb->len = end - entry;
    std::vector<Uop> &uops = sb->uops;
    uops.reserve((end - entry) + 1);
    std::vector<uint32_t> uopAt(end - entry, 0);
    std::vector<UopKind> kinds;
    kinds.reserve(uops.capacity());

    auto push = [&](UopKind k, const Uop &proto) {
        Uop u = proto;
        u.label = gLabels[k];
        uops.push_back(u);
        kinds.push_back(k);
    };

    uint64_t prevLine = ~0ull;
    for (uint32_t i = entry; i < end; ++i) {
        const PreInstr &pi = ps[i];
        const MachInstr &in = pi.in;
        const uint64_t line = pi.fetchAddr / lineBytes;

        Uop u;
        u.rd = in.rd;
        u.rn = in.rn;
        u.rm = in.rm;
        u.cost = pi.cost;
        u.cond = in.cond;
        u.gidx = i;
        u.imm = in.imm;

        // --- Loop-closer fusion: AddImm; CmpImm on the sum; BCond is
        // the canonical `i += step; if (i <?> n) goto top` sequence.
        // All three retire as one uop when the compare reads the
        // freshly written induction register, everything shares one
        // I-line, nothing branches into the middle, and the step fits
        // the spare byte field. None of the three can fault, so the
        // triple is atomic for deopt purposes.
        if (in.op == MOp::AddImm && i + 2 < end) {
            const PreInstr &cp = ps[i + 1];
            const PreInstr &bp = ps[i + 2];
            const int64_t step = in.imm;
            if (cp.in.op == MOp::CmpImm && bp.in.op == MOp::BCond &&
                cp.in.rn == in.rd && !isTarget[i + 1 - entry] &&
                !isTarget[i + 2 - entry] &&
                cp.fetchAddr / lineBytes == line &&
                bp.fetchAddr / lineBytes == line &&
                step >= -128 && step <= 127 &&
                static_cast<uint32_t>(pi.cost) + cp.cost + bp.cost <= 255) {
                const uint32_t tgt = bp.in.target;
                const bool intra = tgt >= entry && tgt < end;
                const bool back = tgt <= i + 2;
                const UopKind fk =
                    intra ? (back ? kAddCmpImmCondBack : kAddCmpImmCondFwd)
                          : kAddCmpImmCondExit;
                u.rm = static_cast<uint8_t>(static_cast<int8_t>(step));
                u.cost = static_cast<uint8_t>(pi.cost + cp.cost + bp.cost);
                u.cond = bp.in.cond;
                u.imm = cp.in.imm; // compare operand; target rides in aux
                u.aux = tgt;
                u.fetchReal =
                    (i == entry || isTarget[i - entry] || line != prevLine)
                        ? 1
                        : 0;
                const uint32_t at = static_cast<uint32_t>(uops.size());
                uopAt[i - entry] = at;
                uopAt[i + 1 - entry] = at;
                uopAt[i + 2 - entry] = at;
                push(fk, u);
                prevLine = line;
                i += 2;
                continue;
            }
        }

        // --- Compare+branch fusion: a Cmp/CmpImm immediately followed
        // by the BCond that consumes its flags retires as one uop (one
        // dispatch for the pair). Neither half can fault, so the pair
        // is atomic for deopt purposes. Fusion requires the branch to
        // share the compare's I-line and not be a join target -- then
        // its fetch is exactly the one memo hit the batching already
        // derives from the two-instruction retire.
        if ((in.op == MOp::Cmp || in.op == MOp::CmpImm) && i + 1 < end) {
            const PreInstr &bp = ps[i + 1];
            if (bp.in.op == MOp::BCond && !isTarget[i + 1 - entry] &&
                bp.fetchAddr / lineBytes == line &&
                static_cast<uint32_t>(pi.cost) + bp.cost <= 255) {
                const uint32_t tgt = bp.in.target;
                const bool intra = tgt >= entry && tgt < end;
                const bool back = tgt <= i + 1;
                UopKind fk;
                if (in.op == MOp::Cmp)
                    fk = intra ? (back ? kCmpCondBack : kCmpCondFwd)
                               : kCmpCondExit;
                else
                    fk = intra ? (back ? kCmpImmCondBack : kCmpImmCondFwd)
                               : kCmpImmCondExit;
                u.cost = static_cast<uint8_t>(pi.cost + bp.cost);
                u.cond = bp.in.cond;
                // imm stays the compare operand; the branch target rides
                // in aux (intra edges re-patched to uop indexes below,
                // which still name the guest target via their gidx).
                u.aux = tgt;
                u.fetchReal =
                    (i == entry || isTarget[i - entry] || line != prevLine)
                        ? 1
                        : 0;
                uopAt[i - entry] = static_cast<uint32_t>(uops.size());
                uopAt[i + 1 - entry] = static_cast<uint32_t>(uops.size());
                push(fk, u);
                prevLine = line; // the branch shares the compare's line
                ++i;
                continue;
            }
        }

        UopKind k;
        bool selfFetch = true; // exit uops fetch for themselves
        switch (in.op) {
          case MOp::Bl:
            if (in.target == kMigrateTarget) {
                k = kMigTrap;
                u.aux = in.callSiteId;
            } else if (interp_.bin_.ir.func(in.target).isBuiltin()) {
                k = kBuiltinTrap;
                u.aux = in.target;
                u.imm = in.callSiteId;
            } else {
                k = abi.retAddrOnStack ? kCallPush : kCallLink;
                u.aux = in.target;
                u.imm = static_cast<int64_t>(pi.nextAddr);
                u.rn = abi.retAddrOnStack ? abi.spReg
                                          : static_cast<uint8_t>(abi.linkReg);
            }
            break;
          case MOp::Blr:
            k = kDelegate; // resolve + possible builtin trap: reference
            break;
          case MOp::Ret:
            k = abi.retAddrOnStack ? kRetPop : kRetLink;
            u.rn = abi.retAddrOnStack ? abi.spReg
                                      : static_cast<uint8_t>(abi.linkReg);
            u.rm = abi.retReg;
            break;
          case MOp::SysCall:
            k = kSysTrap;
            break;
          case MOp::Hlt:
            k = kHlt;
            u.rn = abi.retReg;
            break;
          case MOp::B:
          case MOp::BCond: {
            const bool intra = in.target >= entry && in.target < end;
            const bool back = in.target <= i;
            if (in.op == MOp::B)
                k = intra ? (back ? kJmpBack : kJmpFwd) : kJmpExit;
            else
                k = intra ? (back ? kCondBack : kCondFwd) : kCondExit;
            u.imm = in.target; // aux patched below for intra edges
            selfFetch = false;
            break;
          }
          default:
            if (in.op == MOp::NumOps) {
                // Lowered blocks may cover code the current path never
                // executes; defer the invalid-opcode panic to the
                // reference engine so it only fires when reached.
                k = kDelegate;
                break;
            }
            k = kindForOp(in.op);
            if (in.op == MOp::Push || in.op == MOp::Pop)
                u.rn = abi.spReg;
            selfFetch = false;
            break;
        }

        // Self-fetching exit uops ignore the flag (they always run a
        // real access); everything else starts a new I-line with a real
        // access at the block entry, at join targets (the fall-through
        // batch cannot absorb an incoming edge) and at line crossings.
        u.fetchReal =
            !selfFetch &&
                    (i == entry || isTarget[i - entry] || line != prevLine)
                ? 1
                : 0;
        uopAt[i - entry] = static_cast<uint32_t>(uops.size());
        push(k, u);
        prevLine = line;
    }

    // A range that can fall off its end re-enters dispatch there.
    if (end > entry && !emuBlockBoundary(ps[end - 1].in.op)) {
        Uop fe;
        fe.gidx = end;
        push(kFallExit, fe);
    }

    // --- Patch intra-block edges to uop indexes.
    for (size_t j = 0; j < uops.size(); ++j) {
        switch (kinds[j]) {
          case kJmpFwd: case kJmpBack: case kCondFwd: case kCondBack:
            uops[j].aux =
                uopAt[static_cast<uint32_t>(uops[j].imm) - entry];
            break;
          case kCmpCondFwd: case kCmpCondBack:
          case kCmpImmCondFwd: case kCmpImmCondBack:
          case kAddCmpImmCondFwd: case kAddCmpImmCondBack:
            // Fused groups carry the guest target in aux (imm is the
            // compare operand).
            uops[j].aux = uopAt[uops[j].aux - entry];
            break;
          default:
            break;
        }
    }
    return sb;
#else
    (void)funcId;
    (void)entry;
    panic("threaded engine built without computed-goto support");
#endif
}

StepResult
ThreadedEngine::run(ThreadContext &ctx, MemPort &mem, Core &core,
                    Cache &l2, uint64_t maxInstrs)
{
#if XISA_THREADED_CAPABLE
    return runLoop(&ctx, &mem, &core, &l2, maxInstrs, nullptr);
#else
    return interp_.runImpl<true>(ctx, mem, core, l2, maxInstrs);
#endif
}

#if XISA_THREADED_CAPABLE

StepResult
ThreadedEngine::runLoop(ThreadContext *ctx, MemPort *mem, Core *core,
                        Cache *l2, uint64_t maxInstrs,
                        const void **capture)
{
    StepResult res;
    if (capture) {
        static const void *const labels[kNumUopKinds] = {
#define X(n) &&L_##n,
            XISA_UOP_KINDS(X)
#undef X
        };
        std::copy(std::begin(labels), std::end(labels), capture);
        return res;
    }

    XISA_CHECK(ctx->isa == interp_.isa_, "thread context on wrong ISA");
    // Host pointers in the L1D memo are only as fresh as the software
    // TLB that granted them, and TLB state changes only in hDSM
    // protocol code: between slices, or inside a deopt's reference
    // step. At both points, keep them only while the TLB is unchanged.
    core->l1d.retainHostLines(mem, mem->tlbEpoch());

    const uint32_t memPen = interp_.spec_.memPenaltyCycles;
#if XISA_TRACE
    const bool tracing = obs::traceEnabled();
    const double tsPerCycle = interp_.spec_.secondsPerCycle();
#endif
    uint64_t *const g = ctx->gpr;
    double *const f = ctx->fpr;

    uint32_t funcId = ctx->pc.funcId;
    uint32_t idx = ctx->pc.instrIdx;
    // Block-local accounting, folded into ctx/core/res only at
    // superblock exits (or deopts).
    uint64_t nInstr = 0;
    uint64_t cyc = 0;
    // Fetch-batching anchor: nInstr as of the last real L1I access (-1
    // when none is outstanding). Every instruction retired after the
    // anchor owes the L1I one memo hit -- except the anchor instruction
    // itself, whose access was real -- so the owed count is derived at
    // flush time instead of being counted per instruction.
    int64_t fetchAnchor = -1;
    uint64_t backCap = 0;
    const Uop *u = nullptr;
    const Uop *base = nullptr;
    const PreInstr *pre = nullptr;

// These helpers are macros, not lambdas, on purpose: a by-reference
// closure that ends up out-of-line forces every captured local (cyc,
// nInstr, pending -- the per-instruction accumulators) to live on the
// stack for its whole lifetime, turning the hot loop's accounting into
// memory round trips.
// Settle the owed memo hits. The caller must either re-anchor (real
// access) or fold() right afterwards -- flushing twice against the same
// anchor would double-apply the batch.
#define flushFetch() \
    do { \
        const int64_t owed_ = \
            static_cast<int64_t>(nInstr) - fetchAnchor - 1; \
        if (owed_ > 0) \
            core->l1i.bulkMemoHits(static_cast<uint64_t>(owed_)); \
    } while (0)
#define fold() \
    do { \
        ctx->instrs += nInstr; \
        ctx->cycles += cyc; \
        core->instrs += nInstr; \
        core->cycles += cyc; \
        core->busyCycles += cyc; \
        res.instrsRun += nInstr; \
        res.cyclesRun += cyc; \
        nInstr = 0; \
        cyc = 0; \
        fetchAnchor = -1; \
    } while (0)
#define note(ev, at) \
    do { \
        if (observer_) \
            observer_->onSuperblock((ev), funcId, (at), \
                                    ctx->instrs + nInstr); \
    } while (0)
#define mergeTail(r2expr) \
    do { \
        const StepResult r2 = (r2expr); \
        res.reason = r2.reason; \
        res.instrsRun += r2.instrsRun; \
        res.cyclesRun += r2.cyclesRun; \
        res.trapFuncId = r2.trapFuncId; \
        res.trapCallSite = r2.trapCallSite; \
        res.sysno = r2.sysno; \
        res.exitValue = r2.exitValue; \
    } while (0)

// Per-instruction fetch accounting: a line-start uop flushes the memo
// batch and runs the real L1I access (charging any line-crossing
// penalty to this instruction); everything else owes one more memo hit.
// Runs after the uop's TLB probes -- see the deopt invariant above.
#define FETCH() \
    do { \
        if (u->fetchReal) { \
            flushFetch(); \
            fetchAnchor = static_cast<int64_t>(nInstr); \
            cyc += accessThrough(core->l1i, *l2, pre[u->gidx].fetchAddr, \
                                 memPen); \
        } \
    } while (0)

// Generic per-instruction tail: charge the base cost, count the
// instruction, dispatch the next uop.
#define TAIL() \
    do { \
        cyc += u->cost; \
        ++nInstr; \
        ++u; \
        goto *u->label; \
    } while (0)

dispatch: {
    const std::vector<PreInstr> &ps = interp_.predecoded(funcId);
    XISA_CHECK(idx < ps.size(), "PC past end of function");
    pre = ps.data();
    const SuperBlock *b = blockAt(funcId, idx);
    if (b->len > maxInstrs - res.instrsRun - nInstr)
        goto budget_tail;
    note(SuperblockObserver::Event::Enter, idx);
    backCap = maxInstrs - res.instrsRun - b->len;
    base = b->uops.data();
    u = base;
    goto *u->label;
}

budget_tail: {
    // Too little quantum left for the block's reservation: materialize
    // state and let the reference fast loop walk the exact tail.
    flushFetch();
    fold();
    ctx->pc.funcId = funcId;
    ctx->pc.instrIdx = idx;
    const uint64_t rem = maxInstrs - res.instrsRun;
    if (rem == 0) {
        res.reason = StopReason::Budget;
        note(SuperblockObserver::Event::Exit, idx);
        return res;
    }
    note(SuperblockObserver::Event::Deopt, idx);
    mergeTail(interp_.runImpl<true>(*ctx, *mem, *core, *l2, rem));
    funcId = ctx->pc.funcId;
    note(SuperblockObserver::Event::Exit, ctx->pc.instrIdx);
    return res;
}

deopt_one: {
    // The current instruction cannot retire in-block (TLB miss, fault,
    // indirect call, ...). Nothing of it has executed yet: materialize
    // state at it and run exactly one reference step, then resume.
    flushFetch();
    fold();
    ctx->pc.funcId = funcId;
    ctx->pc.instrIdx = u->gidx;
    note(SuperblockObserver::Event::Deopt, u->gidx);
    mergeTail(interp_.runImpl<true>(*ctx, *mem, *core, *l2, 1));
    core->l1d.retainHostLines(mem, mem->tlbEpoch());
    if (res.reason != StopReason::Budget) {
        funcId = ctx->pc.funcId;
        note(SuperblockObserver::Event::Exit, ctx->pc.instrIdx);
        return res;
    }
    funcId = ctx->pc.funcId;
    idx = ctx->pc.instrIdx;
    goto dispatch;
}

    // --- Straight-line ALU / FP / moves -----------------------------------

#define ALU(name, stmt) \
    L_##name: { \
        FETCH(); \
        stmt; \
        TAIL(); \
    }

ALU(Nop, (void)0)
ALU(MovImm, g[u->rd] = static_cast<uint64_t>(u->imm))
ALU(MovReg, g[u->rd] = g[u->rn])
ALU(Add, g[u->rd] = g[u->rn] + g[u->rm])
ALU(Sub, g[u->rd] = g[u->rn] - g[u->rm])
ALU(Mul, g[u->rd] = g[u->rn] * g[u->rm])
ALU(And, g[u->rd] = g[u->rn] & g[u->rm])
ALU(Orr, g[u->rd] = g[u->rn] | g[u->rm])
ALU(Eor, g[u->rd] = g[u->rn] ^ g[u->rm])
ALU(Lsl, g[u->rd] = g[u->rn] << (g[u->rm] & 63))
ALU(Lsr, g[u->rd] = g[u->rn] >> (g[u->rm] & 63))
ALU(Asr, g[u->rd] = static_cast<uint64_t>(
             static_cast<int64_t>(g[u->rn]) >> (g[u->rm] & 63)))
ALU(AddImm, g[u->rd] = g[u->rn] + static_cast<uint64_t>(u->imm))
ALU(SubImm, g[u->rd] = g[u->rn] - static_cast<uint64_t>(u->imm))
ALU(MulImm, g[u->rd] = g[u->rn] * static_cast<uint64_t>(u->imm))
ALU(AndImm, g[u->rd] = g[u->rn] & static_cast<uint64_t>(u->imm))
ALU(OrrImm, g[u->rd] = g[u->rn] | static_cast<uint64_t>(u->imm))
ALU(EorImm, g[u->rd] = g[u->rn] ^ static_cast<uint64_t>(u->imm))
ALU(LslImm, g[u->rd] = g[u->rn] << (u->imm & 63))
ALU(LsrImm, g[u->rd] = g[u->rn] >> (u->imm & 63))
ALU(AsrImm, g[u->rd] = static_cast<uint64_t>(
                static_cast<int64_t>(g[u->rn]) >> (u->imm & 63)))
ALU(Neg, g[u->rd] =
             static_cast<uint64_t>(-static_cast<int64_t>(g[u->rn])))
ALU(CSet, g[u->rd] = evalCond(u->cond, ctx->flags) ? 1 : 0)
ALU(FAdd, f[u->rd] = f[u->rn] + f[u->rm])
ALU(FSub, f[u->rd] = f[u->rn] - f[u->rm])
ALU(FMul, f[u->rd] = f[u->rn] * f[u->rm])
ALU(FDiv, f[u->rd] = f[u->rn] / f[u->rm])
ALU(FNeg, f[u->rd] = -f[u->rn])
ALU(FMovReg, f[u->rd] = f[u->rn])
ALU(FMovImm, std::memcpy(&f[u->rd], &u->imm, 8))
ALU(SCvtF, f[u->rd] = static_cast<double>(
               static_cast<int64_t>(g[u->rn])))
ALU(FCvtS, g[u->rd] = static_cast<uint64_t>(
               static_cast<int64_t>(f[u->rn])))
ALU(TlsBase, g[u->rd] = ctx->tlsBase)

#undef ALU

// Division by zero is a machine fault; the reference loop owns the
// diagnostic, so hand the instruction over untouched.
#define DIV(name, ty, expr) \
    L_##name: { \
        const ty b = static_cast<ty>(g[u->rm]); \
        if (b == 0) \
            goto deopt_one; \
        FETCH(); \
        const ty a = static_cast<ty>(g[u->rn]); \
        g[u->rd] = static_cast<uint64_t>(expr); \
        TAIL(); \
    }

DIV(SDiv, int64_t, a / b)
DIV(SRem, int64_t, a % b)
DIV(UDiv, uint64_t, a / b)
DIV(URem, uint64_t, a % b)

#undef DIV

L_Cmp: {
    FETCH();
    const int64_t a = static_cast<int64_t>(g[u->rn]);
    const int64_t b = static_cast<int64_t>(g[u->rm]);
    ctx->flags.eq = a == b;
    ctx->flags.lt = a < b;
    ctx->flags.ult = static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
    TAIL();
}

L_CmpImm: {
    FETCH();
    const int64_t a = static_cast<int64_t>(g[u->rn]);
    const int64_t b = u->imm;
    ctx->flags.eq = a == b;
    ctx->flags.lt = a < b;
    ctx->flags.ult = static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
    TAIL();
}

L_FCmp: {
    FETCH();
    const double a = f[u->rn];
    const double b = f[u->rm];
    if (a != a || b != b) { // isnan without the libm call
        ctx->flags = {false, false, false};
    } else {
        ctx->flags.eq = a == b;
        ctx->flags.lt = a < b;
        ctx->flags.ult = a < b;
    }
    TAIL();
}

    // --- Memory -----------------------------------------------------------
    // One probe first: an L1D memo slot that carries the line's host
    // bytes is both the software-TLB hit and the cache hit (see
    // Cache::hostLoad), so the data moves straight through it.
    // Anything else takes the two-probe path: software TLB first (miss
    // => deopt), then the cache model, then the slot learns the host
    // bytes the TLB just granted.

#define LOADU(name, addrExpr, nbytes, assign) \
    L_##name: { \
        const uint64_t a = (addrExpr); \
        uint64_t v = 0; \
        if (core->l1d.hostLoad<nbytes>(a, &v)) { \
            FETCH(); \
            assign; \
            TAIL(); \
        } \
        const uint8_t *h = mem->tlbRead(a, nbytes); \
        if (!h) \
            goto deopt_one; \
        std::memcpy(&v, h, nbytes); \
        FETCH(); /* after the probe, before the D-access: L1I touches \
                    the shared L2 first, as the reference does */ \
        cyc += accessThrough(core->l1d, *l2, a, memPen); \
        core->l1d.fillHostRead(a, h); \
        assign; \
        TAIL(); \
    }

LOADU(Ldr, g[u->rn] + static_cast<uint64_t>(u->imm), 8, g[u->rd] = v)
LOADU(Ldr32, g[u->rn] + static_cast<uint64_t>(u->imm), 4, g[u->rd] = v)
LOADU(LdrS32, g[u->rn] + static_cast<uint64_t>(u->imm), 4,
      g[u->rd] = static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(v))))
LOADU(LdrB, g[u->rn] + static_cast<uint64_t>(u->imm), 1, g[u->rd] = v)
LOADU(FLdr, g[u->rn] + static_cast<uint64_t>(u->imm), 8,
      std::memcpy(&f[u->rd], &v, 8))
LOADU(LdrIdx, g[u->rn] + g[u->rm] * static_cast<uint64_t>(u->imm), 8,
      g[u->rd] = v)
LOADU(Ldr32Idx, g[u->rn] + g[u->rm] * static_cast<uint64_t>(u->imm), 4,
      g[u->rd] = v)
LOADU(LdrBIdx, g[u->rn] + g[u->rm] * static_cast<uint64_t>(u->imm), 1,
      g[u->rd] = v)
LOADU(FLdrIdx, g[u->rn] + g[u->rm] * static_cast<uint64_t>(u->imm), 8,
      std::memcpy(&f[u->rd], &v, 8))
LOADU(Pop, g[u->rn], 8, (g[u->rd] = v, g[u->rn] += 8))

#undef LOADU

#define STOREU(name, addrExpr, nbytes, valExpr) \
    L_##name: { \
        const uint64_t a = (addrExpr); \
        uint64_t v = (valExpr); \
        if (core->l1d.hostStore<nbytes>(a, &v)) { \
            FETCH(); \
            TAIL(); \
        } \
        uint8_t *h = mem->tlbWrite(a, nbytes); \
        if (!h) \
            goto deopt_one; \
        std::memcpy(h, &v, nbytes); \
        FETCH(); \
        cyc += accessThrough(core->l1d, *l2, a, memPen); \
        core->l1d.fillHostWrite(a, h); \
        TAIL(); \
    }

STOREU(Str, g[u->rn] + static_cast<uint64_t>(u->imm), 8, g[u->rd])
STOREU(Str32, g[u->rn] + static_cast<uint64_t>(u->imm), 4, g[u->rd])
STOREU(StrB, g[u->rn] + static_cast<uint64_t>(u->imm), 1, g[u->rd])
STOREU(FStr, g[u->rn] + static_cast<uint64_t>(u->imm), 8,
       [&] { uint64_t b; std::memcpy(&b, &f[u->rd], 8); return b; }())
STOREU(StrIdx, g[u->rn] + g[u->rm] * static_cast<uint64_t>(u->imm), 8,
       g[u->rd])
STOREU(Str32Idx, g[u->rn] + g[u->rm] * static_cast<uint64_t>(u->imm), 4,
       g[u->rd])
STOREU(StrBIdx, g[u->rn] + g[u->rm] * static_cast<uint64_t>(u->imm), 1,
       g[u->rd])
STOREU(FStrIdx, g[u->rn] + g[u->rm] * static_cast<uint64_t>(u->imm), 8,
       [&] { uint64_t b; std::memcpy(&b, &f[u->rd], 8); return b; }())

#undef STOREU

L_Push: {
    // Probe before the SP update so a deopt re-runs the instruction
    // from untouched state; rd==SP pushes the decremented value, as the
    // reference's decrement-then-store order does.
    const uint64_t nsp = g[u->rn] - 8;
    uint64_t v = u->rd == u->rn ? nsp : g[u->rd];
    if (!mem->tryWrite(nsp, &v, 8))
        goto deopt_one;
    FETCH();
    cyc += accessThrough(core->l1d, *l2, nsp, memPen);
    g[u->rn] = nsp;
    TAIL();
}

L_AtomicAdd: {
    const uint64_t a = g[u->rn];
    uint64_t old = 0;
    if (!mem->tryRead(a, &old, 8))
        goto deopt_one;
    uint64_t nv = old + g[u->rm];
    if (!mem->tryWrite(a, &nv, 8))
        goto deopt_one;
    FETCH();
    // The reference charges the D-cache for the load and the store.
    cyc += accessThrough(core->l1d, *l2, a, memPen);
    cyc += accessThrough(core->l1d, *l2, a, memPen);
    g[u->rd] = old;
    TAIL();
}

    // --- Intra-block control ----------------------------------------------

L_JmpFwd: {
    FETCH();
    cyc += u->cost;
    ++nInstr;
    u = base + u->aux;
    goto *u->label;
}

L_JmpBack: {
    FETCH();
    cyc += u->cost;
    ++nInstr;
    if (nInstr > backCap) {
        // Not enough quantum reserved for another pass: re-enter
        // dispatch at the branch target and let it re-reserve.
        idx = static_cast<uint32_t>(u->imm);
        goto dispatch;
    }
    u = base + u->aux;
    goto *u->label;
}

L_CondFwd: {
        FETCH();
    cyc += u->cost;
    ++nInstr;
    if (evalCond(u->cond, ctx->flags)) {
        u = base + u->aux;
        goto *u->label;
    }
    ++u;
    goto *u->label;
}

L_CondBack: {
        FETCH();
    cyc += u->cost;
    ++nInstr;
    if (!evalCond(u->cond, ctx->flags)) {
        ++u;
        goto *u->label;
    }
    if (nInstr > backCap) {
        idx = static_cast<uint32_t>(u->imm);
        goto dispatch;
    }
    u = base + u->aux;
    goto *u->label;
}

L_JmpExit: {
    FETCH();
    cyc += u->cost;
    ++nInstr;
    idx = static_cast<uint32_t>(u->imm);
    goto dispatch;
}

L_CondExit: {
    FETCH();
    cyc += u->cost;
    ++nInstr;
    if (evalCond(u->cond, ctx->flags)) {
        idx = static_cast<uint32_t>(u->imm);
        goto dispatch;
    }
    ++u;
    goto *u->label;
}

L_FallExit: {
    // Pseudo-uop: the range's last instruction already executed; just
    // re-enter dispatch at the fall-through index.
    idx = u->gidx;
    goto dispatch;
}

    // --- Fused compare+branch (two guest instructions per dispatch) -------
    // The flags write stays architectural (a later CSet/BCond may read
    // them); the branch decision folds out of the freshly computed
    // booleans without re-reading ctx. Costs and the retire count cover
    // both halves; the branch's I-fetch is the extra memo hit the batch
    // derivation picks up from nInstr += 2.

#define CMPBR(name, bExpr, brStmt) \
    L_##name: { \
        FETCH(); \
        const int64_t a = static_cast<int64_t>(g[u->rn]); \
        const int64_t b = (bExpr); \
        ctx->flags.eq = a == b; \
        ctx->flags.lt = a < b; \
        ctx->flags.ult = \
            static_cast<uint64_t>(a) < static_cast<uint64_t>(b); \
        cyc += u->cost; \
        nInstr += 2; \
        brStmt; \
    }

#define CMPBR_FWD \
    { \
        if (evalCond(u->cond, ctx->flags)) { \
            u = base + u->aux; \
            goto *u->label; \
        } \
        ++u; \
        goto *u->label; \
    }
#define CMPBR_BACK \
    { \
        if (!evalCond(u->cond, ctx->flags)) { \
            ++u; \
            goto *u->label; \
        } \
        if (nInstr > backCap) { \
            idx = base[u->aux].gidx; /* target uop names the guest idx */ \
            goto dispatch; \
        } \
        u = base + u->aux; \
        goto *u->label; \
    }
#define CMPBR_EXIT \
    { \
        if (evalCond(u->cond, ctx->flags)) { \
            idx = u->aux; \
            goto dispatch; \
        } \
        ++u; \
        goto *u->label; \
    }

CMPBR(CmpCondFwd, static_cast<int64_t>(g[u->rm]), CMPBR_FWD)
CMPBR(CmpCondBack, static_cast<int64_t>(g[u->rm]), CMPBR_BACK)
CMPBR(CmpCondExit, static_cast<int64_t>(g[u->rm]), CMPBR_EXIT)
CMPBR(CmpImmCondFwd, u->imm, CMPBR_FWD)
CMPBR(CmpImmCondBack, u->imm, CMPBR_BACK)
CMPBR(CmpImmCondExit, u->imm, CMPBR_EXIT)

    // Fused loop closer: induction step, compare on the new value,
    // branch. Three guest instructions per dispatch.

#define ADDCMPBR(name, brStmt) \
    L_##name: { \
        FETCH(); \
        const uint64_t nv = \
            g[u->rn] + static_cast<uint64_t>(static_cast<int64_t>( \
                           static_cast<int8_t>(u->rm))); \
        g[u->rd] = nv; \
        const int64_t a = static_cast<int64_t>(nv); \
        const int64_t b = u->imm; \
        ctx->flags.eq = a == b; \
        ctx->flags.lt = a < b; \
        ctx->flags.ult = \
            static_cast<uint64_t>(a) < static_cast<uint64_t>(b); \
        cyc += u->cost; \
        nInstr += 3; \
        brStmt; \
    }

ADDCMPBR(AddCmpImmCondFwd, CMPBR_FWD)
ADDCMPBR(AddCmpImmCondBack, CMPBR_BACK)
ADDCMPBR(AddCmpImmCondExit, CMPBR_EXIT)

#undef ADDCMPBR
#undef CMPBR_EXIT
#undef CMPBR_BACK
#undef CMPBR_FWD
#undef CMPBR

    // --- Calls and returns (counted, self-fetching) -----------------------

L_CallLink: {
    flushFetch();
    fetchAnchor = static_cast<int64_t>(nInstr);
    cyc += u->cost +
           accessThrough(core->l1i, *l2, pre[u->gidx].fetchAddr, memPen);
    g[u->rn] = static_cast<uint64_t>(u->imm); // link register := RA
    ++nInstr;
    funcId = u->aux;
    idx = 0;
    goto dispatch;
}

L_CallPush: {
    const uint64_t nsp = g[u->rn] - 8;
    uint64_t ra = static_cast<uint64_t>(u->imm);
    if (!mem->tryWrite(nsp, &ra, 8))
        goto deopt_one;
    flushFetch();
    fetchAnchor = static_cast<int64_t>(nInstr);
    cyc += u->cost +
           accessThrough(core->l1i, *l2, pre[u->gidx].fetchAddr, memPen);
    cyc += accessThrough(core->l1d, *l2, nsp, memPen);
    g[u->rn] = nsp;
    ++nInstr;
    funcId = u->aux;
    idx = 0;
    goto dispatch;
}

L_RetLink: {
    flushFetch();
    fetchAnchor = static_cast<int64_t>(nInstr);
    cyc += u->cost +
           accessThrough(core->l1i, *l2, pre[u->gidx].fetchAddr, memPen);
    ++nInstr;
    const uint64_t ra = g[u->rn];
    if (ra == vm::kThreadExitAddr) {
        fold();
        ctx->pc.funcId = funcId;
        ctx->pc.instrIdx = u->gidx + 1;
        res.exitValue = g[u->rm];
        res.reason = StopReason::Halt;
        note(SuperblockObserver::Event::Exit, u->gidx + 1);
        return res;
    }
    const CodeLoc loc = interp_.codeMap_.resolve(ra);
    funcId = loc.funcId;
    idx = loc.instrIdx;
    goto dispatch;
}

L_RetPop: {
    const uint64_t sp = g[u->rn];
    uint64_t ra = 0;
    if (!mem->tryRead(sp, &ra, 8))
        goto deopt_one;
    flushFetch();
    fetchAnchor = static_cast<int64_t>(nInstr);
    cyc += u->cost +
           accessThrough(core->l1i, *l2, pre[u->gidx].fetchAddr, memPen);
    cyc += accessThrough(core->l1d, *l2, sp, memPen);
    g[u->rn] = sp + 8;
    ++nInstr;
    if (ra == vm::kThreadExitAddr) {
        fold();
        ctx->pc.funcId = funcId;
        ctx->pc.instrIdx = u->gidx + 1;
        res.exitValue = g[u->rm];
        res.reason = StopReason::Halt;
        note(SuperblockObserver::Event::Exit, u->gidx + 1);
        return res;
    }
    const CodeLoc loc = interp_.codeMap_.resolve(ra);
    funcId = loc.funcId;
    idx = loc.instrIdx;
    goto dispatch;
}

    // --- Slice-ending exits ------------------------------------------------
    // Traps leave the PC AT the trapping instruction and charge nothing
    // for it, but its real I-fetch has already gone through the cache
    // model -- mirror both halves of that contract.

L_Hlt: {
    flushFetch();
    cyc += u->cost +
           accessThrough(core->l1i, *l2, pre[u->gidx].fetchAddr, memPen);
    ++nInstr;
    fold();
    ctx->pc.funcId = funcId;
    ctx->pc.instrIdx = u->gidx + 1;
    res.exitValue = g[u->rn];
    res.reason = StopReason::Halt;
    note(SuperblockObserver::Event::Exit, u->gidx + 1);
    return res;
}

L_MigTrap: {
    flushFetch();
    [[maybe_unused]] const uint32_t p = accessThrough(
        core->l1i, *l2, pre[u->gidx].fetchAddr, memPen);
#if XISA_TRACE
    if (tracing)
        obs::Tracer::global().instant(
            obs::traceCursor().track, "interp", "migpoint_hit",
            static_cast<double>(core->cycles + cyc + u->cost + p) *
                tsPerCycle);
#endif
    fold();
    ctx->pc.funcId = funcId;
    ctx->pc.instrIdx = u->gidx;
    res.trapCallSite = u->aux;
    res.reason = StopReason::MigrateTrap;
    note(SuperblockObserver::Event::Exit, u->gidx);
    return res;
}

L_BuiltinTrap: {
    flushFetch();
    accessThrough(core->l1i, *l2, pre[u->gidx].fetchAddr, memPen);
    fold();
    ctx->pc.funcId = funcId;
    ctx->pc.instrIdx = u->gidx;
    res.trapFuncId = u->aux;
    res.trapCallSite = static_cast<uint32_t>(u->imm);
    res.reason = StopReason::BuiltinTrap;
    note(SuperblockObserver::Event::Exit, u->gidx);
    return res;
}

L_SysTrap: {
    flushFetch();
    accessThrough(core->l1i, *l2, pre[u->gidx].fetchAddr, memPen);
    fold();
    ctx->pc.funcId = funcId;
    ctx->pc.instrIdx = u->gidx;
    res.sysno = u->imm;
    res.reason = StopReason::Syscall;
    note(SuperblockObserver::Event::Exit, u->gidx);
    return res;
}

L_Delegate:
    // Indirect calls (code-map resolve + possible builtin trap) run on
    // the reference engine one instruction at a time.
    goto deopt_one;

#undef TAIL
#undef FETCH
#undef flushFetch
#undef fold
#undef note
#undef mergeTail
}

#endif // XISA_THREADED_CAPABLE

} // namespace xisa
