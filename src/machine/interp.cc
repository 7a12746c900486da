#include "machine/interp.hh"

#include <cmath>
#include <cstring>

#include "machine/interp_threaded.hh"
#include "obs/trace.hh"
#include "util/env.hh"
#include "util/logging.hh"

namespace xisa {

Interp::Interp(const MultiIsaBinary &bin, IsaId isa, const NodeSpec &spec)
    : bin_(bin), isa_(isa), abi_(AbiInfo::of(isa)), spec_(spec),
      codeMap_(bin, isa), fastPath_(!slowPathRequested()),
      pre_(bin.ir.functions.size()), execSig_(execTimingSig(spec))
{
    XISA_CHECK(spec.isa == isa, "node ISA does not match interpreter ISA");
#if XISA_THREADED_CAPABLE
    if (fastPath_ && threadedRequested())
        threaded_ = std::make_unique<ThreadedEngine>(*this);
#endif
}

Interp::~Interp() = default;

void
Interp::setSuperblockObserver(SuperblockObserver *obs)
{
    if (threaded_)
        threaded_->setObserver(obs);
}

void
Interp::shareExecCache(std::shared_ptr<ExecCache> cache)
{
    execCache_ = cache;
    if (threaded_)
        threaded_->shareCache(std::move(cache));
}

const std::vector<PreInstr> &
Interp::predecoded(uint32_t funcId)
{
    if (pre_[funcId])
        return *pre_[funcId];
    if (execCache_) {
        if (auto cached = execCache_->pre(isa_, funcId, execSig_)) {
            pre_[funcId] = std::move(cached);
            return *pre_[funcId];
        }
    }
    const FuncImage &img = bin_.image[static_cast<int>(isa_)][funcId];
    auto built = std::make_shared<std::vector<PreInstr>>();
    if (!img.code.empty()) {
        const uint64_t base =
            bin_.funcAddr[static_cast<int>(isa_)][funcId];
        built->resize(img.code.size());
        for (size_t i = 0; i < img.code.size(); ++i) {
            PreInstr &pi = (*built)[i];
            pi.in = img.code[i];
            pi.fetchAddr = base + img.instrOff[i];
            pi.nextAddr = base + img.instrOff[i + 1];
            pi.cost = spec_.cost(pi.in.op);
        }
    }
    pre_[funcId] = std::move(built);
    if (execCache_)
        pre_[funcId] =
            execCache_->setPre(isa_, funcId, execSig_, pre_[funcId]);
    return *pre_[funcId];
}

void
Interp::enableProfile()
{
    profiling_ = true;
    profile_.resize(bin_.ir.functions.size());
    for (size_t fid = 0; fid < profile_.size(); ++fid) {
        const auto &img = bin_.image[static_cast<int>(isa_)][fid];
        profile_[fid].assign(img.code.size(), 0);
    }
}

std::vector<int64_t>
Interp::readTrapArgs(const ThreadContext &ctx,
                     const IRFunction &callee) const
{
    std::vector<int64_t> args;
    size_t ints = 0, fps = 0;
    for (Type t : callee.paramTypes) {
        if (t == Type::F64) {
            XISA_CHECK(fps < abi_.fpArgRegs.size(),
                       "builtin FP arg beyond register args");
            double d = ctx.fpr[abi_.fpArgRegs[fps++]];
            int64_t bits;
            std::memcpy(&bits, &d, 8);
            args.push_back(bits);
        } else {
            XISA_CHECK(ints < abi_.intArgRegs.size(),
                       "builtin int arg beyond register args");
            args.push_back(static_cast<int64_t>(
                ctx.gpr[abi_.intArgRegs[ints++]]));
        }
    }
    return args;
}

void
Interp::finishTrap(ThreadContext &ctx, Type retType, int64_t intResult,
                   double fpResult)
{
    if (retType == Type::F64)
        ctx.fpr[abi_.fpRetReg] = fpResult;
    else if (retType != Type::Void)
        ctx.gpr[abi_.retReg] = static_cast<uint64_t>(intResult);
    ++ctx.pc.instrIdx;
}

StepResult
Interp::run(ThreadContext &ctx, MemPort &mem, Core &core, Cache &l2,
            uint64_t maxInstrs)
{
    if (!fastPath_)
        return runImpl<false>(ctx, mem, core, l2, maxInstrs);
#if XISA_THREADED_CAPABLE
    // Profiling and the migration-check observer both need a callback
    // per instruction/check with a live PC, which superblocks batch
    // away -- those modes run the plain fast path.
    if (threaded_ && !profiling_ && !observer_)
        return threaded_->run(ctx, mem, core, l2, maxInstrs);
#endif
    return runImpl<true>(ctx, mem, core, l2, maxInstrs);
}

template <bool kFast>
StepResult
Interp::runImpl(ThreadContext &ctx, MemPort &mem, Core &core, Cache &l2,
                uint64_t maxInstrs)
{
    XISA_CHECK(ctx.isa == isa_, "thread context on wrong ISA");
    StepResult res;
    const int isaIdx = static_cast<int>(isa_);
    const FuncImage *img = &bin_.image[isaIdx][ctx.pc.funcId];
    uint64_t funcBase = bin_.funcAddr[isaIdx][ctx.pc.funcId];
    uint32_t funcId = ctx.pc.funcId;
    [[maybe_unused]] const PreInstr *pre = nullptr;
    if constexpr (kFast)
        pre = predecoded(funcId).data();

    auto switchFunc = [&](uint32_t fid) {
        funcId = fid;
        img = &bin_.image[isaIdx][fid];
        funcBase = bin_.funcAddr[isaIdx][fid];
        if constexpr (kFast)
            pre = predecoded(fid).data();
    };

    auto finish = [&](StopReason why) {
        ctx.pc.funcId = funcId;
        res.reason = why;
        ctx.instrs += res.instrsRun;
        ctx.cycles += res.cyclesRun;
        core.instrs += res.instrsRun;
        core.cycles += res.cyclesRun;
        core.busyCycles += res.cyclesRun;
        return res;
    };

    uint32_t idx = ctx.pc.instrIdx;
    auto syncPc = [&] { ctx.pc.instrIdx = idx; };

    const bool tracing = obs::traceEnabled();
    const double tsPerCycle = spec_.secondsPerCycle();
    // Virtual time of this core as of the current instruction; keeps
    // the ambient cursor honest so DSM fault spans land mid-quantum.
    auto nowTs = [&](uint64_t cyc) {
        return static_cast<double>(core.cycles + res.cyclesRun + cyc) *
               tsPerCycle;
    };

    while (res.instrsRun < maxInstrs) {
        XISA_CHECK(idx < img->code.size(), "PC past end of function");
        const MachInstr &in = kFast ? pre[idx].in : img->code[idx];

        // Instruction fetch through the I-cache.
        uint64_t fetchAddr;
        uint64_t cyc;
        if constexpr (kFast) {
            fetchAddr = pre[idx].fetchAddr;
            cyc = pre[idx].cost;
        } else {
            fetchAddr = funcBase + img->instrOff[idx];
            cyc = spec_.cost(in.op);
        }
        cyc += accessThrough(core.l1i, l2, fetchAddr,
                             spec_.memPenaltyCycles);

        if (profiling_)
            ++profile_[funcId][idx];

        uint64_t extra = 0; // DSM-added latency
        auto dataAccess = [&](uint64_t addr) {
            cyc += accessThrough(core.l1d, l2, addr,
                                 spec_.memPenaltyCycles);
        };
        auto load = [&](uint64_t addr, unsigned n) -> uint64_t {
            dataAccess(addr);
            uint64_t v = 0;
            // TLB hits are exactly the accesses the slow path would
            // complete for zero extra cycles with no protocol action,
            // so short-circuiting them preserves every stat.
            if constexpr (kFast) {
                if (mem.tryRead(addr, &v, n))
                    return v;
            }
            if (tracing)
                obs::traceCursor().tsSeconds = nowTs(cyc + extra);
            extra += mem.read(addr, &v, n);
            return v;
        };
        auto store = [&](uint64_t addr, uint64_t v, unsigned n) {
            dataAccess(addr);
            if constexpr (kFast) {
                if (mem.tryWrite(addr, &v, n))
                    return;
            }
            if (tracing)
                obs::traceCursor().tsSeconds = nowTs(cyc + extra);
            extra += mem.write(addr, &v, n);
        };

        uint32_t nextIdx = idx + 1;
        bool stop = false;
        StopReason stopWhy = StopReason::Budget;

        switch (in.op) {
          case MOp::Nop:
            break;
          case MOp::MovImm:
            ctx.gpr[in.rd] = static_cast<uint64_t>(in.imm);
            if (in.callSiteId && observer_) {
                syncPc();
                observer_->onMigCheck(ctx, in.callSiteId,
                                      ctx.instrs + res.instrsRun);
            }
            break;
          case MOp::MovReg:
            ctx.gpr[in.rd] = ctx.gpr[in.rn];
            break;
          case MOp::Add:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] + ctx.gpr[in.rm];
            break;
          case MOp::Sub:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] - ctx.gpr[in.rm];
            break;
          case MOp::Mul:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] * ctx.gpr[in.rm];
            break;
          case MOp::SDiv: case MOp::SRem: {
            int64_t a = static_cast<int64_t>(ctx.gpr[in.rn]);
            int64_t b = static_cast<int64_t>(ctx.gpr[in.rm]);
            if (b == 0)
                fatal("machine fault: division by zero in f%u@%u",
                      funcId, idx);
            ctx.gpr[in.rd] = static_cast<uint64_t>(
                in.op == MOp::SDiv ? a / b : a % b);
            break;
          }
          case MOp::UDiv: case MOp::URem: {
            uint64_t a = ctx.gpr[in.rn];
            uint64_t b = ctx.gpr[in.rm];
            if (b == 0)
                fatal("machine fault: division by zero in f%u@%u",
                      funcId, idx);
            ctx.gpr[in.rd] = in.op == MOp::UDiv ? a / b : a % b;
            break;
          }
          case MOp::And:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] & ctx.gpr[in.rm];
            break;
          case MOp::Orr:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] | ctx.gpr[in.rm];
            break;
          case MOp::Eor:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] ^ ctx.gpr[in.rm];
            break;
          case MOp::Lsl:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] << (ctx.gpr[in.rm] & 63);
            break;
          case MOp::Lsr:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] >> (ctx.gpr[in.rm] & 63);
            break;
          case MOp::Asr:
            ctx.gpr[in.rd] = static_cast<uint64_t>(
                static_cast<int64_t>(ctx.gpr[in.rn]) >>
                (ctx.gpr[in.rm] & 63));
            break;
          case MOp::AddImm:
            ctx.gpr[in.rd] =
                ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm);
            break;
          case MOp::SubImm:
            ctx.gpr[in.rd] =
                ctx.gpr[in.rn] - static_cast<uint64_t>(in.imm);
            break;
          case MOp::MulImm:
            ctx.gpr[in.rd] =
                ctx.gpr[in.rn] * static_cast<uint64_t>(in.imm);
            break;
          case MOp::AndImm:
            ctx.gpr[in.rd] =
                ctx.gpr[in.rn] & static_cast<uint64_t>(in.imm);
            break;
          case MOp::OrrImm:
            ctx.gpr[in.rd] =
                ctx.gpr[in.rn] | static_cast<uint64_t>(in.imm);
            break;
          case MOp::EorImm:
            ctx.gpr[in.rd] =
                ctx.gpr[in.rn] ^ static_cast<uint64_t>(in.imm);
            break;
          case MOp::LslImm:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] << (in.imm & 63);
            break;
          case MOp::LsrImm:
            ctx.gpr[in.rd] = ctx.gpr[in.rn] >> (in.imm & 63);
            break;
          case MOp::AsrImm:
            ctx.gpr[in.rd] = static_cast<uint64_t>(
                static_cast<int64_t>(ctx.gpr[in.rn]) >> (in.imm & 63));
            break;
          case MOp::Neg:
            ctx.gpr[in.rd] = static_cast<uint64_t>(
                -static_cast<int64_t>(ctx.gpr[in.rn]));
            break;
          case MOp::Cmp: case MOp::CmpImm: {
            int64_t a = static_cast<int64_t>(ctx.gpr[in.rn]);
            int64_t b = in.op == MOp::Cmp
                            ? static_cast<int64_t>(ctx.gpr[in.rm])
                            : in.imm;
            ctx.flags.eq = a == b;
            ctx.flags.lt = a < b;
            ctx.flags.ult =
                static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
            break;
          }
          case MOp::CSet:
            ctx.gpr[in.rd] = evalCond(in.cond, ctx.flags) ? 1 : 0;
            break;
          case MOp::FAdd:
            ctx.fpr[in.rd] = ctx.fpr[in.rn] + ctx.fpr[in.rm];
            break;
          case MOp::FSub:
            ctx.fpr[in.rd] = ctx.fpr[in.rn] - ctx.fpr[in.rm];
            break;
          case MOp::FMul:
            ctx.fpr[in.rd] = ctx.fpr[in.rn] * ctx.fpr[in.rm];
            break;
          case MOp::FDiv:
            ctx.fpr[in.rd] = ctx.fpr[in.rn] / ctx.fpr[in.rm];
            break;
          case MOp::FNeg:
            ctx.fpr[in.rd] = -ctx.fpr[in.rn];
            break;
          case MOp::FMovReg:
            ctx.fpr[in.rd] = ctx.fpr[in.rn];
            break;
          case MOp::FMovImm: {
            double d;
            std::memcpy(&d, &in.imm, 8);
            ctx.fpr[in.rd] = d;
            break;
          }
          case MOp::FCmp: {
            double a = ctx.fpr[in.rn];
            double b = ctx.fpr[in.rm];
            if (std::isnan(a) || std::isnan(b)) {
                ctx.flags = {false, false, false};
            } else {
                ctx.flags.eq = a == b;
                ctx.flags.lt = a < b;
                ctx.flags.ult = a < b;
            }
            break;
          }
          case MOp::SCvtF:
            ctx.fpr[in.rd] = static_cast<double>(
                static_cast<int64_t>(ctx.gpr[in.rn]));
            break;
          case MOp::FCvtS:
            ctx.gpr[in.rd] = static_cast<uint64_t>(
                static_cast<int64_t>(ctx.fpr[in.rn]));
            break;
          case MOp::Ldr:
            ctx.gpr[in.rd] =
                load(ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm), 8);
            break;
          case MOp::Ldr32:
            ctx.gpr[in.rd] =
                load(ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm), 4);
            break;
          case MOp::LdrS32:
            ctx.gpr[in.rd] = static_cast<uint64_t>(
                static_cast<int64_t>(static_cast<int32_t>(load(
                    ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm), 4))));
            break;
          case MOp::LdrB:
            ctx.gpr[in.rd] =
                load(ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm), 1);
            break;
          case MOp::Str:
            store(ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm),
                  ctx.gpr[in.rd], 8);
            break;
          case MOp::Str32:
            store(ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm),
                  ctx.gpr[in.rd], 4);
            break;
          case MOp::StrB:
            store(ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm),
                  ctx.gpr[in.rd], 1);
            break;
          case MOp::FLdr: {
            uint64_t bits =
                load(ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm), 8);
            std::memcpy(&ctx.fpr[in.rd], &bits, 8);
            break;
          }
          case MOp::FStr: {
            uint64_t bits;
            std::memcpy(&bits, &ctx.fpr[in.rd], 8);
            store(ctx.gpr[in.rn] + static_cast<uint64_t>(in.imm), bits,
                  8);
            break;
          }
          case MOp::LdrIdx:
            ctx.gpr[in.rd] =
                load(ctx.gpr[in.rn] +
                         ctx.gpr[in.rm] * static_cast<uint64_t>(in.imm),
                     8);
            break;
          case MOp::Ldr32Idx:
            ctx.gpr[in.rd] =
                load(ctx.gpr[in.rn] +
                         ctx.gpr[in.rm] * static_cast<uint64_t>(in.imm),
                     4);
            break;
          case MOp::LdrBIdx:
            ctx.gpr[in.rd] =
                load(ctx.gpr[in.rn] +
                         ctx.gpr[in.rm] * static_cast<uint64_t>(in.imm),
                     1);
            break;
          case MOp::StrIdx:
            store(ctx.gpr[in.rn] +
                      ctx.gpr[in.rm] * static_cast<uint64_t>(in.imm),
                  ctx.gpr[in.rd], 8);
            break;
          case MOp::Str32Idx:
            store(ctx.gpr[in.rn] +
                      ctx.gpr[in.rm] * static_cast<uint64_t>(in.imm),
                  ctx.gpr[in.rd], 4);
            break;
          case MOp::StrBIdx:
            store(ctx.gpr[in.rn] +
                      ctx.gpr[in.rm] * static_cast<uint64_t>(in.imm),
                  ctx.gpr[in.rd], 1);
            break;
          case MOp::FLdrIdx: {
            uint64_t bits =
                load(ctx.gpr[in.rn] +
                         ctx.gpr[in.rm] * static_cast<uint64_t>(in.imm),
                     8);
            std::memcpy(&ctx.fpr[in.rd], &bits, 8);
            break;
          }
          case MOp::FStrIdx: {
            uint64_t bits;
            std::memcpy(&bits, &ctx.fpr[in.rd], 8);
            store(ctx.gpr[in.rn] +
                      ctx.gpr[in.rm] * static_cast<uint64_t>(in.imm),
                  bits, 8);
            break;
          }
          case MOp::Push:
            ctx.gpr[abi_.spReg] -= 8;
            store(ctx.gpr[abi_.spReg], ctx.gpr[in.rd], 8);
            break;
          case MOp::Pop:
            ctx.gpr[in.rd] = load(ctx.gpr[abi_.spReg], 8);
            ctx.gpr[abi_.spReg] += 8;
            break;
          case MOp::B:
            nextIdx = in.target;
            break;
          case MOp::BCond:
            if (evalCond(in.cond, ctx.flags))
                nextIdx = in.target;
            break;
          case MOp::Bl: {
            if (in.target == kMigrateTarget) {
                syncPc();
                res.trapCallSite = in.callSiteId;
                if (tracing)
                    obs::Tracer::global().instant(
                        obs::traceCursor().track, "interp",
                        "migpoint_hit", nowTs(cyc));
                return finish(StopReason::MigrateTrap);
            }
            const IRFunction &callee = bin_.ir.func(in.target);
            if (callee.isBuiltin()) {
                syncPc();
                res.trapFuncId = in.target;
                res.trapCallSite = in.callSiteId;
                return finish(StopReason::BuiltinTrap);
            }
            uint64_t ra = kFast ? pre[idx].nextAddr
                                : funcBase + img->instrOff[idx + 1];
            if (abi_.retAddrOnStack) {
                ctx.gpr[abi_.spReg] -= 8;
                store(ctx.gpr[abi_.spReg], ra, 8);
            } else {
                ctx.gpr[abi_.linkReg] = ra;
            }
            switchFunc(in.target);
            nextIdx = 0;
            break;
          }
          case MOp::Blr: {
            uint64_t dest = ctx.gpr[in.rn];
            CodeLoc loc = codeMap_.resolve(dest);
            XISA_CHECK(loc.instrIdx == 0,
                       "indirect call into function body");
            if (bin_.ir.func(loc.funcId).isBuiltin()) {
                syncPc();
                res.trapFuncId = loc.funcId;
                res.trapCallSite = in.callSiteId;
                return finish(StopReason::BuiltinTrap);
            }
            uint64_t ra = kFast ? pre[idx].nextAddr
                                : funcBase + img->instrOff[idx + 1];
            if (abi_.retAddrOnStack) {
                ctx.gpr[abi_.spReg] -= 8;
                store(ctx.gpr[abi_.spReg], ra, 8);
            } else {
                ctx.gpr[abi_.linkReg] = ra;
            }
            switchFunc(loc.funcId);
            nextIdx = 0;
            break;
          }
          case MOp::Ret: {
            uint64_t ra;
            if (abi_.retAddrOnStack) {
                ra = load(ctx.gpr[abi_.spReg], 8);
                ctx.gpr[abi_.spReg] += 8;
            } else {
                ra = ctx.gpr[abi_.linkReg];
            }
            if (ra == vm::kThreadExitAddr) {
                res.exitValue = ctx.gpr[abi_.retReg];
                stop = true;
                stopWhy = StopReason::Halt;
                break;
            }
            CodeLoc loc = codeMap_.resolve(ra);
            switchFunc(loc.funcId);
            nextIdx = loc.instrIdx;
            break;
          }
          case MOp::AtomicAdd: {
            uint64_t addr = ctx.gpr[in.rn];
            uint64_t old = load(addr, 8);
            store(addr, old + ctx.gpr[in.rm], 8);
            ctx.gpr[in.rd] = old;
            break;
          }
          case MOp::TlsBase:
            ctx.gpr[in.rd] = ctx.tlsBase;
            break;
          case MOp::SysCall:
            syncPc();
            res.sysno = in.imm;
            return finish(StopReason::Syscall);
          case MOp::Hlt:
            res.exitValue = ctx.gpr[abi_.retReg];
            stop = true;
            stopWhy = StopReason::Halt;
            break;
          case MOp::NumOps:
            panic("invalid opcode");
        }

        ++res.instrsRun;
        res.cyclesRun += cyc + extra;
        ctx.dsmExtraCycles += extra;
        idx = nextIdx;

        if (stop) {
            syncPc();
            return finish(stopWhy);
        }
    }
    syncPc();
    return finish(StopReason::Budget);
}

// The threaded engine deoptimizes into the fast reference loop from
// another translation unit (interp_threaded.cc).
template StepResult Interp::runImpl<true>(ThreadContext &, MemPort &,
                                          Core &, Cache &, uint64_t);

} // namespace xisa
