#include "core/stacktransform.hh"

#include <chrono>
#include <cstring>

#include "isa/abi.hh"
#include "obs/trace.hh"
#include "util/logging.hh"

namespace xisa {

StackTransformer::StackTransformer(const MultiIsaBinary &bin) : bin_(bin)
{
    for (int i = 0; i < kNumIsas; ++i) {
        for (const auto &[id, site] : bin.callSite[i])
            byRetAddr_[i].emplace(site.retAddr, &site);
        codeMaps_[i] = CodeMap(bin, static_cast<IsaId>(i));
    }
}

const CallSiteInfo *
StackTransformer::siteByRetAddr(IsaId isa, uint64_t retAddr) const
{
    const auto &map = byRetAddr_[static_cast<int>(isa)];
    auto it = map.find(retAddr);
    if (it == map.end())
        fatal("stack walk: return address 0x%llx is not a call site",
              static_cast<unsigned long long>(retAddr));
    return it->second;
}

void
StackTransformer::registerStats(obs::StatRegistry &reg,
                                const std::string &prefix)
{
    reg.attach(prefix + ".transforms", transforms_);
    reg.attach(prefix + ".frames", frames_);
    reg.attach(prefix + ".live_values", liveValues_);
    reg.attach(prefix + ".pointers_fixed", pointersFixed_);
    reg.attach(prefix + ".bytes_copied", bytesCopied_);
}

uint64_t
StackTransformer::costCycles(const TransformStats &work,
                             const NodeSpec &spec)
{
    // Calibrated so a typical 5-frame / 20-value transform lands in the
    // hundreds-of-microseconds range of the paper's Fig. 10, with the
    // in-order ARM-like core roughly 2x the x86-like one.
    double cycles = 30e3 + 120e3 * work.frames + 8e3 * work.liveValues +
                    2.0 * static_cast<double>(work.bytesCopied);
    double scale = 1.0 + (spec.cost(MOp::Add) - 1) * 0.5;
    return static_cast<uint64_t>(cycles * scale);
}

ThreadContext
StackTransformer::transform(const ThreadContext &src, uint32_t siteId,
                            IsaId destIsa, DsmSpace &dsm, int node,
                            uint64_t stackTopAddr, TransformStats *stats)
{
    auto t0 = std::chrono::steady_clock::now();
    TransformStats work;
    uint64_t dsmCycles = 0;

    const IsaId srcIsa = src.isa;
    XISA_CHECK(srcIsa != destIsa, "transform between identical ISAs");
    const AbiInfo &sabi = AbiInfo::of(srcIsa);
    const AbiInfo &dabi = AbiInfo::of(destIsa);
    const int si = static_cast<int>(srcIsa);
    const int di = static_cast<int>(destIsa);

    auto pull64 = [&](uint64_t addr) {
        uint64_t v = 0;
        dsmCycles += dsm.pull(node, addr, &v, 8);
        return v;
    };
    auto poke64 = [&](uint64_t addr, uint64_t v) {
        dsmCycles += dsm.poke(node, addr, &v, 8);
    };

    // ---- 1. Walk the source stack. -----------------------------------
    std::vector<Frame> frames;
    {
        const CallSiteInfo *site = &bin_.site(srcIsa, siteId);
        XISA_CHECK(site->isMigrationPoint,
                   "transform must start at a migration point");
        uint64_t fp = src.gpr[sabi.fpReg];
        for (;;) {
            Frame fr;
            fr.funcId = site->funcId;
            fr.srcSite = site;
            fr.destSite = &bin_.site(destIsa, site->id);
            fr.srcFp = fp;
            frames.push_back(fr);
            uint64_t ra = pull64(fp + FrameInfo::kRetAddrOff);
            if (ra == vm::kThreadExitAddr)
                break;
            uint64_t callerFp = pull64(fp + FrameInfo::kSavedFpOff);
            site = siteByRetAddr(srcIsa, ra);
            fp = callerFp;
            if (frames.size() > 100000)
                panic("stack walk did not terminate");
        }
    }
    const size_t numFrames = frames.size();
    work.frames = static_cast<uint32_t>(numFrames);

#if XISA_TRACE
    // One instant per discovered frame, innermost first, on the ambient
    // track -- renders the walked call chain under the transform span.
    if (obs::traceEnabled() && !auditMode_) {
        const obs::TraceCursor cur = obs::traceCursor();
        if (frameSpanNames_.size() < bin_.ir.functions.size())
            frameSpanNames_.resize(bin_.ir.functions.size());
        for (const Frame &fr : frames) {
            const char *&fn = frameSpanNames_[fr.funcId];
            if (!fn)
                fn = obs::intern("frame " +
                                 bin_.ir.func(fr.funcId).name);
            obs::Tracer::global().instant(cur.track, "stacktransform",
                                          fn, cur.tsSeconds);
        }
    }
#endif

    // ---- 2. Pick the destination half of the stack region. -----------
    const uint64_t stackBase = stackTopAddr - vm::kStackSize;
    const uint64_t half = vm::kStackSize / 2;
    const uint64_t srcSp = src.gpr[sabi.spReg];
    XISA_CHECK(srcSp >= stackBase && srcSp < stackTopAddr,
               "SP outside this thread's stack region");
    const bool srcInUpper = srcSp >= stackTopAddr - half;
    const uint64_t destTop = srcInUpper ? stackTopAddr - half
                                        : stackTopAddr;
    const uint64_t destLimit = destTop - half;

    // ---- 3. Assign destination frame pointers (outermost first). -----
    uint64_t csp = destTop;
    for (size_t i = numFrames; i-- > 0;) {
        const FrameInfo &dfi = bin_.image[di][frames[i].funcId].frame;
        frames[i].destFp = csp - 16;
        csp = frames[i].destFp - (dfi.frameSize - 16);
        if (csp < destLimit + 256)
            fatal("destination stack half overflow (%zu frames)",
                  numFrames);
    }
    const uint64_t destSp = csp;

    // ---- 4. Frame linkage: saved FPs and return addresses. -----------
    for (size_t i = 0; i < numFrames; ++i) {
        bool outermost = i + 1 == numFrames;
        poke64(frames[i].destFp + FrameInfo::kSavedFpOff,
               outermost ? 0 : frames[i + 1].destFp);
        poke64(frames[i].destFp + FrameInfo::kRetAddrOff,
               outermost ? vm::kThreadExitAddr
                         : frames[i + 1].destSite->retAddr);
        work.bytesCopied += 16;
    }

    // ---- 5. Copy allocas and build the pointer-translation map. ------
    struct AllocaRange {
        uint64_t srcLo, srcHi, destLo;
    };
    std::vector<AllocaRange> ranges;
    std::vector<uint8_t> buf;
    for (const Frame &fr : frames) {
        const IRFunction &fn = bin_.ir.func(fr.funcId);
        const FrameInfo &sfi = bin_.image[si][fr.funcId].frame;
        const FrameInfo &dfi = bin_.image[di][fr.funcId].frame;
        for (size_t s = 0; s < fn.allocas.size(); ++s) {
            uint64_t srcA = fr.srcFp +
                            static_cast<int64_t>(sfi.allocaFpOff[s]);
            uint64_t destA = fr.destFp +
                             static_cast<int64_t>(dfi.allocaFpOff[s]);
            uint32_t size = fn.allocas[s].size;
            buf.resize(size);
            dsmCycles += dsm.pull(node, srcA, buf.data(), size);
            dsmCycles += dsm.poke(node, destA, buf.data(), size);
            ranges.push_back({srcA, srcA + size, destA});
            work.bytesCopied += size;
        }
    }

    auto fixPointer = [&](uint64_t v) -> uint64_t {
        if (v < stackBase || v >= stackTopAddr)
            return v; // not a stack pointer: globals/heap are common
        for (const AllocaRange &r : ranges) {
            if (v >= r.srcLo && v < r.srcHi) {
                ++work.pointersFixed;
                return r.destLo + (v - r.srcLo);
            }
        }
        fatal("stack pointer 0x%llx does not target any alloca",
              static_cast<unsigned long long>(v));
    };

    // ---- 6. Live values, with callee-saved re-homing. -----------------
    ThreadContext dst;
    dst.isa = destIsa;
    dst.tlsBase = src.tlsBase;
    dst.gpr[dabi.spReg] = destSp;
    dst.gpr[dabi.fpReg] = frames[0].destFp;

    // The value callee-saved GPR `reg` held in frame k at its call site:
    // the save slot of the nearest callee frame that saved it, else the
    // live register.
    auto readSrcSavedGpr = [&](size_t k, uint8_t reg) -> uint64_t {
        for (size_t j = k; j-- > 0;) {
            const FrameInfo &fi = bin_.image[si][frames[j].funcId].frame;
            for (auto [r, off] : fi.savedGpr)
                if (r == reg)
                    return pull64(frames[j].srcFp +
                                  static_cast<int64_t>(off));
        }
        return src.gpr[reg];
    };
    auto readSrcSavedFpr = [&](size_t k, uint8_t reg) -> uint64_t {
        for (size_t j = k; j-- > 0;) {
            const FrameInfo &fi = bin_.image[si][frames[j].funcId].frame;
            for (auto [r, off] : fi.savedFpr)
                if (r == reg)
                    return pull64(frames[j].srcFp +
                                  static_cast<int64_t>(off));
        }
        uint64_t bits;
        std::memcpy(&bits, &src.fpr[reg], 8);
        return bits;
    };
    auto writeDestSavedGpr = [&](size_t k, uint8_t reg, uint64_t v) {
        for (size_t j = k; j-- > 0;) {
            const FrameInfo &fi = bin_.image[di][frames[j].funcId].frame;
            for (auto [r, off] : fi.savedGpr) {
                if (r == reg) {
                    poke64(frames[j].destFp + static_cast<int64_t>(off),
                           v);
                    return;
                }
            }
        }
        dst.gpr[reg] = v;
    };
    auto writeDestSavedFpr = [&](size_t k, uint8_t reg, uint64_t bits) {
        for (size_t j = k; j-- > 0;) {
            const FrameInfo &fi = bin_.image[di][frames[j].funcId].frame;
            for (auto [r, off] : fi.savedFpr) {
                if (r == reg) {
                    poke64(frames[j].destFp + static_cast<int64_t>(off),
                           bits);
                    return;
                }
            }
        }
        std::memcpy(&dst.fpr[reg], &bits, 8);
    };

    for (size_t k = 0; k < numFrames; ++k) {
        const CallSiteInfo &ss = *frames[k].srcSite;
        const CallSiteInfo &ds = *frames[k].destSite;
        XISA_CHECK(ss.live.size() == ds.live.size(),
                   "live sets differ across ISAs at the same site");
        for (const LiveValue &lv : ss.live) {
            // Match by BIR value id -- the cross-ISA key.
            const LiveValue *dlv = nullptr;
            for (const LiveValue &cand : ds.live) {
                if (cand.irValue == lv.irValue) {
                    dlv = &cand;
                    break;
                }
            }
            XISA_CHECK(dlv, "live value missing on destination ISA");
            XISA_CHECK(dlv->type == lv.type,
                       "live value type differs across ISAs");

            uint64_t value = 0;
            switch (lv.loc.kind) {
              case ValueLocation::Kind::FrameSlot:
                value = pull64(frames[k].srcFp +
                               static_cast<int64_t>(lv.loc.fpOff));
                break;
              case ValueLocation::Kind::Gpr:
                value = readSrcSavedGpr(k, lv.loc.reg);
                break;
              case ValueLocation::Kind::Fpr:
                value = readSrcSavedFpr(k, lv.loc.reg);
                break;
            }
            if (lv.type == Type::Ptr)
                value = fixPointer(value);

            switch (dlv->loc.kind) {
              case ValueLocation::Kind::FrameSlot:
                poke64(frames[k].destFp +
                           static_cast<int64_t>(dlv->loc.fpOff),
                       value);
                break;
              case ValueLocation::Kind::Gpr:
                writeDestSavedGpr(k, dlv->loc.reg, value);
                break;
              case ValueLocation::Kind::Fpr:
                writeDestSavedFpr(k, dlv->loc.reg, value);
                break;
            }
            ++work.liveValues;
            work.bytesCopied += 8;
        }
    }

    // ---- 7. Program counter (the r^AB PC mapping). ---------------------
    dst.pc = codeMaps_[di].resolve(frames[0].destSite->retAddr);
    if (dabi.linkReg >= 0)
        dst.gpr[dabi.linkReg] =
            pull64(frames[0].destFp + FrameInfo::kRetAddrOff);

    work.hostSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    work.cycles = dsmCycles;

    if (!auditMode_) {
        ++transforms_;
        frames_.add(work.frames);
        liveValues_.add(work.liveValues);
        pointersFixed_.add(work.pointersFixed);
        bytesCopied_.add(work.bytesCopied);
    }

    if (stats)
        *stats = work;
    return dst;
}

} // namespace xisa
