#include "workload/workloads.hh"

#include "ir/builder.hh"
#include "util/logging.hh"

namespace xisa {

const WorkloadDesc &
workloadDesc(WorkloadId id)
{
    const std::vector<WorkloadDesc> &table = workloadTable();
    for (const WorkloadDesc &d : table)
        if (d.id == id)
            return d;
    panic("workloadDesc: bad id %d", static_cast<int>(id));
}

const WorkloadDesc *
findWorkload(const std::string &name)
{
    for (const WorkloadDesc &d : workloadTable())
        if (name == d.name)
            return &d;
    return nullptr;
}

const char *
workloadName(WorkloadId id)
{
    return workloadDesc(id).name;
}

namespace {

/** The problem classes, described once (name + working-set scale). */
struct ClassDesc {
    ProblemClass cls;
    const char *name;
    int scale;
};

constexpr ClassDesc kClasses[] = {
    {ProblemClass::A, "A", 1},
    {ProblemClass::B, "B", 4},
    {ProblemClass::C, "C", 16},
};

const ClassDesc *
classDesc(ProblemClass cls)
{
    for (const ClassDesc &d : kClasses)
        if (d.cls == cls)
            return &d;
    return nullptr;
}

} // namespace

const char *
className(ProblemClass cls)
{
    const ClassDesc *d = classDesc(cls);
    return d ? d->name : "?";
}

bool
parseProblemClass(const std::string &s, ProblemClass *out)
{
    for (const ClassDesc &d : kClasses) {
        if (s == d.name ||
            (s.size() == 1 && s[0] == d.name[0] + ('a' - 'A'))) {
            *out = d.cls;
            return true;
        }
    }
    return false;
}

int
classScale(ProblemClass cls)
{
    const ClassDesc *d = classDesc(cls);
    return d ? d->scale : 1;
}

std::vector<WorkloadId>
allWorkloads()
{
    std::vector<WorkloadId> out;
    for (const WorkloadDesc &d : workloadTable())
        out.push_back(d.id);
    return out;
}

std::vector<WorkloadId>
npbWorkloads()
{
    std::vector<WorkloadId> out;
    for (const WorkloadDesc &d : workloadTable())
        if (d.threadCapable)
            out.push_back(d.id);
    return out;
}

bool
supportsThreads(WorkloadId id)
{
    return workloadDesc(id).threadCapable;
}

namespace {

constexpr int64_t kMaxThreads = 16;

/** 64-bit LCG step: x' = x * 6364136223846793005 + 1442695040888963407,
 *  with the mixed upper bits returned. Declared once per module. */
uint32_t
declareLcg(ModuleBuilder &mb)
{
    FuncBuilder &f = mb.defineFunc("lcg_next", Type::I64, {Type::Ptr});
    ValueId x = f.load(Type::I64, f.param(0));
    ValueId next = f.add(f.mul(x, f.constInt(6364136223846793005ll)),
                         f.constInt(1442695040888963407ll));
    f.store(Type::I64, f.param(0), next);
    f.ret(f.lshr(next, f.constInt(17)));
    return mb.findFunc("lcg_next");
}

/** Emit the fork/join scaffold: spawn T workers (or call directly when
 *  T == 1) and join them. Worker signature: void worker(i64 tid). */
void
emitRunWorkers(ModuleBuilder &mb, FuncBuilder &f, uint32_t workerId,
               int64_t T)
{
    if (T == 1) {
        f.callVoid(workerId, {f.constInt(0)});
        return;
    }
    uint32_t tidSlot =
        f.declareAlloca(static_cast<uint32_t>(8 * kMaxThreads), 8,
                        "tids");
    ValueId tids = f.allocaAddr(tidSlot);
    ValueId fn = f.funcAddr(workerId);
    f.forLoopI(0, T, [&](ValueId i) {
        ValueId tid = f.call(mb.builtin(Builtin::ThreadSpawn), {fn, i});
        f.storeIdx(Type::I64, tids, i, tid, 8);
    });
    f.forLoopI(0, T, [&](ValueId i) {
        f.callVoid(mb.builtin(Builtin::ThreadJoin),
                   {f.loadIdx(Type::I64, tids, i, 8)});
    });
}

/** Emit a barrier among the T workers. */
void
emitBarrier(ModuleBuilder &mb, FuncBuilder &w, int64_t id, int64_t T)
{
    w.callVoid(mb.builtin(Builtin::BarrierWait),
               {w.constInt(id), w.constInt(T)});
}

/** Emit branch-free chunk bounds [lo, hi) of n items for thread t. */
std::pair<ValueId, ValueId>
emitChunk(FuncBuilder &w, ValueId t, int64_t n, int64_t T)
{
    int64_t chunk = n / T;
    ValueId lo = w.mulImm(t, chunk);
    ValueId isLast = w.icmp(Cond::EQ, t, w.constInt(T - 1));
    ValueId hi = w.add(w.addImm(lo, chunk),
                       w.mulImm(isLast, n - T * chunk));
    return {lo, hi};
}

// --- CG: sparse power iteration ----------------------------------------

Module
buildCg(ProblemClass cls, int64_t T)
{
    const int64_t n = 512 * classScale(cls);
    const int64_t k = 8;
    const int64_t iters = 8;
    ModuleBuilder mb("cg");
    uint32_t gVals = mb.addGlobal("vals", static_cast<uint64_t>(n * k * 8));
    uint32_t gCols = mb.addGlobal("cols", static_cast<uint64_t>(n * k * 8));
    uint32_t gP = mb.addGlobal("pvec", static_cast<uint64_t>(n * 8));
    uint32_t gQ = mb.addGlobal("qvec", static_cast<uint64_t>(n * 8));
    uint32_t gPart = mb.addGlobal("partial", kMaxThreads * 8);
    uint32_t gNorm = mb.addGlobal("normg", 8);

    FuncBuilder &init = mb.defineFunc("cg_init", Type::Void, {});
    {
        ValueId p = init.globalAddr(gP);
        init.forLoopI(0, n, [&](ValueId i) {
            init.storeIdx(Type::F64, p, i, init.constFloat(1.0), 8);
        });
        ValueId cols = init.globalAddr(gCols);
        ValueId vals = init.globalAddr(gVals);
        init.forLoopI(0, n * k, [&](ValueId e) {
            ValueId col = init.urem(init.mulImm(e, 2654435761ll),
                                    init.constInt(n));
            init.storeIdx(Type::I64, cols, e, col, 8);
            ValueId m = init.urem(e, init.constInt(13));
            ValueId v = init.fmul(init.sitofp(init.addImm(m, 1)),
                                  init.constFloat(0.25 / k));
            init.storeIdx(Type::F64, vals, e, v, 8);
        });
        init.ret();
    }

    FuncBuilder &w = mb.defineFunc("cg_worker", Type::Void, {Type::I64});
    {
        ValueId t = w.param(0);
        auto [lo, hi] = emitChunk(w, t, n, T);
        ValueId vals = w.globalAddr(gVals);
        ValueId cols = w.globalAddr(gCols);
        ValueId p = w.globalAddr(gP);
        ValueId q = w.globalAddr(gQ);
        ValueId part = w.globalAddr(gPart);
        ValueId normA = w.globalAddr(gNorm);
        uint32_t sSlot = w.declareAlloca(8, 8, "s");
        ValueId s = w.allocaAddr(sSlot);
        w.forLoopI(0, iters, [&](ValueId) {
            // q = A * p over our rows.
            w.forLoop(lo, hi, [&](ValueId i) {
                w.store(Type::F64, s, w.constFloat(0.0));
                ValueId base = w.mulImm(i, k);
                w.forLoopI(0, k, [&](ValueId j) {
                    ValueId e = w.add(base, j);
                    ValueId c = w.loadIdx(Type::I64, cols, e, 8);
                    ValueId av = w.loadIdx(Type::F64, vals, e, 8);
                    ValueId pv = w.loadIdx(Type::F64, p, c, 8);
                    w.store(Type::F64, s,
                            w.fadd(w.load(Type::F64, s),
                                   w.fmul(av, pv)));
                });
                w.storeIdx(Type::F64, q, i, w.load(Type::F64, s), 8);
            });
            emitBarrier(mb, w, 20, T);
            // partial[t] = sum q_i^2 over our rows.
            w.store(Type::F64, s, w.constFloat(0.0));
            w.forLoop(lo, hi, [&](ValueId i) {
                ValueId qv = w.loadIdx(Type::F64, q, i, 8);
                w.store(Type::F64, s,
                        w.fadd(w.load(Type::F64, s), w.fmul(qv, qv)));
            });
            w.storeIdx(Type::F64, part, t, w.load(Type::F64, s), 8);
            emitBarrier(mb, w, 21, T);
            // Thread 0 combines the norm deterministically.
            ValueId isZero = w.icmp(Cond::EQ, t, w.constInt(0));
            w.ifThen(isZero, [&] {
                w.store(Type::F64, s, w.constFloat(1.0));
                w.forLoopI(0, T, [&](ValueId tt) {
                    w.store(Type::F64, s,
                            w.fadd(w.load(Type::F64, s),
                                   w.loadIdx(Type::F64, part, tt, 8)));
                });
                w.store(Type::F64, normA, w.load(Type::F64, s));
            });
            emitBarrier(mb, w, 22, T);
            // p = q / norm over our rows.
            ValueId nv = w.load(Type::F64, normA);
            w.forLoop(lo, hi, [&](ValueId i) {
                w.storeIdx(Type::F64, p, i,
                           w.fdiv(w.loadIdx(Type::F64, q, i, 8), nv), 8);
            });
            emitBarrier(mb, w, 23, T);
        });
        w.ret();
    }

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    f.callVoid(mb.findFunc("cg_init"), {});
    emitRunWorkers(mb, f, mb.findFunc("cg_worker"), T);
    uint32_t cSlot = f.declareAlloca(8, 8, "chk");
    ValueId chk = f.allocaAddr(cSlot);
    f.store(Type::F64, chk, f.constFloat(0.0));
    ValueId p = f.globalAddr(gP);
    f.forLoopI(0, n, [&](ValueId i) {
        ValueId wgt = f.sitofp(f.addImm(f.srem(i, f.constInt(7)), 1));
        f.store(Type::F64, chk,
                f.fadd(f.load(Type::F64, chk),
                       f.fmul(f.loadIdx(Type::F64, p, i, 8), wgt)));
    });
    f.callVoid(mb.builtin(Builtin::PrintF64), {f.load(Type::F64, chk)});
    f.ret(f.constInt(0));
    return mb.finish();
}

// --- IS: bucket sort -----------------------------------------------------

Module
buildIs(ProblemClass cls, int64_t T)
{
    const int64_t n = 16384 * classScale(cls);
    const int64_t buckets = 512;
    const int64_t shift = 7; // keys in [0, 65536); 65536/512 = 128 = 2^7
    ModuleBuilder mb("is");
    uint32_t lcg = declareLcg(mb);
    uint32_t gKeys = mb.addGlobal("keys", static_cast<uint64_t>(n * 8));
    uint32_t gOut = mb.addGlobal("outp", static_cast<uint64_t>(n * 8));
    uint32_t gHist = mb.addGlobal(
        "phist", static_cast<uint64_t>(kMaxThreads * buckets * 8));
    uint32_t gTot = mb.addGlobal("total",
                                 static_cast<uint64_t>(buckets * 8));
    uint32_t gOffs = mb.addGlobal(
        "offs", static_cast<uint64_t>((kMaxThreads + 1) * buckets * 8));
    uint32_t gPart = mb.addGlobal("partial", kMaxThreads * 8);

    FuncBuilder &init = mb.defineFunc("is_init", Type::Void, {});
    {
        uint32_t st = init.declareAlloca(8, 8, "rng");
        ValueId rng = init.allocaAddr(st);
        init.store(Type::I64, rng, init.constInt(271828182845ll));
        ValueId keys = init.globalAddr(gKeys);
        init.forLoopI(0, n, [&](ValueId i) {
            ValueId r = init.call(lcg, {rng});
            init.storeIdx(Type::I64, keys, i,
                          init.band(r, init.constInt(65535)), 8);
        });
        init.ret();
    }

    FuncBuilder &w = mb.defineFunc("is_worker", Type::Void, {Type::I64});
    {
        ValueId t = w.param(0);
        auto [lo, hi] = emitChunk(w, t, n, T);
        ValueId keys = w.globalAddr(gKeys);
        ValueId outp = w.globalAddr(gOut);
        ValueId phist = w.globalAddr(gHist);
        ValueId total = w.globalAddr(gTot);
        ValueId offs = w.globalAddr(gOffs);
        ValueId myhist = w.add(phist, w.mulImm(t, buckets * 8));
        // Phase 1: per-thread histogram.
        w.forLoopI(0, buckets, [&](ValueId b) {
            w.storeIdx(Type::I64, myhist, b, w.constInt(0), 8);
        });
        w.forLoop(lo, hi, [&](ValueId i) {
            ValueId key = w.loadIdx(Type::I64, keys, i, 8);
            ValueId b = w.lshr(key, w.constInt(shift));
            ValueId old = w.loadIdx(Type::I64, myhist, b, 8);
            w.storeIdx(Type::I64, myhist, b, w.addImm(old, 1), 8);
        });
        emitBarrier(mb, w, 30, T);
        // Phase 2: bucket-parallel reduction.
        auto [blo, bhi] = emitChunk(w, t, buckets, T);
        w.forLoop(blo, bhi, [&](ValueId b) {
            uint32_t accSlot = 0;
            (void)accSlot;
            ValueId zero = w.constInt(0);
            // Running sum across threads (loop-carried via alloca).
            // Use total[b] as the accumulator.
            w.storeIdx(Type::I64, total, b, zero, 8);
            w.forLoopI(0, T, [&](ValueId tt) {
                ValueId e = w.add(w.mulImm(tt, buckets), b);
                ValueId v = w.loadIdx(Type::I64, phist, e, 8);
                ValueId cur = w.loadIdx(Type::I64, total, b, 8);
                w.storeIdx(Type::I64, total, b, w.add(cur, v), 8);
            });
        });
        emitBarrier(mb, w, 31, T);
        // Phase 3: thread 0 computes global bucket offsets.
        ValueId isZero = w.icmp(Cond::EQ, t, w.constInt(0));
        uint32_t runSlot = w.declareAlloca(8, 8, "run");
        ValueId run = w.allocaAddr(runSlot);
        w.ifThen(isZero, [&] {
            w.store(Type::I64, run, w.constInt(0));
            w.forLoopI(0, buckets, [&](ValueId b) {
                // offs[T*buckets + b] holds the bucket base.
                ValueId e = w.addImm(b, T * buckets);
                w.storeIdx(Type::I64, offs, e,
                           w.load(Type::I64, run), 8);
                w.store(Type::I64, run,
                        w.add(w.load(Type::I64, run),
                              w.loadIdx(Type::I64, total, b, 8)));
            });
        });
        emitBarrier(mb, w, 32, T);
        // Phase 4: per-(thread, bucket) scatter cursors.
        w.forLoop(blo, bhi, [&](ValueId b) {
            w.store(Type::I64, run,
                    w.loadIdx(Type::I64, offs,
                              w.addImm(b, T * buckets), 8));
            w.forLoopI(0, T, [&](ValueId tt) {
                ValueId e = w.add(w.mulImm(tt, buckets), b);
                w.storeIdx(Type::I64, offs, e,
                           w.load(Type::I64, run), 8);
                w.store(Type::I64, run,
                        w.add(w.load(Type::I64, run),
                              w.loadIdx(Type::I64, phist, e, 8)));
            });
        });
        emitBarrier(mb, w, 33, T);
        // Phase 5: stable scatter using our cursors.
        ValueId myoffs = w.add(offs, w.mulImm(t, buckets * 8));
        w.forLoop(lo, hi, [&](ValueId i) {
            ValueId key = w.loadIdx(Type::I64, keys, i, 8);
            ValueId b = w.lshr(key, w.constInt(shift));
            ValueId pos = w.loadIdx(Type::I64, myoffs, b, 8);
            w.storeIdx(Type::I64, myoffs, b, w.addImm(pos, 1), 8);
            w.storeIdx(Type::I64, outp, pos, key, 8);
        });
        emitBarrier(mb, w, 34, T);
        // Phase 6: partial rank checksum.
        uint32_t aSlot = w.declareAlloca(8, 8, "acc");
        ValueId acc = w.allocaAddr(aSlot);
        w.store(Type::I64, acc, w.constInt(0));
        w.forLoop(lo, hi, [&](ValueId i) {
            ValueId v = w.loadIdx(Type::I64, outp, i, 8);
            ValueId wgt = w.addImm(w.band(i, w.constInt(15)), 1);
            w.store(Type::I64, acc,
                    w.add(w.load(Type::I64, acc), w.mul(v, wgt)));
        });
        w.storeIdx(Type::I64, w.globalAddr(gPart), t,
                   w.load(Type::I64, acc), 8);
        w.ret();
    }

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    f.callVoid(mb.findFunc("is_init"), {});
    emitRunWorkers(mb, f, mb.findFunc("is_worker"), T);
    // Verify sortedness (bucket order) and print the checksum.
    uint32_t sSlot = f.declareAlloca(16, 8, "state");
    ValueId st = f.allocaAddr(sSlot);
    f.store(Type::I64, st, f.constInt(0));      // violations
    f.store(Type::I64, st, f.constInt(0), 8);   // checksum
    ValueId outp = f.globalAddr(gOut);
    f.forLoopI(0, n - 1, [&](ValueId i) {
        ValueId a = f.lshr(f.loadIdx(Type::I64, outp, i, 8),
                           f.constInt(shift));
        ValueId b = f.lshr(f.loadIdx(Type::I64, outp, f.addImm(i, 1), 8),
                           f.constInt(shift));
        ValueId bad = f.icmp(Cond::GT, a, b);
        f.store(Type::I64, st,
                f.add(f.load(Type::I64, st), bad));
    });
    ValueId part = f.globalAddr(gPart);
    f.forLoopI(0, T, [&](ValueId tt) {
        f.store(Type::I64, st,
                f.add(f.load(Type::I64, st, 8),
                      f.loadIdx(Type::I64, part, tt, 8)),
                8);
    });
    f.callVoid(mb.builtin(Builtin::PrintI64), {f.load(Type::I64, st)});
    f.callVoid(mb.builtin(Builtin::PrintI64), {f.load(Type::I64, st, 8)});
    f.ret(f.load(Type::I64, st)); // violation count: 0 on success
    return mb.finish();
}

// --- FT: strided butterfly sweeps ---------------------------------------

Module
buildFt(ProblemClass cls, int64_t T)
{
    const int64_t n = 16384 * classScale(cls);
    const int64_t sweeps = 4;
    ModuleBuilder mb("ft");
    uint32_t gX = mb.addGlobal("xv", static_cast<uint64_t>(n * 8));
    uint32_t gY = mb.addGlobal("yv", static_cast<uint64_t>(n * 8));

    FuncBuilder &init = mb.defineFunc("ft_init", Type::Void, {});
    {
        ValueId x = init.globalAddr(gX);
        init.forLoopI(0, n, [&](ValueId i) {
            ValueId v = init.fmul(
                init.sitofp(init.sub(init.band(i, init.constInt(127)),
                                     init.constInt(64))),
                init.constFloat(1.0 / 64.0));
            init.storeIdx(Type::F64, x, i, v, 8);
        });
        init.ret();
    }

    FuncBuilder &w = mb.defineFunc("ft_worker", Type::Void, {Type::I64});
    {
        ValueId t = w.param(0);
        auto [lo, hi] = emitChunk(w, t, n, T);
        ValueId x = w.globalAddr(gX);
        ValueId y = w.globalAddr(gY);
        int64_t strides[4] = {1, 16, 256, 4096};
        for (int s = 0; s < sweeps; ++s) {
            ValueId src = s % 2 == 0 ? x : y;
            ValueId dst = s % 2 == 0 ? y : x;
            int64_t stride = strides[s];
            w.forLoop(lo, hi, [&](ValueId i) {
                ValueId j = w.addImm(i, stride);
                ValueId over = w.icmp(Cond::GE, j, w.constInt(n));
                j = w.sub(j, w.mulImm(over, n));
                ValueId wt = w.fmul(
                    w.sitofp(w.sub(w.band(i, w.constInt(63)),
                                   w.constInt(32))),
                    w.constFloat(1.0 / 64.0));
                ValueId v =
                    w.fadd(w.fmul(w.loadIdx(Type::F64, src, i, 8),
                                  w.constFloat(0.75)),
                           w.fmul(w.loadIdx(Type::F64, src, j, 8), wt));
                w.storeIdx(Type::F64, dst, i, v, 8);
            });
            emitBarrier(mb, w, 40 + s, T);
        }
        w.ret();
    }

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    f.callVoid(mb.findFunc("ft_init"), {});
    emitRunWorkers(mb, f, mb.findFunc("ft_worker"), T);
    uint32_t cSlot = f.declareAlloca(8, 8, "chk");
    ValueId chk = f.allocaAddr(cSlot);
    f.store(Type::F64, chk, f.constFloat(0.0));
    ValueId x = f.globalAddr(gX);
    f.forLoopI(0, n, [&](ValueId i) {
        f.store(Type::F64, chk,
                f.fadd(f.load(Type::F64, chk),
                       f.fmul(f.loadIdx(Type::F64, x, i, 8),
                              f.sitofp(f.addImm(
                                  f.band(i, f.constInt(7)), 1)))));
    });
    f.callVoid(mb.builtin(Builtin::PrintF64), {f.load(Type::F64, chk)});
    f.ret(f.constInt(0));
    return mb.finish();
}

// --- EP: embarrassingly parallel tallying --------------------------------

Module
buildEp(ProblemClass cls, int64_t T)
{
    const int64_t pairs = 16384 * classScale(cls);
    ModuleBuilder mb("ep");
    uint32_t lcg = declareLcg(mb);
    uint32_t gCnt = mb.addGlobal("counts",
                                 static_cast<uint64_t>(kMaxThreads * 4 * 8));
    uint32_t gSx = mb.addGlobal("sx", kMaxThreads * 8);
    uint32_t gSy = mb.addGlobal("sy", kMaxThreads * 8);

    FuncBuilder &w = mb.defineFunc("ep_worker", Type::Void, {Type::I64});
    {
        ValueId t = w.param(0);
        auto [lo, hi] = emitChunk(w, t, pairs, T);
        (void)lo;
        ValueId myCnt = w.add(w.globalAddr(gCnt), w.mulImm(t, 32));
        uint32_t rngSlot = w.declareAlloca(8, 8, "rng");
        uint32_t accSlot = w.declareAlloca(16, 8, "acc");
        ValueId rng = w.allocaAddr(rngSlot);
        ValueId acc = w.allocaAddr(accSlot);
        w.store(Type::F64, acc, w.constFloat(0.0));      // sum x
        w.store(Type::F64, acc, w.constFloat(0.0), 8);   // sum y
        w.forLoopI(0, 4, [&](ValueId q) {
            w.storeIdx(Type::I64, myCnt, q, w.constInt(0), 8);
        });
        w.forLoop(lo, hi, [&](ValueId i) {
            // Per-pair seed: the sampled stream is a function of the
            // pair index, so results are independent of the thread
            // partition (NPB EP's independent-streams property).
            w.store(Type::I64, rng,
                    w.add(w.mulImm(i, 987654321ll), w.constInt(42)));
            auto unit = [&]() {
                ValueId r = w.call(lcg, {rng});
                ValueId u = w.fmul(
                    w.sitofp(w.band(r, w.constInt((1 << 20) - 1))),
                    w.constFloat(1.0 / (1 << 19)));
                return w.fsub(u, w.constFloat(1.0)); // [-1, 1)
            };
            ValueId xv = unit();
            ValueId yv = unit();
            ValueId tt = w.fadd(w.fmul(xv, xv), w.fmul(yv, yv));
            ValueId inside = w.fcmp(Cond::LE, tt, w.constFloat(1.0));
            w.ifThen(inside, [&] {
                ValueId q = w.fptosi(w.fmul(tt, w.constFloat(3.999)));
                ValueId old = w.loadIdx(Type::I64, myCnt, q, 8);
                w.storeIdx(Type::I64, myCnt, q, w.addImm(old, 1), 8);
                w.store(Type::F64, acc,
                        w.fadd(w.load(Type::F64, acc), xv));
                w.store(Type::F64, acc,
                        w.fadd(w.load(Type::F64, acc, 8), yv), 8);
            });
        });
        w.storeIdx(Type::F64, w.globalAddr(gSx), t,
                   w.load(Type::F64, acc), 8);
        w.storeIdx(Type::F64, w.globalAddr(gSy), t,
                   w.load(Type::F64, acc, 8), 8);
        w.ret();
    }

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    emitRunWorkers(mb, f, mb.findFunc("ep_worker"), T);
    uint32_t sSlot = f.declareAlloca(24, 8, "sum");
    ValueId s = f.allocaAddr(sSlot);
    f.store(Type::I64, s, f.constInt(0));
    f.store(Type::F64, s, f.constFloat(0.0), 8);
    f.store(Type::F64, s, f.constFloat(0.0), 16);
    ValueId cnt = f.globalAddr(gCnt);
    f.forLoopI(0, T * 4, [&](ValueId e) {
        f.store(Type::I64, s,
                f.add(f.load(Type::I64, s),
                      f.loadIdx(Type::I64, cnt, e, 8)));
    });
    ValueId sx = f.globalAddr(gSx);
    ValueId sy = f.globalAddr(gSy);
    f.forLoopI(0, T, [&](ValueId tt) {
        f.store(Type::F64, s,
                f.fadd(f.load(Type::F64, s, 8),
                       f.loadIdx(Type::F64, sx, tt, 8)),
                8);
        f.store(Type::F64, s,
                f.fadd(f.load(Type::F64, s, 16),
                       f.loadIdx(Type::F64, sy, tt, 8)),
                16);
    });
    f.callVoid(mb.builtin(Builtin::PrintI64), {f.load(Type::I64, s)});
    f.callVoid(mb.builtin(Builtin::PrintF64), {f.load(Type::F64, s, 8)});
    f.callVoid(mb.builtin(Builtin::PrintF64), {f.load(Type::F64, s, 16)});
    f.ret(f.constInt(0));
    return mb.finish();
}

// --- MG: 1-D multigrid V-cycles -------------------------------------------

Module
buildMg(ProblemClass cls, int64_t T)
{
    const int64_t n = 8192 * classScale(cls);
    const int64_t levels = 4;
    const int64_t cycles = 2;
    ModuleBuilder mb("mg");
    // One array per level: u (solution) and r (rhs/residual).
    std::vector<uint32_t> gU, gR;
    int64_t sz = n;
    for (int64_t l = 0; l < levels; ++l) {
        gU.push_back(mb.addGlobal(strfmt("u%lld", (long long)l),
                                  static_cast<uint64_t>(sz * 8)));
        gR.push_back(mb.addGlobal(strfmt("r%lld", (long long)l),
                                  static_cast<uint64_t>(sz * 8)));
        sz /= 2;
    }

    FuncBuilder &init = mb.defineFunc("mg_init", Type::Void, {});
    {
        ValueId r0 = init.globalAddr(gR[0]);
        init.forLoopI(0, n, [&](ValueId i) {
            ValueId v = init.fmul(
                init.sitofp(init.sub(init.band(i, init.constInt(255)),
                                     init.constInt(128))),
                init.constFloat(1.0 / 128.0));
            init.storeIdx(Type::F64, r0, i, v, 8);
        });
        init.ret();
    }

    FuncBuilder &w = mb.defineFunc("mg_worker", Type::Void, {Type::I64});
    {
        ValueId t = w.param(0);
        int barrier = 50;
        // Red-black Gauss-Seidel: each colour only reads the other
        // colour, so parallel execution is deterministic regardless of
        // thread interleaving (and hence of migration schedules).
        auto smooth = [&](uint32_t u, uint32_t r, int64_t len) {
            auto [lo, hi] = emitChunk(w, t, len - 2, T);
            ValueId ua = w.globalAddr(u);
            ValueId ra = w.globalAddr(r);
            for (int64_t colour = 0; colour < 2; ++colour) {
                w.forLoop(w.addImm(lo, 1), w.addImm(hi, 1),
                          [&](ValueId i) {
                    ValueId mine = w.icmp(
                        Cond::EQ, w.band(i, w.constInt(1)),
                        w.constInt(colour));
                    w.ifThen(mine, [&] {
                        ValueId left = w.loadIdx(Type::F64, ua,
                                                 w.addImm(i, -1), 8);
                        ValueId right = w.loadIdx(Type::F64, ua,
                                                  w.addImm(i, 1), 8);
                        ValueId rv = w.loadIdx(Type::F64, ra, i, 8);
                        ValueId v = w.fmul(
                            w.fadd(w.fadd(left, right), rv),
                            w.constFloat(0.5));
                        w.storeIdx(Type::F64, ua, i, v, 8);
                    });
                });
                emitBarrier(mb, w, barrier++, T);
            }
        };
        auto restrictTo = [&](uint32_t rf, uint32_t rc, int64_t coarse) {
            auto [lo, hi] = emitChunk(w, t, coarse, T);
            ValueId fa = w.globalAddr(rf);
            ValueId ca = w.globalAddr(rc);
            w.forLoop(lo, hi, [&](ValueId i) {
                ValueId j = w.mulImm(i, 2);
                ValueId v = w.fmul(
                    w.fadd(w.loadIdx(Type::F64, fa, j, 8),
                           w.loadIdx(Type::F64, fa, w.addImm(j, 1), 8)),
                    w.constFloat(0.5));
                w.storeIdx(Type::F64, ca, i, v, 8);
            });
            emitBarrier(mb, w, barrier++, T);
        };
        auto prolong = [&](uint32_t uc, uint32_t uf, int64_t coarse) {
            auto [lo, hi] = emitChunk(w, t, coarse, T);
            ValueId ca = w.globalAddr(uc);
            ValueId fa = w.globalAddr(uf);
            w.forLoop(lo, hi, [&](ValueId i) {
                ValueId v = w.loadIdx(Type::F64, ca, i, 8);
                ValueId j = w.mulImm(i, 2);
                ValueId f0 = w.loadIdx(Type::F64, fa, j, 8);
                w.storeIdx(Type::F64, fa, j,
                           w.fadd(f0, v), 8);
                ValueId f1 =
                    w.loadIdx(Type::F64, fa, w.addImm(j, 1), 8);
                w.storeIdx(Type::F64, fa, w.addImm(j, 1),
                           w.fadd(f1, v), 8);
            });
            emitBarrier(mb, w, barrier++, T);
        };
        for (int64_t c = 0; c < cycles; ++c) {
            int64_t len = n;
            for (int64_t l = 0; l < levels - 1; ++l) {
                smooth(gU[static_cast<size_t>(l)],
                       gR[static_cast<size_t>(l)], len);
                restrictTo(gR[static_cast<size_t>(l)],
                           gR[static_cast<size_t>(l + 1)], len / 2);
                len /= 2;
            }
            smooth(gU[levels - 1], gR[levels - 1], len);
            for (int64_t l = levels - 1; l > 0; --l) {
                prolong(gU[static_cast<size_t>(l)],
                        gU[static_cast<size_t>(l - 1)], len);
                len *= 2;
                smooth(gU[static_cast<size_t>(l - 1)],
                       gR[static_cast<size_t>(l - 1)], len);
            }
        }
        w.ret();
    }

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    f.callVoid(mb.findFunc("mg_init"), {});
    emitRunWorkers(mb, f, mb.findFunc("mg_worker"), T);
    uint32_t cSlot = f.declareAlloca(8, 8, "chk");
    ValueId chk = f.allocaAddr(cSlot);
    f.store(Type::F64, chk, f.constFloat(0.0));
    ValueId u0 = f.globalAddr(gU[0]);
    f.forLoopI(0, n, [&](ValueId i) {
        f.store(Type::F64, chk,
                f.fadd(f.load(Type::F64, chk),
                       f.loadIdx(Type::F64, u0, i, 8)));
    });
    f.callVoid(mb.builtin(Builtin::PrintF64), {f.load(Type::F64, chk)});
    f.ret(f.constInt(0));
    return mb.finish();
}

// --- SP: Jacobi relaxation -------------------------------------------------

Module
buildSp(ProblemClass cls, int64_t T)
{
    int64_t g = 48;
    for (int i = 1; i < classScale(cls); i *= 4)
        g *= 2;
    const int64_t iters = 8;
    ModuleBuilder mb("sp");
    uint32_t gA = mb.addGlobal("grid_a", static_cast<uint64_t>(g * g * 8));
    uint32_t gB = mb.addGlobal("grid_b", static_cast<uint64_t>(g * g * 8));

    FuncBuilder &init = mb.defineFunc("sp_init", Type::Void, {});
    {
        ValueId a = init.globalAddr(gA);
        init.forLoopI(0, g * g, [&](ValueId e) {
            ValueId v = init.fmul(
                init.sitofp(init.band(e, init.constInt(31))),
                init.constFloat(1.0 / 16.0));
            init.storeIdx(Type::F64, a, e, v, 8);
        });
        init.callVoid(mb.builtin(Builtin::Memcpy),
                      {init.globalAddr(gB), a, init.constInt(g * g * 8)});
        init.ret();
    }

    FuncBuilder &w = mb.defineFunc("sp_worker", Type::Void, {Type::I64});
    {
        ValueId t = w.param(0);
        auto [lo, hi] = emitChunk(w, t, g - 2, T);
        ValueId rowLo = w.addImm(lo, 1);
        ValueId rowHi = w.addImm(hi, 1);
        ValueId a = w.globalAddr(gA);
        ValueId b = w.globalAddr(gB);
        for (int64_t it = 0; it < iters; ++it) {
            ValueId src = it % 2 == 0 ? a : b;
            ValueId dst = it % 2 == 0 ? b : a;
            w.forLoop(rowLo, rowHi, [&](ValueId i) {
                ValueId base = w.mulImm(i, g);
                w.forLoopI(1, g - 1, [&](ValueId j) {
                    ValueId e = w.add(base, j);
                    ValueId up = w.loadIdx(Type::F64, src,
                                           w.addImm(e, -g), 8);
                    ValueId dn = w.loadIdx(Type::F64, src,
                                           w.addImm(e, g), 8);
                    ValueId lf = w.loadIdx(Type::F64, src,
                                           w.addImm(e, -1), 8);
                    ValueId rt = w.loadIdx(Type::F64, src,
                                           w.addImm(e, 1), 8);
                    ValueId v = w.fmul(
                        w.fadd(w.fadd(up, dn), w.fadd(lf, rt)),
                        w.constFloat(0.25));
                    w.storeIdx(Type::F64, dst, e, v, 8);
                });
            });
            emitBarrier(mb, w, 70 + static_cast<int>(it), T);
        }
        w.ret();
    }

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    f.callVoid(mb.findFunc("sp_init"), {});
    emitRunWorkers(mb, f, mb.findFunc("sp_worker"), T);
    uint32_t cSlot = f.declareAlloca(8, 8, "chk");
    ValueId chk = f.allocaAddr(cSlot);
    f.store(Type::F64, chk, f.constFloat(0.0));
    ValueId a = f.globalAddr(gA);
    f.forLoopI(0, g * g, [&](ValueId e) {
        f.store(Type::F64, chk,
                f.fadd(f.load(Type::F64, chk),
                       f.loadIdx(Type::F64, a, e, 8)));
    });
    f.callVoid(mb.builtin(Builtin::PrintF64), {f.load(Type::F64, chk)});
    f.ret(f.constInt(0));
    return mb.finish();
}

// --- BT: per-line Thomas solves ---------------------------------------------

Module
buildBt(ProblemClass cls, int64_t T)
{
    const int64_t rows = 64 * classScale(cls);
    const int64_t cols = 64;
    const int64_t iters = 4;
    ModuleBuilder mb("bt");
    uint32_t gRhs = mb.addGlobal("rhs",
                                 static_cast<uint64_t>(rows * cols * 8));
    uint32_t gCw = mb.addGlobal(
        "cw", static_cast<uint64_t>(kMaxThreads * cols * 8));
    uint32_t gDw = mb.addGlobal(
        "dw", static_cast<uint64_t>(kMaxThreads * cols * 8));

    FuncBuilder &init = mb.defineFunc("bt_init", Type::Void, {});
    {
        ValueId rhs = init.globalAddr(gRhs);
        init.forLoopI(0, rows * cols, [&](ValueId e) {
            ValueId v = init.fmul(
                init.sitofp(init.addImm(
                    init.band(e, init.constInt(63)), 1)),
                init.constFloat(1.0 / 32.0));
            init.storeIdx(Type::F64, rhs, e, v, 8);
        });
        init.ret();
    }

    FuncBuilder &w = mb.defineFunc("bt_worker", Type::Void, {Type::I64});
    {
        ValueId t = w.param(0);
        auto [lo, hi] = emitChunk(w, t, rows, T);
        ValueId rhs = w.globalAddr(gRhs);
        ValueId cw = w.add(w.globalAddr(gCw), w.mulImm(t, cols * 8));
        ValueId dw = w.add(w.globalAddr(gDw), w.mulImm(t, cols * 8));
        // Tridiagonal system per row: a=-1, b=2.5, c=-1.
        for (int64_t it = 0; it < iters; ++it) {
            w.forLoop(lo, hi, [&](ValueId row) {
                ValueId base = w.mulImm(row, cols);
                // Forward sweep.
                ValueId d0 = w.loadIdx(Type::F64, rhs, base, 8);
                ValueId beta = w.constFloat(2.5);
                w.storeIdx(Type::F64, cw, w.constInt(0),
                           w.fdiv(w.constFloat(-1.0), beta), 8);
                w.storeIdx(Type::F64, dw, w.constInt(0),
                           w.fdiv(d0, beta), 8);
                w.forLoopI(1, cols, [&](ValueId j) {
                    ValueId cPrev = w.loadIdx(Type::F64, cw,
                                              w.addImm(j, -1), 8);
                    ValueId dPrev = w.loadIdx(Type::F64, dw,
                                              w.addImm(j, -1), 8);
                    ValueId denom = w.fadd(w.constFloat(2.5), cPrev);
                    ValueId dj = w.loadIdx(Type::F64, rhs,
                                           w.add(base, j), 8);
                    w.storeIdx(Type::F64, cw, j,
                               w.fdiv(w.constFloat(-1.0), denom), 8);
                    w.storeIdx(Type::F64, dw, j,
                               w.fdiv(w.fadd(dj, dPrev), denom), 8);
                });
                // Back substitution into rhs (becomes next iter input).
                ValueId last = w.constInt(cols - 1);
                w.storeIdx(Type::F64, rhs, w.add(base, last),
                           w.loadIdx(Type::F64, dw, last, 8), 8);
                w.forLoopI(1, cols, [&](ValueId jj) {
                    ValueId j = w.sub(w.constInt(cols - 1), jj);
                    ValueId xNext = w.loadIdx(
                        Type::F64, rhs,
                        w.add(base, w.addImm(j, 1)), 8);
                    ValueId v = w.fsub(
                        w.loadIdx(Type::F64, dw, j, 8),
                        w.fmul(w.loadIdx(Type::F64, cw, j, 8),
                               w.fneg(xNext)));
                    w.storeIdx(Type::F64, rhs, w.add(base, j), v, 8);
                });
            });
            emitBarrier(mb, w, 80 + static_cast<int>(it), T);
        }
        w.ret();
    }

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    f.callVoid(mb.findFunc("bt_init"), {});
    emitRunWorkers(mb, f, mb.findFunc("bt_worker"), T);
    uint32_t cSlot = f.declareAlloca(8, 8, "chk");
    ValueId chk = f.allocaAddr(cSlot);
    f.store(Type::F64, chk, f.constFloat(0.0));
    ValueId rhs = f.globalAddr(gRhs);
    f.forLoopI(0, rows * cols, [&](ValueId e) {
        f.store(Type::F64, chk,
                f.fadd(f.load(Type::F64, chk),
                       f.loadIdx(Type::F64, rhs, e, 8)));
    });
    f.callVoid(mb.builtin(Builtin::PrintF64), {f.load(Type::F64, chk)});
    f.ret(f.constInt(0));
    return mb.finish();
}

// --- BZIP: RLE + move-to-front (serial, branchy) ---------------------------

Module
buildBzip(ProblemClass cls)
{
    const int64_t block = 32768 * classScale(cls);
    ModuleBuilder mb("bzip");
    uint32_t lcg = declareLcg(mb);
    uint32_t gBuf = mb.addGlobal("buf", static_cast<uint64_t>(block));
    uint32_t gRle = mb.addGlobal("rle", static_cast<uint64_t>(block * 2));
    uint32_t gMtf = mb.addGlobal("mtf_table", 256 * 8);
    uint32_t gFreq = mb.addGlobal("freq", 256 * 8);

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    uint32_t stSlot = f.declareAlloca(48, 8, "state");
    ValueId st = f.allocaAddr(stSlot);
    // [0]=rng [8]=rlen [16]=mtfsum [24]=pos [32]=run [40]=prev
    f.store(Type::I64, st, f.constInt(314159), 0);
    ValueId buf = f.globalAddr(gBuf);
    // Generate text-ish bytes: mostly lowercase, occasionally anything.
    f.forLoopI(0, block, [&](ValueId i) {
        ValueId r = f.call(lcg, {st});
        ValueId rare = f.icmp(Cond::EQ, f.band(r, f.constInt(31)),
                              f.constInt(0));
        f.ifThenElse(
            rare,
            [&] {
                f.storeIdx(Type::I8, buf, i,
                           f.band(r, f.constInt(255)), 1);
            },
            [&] {
                f.storeIdx(Type::I8, buf, i,
                           f.addImm(f.band(f.lshr(r, f.constInt(5)),
                                           f.constInt(7)),
                                    97),
                           1);
            });
    });
    // RLE: runs capped at 255.
    ValueId rle = f.globalAddr(gRle);
    f.store(Type::I64, st, f.constInt(0), 8);   // out len
    f.store(Type::I64, st, f.constInt(0), 24);  // pos
    f.whileLoop(
        [&] {
            return f.icmp(Cond::LT, f.load(Type::I64, st, 24),
                          f.constInt(block));
        },
        [&] {
            ValueId pos = f.load(Type::I64, st, 24);
            ValueId byte = f.loadIdx(Type::I8, buf, pos, 1);
            f.store(Type::I64, st, f.constInt(1), 32); // run
            f.whileLoop(
                [&] {
                    ValueId run = f.load(Type::I64, st, 32);
                    ValueId nxt = f.add(pos, run);
                    ValueId inBounds =
                        f.icmp(Cond::LT, nxt, f.constInt(block));
                    ValueId shortRun =
                        f.icmp(Cond::LT, run, f.constInt(255));
                    ValueId same = f.band(inBounds, shortRun);
                    uint32_t okB = f.newBlock();
                    uint32_t outB = f.newBlock();
                    uint32_t joinB = f.newBlock();
                    // same &&= buf[nxt] == byte, short-circuited.
                    ValueId res = f.newReg(Type::I64);
                    f.condBr(same, okB, outB);
                    f.setBlock(okB);
                    ValueId eq = f.icmp(
                        Cond::EQ, f.loadIdx(Type::I8, buf, nxt, 1),
                        byte);
                    f.copy(res, eq);
                    f.br(joinB);
                    f.setBlock(outB);
                    f.copy(res, f.constInt(0));
                    f.br(joinB);
                    f.setBlock(joinB);
                    return res;
                },
                [&] {
                    f.store(Type::I64, st,
                            f.addImm(f.load(Type::I64, st, 32), 1), 32);
                });
            ValueId run = f.load(Type::I64, st, 32);
            ValueId olen = f.load(Type::I64, st, 8);
            f.storeIdx(Type::I8, rle, olen, run, 1);
            f.storeIdx(Type::I8, rle, f.addImm(olen, 1), byte, 1);
            f.store(Type::I64, st, f.addImm(olen, 2), 8);
            f.store(Type::I64, st, f.add(pos, run), 24);
        });
    // Move-to-front over the RLE output.
    ValueId mtf = f.globalAddr(gMtf);
    f.forLoopI(0, 256, [&](ValueId i) {
        f.storeIdx(Type::I64, mtf, i, i, 8);
    });
    ValueId freq = f.globalAddr(gFreq);
    f.store(Type::I64, st, f.constInt(0), 16);
    ValueId olen = f.load(Type::I64, st, 8);
    f.forLoop(f.constInt(0), olen, [&](ValueId i) {
        ValueId byte = f.loadIdx(Type::I8, rle, i, 1);
        // Find rank of byte (linear search: branchy on purpose).
        f.store(Type::I64, st, f.constInt(0), 40);
        f.whileLoop(
            [&] {
                ValueId r = f.load(Type::I64, st, 40);
                return f.icmp(Cond::NE,
                              f.loadIdx(Type::I64, mtf, r, 8), byte);
            },
            [&] {
                f.store(Type::I64, st,
                        f.addImm(f.load(Type::I64, st, 40), 1), 40);
            });
        ValueId rank = f.load(Type::I64, st, 40);
        f.store(Type::I64, st,
                f.add(f.load(Type::I64, st, 16), rank), 16);
        // Shift [0, rank) up by one; put byte at front.
        f.forLoop(f.constInt(0), rank, [&](ValueId jj) {
            ValueId j = f.sub(rank, f.addImm(jj, 1));
            f.storeIdx(Type::I64, mtf, f.addImm(j, 1),
                       f.loadIdx(Type::I64, mtf, j, 8), 8);
        });
        f.storeIdx(Type::I64, mtf, f.constInt(0), byte, 8);
        ValueId fOld = f.loadIdx(Type::I64, freq, rank, 8);
        f.storeIdx(Type::I64, freq, rank, f.addImm(fOld, 1), 8);
    });
    f.callVoid(mb.builtin(Builtin::PrintI64), {olen});
    f.callVoid(mb.builtin(Builtin::PrintI64),
               {f.load(Type::I64, st, 16)});
    f.ret(f.constInt(0));
    return mb.finish();
}

// --- VERUS: BFS over an implicit transition system --------------------------

Module
buildVerus(ProblemClass cls)
{
    const int64_t m = 8192 * classScale(cls);
    ModuleBuilder mb("verus");
    uint32_t gVisited = mb.addGlobal("visited",
                                     static_cast<uint64_t>(m / 8));
    uint32_t gQueue = mb.addGlobal("queue", static_cast<uint64_t>(m * 8));

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    uint32_t stSlot = f.declareAlloca(40, 8, "state");
    ValueId st = f.allocaAddr(stSlot);
    // [0]=head [8]=tail [16]=reached [24]=edges [32]=scratch
    ValueId visited = f.globalAddr(gVisited);
    ValueId queue = f.globalAddr(gQueue);
    auto markAndPush = [&](ValueId s) {
        ValueId word = f.lshr(s, f.constInt(6));
        ValueId bit = f.shl(f.constInt(1), f.band(s, f.constInt(63)));
        ValueId cur = f.loadIdx(Type::I64, visited, word, 8);
        ValueId unseen = f.icmp(Cond::EQ, f.band(cur, bit),
                                f.constInt(0));
        f.ifThen(unseen, [&] {
            f.storeIdx(Type::I64, visited, word, f.bor(cur, bit), 8);
            ValueId tail = f.load(Type::I64, st, 8);
            f.storeIdx(Type::I64, queue, tail, s, 8);
            f.store(Type::I64, st, f.addImm(tail, 1), 8);
            f.store(Type::I64, st,
                    f.addImm(f.load(Type::I64, st, 16), 1), 16);
        });
    };
    f.store(Type::I64, st, f.constInt(0), 0);
    f.store(Type::I64, st, f.constInt(0), 8);
    f.store(Type::I64, st, f.constInt(0), 16);
    f.store(Type::I64, st, f.constInt(0), 24);
    markAndPush(f.constInt(1));
    f.whileLoop(
        [&] {
            return f.icmp(Cond::LT, f.load(Type::I64, st, 0),
                          f.load(Type::I64, st, 8));
        },
        [&] {
            ValueId head = f.load(Type::I64, st, 0);
            ValueId s = f.loadIdx(Type::I64, queue, head, 8);
            f.store(Type::I64, st, f.addImm(head, 1), 0);
            f.store(Type::I64, st,
                    f.addImm(f.load(Type::I64, st, 24), 3), 24);
            ValueId mConst = f.constInt(m);
            markAndPush(f.urem(f.addImm(f.mulImm(s, 3), 1), mConst));
            markAndPush(f.urem(f.addImm(f.mulImm(s, 5), 7), mConst));
            markAndPush(f.lshr(s, f.constInt(1)));
        });
    f.callVoid(mb.builtin(Builtin::PrintI64), {f.load(Type::I64, st, 16)});
    f.callVoid(mb.builtin(Builtin::PrintI64), {f.load(Type::I64, st, 24)});
    f.ret(f.constInt(0));
    return mb.finish();
}

// --- REDIS: hash-table GET/SET service loop ---------------------------------

Module
buildRedis(ProblemClass cls)
{
    const int64_t cap = 16384; // power of two
    const int64_t ops = 16384 * classScale(cls);
    ModuleBuilder mb("redis");
    uint32_t lcg = declareLcg(mb);
    uint32_t gKeys = mb.addGlobal("tkeys", cap * 8); // 0 = empty, k+1
    uint32_t gVals = mb.addGlobal("tvals", cap * 8);

    FuncBuilder &f = mb.defineFunc("main", Type::I64, {});
    uint32_t stSlot = f.declareAlloca(48, 8, "state");
    ValueId st = f.allocaAddr(stSlot);
    // [0]=rng [8]=hits [16]=acc [24]=sets [32]=probe idx [40]=done flag
    f.store(Type::I64, st, f.constInt(1618033988), 0);
    f.store(Type::I64, st, f.constInt(0), 8);
    f.store(Type::I64, st, f.constInt(0), 16);
    f.store(Type::I64, st, f.constInt(0), 24);
    ValueId tk = f.globalAddr(gKeys);
    ValueId tv = f.globalAddr(gVals);
    f.forLoopI(0, ops, [&](ValueId) {
        ValueId r = f.call(lcg, {st});
        ValueId key = f.addImm(f.band(r, f.constInt(8191)), 1);
        ValueId isSet = f.icmp(
            Cond::LT, f.band(f.lshr(r, f.constInt(13)), f.constInt(7)),
            f.constInt(3));
        // Probe from hash(key).
        ValueId h = f.band(f.mulImm(key, 2654435761ll),
                           f.constInt(cap - 1));
        f.store(Type::I64, st, h, 32);
        f.store(Type::I64, st, f.constInt(0), 40);
        f.whileLoop(
            [&] {
                return f.icmp(Cond::EQ, f.load(Type::I64, st, 40),
                              f.constInt(0));
            },
            [&] {
                ValueId idx = f.load(Type::I64, st, 32);
                ValueId slotKey = f.loadIdx(Type::I64, tk, idx, 8);
                ValueId hitHere = f.icmp(Cond::EQ, slotKey, key);
                ValueId empty = f.icmp(Cond::EQ, slotKey,
                                       f.constInt(0));
                ValueId stop = f.bor(hitHere, empty);
                f.ifThenElse(
                    stop,
                    [&] {
                        f.ifThenElse(
                            isSet,
                            [&] {
                                f.storeIdx(Type::I64, tk, idx, key, 8);
                                f.storeIdx(Type::I64, tv, idx,
                                           f.mulImm(key, 3), 8);
                                f.store(Type::I64, st,
                                        f.addImm(f.load(Type::I64, st,
                                                        24),
                                                 1),
                                        24);
                            },
                            [&] {
                                f.ifThen(hitHere, [&] {
                                    f.store(
                                        Type::I64, st,
                                        f.addImm(f.load(Type::I64, st,
                                                        8),
                                                 1),
                                        8);
                                    f.store(
                                        Type::I64, st,
                                        f.add(f.load(Type::I64, st, 16),
                                              f.loadIdx(Type::I64, tv,
                                                        idx, 8)),
                                        16);
                                });
                            });
                        f.store(Type::I64, st, f.constInt(1), 40);
                    },
                    [&] {
                        f.store(Type::I64, st,
                                f.band(f.addImm(idx, 1),
                                       f.constInt(cap - 1)),
                                32);
                    });
            });
    });
    f.callVoid(mb.builtin(Builtin::PrintI64), {f.load(Type::I64, st, 8)});
    f.callVoid(mb.builtin(Builtin::PrintI64),
               {f.load(Type::I64, st, 16)});
    f.callVoid(mb.builtin(Builtin::PrintI64),
               {f.load(Type::I64, st, 24)});
    f.ret(f.constInt(0));
    return mb.finish();
}

// Uniform-signature shims over the kernels above: the table stores one
// builder type; serial kernels ignore the (validated to be 1) count.

Module buildCgT(ProblemClass c, int t) { return buildCg(c, t); }
Module buildIsT(ProblemClass c, int t) { return buildIs(c, t); }
Module buildFtT(ProblemClass c, int t) { return buildFt(c, t); }
Module buildEpT(ProblemClass c, int t) { return buildEp(c, t); }
Module buildMgT(ProblemClass c, int t) { return buildMg(c, t); }
Module buildSpT(ProblemClass c, int t) { return buildSp(c, t); }
Module buildBtT(ProblemClass c, int t) { return buildBt(c, t); }
Module buildBzipT(ProblemClass c, int) { return buildBzip(c); }
Module buildVerusT(ProblemClass c, int) { return buildVerus(c); }
Module buildRedisT(ProblemClass c, int) { return buildRedis(c); }

} // namespace

const std::vector<WorkloadDesc> &
workloadTable()
{
    static const std::vector<WorkloadDesc> table = {
        {WorkloadId::CG, "cg", true, buildCgT, 2.0},
        {WorkloadId::IS, "is", true, buildIsT, 4.2},
        {WorkloadId::FT, "ft", true, buildFtT, 6.9},
        {WorkloadId::EP, "ep", true, buildEpT, 3.5},
        {WorkloadId::MG, "mg", true, buildMgT, 8.7},
        {WorkloadId::SP, "sp", true, buildSpT, 1.5},
        {WorkloadId::BT, "bt", true, buildBtT, 2.4},
        {WorkloadId::BZIP, "bzip", false, buildBzipT, 26.7},
        {WorkloadId::VERUS, "verus", false, buildVerusT, 1.8},
        {WorkloadId::REDIS, "redis", false, buildRedisT, 3.0},
    };
    return table;
}

Module
buildWorkload(WorkloadId id, ProblemClass cls, int nthreads)
{
    if (nthreads < 1 || nthreads > kMaxThreads)
        fatal("buildWorkload: nthreads %d out of range", nthreads);
    const WorkloadDesc &d = workloadDesc(id);
    if (nthreads > 1 && !d.threadCapable)
        fatal("workload '%s' is serial-only", d.name);
    return d.build(cls, nthreads);
}

} // namespace xisa
