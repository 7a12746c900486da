/**
 * @file
 * Fast-path engine tests (DESIGN.md §7).
 *
 * Two families:
 *  - TLB coherence: the per-port software TLB must be invalidated on
 *    every event that changes a page's residency or rights -- hDSM page
 *    steal, invalidation, Modified->Shared downgrade, fault-induced
 *    protocol retries, thread migration -- and must never return bytes
 *    that disagree with the protocol's authoritative copy.
 *  - Differential: every observable of a run (program output, exit
 *    code, instruction count, simulated makespan, stat values, final
 *    memory image) must be identical between the fast path and the
 *    XISA_SLOW_PATH reference interpreter.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <vector>

#include "compiler/compile.hh"
#include "dsm/dsm.hh"
#include "machine/interp_threaded.hh"
#include "machine/mem.hh"
#include "os/os.hh"
#include "util/rng.hh"
#include "workload/workloads.hh"

namespace xisa {
namespace {

constexpr uint64_t kBase = 0x10000000ull;
constexpr uint64_t kPage = kBase / vm::kPageSize;

/** Scope that forces the reference (slow) paths for components
 *  constructed inside it; XISA_SLOW_PATH is sampled at construction. */
struct SlowPathGuard {
    SlowPathGuard() { setenv("XISA_SLOW_PATH", "1", 1); }
    ~SlowPathGuard() { unsetenv("XISA_SLOW_PATH"); }
};

// ---------------------------------------------------------------------
// TLB invalidation contract.
// ---------------------------------------------------------------------

struct TlbFixture : ::testing::Test {
    Interconnect net;
    DsmSpace dsm{2, &net, {3.5, 2.4}};
};

TEST_F(TlbFixture, LocalAccessInstallsBothTranslations)
{
    uint64_t v = 5;
    dsm.port(0).write(kBase, &v, 8);
    uint64_t got = 0;
    EXPECT_TRUE(dsm.port(0).tryRead(kBase, &got, 8));
    EXPECT_EQ(got, 5u);
    uint64_t w = 9;
    EXPECT_TRUE(dsm.port(0).tryWrite(kBase + 8, &w, 8));
    dsm.peek(kBase + 8, &got, 8);
    EXPECT_EQ(got, 9u) << "TLB store must hit the authoritative copy";
}

TEST_F(TlbFixture, PageStealDropsTheOldOwnersEntries)
{
    uint64_t v = 1;
    dsm.port(0).write(kBase, &v, 8); // node0 Modified, TLB hot
    uint64_t w = 2;
    dsm.port(1).write(kBase, &w, 8); // steal: node0 invalidated
    uint64_t got = 0;
    EXPECT_FALSE(dsm.port(0).tryRead(kBase, &got, 8))
        << "stale read translation after invalidation";
    EXPECT_FALSE(dsm.port(0).tryWrite(kBase, &v, 8))
        << "stale write translation after invalidation";
    // The slow path re-faults and sees node1's value.
    dsm.port(0).read(kBase, &got, 8);
    EXPECT_EQ(got, 2u);
}

TEST_F(TlbFixture, SharedReadDowngradesTheOwnersWriteEntry)
{
    uint64_t v = 3;
    dsm.port(0).write(kBase, &v, 8); // node0 Modified
    uint64_t got = 0;
    dsm.port(1).read(kBase, &got, 8); // both Shared now
    EXPECT_FALSE(dsm.port(0).tryWrite(kBase, &v, 8))
        << "write rights must expire on Modified->Shared";
    EXPECT_TRUE(dsm.port(0).tryRead(kBase, &got, 8))
        << "read translation stays valid while Shared";
    EXPECT_EQ(got, 3u);
}

TEST_F(TlbFixture, ReaderEntriesDropOnInvalidation)
{
    uint64_t v = 4;
    dsm.port(0).write(kBase, &v, 8);
    uint64_t got = 0;
    dsm.port(1).read(kBase, &got, 8); // node1 Shared, read TLB hot
    ASSERT_TRUE(dsm.port(1).tryRead(kBase, &got, 8));
    uint64_t w = 6;
    dsm.port(0).write(kBase, &w, 8); // invalidates node1's copy
    EXPECT_FALSE(dsm.port(1).tryRead(kBase, &got, 8))
        << "stale reader translation after invalidation";
    dsm.port(1).read(kBase, &got, 8);
    EXPECT_EQ(got, 6u);
}

TEST_F(TlbFixture, VdsoWritesAreNeverCached)
{
    dsm.broadcastWrite64(vm::kVdsoBase, 7);
    uint64_t got = 0;
    dsm.port(0).read(vm::kVdsoBase, &got, 8);
    uint64_t w = 8;
    EXPECT_FALSE(dsm.port(0).tryWrite(vm::kVdsoBase, &w, 8))
        << "user stores to the vDSO page must take the slow path";
}

TEST_F(TlbFixture, FlushTlbDropsEveryTranslation)
{
    uint64_t v = 1;
    dsm.port(0).write(kBase, &v, 8);
    dsm.port(0).write(kBase + vm::kPageSize, &v, 8);
    dsm.flushTlb(0);
    uint64_t got = 0;
    EXPECT_FALSE(dsm.port(0).tryRead(kBase, &got, 8));
    EXPECT_FALSE(dsm.port(0).tryRead(kBase + vm::kPageSize, &got, 8));
    EXPECT_FALSE(dsm.port(0).tryWrite(kBase, &v, 8));
}

TEST_F(TlbFixture, SlowPathModeNeverCaches)
{
    SlowPathGuard slow;
    Interconnect net2;
    DsmSpace ref(2, &net2, {3.5, 2.4});
    uint64_t v = 1, got = 0;
    ref.port(0).write(kBase, &v, 8);
    ref.port(0).read(kBase, &got, 8);
    EXPECT_FALSE(ref.port(0).tryRead(kBase, &got, 8));
    EXPECT_FALSE(ref.port(0).tryWrite(kBase, &v, 8));
}

TEST(TlbRemoteAccess, OnlyHomePagesAreCached)
{
    Interconnect net;
    DsmSpace dsm(2, &net, {3.5, 2.4}, DsmMode::RemoteAccess);
    uint64_t v = 11, got = 0;
    dsm.port(0).write(kBase, &v, 8); // node0 becomes home
    EXPECT_TRUE(dsm.port(0).tryRead(kBase, &got, 8));
    // Node1's accesses are remote: every one must pay the round trip,
    // so nothing may be cached on node1's port.
    dsm.port(1).read(kBase, &got, 8);
    EXPECT_EQ(got, 11u);
    EXPECT_FALSE(dsm.port(1).tryRead(kBase, &got, 8));
    EXPECT_FALSE(dsm.port(1).tryWrite(kBase, &v, 8));
}

TEST(TlbLocalPort, CachesAfterFirstTouch)
{
    SimMemory mem;
    LocalMemPort port(mem);
    uint64_t v = 21, got = 0;
    port.write(kBase, &v, 8);
    EXPECT_TRUE(port.tryRead(kBase, &got, 8));
    EXPECT_EQ(got, 21u);
    // Contract: dropping pages under the port requires a flush.
    mem.dropPage(kPage);
    port.tlbFlush();
    EXPECT_FALSE(port.tryRead(kBase, &got, 8));
}

/**
 * Under a lossy, duplicating link the protocol retries and replays
 * fault messages; whatever the schedule, a TLB hit must always agree
 * with the authoritative copy. Randomized: any divergence between a
 * cached translation and peek() is a missed invalidation.
 */
TEST(TlbFaultStorm, HitsAlwaysMatchAuthoritativeCopy)
{
    Interconnect::Config cfg;
    cfg.faults.seed = 0x71b;
    cfg.faults.dropProb = 0.2;
    cfg.faults.dupProb = 0.15;
    cfg.faults.spikeProb = 0.1;
    Interconnect net(cfg);
    DsmSpace dsm(3, &net, {3.5, 2.4, 2.4});
    constexpr uint64_t kWords = 512; // spans two pages
    Rng rng(0x7a11);
    for (int op = 0; op < 4000; ++op) {
        int node = static_cast<int>(rng.below(3));
        uint64_t addr = kBase + rng.below(kWords) * 8;
        if (rng.below(2) == 0) {
            uint64_t v = rng.next();
            dsm.port(node).write(addr, &v, 8);
        } else {
            uint64_t got = 0;
            dsm.port(node).read(addr, &got, 8);
        }
        // Probe every node's TLB at a random address; a hit must
        // return exactly what the protocol considers current.
        uint64_t probe = kBase + rng.below(kWords) * 8;
        for (int n = 0; n < 3; ++n) {
            uint64_t cached = 0;
            if (dsm.port(n).tryRead(probe, &cached, 8)) {
                uint64_t truth = 0;
                dsm.peek(probe, &truth, 8);
                ASSERT_EQ(cached, truth)
                    << "op " << op << " node " << n << " addr "
                    << std::hex << probe;
            }
        }
    }
    dsm.checkInvariants();
}

// ---------------------------------------------------------------------
// Differential: fast path vs XISA_SLOW_PATH reference.
// ---------------------------------------------------------------------

struct RunCapture {
    OsRunResult res;
    std::map<std::string, double> stats;
    std::map<uint64_t, std::vector<uint8_t>> image;
    size_t migrations = 0;
};

/** Run `bin` to completion, optionally under an adversarial ping-pong
 *  migration schedule, and capture every observable. Stats are
 *  captured as a name -> primary value snapshot (a histogram's count);
 *  no stat holds host time, so the snapshot is schedule-deterministic. */
RunCapture
captureRun(const MultiIsaBinary &bin, bool pingPong, uint64_t quantum)
{
    OsConfig cfg = OsConfig::dualServer();
    if (pingPong)
        cfg.quantum = quantum;
    ReplicatedOS os(bin, cfg);
    os.load(0);
    if (pingPong)
        os.onQuantum = [](ReplicatedOS &self) {
            self.migrateProcess(1 - self.threadNode(0));
        };
    RunCapture c;
    c.res = os.run();
    c.stats = os.statRegistry().snapshot();
    c.image = os.dsm().pageImage();
    c.migrations = os.migrations().size();
    return c;
}

void
expectIdentical(const RunCapture &fast, const RunCapture &slow,
                const char *what)
{
    EXPECT_EQ(fast.res.output, slow.res.output) << what;
    EXPECT_EQ(fast.res.exitCode, slow.res.exitCode) << what;
    EXPECT_EQ(fast.res.totalInstrs, slow.res.totalInstrs) << what;
    EXPECT_EQ(fast.res.makespanSeconds, slow.res.makespanSeconds)
        << what;
    EXPECT_EQ(fast.migrations, slow.migrations) << what;
    ASSERT_EQ(fast.image.size(), slow.image.size()) << what;
    EXPECT_TRUE(fast.image == slow.image)
        << what << ": final memory images differ";
    EXPECT_EQ(fast.stats, slow.stats) << what;
}

class WorkloadDifferential
    : public ::testing::TestWithParam<WorkloadId> {};

TEST_P(WorkloadDifferential, FastPathMatchesReferenceExactly)
{
    Module mod = buildWorkload(GetParam(), ProblemClass::A, 2);
    MultiIsaBinary bin = compileModule(mod);
    for (bool pingPong : {false, true}) {
        RunCapture fast = captureRun(bin, pingPong, 2500);
        RunCapture slow;
        {
            SlowPathGuard guard;
            slow = captureRun(bin, pingPong, 2500);
        }
        expectIdentical(fast, slow,
                        pingPong ? "ping-pong migration" : "plain");
        if (pingPong) {
            EXPECT_GE(fast.migrations, 1u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, WorkloadDifferential,
                         ::testing::Values(WorkloadId::CG,
                                           WorkloadId::IS,
                                           WorkloadId::EP));

// ---------------------------------------------------------------------
// Superblock threaded engine: the deopt contract (DESIGN.md §10).
//
// The engine retires straight-line code in compiled superblocks and
// materializes interpreter state only when it must hand off -- at a
// migration trap, on a software-TLB miss inside a block (shootdowns,
// page steals), or when the quantum runs dry mid-stream. These tests
// force each hand-off while a block is hot and require the run to stay
// observationally identical to the plain predecoded fast path
// (XISA_THREADED=0), while a boundary observer proves the deopt paths
// actually fired and that no block-local progress was lost.
// ---------------------------------------------------------------------

/** Scope that pins the plain predecoded fast path (no superblocks). */
struct NoThreadedGuard {
    NoThreadedGuard() { setenv("XISA_THREADED", "0", 1); }
    ~NoThreadedGuard() { unsetenv("XISA_THREADED"); }
};

/** Scope arming the schedule perturber for contained constructions. */
struct PerturbGuard {
    explicit PerturbGuard(const char *seed)
    {
        setenv("XISA_PERTURB", seed, 1);
    }
    ~PerturbGuard() { unsetenv("XISA_PERTURB"); }
};

/** Counts superblock-boundary events and re-checks the monotonicity
 *  contract the invariant auditor enforces in production: within one
 *  run() slice the live instruction count never decreases. */
struct CountingObserver final : SuperblockObserver {
    uint64_t enters = 0;
    uint64_t deopts = 0;
    uint64_t exits = 0;
    uint64_t watermark = 0;
    bool inSlice = false;
    bool monotone = true;

    void
    onSuperblock(Event ev, uint32_t, uint32_t, uint64_t now) override
    {
        if (ev == Event::Enter)
            ++enters;
        else if (ev == Event::Deopt)
            ++deopts;
        else
            ++exits;
        if (inSlice && now < watermark)
            monotone = false;
        watermark = now;
        inSlice = ev != Event::Exit;
    }
};

/** captureRun with a superblock observer installed on every node and a
 *  ping-pong migration schedule. */
RunCapture
captureObserved(const MultiIsaBinary &bin, uint64_t quantum,
                CountingObserver &obs)
{
    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = quantum;
    ReplicatedOS os(bin, cfg);
    for (int n = 0; n < static_cast<int>(cfg.nodes.size()); ++n)
        os.interp(n).setSuperblockObserver(&obs);
    os.load(0);
    os.onQuantum = [](ReplicatedOS &self) {
        self.migrateProcess(1 - self.threadNode(0));
    };
    RunCapture c;
    c.res = os.run();
    c.stats = os.statRegistry().snapshot();
    c.image = os.dsm().pageImage();
    c.migrations = os.migrations().size();
    return c;
}

TEST(ThreadedDeopt, MigrationTrapMidBlockIsObservationallyInvisible)
{
    Module mod = buildWorkload(WorkloadId::CG, ProblemClass::A, 2);
    MultiIsaBinary bin = compileModule(mod);
    CountingObserver obs;
    RunCapture threaded = captureObserved(bin, 700, obs);
    RunCapture plain;
    {
        NoThreadedGuard guard;
        plain = captureRun(bin, true, 700);
    }
    expectIdentical(threaded, plain, "migration-trap deopt");
    EXPECT_GE(threaded.migrations, 1u)
        << "schedule never migrated; the test lost its trigger";
#if XISA_THREADED_CAPABLE
    EXPECT_GT(obs.enters, 0u) << "no superblock ever entered";
    EXPECT_GT(obs.deopts, 0u)
        << "quantum 700 never expired mid-block; deopt path untested";
    EXPECT_TRUE(obs.monotone)
        << "block-local progress lost or double-counted at a deopt";
#endif
}

TEST(ThreadedDeopt, TlbShootdownInsideBlockDeoptsAndRefaults)
{
    // Migration flushes the destination TLB and hDSM page steals shoot
    // down live translations; a threaded load/store whose inline probe
    // then misses must deopt to the reference step, re-fault the page,
    // and resume -- with bit-identical accounting to the fast path.
    Module mod = buildWorkload(WorkloadId::IS, ProblemClass::A, 2);
    MultiIsaBinary bin = compileModule(mod);
    CountingObserver obs;
    RunCapture threaded = captureObserved(bin, 900, obs);
    RunCapture plain;
    {
        NoThreadedGuard guard;
        plain = captureRun(bin, true, 900);
    }
    expectIdentical(threaded, plain, "TLB-shootdown deopt");
    auto inval = threaded.stats.find("dsm.invalidations");
    ASSERT_NE(inval, threaded.stats.end());
    EXPECT_GT(inval->second, 0.0)
        << "no shootdowns happened; the test lost its trigger";
#if XISA_THREADED_CAPABLE
    EXPECT_GT(obs.deopts, 0u)
        << "no mid-block hand-off ever fired under shootdown pressure";
    EXPECT_TRUE(obs.monotone);
#endif
}

TEST(ThreadedDeopt, PerturbedScheduleOverlayMatchesFastPath)
{
    // XISA_PERTURB jitters quantum boundaries and migration timing;
    // under the same seed the threaded engine and the plain fast path
    // must still agree on every observable.
    Module mod = buildWorkload(WorkloadId::CG, ProblemClass::A, 2);
    MultiIsaBinary bin = compileModule(mod);
    RunCapture threaded, plain;
    {
        PerturbGuard seed("20260809");
        threaded = captureRun(bin, true, 1100);
        NoThreadedGuard guard;
        plain = captureRun(bin, true, 1100);
    }
    expectIdentical(threaded, plain, "perturbed overlay");
}

/** Final state of one sliced raw-loop run (see the test below). */
struct SlicedRun {
    ThreadContext ctx;
    uint64_t coreCycles = 0;
    std::map<std::string, double> stats; ///< dsm, net and L1D counters
    std::map<uint64_t, std::vector<uint8_t>> image;
    int steals = 0;       ///< slices whose page was stolen before entry
    int memoAtEntry = 0;  ///< ... while the L1D memo still named the line
};

/**
 * Run a hand-built load/store loop on node 0 of a two-node DsmSpace in
 * short slices. Between slices node 1 writes a word on the loop's data
 * page, stealing the page while node 0's L1D memo still names its
 * line. Any host pointer the engine kept across the steal would read
 * or write the page node 0 no longer holds.
 */
SlicedRun
runStolenPageSlices()
{
    constexpr IsaId kIsa = IsaId::Aether64;
    constexpr uint64_t kData = kBase + 0x40;
    std::vector<MachInstr> code;
    auto op = [&code](MOp o, uint8_t rd, uint8_t rn, uint8_t rm,
                      int64_t imm) {
        MachInstr in;
        in.op = o;
        in.rd = rd;
        in.rn = rn;
        in.rm = rm;
        in.imm = imm;
        code.push_back(in);
        return code.size() - 1;
    };
    // r1 = kData. Loop: [r1] += 3; r5 += [r1+8]; [r1+16] = r5;
    // ++r4 < 4000. Node 1 rewrites [r1+8] between slices.
    const uint32_t top = static_cast<uint32_t>(op(MOp::Ldr, 2, 1, 0, 0));
    op(MOp::AddImm, 2, 2, 0, 3);
    op(MOp::Str, 2, 1, 0, 0);
    op(MOp::Ldr, 3, 1, 0, 8);
    op(MOp::Add, 5, 5, 3, 0);
    op(MOp::Str, 5, 1, 0, 16);
    op(MOp::AddImm, 4, 4, 0, 1);
    op(MOp::CmpImm, 0, 4, 0, 4000);
    const size_t br = op(MOp::BCond, 0, 0, 0, 0);
    code[br].cond = Cond::LT;
    code[br].target = top;
    op(MOp::Hlt, 0, 0, 0, 0);

    // A one-function binary around the raw code.
    MultiIsaBinary bin;
    bin.name = "raw";
    IRFunction main;
    main.name = "main";
    main.id = 0;
    main.retType = Type::Void;
    BasicBlock bb;
    IRInstr ret;
    ret.op = IROp::Ret;
    ret.a = kNoValue;
    bb.instrs.push_back(ret);
    main.blocks.push_back(bb);
    bin.ir.functions.push_back(main);
    bin.ir.name = "raw";
    FuncImage img;
    uint32_t off = 0;
    for (MachInstr &in : code) {
        in.size = encodedSize(in, kIsa);
        img.instrOff.push_back(off);
        off += in.size;
    }
    img.instrOff.push_back(off);
    img.code = code;
    for (int i = 0; i < kNumIsas; ++i) {
        bin.image[i].push_back(img);
        bin.funcAddr[i].push_back(vm::kTextBase);
        bin.textEnd[i] = vm::kTextBase + off;
    }

    NodeSpec spec = makeAetherServer();
    Interconnect net;
    DsmSpace dsm(2, &net, {spec.freqGHz, spec.freqGHz});
    dsm.populateZero(0, kBase, vm::kPageSize);
    Interp interp(bin, kIsa, spec);
    Core core(spec);
    Cache l2(spec.l2);
    obs::StatRegistry reg;
    net.registerStats(reg, "net");
    dsm.registerStats(reg);
    core.l1d.registerStats(reg, "l1d");

    SlicedRun r;
    r.ctx.isa = kIsa;
    r.ctx.pc = {0, 0};
    r.ctx.gpr[1] = kData;
    StepResult sr;
    for (int slice = 0; slice < 400; ++slice) {
        sr = interp.run(r.ctx, dsm.port(0), core, l2, 97);
        if (sr.reason != StopReason::Budget)
            break;
        uint64_t v = 1000 + static_cast<uint64_t>(slice);
        dsm.port(1).write(kData + 8, &v, 8);
        if (dsm.port(0).tlbReadBase(kBase / vm::kPageSize) == nullptr) {
            ++r.steals;
            if (core.l1d.memoHolds(kData))
                ++r.memoAtEntry;
        }
    }
    EXPECT_EQ(sr.reason, StopReason::Halt);
    r.coreCycles = core.cycles;
    r.stats = reg.snapshot();
    r.image = dsm.pageImage();
    return r;
}

TEST(ThreadedDeopt, PageStolenBetweenSlicesDropsHostPointers)
{
    // The threaded engine's L1D memo carries host pointers that stand
    // in for software-TLB hits. They must not survive a slice
    // boundary: node 1 steals the page in between, and the next slice
    // has to re-fault it exactly as the plain fast path does.
    SlicedRun threaded = runStolenPageSlices();
    SlicedRun plain;
    {
        NoThreadedGuard guard;
        plain = runStolenPageSlices();
    }
    EXPECT_GT(threaded.steals, 10)
        << "node 1 never stole the page; the test lost its trigger";
    EXPECT_GT(threaded.memoAtEntry, 10)
        << "the stolen line was never memo-resident at slice entry";
    EXPECT_EQ(threaded.steals, plain.steals);
    EXPECT_EQ(0, std::memcmp(threaded.ctx.gpr, plain.ctx.gpr,
                             sizeof threaded.ctx.gpr));
    EXPECT_EQ(threaded.ctx.instrs, plain.ctx.instrs);
    EXPECT_EQ(threaded.ctx.cycles, plain.ctx.cycles);
    EXPECT_EQ(threaded.coreCycles, plain.coreCycles);
    EXPECT_EQ(threaded.stats, plain.stats);
    EXPECT_TRUE(threaded.image == plain.image)
        << "final memory images differ";
    EXPECT_GT(threaded.ctx.gpr[5], 0u) << "node 1's words never arrived";
}

} // namespace
} // namespace xisa
