/**
 * @file
 * Machine-model tests: caches, node specs, power model, flags, memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <list>
#include <vector>

#include "machine/cache.hh"
#include "machine/interp.hh"
#include "machine/mem.hh"
#include "machine/node.hh"
#include "stat_read.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace xisa {
namespace {

TEST(Cache, ColdMissThenHit)
{
    Cache c({1024, 2, 64, 10});
    obs::StatRegistry reg;
    c.registerStats(reg, "c");
    EXPECT_EQ(c.access(0x1000), 10u);
    EXPECT_EQ(c.access(0x1000), 0u);
    EXPECT_EQ(c.access(0x1004), 0u); // same line
    EXPECT_EQ(c.access(0x1040), 10u); // next line
    EXPECT_EQ(counter(reg, "c.accesses"), 4u);
    EXPECT_EQ(counter(reg, "c.misses"), 2u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    // 2-way, 8 sets of 64B lines: addresses 64*8 apart map to set 0.
    Cache c({1024, 2, 64, 10});
    uint64_t a = 0, b = 8 * 64, d = 16 * 64;
    c.access(a);
    c.access(b);
    c.access(a);      // a most recent
    c.access(d);      // evicts b
    EXPECT_EQ(c.access(a), 0u);
    EXPECT_EQ(c.access(b), 10u) << "b must have been evicted";
}

TEST(Cache, FlushInvalidatesEverything)
{
    Cache c({1024, 2, 64, 10});
    c.access(0x2000);
    c.flush();
    EXPECT_EQ(c.access(0x2000), 10u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache({1000, 3, 48, 1}), FatalError);
    EXPECT_THROW(Cache({1024, 0, 64, 1}), FatalError);
}

TEST(Cache, AccessThroughChainsPenalties)
{
    Cache l1({1024, 2, 64, 8});
    Cache l2({4096, 4, 64, 20});
    // Cold: L1 miss + L2 miss + memory.
    EXPECT_EQ(accessThrough(l1, l2, 0x3000, 100), 128u);
    // Warm: L1 hit.
    EXPECT_EQ(accessThrough(l1, l2, 0x3000, 100), 0u);
    l1.flush();
    // L1 miss, L2 hit.
    EXPECT_EQ(accessThrough(l1, l2, 0x3000, 100), 8u);
}

/**
 * Brute-force true-LRU reference with no memo: per set, the resident
 * lines in recency order (most recent first).
 */
class LruReference
{
  public:
    explicit LruReference(const CacheConfig &cfg)
        : cfg_(cfg), sets_(cfg.sizeBytes / (cfg.lineBytes * cfg.assoc))
    {}

    uint32_t
    access(uint64_t addr)
    {
        ++accesses;
        const uint64_t line = addr / cfg_.lineBytes;
        std::list<uint64_t> &set = sets_[line % sets_.size()];
        auto it = std::find(set.begin(), set.end(), line);
        if (it != set.end()) {
            set.splice(set.begin(), set, it);
            return 0;
        }
        ++misses;
        set.push_front(line);
        if (set.size() > cfg_.assoc)
            set.pop_back();
        return cfg_.missPenalty;
    }

    void
    flush()
    {
        for (std::list<uint64_t> &set : sets_)
            set.clear();
    }

    uint64_t accesses = 0;
    uint64_t misses = 0;

  private:
    CacheConfig cfg_;
    std::vector<std::list<uint64_t>> sets_;
};

/**
 * Drive the memo-backed Cache the way the engines do -- plain access(),
 * the host-byte load/store path with its fills, I-side bulkMemoHits()
 * and flush()/dropHostLines() -- against LruReference. Guest memory is
 * a host buffer, so host-path hits must also return its bytes.
 */
void
runCacheDifferential(const CacheConfig &cfg, uint64_t seed)
{
    Cache c(cfg);
    obs::StatRegistry reg;
    c.registerStats(reg, "c");
    LruReference ref(cfg);
    Rng rng(seed);
    const uint32_t sets = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    // Guest lines from three families: a hot handful, lines one memo
    // period apart (same memo slot, different cache sets), and lines
    // one set period apart (same set, so they evict each other while
    // the memo still names them).
    const uint64_t memoPeriod = uint64_t{Cache::kMemoSize} * cfg.lineBytes;
    const uint64_t setPeriod = uint64_t{sets} * cfg.lineBytes;
    std::vector<uint64_t> lines;
    for (uint64_t i = 0; i < 6; ++i)
        lines.push_back(i * cfg.lineBytes);
    for (uint64_t i = 1; i <= 6; ++i)
        lines.push_back(3 * cfg.lineBytes + i * memoPeriod);
    for (uint64_t i = 1; i <= cfg.assoc + 3; ++i)
        lines.push_back(cfg.lineBytes + i * setPeriod);
    uint64_t span = 0;
    for (uint64_t l : lines)
        span = std::max(span, l + cfg.lineBytes);
    std::vector<uint8_t> guest(span + 8);
    for (size_t i = 0; i < guest.size(); ++i)
        guest[i] = static_cast<uint8_t>(rng.next());

    uint64_t hostHits = 0;
    uint64_t lastAccess = 0;
    bool bulkOk = false;
    for (int op = 0; op < 20000; ++op) {
        const uint64_t line = lines[rng.below(lines.size())];
        // Mostly aligned 8-byte slots; sometimes an odd offset, which
        // the host path must refuse (misaligned or line-crossing).
        uint64_t addr = line + 8 * rng.below(cfg.lineBytes / 8);
        if (rng.below(8) == 0)
            addr = line + rng.below(cfg.lineBytes);
        const unsigned pick = static_cast<unsigned>(rng.below(100));
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " op " << op << " addr 0x"
                     << std::hex << addr);
        if (pick < 35) {
            ASSERT_EQ(c.access(addr), ref.access(addr));
            lastAccess = addr;
            bulkOk = true;
        } else if (pick < 80) {
            // The threaded engine's load/store: host path, else the
            // cache model plus a fill.
            const bool store = pick >= 60;
            uint64_t v = 0;
            const bool hit =
                store ? c.hostStore<8>(addr, &v) : c.hostLoad<8>(addr, &v);
            if (hit) {
                ++hostHits;
                ASSERT_EQ(addr % 8, 0u) << "misaligned host-path hit";
                ASSERT_EQ(ref.access(addr), 0u)
                    << "host-path hit on a line the reference lacks";
                if (store) {
                    // hostStore wrote v (0) through the pointer.
                    uint64_t back = 1;
                    std::memcpy(&back, &guest[addr], 8);
                    ASSERT_EQ(back, 0u);
                    v = rng.next();
                    ASSERT_TRUE(c.hostStore<8>(addr, &v));
                    ASSERT_EQ(ref.access(addr), 0u);
                    std::memcpy(&back, &guest[addr], 8);
                    ASSERT_EQ(back, v);
                } else {
                    uint64_t want = 0;
                    std::memcpy(&want, &guest[addr], 8);
                    ASSERT_EQ(v, want);
                }
            } else {
                ASSERT_EQ(c.access(addr), ref.access(addr));
                lastAccess = addr;
                bulkOk = true;
                if (store)
                    c.fillHostWrite(addr, &guest[addr]);
                else
                    c.fillHostRead(addr, &guest[addr]);
            }
        } else if (pick < 90) {
            // I-side batch: n more hits on the last access()ed line.
            if (!bulkOk)
                continue;
            const uint64_t n = 1 + rng.below(5);
            c.bulkMemoHits(n);
            for (uint64_t i = 0; i < n; ++i)
                ASSERT_EQ(ref.access(lastAccess), 0u);
            bulkOk = false;
        } else if (pick < 97) {
            c.dropHostLines();
        } else {
            c.flush();
            ref.flush();
            bulkOk = false;
        }
        ASSERT_EQ(counter(reg, "c.accesses"), ref.accesses);
        ASSERT_EQ(counter(reg, "c.misses"), ref.misses);
    }
    if (cfg.lineBytes == Cache::kHostLineBytes) {
        EXPECT_GT(hostHits, 200u) << "the host path never engaged";
    } else {
        EXPECT_EQ(hostHits, 0u) << "host path used on a foreign line size";
    }
}

TEST(CacheDifferential, MemoMatchesBruteForceLru)
{
    // The presets' L1 geometry, a small cache whose sets conflict
    // constantly, and a line size the host path must leave alone.
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        runCacheDifferential({32 * 1024, 8, 64, 10}, seed);
        runCacheDifferential({1024, 2, 64, 7}, seed);
        runCacheDifferential({2048, 4, 32, 5}, seed);
    }
}

TEST(CacheDifferential, HostPathRefusesMisalignedAndUnfilledAccesses)
{
    Cache c({1024, 2, 64, 10});
    obs::StatRegistry reg;
    c.registerStats(reg, "c");
    std::vector<uint8_t> guest(256, 0xab);
    uint64_t v = 0;
    EXPECT_FALSE(c.hostLoad<8>(0x40, &v)) << "nothing filled yet";
    EXPECT_EQ(c.access(0x40), 10u);
    c.fillHostRead(0x40, &guest[0x40]);
    EXPECT_TRUE(c.hostLoad<8>(0x48, &v));
    EXPECT_EQ(v, 0xababababababababull);
    EXPECT_FALSE(c.hostLoad<8>(0x44, &v)) << "misaligned";
    EXPECT_TRUE(c.hostLoad<4>(0x44, &v)) << "4-aligned 4-byte load";
    EXPECT_TRUE(c.hostLoad<1>(0x7f, &v));
    EXPECT_FALSE(c.hostStore<8>(0x48, &v)) << "only a read was granted";
    c.dropHostLines();
    EXPECT_FALSE(c.hostLoad<8>(0x48, &v));
    EXPECT_EQ(counter(reg, "c.accesses"), 4u);
}

TEST(NodeSpec, PresetsMatchTheTestbedShape)
{
    NodeSpec x86 = makeXenoServer();
    NodeSpec arm = makeAetherServer();
    EXPECT_EQ(x86.isa, IsaId::Xeno64);
    EXPECT_EQ(arm.isa, IsaId::Aether64);
    EXPECT_EQ(x86.cores, 6);  // Xeon E5-1650 v2
    EXPECT_EQ(arm.cores, 8);  // X-Gene 1
    EXPECT_GT(x86.freqGHz, arm.freqGHz);
    // Per-op, per-second throughput: x86 about 3x faster.
    double x86Alu = x86.freqGHz / x86.cost(MOp::Add);
    double armAlu = arm.freqGHz / arm.cost(MOp::Add);
    EXPECT_GT(x86Alu / armAlu, 2.0);
    EXPECT_LT(x86Alu / armAlu, 4.5);
    EXPECT_GT(x86.maxWatts, arm.maxWatts);
}

TEST(NodeSpec, PowerModelInterpolatesAndScales)
{
    NodeSpec s = makeXenoServer();
    EXPECT_DOUBLE_EQ(s.power(0.0), s.idleWatts);
    EXPECT_DOUBLE_EQ(s.power(1.0), s.maxWatts);
    EXPECT_DOUBLE_EQ(s.power(0.5),
                     s.idleWatts + 0.5 * (s.maxWatts - s.idleWatts));
    EXPECT_DOUBLE_EQ(s.power(2.0), s.maxWatts);   // clamped
    EXPECT_DOUBLE_EQ(s.power(-1.0), s.idleWatts); // clamped
    EXPECT_NEAR(s.power(1.0, 0.1), s.maxWatts * 0.1, 1e-12);
}

TEST(Flags, EvalCondMatchesArithmetic)
{
    struct Case {
        int64_t a, b;
    } cases[] = {{0, 0}, {1, 2}, {2, 1}, {-1, 1}, {1, -1},
                 {-5, -7}, {INT64_MIN, INT64_MAX}};
    for (const auto &[a, b] : cases) {
        Flags f;
        f.eq = a == b;
        f.lt = a < b;
        f.ult = static_cast<uint64_t>(a) < static_cast<uint64_t>(b);
        EXPECT_EQ(evalCond(Cond::EQ, f), a == b);
        EXPECT_EQ(evalCond(Cond::NE, f), a != b);
        EXPECT_EQ(evalCond(Cond::LT, f), a < b);
        EXPECT_EQ(evalCond(Cond::LE, f), a <= b);
        EXPECT_EQ(evalCond(Cond::GT, f), a > b);
        EXPECT_EQ(evalCond(Cond::GE, f), a >= b);
        EXPECT_EQ(evalCond(Cond::ULT, f),
                  static_cast<uint64_t>(a) < static_cast<uint64_t>(b));
        EXPECT_EQ(evalCond(Cond::UGE, f),
                  static_cast<uint64_t>(a) >= static_cast<uint64_t>(b));
        EXPECT_TRUE(evalCond(Cond::Always, f));
    }
}

TEST(SimMemory, PagesMaterializeZeroFilledAndDrop)
{
    SimMemory mem;
    EXPECT_FALSE(mem.hasPage(5));
    uint64_t v = 0;
    mem.read(5 * vm::kPageSize + 100, &v, 8);
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(mem.hasPage(5));
    v = 123;
    mem.write(5 * vm::kPageSize + 100, &v, 8);
    uint64_t got = 0;
    mem.read(5 * vm::kPageSize + 100, &got, 8);
    EXPECT_EQ(got, 123u);
    mem.dropPage(5);
    EXPECT_FALSE(mem.hasPage(5));
}

TEST(SimMemory, CrossPageCopyIsSeamless)
{
    SimMemory mem;
    std::vector<uint8_t> data(100);
    for (size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<uint8_t>(i);
    uint64_t addr = vm::kPageSize - 50;
    mem.write(addr, data.data(), data.size());
    std::vector<uint8_t> back(100);
    mem.read(addr, back.data(), back.size());
    EXPECT_EQ(data, back);
    EXPECT_EQ(mem.residentPages(), 2u);
}

} // namespace
} // namespace xisa
