/**
 * @file
 * Set-associative LRU cache model.
 *
 * Timing-only (no data storage): access() classifies hit/miss and
 * returns the penalty cycles. Used for per-core L1I/L1D and a per-node
 * shared L2. The L1I model is what gives Table 1 its signal: aligning
 * symbols across ISAs pads functions, which moves code around in the
 * index bits and changes conflict-miss behaviour by a few percent.
 */

#ifndef XISA_MACHINE_CACHE_HH
#define XISA_MACHINE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.hh"

namespace xisa {

/** Geometry and penalty of one cache level. */
struct CacheConfig {
    uint32_t sizeBytes = 32 * 1024;
    uint32_t assoc = 8;
    uint32_t lineBytes = 64;
    uint32_t missPenalty = 10; ///< cycles added on miss at this level
};

/**
 * Hit/miss summary. Deprecated as storage: the live counts are
 * registry-backed obs::Counters owned by the Cache; this struct remains
 * as the value type the stats() shim materializes for existing callers.
 */
struct CacheStats {
    uint64_t accesses = 0;
    uint64_t misses = 0;

    double
    missRatio() const
    {
        return accesses ? static_cast<double>(misses) /
                              static_cast<double>(accesses)
                        : 0.0;
    }
};

/** One level of set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Touch `addr`; returns this level's miss penalty in cycles (0 on
     * hit). The caller chains levels (L1 miss -> L2 access).
     *
     * The inline body is a hot-line memo: a small direct-mapped table
     * of recently hit lines, each pointing straight at its LRU stamp
     * slot. A memo hit skips the set scan and just refreshes the stamp
     * -- byte-identical counter and replacement behaviour to the full
     * lookup, because the memo only ever names currently resident
     * lines: every install goes through accessSlow, which also drops
     * the memo entry of any line it evicts. Multiple entries matter for
     * data streams: a loop walking several arrays alternates between a
     * handful of lines, which a single-entry memo would thrash.
     */
    uint32_t
    access(uint64_t addr)
    {
        uint64_t lineAddr = addr >> lineShift_;
        MemoEntry &m = memo_[lineAddr & (kMemoSize - 1)];
        if (m.lineAddr == lineAddr) {
            ++accesses_;
            *m.stampPtr = ++clock_;
            lastUsePtr_ = m.stampPtr;
            return 0;
        }
        return accessSlow(lineAddr);
    }

    /**
     * Batch-apply `n` accesses that are guaranteed memo hits on the
     * last-touched line (the threaded engine's straight-line I-fetches:
     * between two line-boundary fetches nothing else touches this
     * cache, so every one of them would take the memo branch above).
     * Counter, clock and LRU-stamp state end up exactly as n access()
     * calls would leave them. The caller owns the guarantee; anything
     * that might have re-pointed the memo must flush the batch first.
     */
    void
    bulkMemoHits(uint64_t n)
    {
        accesses_.add(n);
        clock_ += n;
        *lastUsePtr_ = clock_;
    }

    /** One hot-line memo slot: a resident line and its stamp slot. */
    struct MemoEntry {
        uint64_t lineAddr = ~0ull; ///< ~0 marks an empty slot
        uint64_t *stampPtr = nullptr;
    };
    static constexpr uint32_t kMemoSize = 16; ///< power of two

    /** Deprecated shim over the registry-backed counters. */
    CacheStats stats() const
    {
        return {accesses_.value(), misses_.value()};
    }
    /**
     * Attach this cache's counters to `reg` as `<prefix>.accesses` /
     * `<prefix>.misses` (e.g. "node0.l1d.misses"). Idempotent per cache
     * only via distinct prefixes; registering twice panics.
     */
    void registerStats(obs::StatRegistry &reg, const std::string &prefix);
    /** Invalidate all lines (e.g. when a thread migrates in). */
    void flush();
    const CacheConfig &config() const { return cfg_; }

  private:
    /** Full set scan for addresses missing the last-line memo. */
    uint32_t accessSlow(uint64_t lineAddr);

    CacheConfig cfg_;
    uint32_t numSets_;
    uint32_t lineShift_;
    // Set index / tag split. Sets are almost always a power of two;
    // keep the division fallback for exotic geometries.
    bool pow2Sets_ = false;
    uint32_t setShift_ = 0;
    uint64_t setMask_ = 0;
    // Structure-of-arrays line state, set-major, so one set's tags scan
    // within a single host cache line. A line is valid iff its lastUse
    // stamp is nonzero (stamps come from ++clock_, so live lines are
    // always >= 1). Invalid ways always carry tag ~0, which no
    // reachable line address produces, so the hit probe never needs
    // the validity check.
    std::vector<uint64_t> tags_;    ///< numSets_ * assoc
    std::vector<uint64_t> lastUse_; ///< numSets_ * assoc; 0 = invalid
    uint64_t clock_ = 0;
    MemoEntry memo_[kMemoSize];      ///< direct-mapped hot-line memo
    uint64_t *lastUsePtr_ = nullptr; ///< stamp slot of the last access
    obs::Counter accesses_;
    obs::Counter misses_;
};

/** L1 + shared-L2 access chain; returns total penalty cycles. */
inline uint32_t
accessThrough(Cache &l1, Cache &l2, uint64_t addr, uint32_t memPenalty)
{
    uint32_t penalty = l1.access(addr);
    if (penalty == 0)
        return 0;
    uint32_t p2 = l2.access(addr);
    return p2 == 0 ? penalty : penalty + p2 + memPenalty;
}

} // namespace xisa

#endif // XISA_MACHINE_CACHE_HH
