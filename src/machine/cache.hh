/**
 * @file
 * Set-associative LRU cache model.
 *
 * Timing-only (no data storage): access() classifies hit/miss and
 * returns the penalty cycles. Used for per-core L1I/L1D and a per-node
 * shared L2. The L1I model is what gives Table 1 its signal: aligning
 * symbols across ISAs pads functions, which moves code around in the
 * index bits and changes conflict-miss behaviour by a few percent.
 * The hot-line memo of an L1D may also remember where its lines' bytes
 * live in host memory, which the threaded engine uses as its one data
 * probe (DESIGN.md §10).
 */

#ifndef XISA_MACHINE_CACHE_HH
#define XISA_MACHINE_CACHE_HH

#include <cstdint>
#include <cstring>
#include <memory>
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

/** One level of set-associative cache with true-LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &cfg);

    /**
     * Touch `addr`; returns this level's miss penalty in cycles (0 on
     * hit). The caller chains levels (L1 miss -> L2 access).
     *
     * The inline body is a hot-line memo: a direct-mapped table of
     * kMemoSize recently hit lines, each pointing straight at its LRU
     * stamp slot. A memo hit skips the set scan and just refreshes the
     * stamp -- byte-identical counter and replacement behaviour to the
     * full lookup, because the memo only ever names currently resident
     * lines: every install goes through accessSlow, which also drops
     * the memo entry of any line it evicts. The table is sized to a
     * kernel's data working set (a few stack frames plus the lines its
     * loops stream through), so a resident line rarely falls out of the
     * memo and back into the set scan.
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
    static constexpr uint32_t kMemoSize = 256; ///< power of two

    // --- Host bytes of memo'd lines (the threaded engine's data side) --
    //
    // A memo slot may also carry where its line's bytes live in host
    // memory: one pointer for loads and one for stores, each filled
    // only after the software TLB (MemPort::tlbRead/tlbWrite) granted
    // that access on the line's page. A slot hit that has the pointer
    // is then both the TLB hit and the L1 memo hit, so the caller moves
    // the data straight through it with no MemPort probe. Pointers are
    // dropped with their slot (replacement, eviction, flush()), and the
    // caller must call retainHostLines() wherever TLB state may have
    // changed underneath it. Only lines of kHostLineBytes are ever
    // filled, so the probe below uses constant shifts and masks.

    static constexpr uint32_t kHostLineShift = 6;
    static constexpr uint32_t kHostLineBytes = 1u << kHostLineShift;

    /**
     * If `addr` is N-aligned (so [addr, addr+N) cannot cross a line)
     * and its line's slot holds a read pointer, copy those N bytes to
     * `dst`, count the access as a memo hit and return true; otherwise
     * return false and change nothing. The tag is the line's base
     * address, so one compare against `addr` with only its in-line
     * alignment bits kept checks both conditions. Unlike access(), a
     * hit leaves lastUsePtr_ alone: only the I-side bulkMemoHits()
     * reads it.
     */
    template <unsigned N>
    bool
    hostLoad(uint64_t addr, void *dst)
    {
        const HostRef &h = host_->rd[(addr >> kHostLineShift) &
                                     (kMemoSize - 1)];
        if (h.tag != (addr & ~uint64_t{kHostLineBytes - N}))
            return false;
        ++accesses_;
        *h.stamp = ++clock_;
        std::memcpy(dst, reinterpret_cast<const void *>(addr + h.delta), N);
        return true;
    }

    /** hostLoad() for stores, through the slot's write pointer. */
    template <unsigned N>
    bool
    hostStore(uint64_t addr, const void *src)
    {
        const HostRef &h = host_->wr[(addr >> kHostLineShift) &
                                     (kMemoSize - 1)];
        if (h.tag != (addr & ~uint64_t{kHostLineBytes - N}))
            return false;
        ++accesses_;
        *h.stamp = ++clock_;
        std::memcpy(reinterpret_cast<void *>(addr + h.delta), src, N);
        return true;
    }

    /**
     * Record that `host` holds the byte at `addr`, readable through the
     * software TLB. Call right after access(addr), which leaves the
     * line in its memo slot; a no-op for other line sizes.
     */
    void
    fillHostRead(uint64_t addr, const uint8_t *host)
    {
        fillHost(addr, host, false);
    }

    /** fillHostRead() for a store the software TLB granted. */
    void
    fillHostWrite(uint64_t addr, uint8_t *host)
    {
        fillHost(addr, host, true);
    }

    /**
     * Keep the host pointers only if they came from the software TLB of
     * `port` at epoch `tlbEpoch` (MemPort::tlbEpoch); otherwise forget
     * them all, and let later fills come from that port and epoch.
     */
    void
    retainHostLines(const void *port, uint64_t tlbEpoch)
    {
        if (port != hostPort_ || tlbEpoch != hostEpoch_) {
            dropHostLines();
            hostPort_ = port;
            hostEpoch_ = tlbEpoch;
        }
    }

    /** Forget every host pointer. */
    void dropHostLines();

    /**
     * Attach this cache's counters to `reg` as `<prefix>.accesses` /
     * `<prefix>.misses` (e.g. "node0.l1d.misses"). Idempotent per cache
     * only via distinct prefixes; registering twice panics.
     */
    void registerStats(obs::StatRegistry &reg, const std::string &prefix);
    /** Invalidate all lines (e.g. when a thread migrates in). */
    void flush();
    const CacheConfig &config() const { return cfg_; }

    /** True if the memo names the line holding `addr` (tests). */
    bool
    memoHolds(uint64_t addr) const
    {
        const uint64_t lineAddr = addr >> lineShift_;
        return memo_[lineAddr & (kMemoSize - 1)].lineAddr == lineAddr;
    }

  private:
    /** Empty-slot tag; no reachable line address produces it. */
    static constexpr uint64_t kNoLine = ~0ull;

    /** One direction's host pointer of one memo slot; 32 bytes, so a
     *  probe touches one host cache line. */
    struct alignas(32) HostRef {
        uint64_t tag = kNoLine; ///< line base address; kNoLine = none
        uintptr_t delta = 0;    ///< host address minus guest address
        uint64_t *stamp = nullptr; ///< the slot's LRU stamp
    };
    struct HostLines {
        HostRef rd[kMemoSize];
        HostRef wr[kMemoSize];
    };
    /** What host_ names until the first fill: never matches a probe. */
    static HostLines noHostLines_;

    /** Full set scan for addresses missing the hot-line memo. */
    uint32_t accessSlow(uint64_t lineAddr);
    /** Point memo slot `s` at another line (or none), dropping its host
     *  pointers. */
    void
    setMemo(uint32_t s, const MemoEntry &m)
    {
        memo_[s] = m;
        if (hostOwned_) {
            host_->rd[s].tag = kNoLine;
            host_->wr[s].tag = kNoLine;
        }
    }
    void fillHost(uint64_t addr, const uint8_t *host, bool write);

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
    // Host pointers of memo slots, allocated on the first fill: only a
    // data cache whose core runs threaded code ever has any.
    HostLines *host_ = &noHostLines_;
    std::unique_ptr<HostLines> hostOwned_;
    const void *hostPort_ = nullptr; ///< TLB the pointers came from
    uint64_t hostEpoch_ = 0;         ///< ... and its epoch then
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
