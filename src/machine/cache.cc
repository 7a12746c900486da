#include "machine/cache.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace xisa {

Cache::HostLines Cache::noHostLines_;

Cache::Cache(const CacheConfig &cfg) : cfg_(cfg)
{
    if (cfg.lineBytes == 0 || (cfg.lineBytes & (cfg.lineBytes - 1)))
        fatal("cache line size must be a power of two");
    if (cfg.assoc == 0 || cfg.sizeBytes % (cfg.lineBytes * cfg.assoc))
        fatal("cache size must be a multiple of lineBytes * assoc");
    numSets_ = cfg.sizeBytes / (cfg.lineBytes * cfg.assoc);
    lineShift_ = static_cast<uint32_t>(std::countr_zero(cfg.lineBytes));
    pow2Sets_ = (numSets_ & (numSets_ - 1)) == 0;
    if (pow2Sets_) {
        setShift_ = static_cast<uint32_t>(std::countr_zero(numSets_));
        setMask_ = numSets_ - 1;
    }
    tags_.assign(static_cast<size_t>(numSets_) * cfg.assoc, ~0ull);
    lastUse_.assign(static_cast<size_t>(numSets_) * cfg.assoc, 0);
}

void
Cache::registerStats(obs::StatRegistry &reg, const std::string &prefix)
{
    reg.attach(prefix + ".accesses", accesses_);
    reg.attach(prefix + ".misses", misses_);
}

uint32_t
Cache::accessSlow(uint64_t lineAddr)
{
    ++accesses_;
    ++clock_;
    uint32_t set;
    uint64_t tag;
    if (pow2Sets_) {
        set = static_cast<uint32_t>(lineAddr & setMask_);
        tag = lineAddr >> setShift_;
    } else {
        set = static_cast<uint32_t>(lineAddr % numSets_);
        tag = lineAddr / numSets_;
    }
    uint64_t *const tagBase = &tags_[static_cast<size_t>(set) * cfg_.assoc];
    uint64_t *const useBase =
        &lastUse_[static_cast<size_t>(set) * cfg_.assoc];
    // Hit probe: a pure tag compare. Invalid ways always carry the
    // reserved tag ~0 (constructor and flush() both restore it), which
    // no reachable line address produces, so no validity check is
    // needed and the scan touches only the tag array.
    for (uint32_t w = 0; w < cfg_.assoc; ++w) {
        if (tagBase[w] == tag) {
            useBase[w] = clock_;
            setMemo(lineAddr & (kMemoSize - 1), {lineAddr, &useBase[w]});
            lastUsePtr_ = &useBase[w];
            return 0;
        }
    }
    ++misses_;
    // Victim selection (must stay bit-identical to the historical
    // single-pass scan): the last invalid way if any way is invalid,
    // otherwise the first way holding the minimum LRU stamp.
    uint32_t victim = 0;
    for (uint32_t w = 1; w < cfg_.assoc; ++w) {
        if (useBase[w] == 0) {
            victim = w;
        } else if (useBase[victim] != 0 && useBase[w] < useBase[victim]) {
            victim = w;
        }
    }
    // The evicted line may still be named by a memo slot; drop it so a
    // later access cannot memo-hit a line that is no longer resident.
    if (useBase[victim] != 0) {
        uint64_t evicted = pow2Sets_
                               ? (tagBase[victim] << setShift_) | set
                               : tagBase[victim] * numSets_ + set;
        const uint32_t s = evicted & (kMemoSize - 1);
        if (memo_[s].lineAddr == evicted)
            setMemo(s, MemoEntry{});
    }
    tagBase[victim] = tag;
    useBase[victim] = clock_;
    setMemo(lineAddr & (kMemoSize - 1), {lineAddr, &useBase[victim]});
    lastUsePtr_ = &useBase[victim];
    return cfg_.missPenalty;
}

void
Cache::flush()
{
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    std::fill(tags_.begin(), tags_.end(), ~0ull);
    for (MemoEntry &m : memo_)
        m = MemoEntry{};
    dropHostLines();
    lastUsePtr_ = nullptr;
}

void
Cache::fillHost(uint64_t addr, const uint8_t *host, bool write)
{
    const uint64_t lineAddr = addr >> lineShift_;
    const uint32_t s = lineAddr & (kMemoSize - 1);
    if (lineShift_ != kHostLineShift || memo_[s].lineAddr != lineAddr)
        return;
    if (!hostOwned_) {
        hostOwned_ = std::make_unique<HostLines>();
        host_ = hostOwned_.get();
    }
    HostRef &h = write ? host_->wr[s] : host_->rd[s];
    h.tag = lineAddr << kHostLineShift;
    h.delta = reinterpret_cast<uintptr_t>(host) - addr;
    h.stamp = memo_[s].stampPtr;
}

void
Cache::dropHostLines()
{
    if (!hostOwned_)
        return;
    for (uint32_t s = 0; s < kMemoSize; ++s) {
        host_->rd[s].tag = kNoLine;
        host_->wr[s].tag = kNoLine;
    }
}

} // namespace xisa
