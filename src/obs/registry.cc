#include "obs/registry.hh"

#include <algorithm>
#include <cmath>
#include <ostream>

#include "util/fpbits.hh"
#include "util/logging.hh"

namespace xisa::obs {

// --- Stat ---------------------------------------------------------------

Stat::~Stat()
{
    if (registry_)
        registry_->detach(*this);
}

Stat::Stat(Stat &&other) noexcept
    : name_(std::move(other.name_)), registry_(other.registry_)
{
    // Steal the registration: the registry entry must point at us now.
    other.registry_ = nullptr;
    if (registry_) {
        auto &map = registry_->stats_;
        auto it = map.find(name_);
        if (it != map.end() && it->second == &other)
            it->second = this;
    }
}

Stat &
Stat::operator=(Stat &&other) noexcept
{
    if (this == &other)
        return *this;
    if (registry_)
        registry_->detach(*this);
    name_ = std::move(other.name_);
    registry_ = other.registry_;
    other.registry_ = nullptr;
    if (registry_) {
        auto &map = registry_->stats_;
        auto it = map.find(name_);
        if (it != map.end() && it->second == &other)
            it->second = this;
    }
    return *this;
}

// --- Counter / Gauge ----------------------------------------------------

Counter::Counter(const std::string &name)
{
    StatRegistry::global().attach(name, *this);
}

Counter::Counter(StatRegistry &reg, const std::string &name)
{
    reg.attach(name, *this);
}

void
Counter::printValue(std::ostream &os, bool) const
{
    os << v_;
}

Gauge::Gauge(const std::string &name)
{
    StatRegistry::global().attach(name, *this);
}

Gauge::Gauge(StatRegistry &reg, const std::string &name)
{
    reg.attach(name, *this);
}

void
Gauge::printValue(std::ostream &os, bool) const
{
    os << v_;
}

// --- Histogram ----------------------------------------------------------

Histogram::Histogram(const std::string &name)
{
    StatRegistry::global().attach(name, *this);
}

Histogram::Histogram(StatRegistry &reg, const std::string &name)
{
    reg.attach(name, *this);
}

int
Histogram::bucketIndex(double v)
{
    // v = m * 2^e with m in [0.5, 1): sub-bucket from the mantissa.
    if (!(v > 0.0) || !std::isfinite(v))
        return INT32_MIN; // dedicated bucket for <= 0 / non-finite
    int e = 0;
    double m = frexpExact(v, &e);
    int sub = static_cast<int>((m - 0.5) * 2.0 * kSubBuckets);
    if (sub >= kSubBuckets)
        sub = kSubBuckets - 1;
    return e * kSubBuckets + sub;
}

double
Histogram::bucketLow(int idx)
{
    int e = idx >= 0 ? idx / kSubBuckets
                     : -((-idx + kSubBuckets - 1) / kSubBuckets);
    int sub = idx - e * kSubBuckets;
    return std::ldexp(0.5 + static_cast<double>(sub) /
                                (2.0 * kSubBuckets),
                      e);
}

double
Histogram::bucketHigh(int idx)
{
    int e = idx >= 0 ? idx / kSubBuckets
                     : -((-idx + kSubBuckets - 1) / kSubBuckets);
    int sub = idx - e * kSubBuckets;
    return std::ldexp(0.5 + static_cast<double>(sub + 1) /
                                (2.0 * kSubBuckets),
                      e);
}

void
Histogram::add(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        if (v < min_)
            min_ = v;
        if (v > max_)
            max_ = v;
    }
    ++count_;
    sum_ += v;
    const int idx = bucketIndex(v);
    if (idx == INT32_MIN) {
        ++nonPositive_;
        return;
    }
    if (buckets_.empty()) {
        base_ = idx;
    } else if (idx < base_) {
        // Extend downwards by at least the current span, so a stream
        // that keeps undercutting its minimum costs amortized O(1) per
        // new bucket. No positive double maps below kMinIndex (the
        // smallest subnormal is 0.5 * 2^-1073).
        constexpr int kMinIndex = -1073 * kSubBuckets;
        const int span = static_cast<int>(buckets_.size());
        const int newBase = std::max(kMinIndex, std::min(idx, base_ - span));
        buckets_.insert(buckets_.begin(),
                        static_cast<size_t>(base_ - newBase), 0);
        base_ = newBase;
    }
    const size_t k = static_cast<size_t>(idx - base_);
    if (k >= buckets_.size())
        buckets_.resize(k + 1);
    ++buckets_[k];
}

double
Histogram::mean() const
{
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    if (q <= 0.0)
        return min_;
    if (q >= 1.0)
        return max_;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(count_)));
    if (rank < 1)
        rank = 1;
    uint64_t seen = nonPositive_;
    if (seen >= rank)
        return min_;
    for (size_t k = 0; k < buckets_.size(); ++k) {
        seen += buckets_[k];
        if (seen >= rank) {
            const int idx = base_ + static_cast<int>(k);
            // Midpoint of the bucket, clamped to the observed range.
            double mid = 0.5 * (bucketLow(idx) + bucketHigh(idx));
            if (mid < min_)
                mid = min_;
            if (mid > max_)
                mid = max_;
            return mid;
        }
    }
    return max_;
}

void
Histogram::reset()
{
    buckets_.clear();
    base_ = 0;
    nonPositive_ = 0;
    count_ = 0;
    sum_ = 0.0;
    min_ = 0.0;
    max_ = 0.0;
}

void
Histogram::printValue(std::ostream &os, bool json) const
{
    if (json) {
        os << "{\"count\":" << count_ << ",\"sum\":" << sum_
           << ",\"min\":" << min() << ",\"max\":" << max()
           << ",\"mean\":" << mean() << ",\"p50\":" << percentile(0.5)
           << ",\"p90\":" << percentile(0.9)
           << ",\"p99\":" << percentile(0.99) << "}";
    } else {
        os << "count=" << count_ << " mean=" << mean()
           << " min=" << min() << " p50=" << percentile(0.5)
           << " p90=" << percentile(0.9) << " max=" << max();
    }
}

// --- StatRegistry -------------------------------------------------------

StatRegistry &
StatRegistry::global()
{
    static StatRegistry reg;
    return reg;
}

StatRegistry::~StatRegistry()
{
    // Orphan surviving stats so their destructors don't touch us.
    for (auto &[name, s] : stats_)
        s->registry_ = nullptr;
}

void
StatRegistry::attach(const std::string &name, Stat &s)
{
    if (s.registry_)
        panic("stat '%s' is already registered (as '%s')", name.c_str(),
              s.name_.c_str());
    auto [it, fresh] = stats_.emplace(name, &s);
    if (!fresh)
        panic("stat name collision: '%s' is already registered",
              name.c_str());
    s.name_ = name;
    s.registry_ = this;
}

void
StatRegistry::detach(Stat &s)
{
    if (s.registry_ != this)
        return;
    auto it = stats_.find(s.name_);
    if (it != stats_.end() && it->second == &s)
        stats_.erase(it);
    s.registry_ = nullptr;
}

Stat *
StatRegistry::find(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? nullptr : it->second;
}

Counter *
StatRegistry::findCounter(const std::string &name) const
{
    Stat *s = find(name);
    if (!s || s->kind() != StatKind::Counter)
        return nullptr;
    return static_cast<Counter *>(s);
}

uint64_t
StatRegistry::counterValue(const std::string &name) const
{
    const Stat *s = find(name);
    if (!s || s->kind() != StatKind::Counter)
        return 0;
    return static_cast<const Counter *>(s)->value();
}

void
StatRegistry::resetAll()
{
    for (auto &[name, s] : stats_)
        s->reset();
}

void
StatRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, s] : stats_) {
        os << name << " = ";
        s->printValue(os, /*json=*/false);
        os << "\n";
    }
}

void
StatRegistry::dumpJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const auto &[name, s] : stats_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  \"" << name << "\": ";
        s->printValue(os, /*json=*/true);
    }
    os << "\n}\n";
}

std::map<std::string, double>
StatRegistry::snapshot() const
{
    std::map<std::string, double> snap;
    for (const auto &[name, s] : stats_)
        snap.emplace(name, s->primaryValue());
    return snap;
}

// --- ScopedStatEpoch ----------------------------------------------------

double
ScopedStatEpoch::delta(const std::string &name) const
{
    const Stat *s = reg_.find(name);
    double now = s ? s->primaryValue() : 0.0;
    auto it = base_.find(name);
    double then = it == base_.end() ? 0.0 : it->second;
    return now - then;
}

std::map<std::string, double>
ScopedStatEpoch::deltas() const
{
    std::map<std::string, double> out;
    for (const auto &[name, now] : reg_.snapshot()) {
        auto it = base_.find(name);
        double then = it == base_.end() ? 0.0 : it->second;
        if (now != then)
            out.emplace(name, now - then);
    }
    return out;
}

} // namespace xisa::obs
