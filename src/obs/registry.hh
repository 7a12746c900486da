/**
 * @file
 * The unified statistics layer (gem5-style stat registry).
 *
 * Every subsystem registers its named stats -- counters, gauges,
 * histograms -- into a StatRegistry, and readers look them up there by
 * name: the Interconnect traffic, cache and hDSM protocol counters have
 * no value-copy getters. Names are hierarchical dotted paths
 * ("dsm.page_transfers", "node0.core0.l1d.misses"); the registry can
 * render them human-readable or as JSON, reset them all at once (the
 * only reset path; components keep no reset of their own), and
 * snapshot/diff them per measured region (ScopedStatEpoch).
 *
 * Every stat has an owner registry: components that may coexist (two
 * ReplicatedOS containers, three ClusterSims) each own one, so names
 * never collide across instances. Registering two live stats under the
 * same name in the same registry is a bug and panics.
 *
 * Stats are plain inline-incremented integers/doubles -- registering
 * adds zero cost to the hot path; the registry only holds pointers for
 * dump/reset. Stats detach themselves on destruction and re-point their
 * registry entry on move, so components stored in growing vectors stay
 * registered.
 */

#ifndef XISA_OBS_REGISTRY_HH
#define XISA_OBS_REGISTRY_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace xisa::obs {

class StatRegistry;

/** What a stat measures; drives the dump rendering. */
enum class StatKind { Counter, Gauge, Histogram };

/** Base of all registrable statistics. */
class Stat
{
  public:
    Stat() = default;
    virtual ~Stat();
    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;
    /** Moving re-points the registry entry at the new address. */
    Stat(Stat &&other) noexcept;
    Stat &operator=(Stat &&other) noexcept;

    const std::string &name() const { return name_; }
    StatRegistry *registry() const { return registry_; }

    virtual StatKind kind() const = 0;
    /** Zero the stat (registry resetAll / epoch boundaries). */
    virtual void reset() = 0;
    /** Scalar used by snapshots and epoch deltas. */
    virtual double primaryValue() const = 0;
    /** Render the value (no name) in human or JSON form. */
    virtual void printValue(std::ostream &os, bool json) const = 0;

  private:
    friend class StatRegistry;
    std::string name_;
    StatRegistry *registry_ = nullptr;
};

/** Monotonic event count; increments are a single inline add. */
class Counter : public Stat
{
  public:
    Counter() = default;
    /** Register into `reg` (panics on collision). */
    Counter(StatRegistry &reg, const std::string &name);

    Counter &operator++()
    {
        ++v_;
        return *this;
    }
    void add(uint64_t n) { v_ += n; }
    uint64_t value() const { return v_; }

    StatKind kind() const override { return StatKind::Counter; }
    void reset() override { v_ = 0; }
    double primaryValue() const override
    {
        return static_cast<double>(v_);
    }
    void printValue(std::ostream &os, bool json) const override;

  private:
    uint64_t v_ = 0;
};

/** Point-in-time level (thread count, queue depth, ...). */
class Gauge : public Stat
{
  public:
    Gauge() = default;
    Gauge(StatRegistry &reg, const std::string &name);

    void set(double v) { v_ = v; }
    void add(double d) { v_ += d; }
    double value() const { return v_; }

    StatKind kind() const override { return StatKind::Gauge; }
    void reset() override { v_ = 0; }
    double primaryValue() const override { return v_; }
    void printValue(std::ostream &os, bool json) const override;

  private:
    double v_ = 0;
};

/**
 * Geometric-bucket histogram (HDR-style): positive samples land in one
 * of kSubBuckets sub-buckets per power of two, bounding the relative
 * error of percentile estimates to ~1/kSubBuckets. Exact count, sum,
 * min, and max are tracked alongside the buckets. The buckets are one
 * flat array spanning the buckets seen so far, so add() indexes
 * instead of searching; <= 0 and non-finite samples share a separate
 * bucket that ranks below every positive one.
 */
class Histogram : public Stat
{
  public:
    Histogram() = default;
    Histogram(StatRegistry &reg, const std::string &name);

    void add(double v);

    uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const;
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }
    /** Approximate quantile, q in [0,1] (q=0.5 is the median). */
    double percentile(double q) const;

    StatKind kind() const override { return StatKind::Histogram; }
    void reset() override;
    double primaryValue() const override
    {
        return static_cast<double>(count_);
    }
    void printValue(std::ostream &os, bool json) const override;

  private:
    static constexpr int kSubBuckets = 32;
    static int bucketIndex(double v);
    static double bucketLow(int idx);
    static double bucketHigh(int idx);

    /** buckets_[k] counts bucket index base_ + k. */
    std::vector<uint64_t> buckets_;
    int base_ = 0;
    uint64_t nonPositive_ = 0; ///< samples <= 0 or non-finite
    uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/** Named collection of live stats; the one observability surface. */
class StatRegistry
{
  public:
    StatRegistry() = default;
    ~StatRegistry();
    StatRegistry(const StatRegistry &) = delete;
    StatRegistry &operator=(const StatRegistry &) = delete;

    /**
     * Register `s` under `name`. Panics if another live stat already
     * owns the name, or if `s` is already attached somewhere.
     */
    void attach(const std::string &name, Stat &s);
    /** Remove `s`; no-op if it is not attached here. */
    void detach(Stat &s);

    /** Look a stat up by full name; nullptr if absent. */
    Stat *find(const std::string &name) const;
    /**
     * Typed lookup for hot loops: resolve the dotted name ONCE, keep the
     * returned handle, and bump through it -- never re-hash the name per
     * event. The handle stays valid until the counter detaches (component
     * destruction or registry teardown). Nullptr if absent or not a
     * counter.
     */
    Counter *findCounter(const std::string &name) const;
    /** Convenience: a counter's value, or 0 if no such counter. */
    uint64_t counterValue(const std::string &name) const;

    size_t size() const { return stats_.size(); }

    /** Zero every registered stat. */
    void resetAll();

    /** Human-readable dump, one "name = value" row per stat. */
    void dump(std::ostream &os) const;
    /** JSON object keyed by stat name. */
    void dumpJson(std::ostream &os) const;

    /** Name -> primaryValue for every stat (epoch snapshots). */
    std::map<std::string, double> snapshot() const;

  private:
    friend class Stat; ///< moves re-point their registry entry

    std::map<std::string, Stat *> stats_;
};

/**
 * RAII measurement region: snapshots a registry at construction so the
 * harness can read per-region deltas without resetting anything --
 * replaces the reset-before/read-after pairs the benches used to do
 * against each module's private counters.
 */
class ScopedStatEpoch
{
  public:
    explicit ScopedStatEpoch(StatRegistry &reg)
        : reg_(reg), base_(reg.snapshot())
    {}

    /** Change of `name` since construction (0 if unknown then and now). */
    double delta(const std::string &name) const;
    /** All stats that changed since construction. */
    std::map<std::string, double> deltas() const;
    /** Restart the epoch from the current state. */
    void rebase() { base_ = reg_.snapshot(); }

    StatRegistry &registry() const { return reg_; }

  private:
    StatRegistry &reg_;
    std::map<std::string, double> base_;
};

} // namespace xisa::obs

#endif // XISA_OBS_REGISTRY_HH
