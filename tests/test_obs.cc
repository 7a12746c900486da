/**
 * @file
 * Unit tests for the observability layer: StatRegistry lifecycle and
 * collision rules, histogram percentiles against the util/stats oracle,
 * epoch deltas, tracer span pairing and ring repair, the Chrome
 * trace-event JSON shape, and an end-to-end migration trace.
 */

#include <algorithm>
#include <cmath>
#include <climits>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "compiler/compile.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "testprogs.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace xisa {
namespace {

size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    size_t n = 0;
    for (size_t pos = hay.find(needle); pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

/** Event phases in export order ('M', 'B', 'E', 'I', 'C'). */
std::vector<char>
phases(const std::string &json)
{
    std::vector<char> out;
    const std::string key = "\"ph\":\"";
    for (size_t pos = json.find(key); pos != std::string::npos;
         pos = json.find(key, pos + 1))
        out.push_back(json[pos + key.size()]);
    return out;
}

/** Structural sanity: quotes pair up and braces/brackets balance
 *  (outside of strings) -- catches malformed emission without a full
 *  JSON parser. */
void
expectBalancedJson(const std::string &s)
{
    int braces = 0, brackets = 0;
    bool inString = false;
    for (size_t i = 0; i < s.size(); ++i) {
        char c = s[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        switch (c) {
          case '"': inString = true; break;
          case '{': ++braces; break;
          case '}': --braces; break;
          case '[': ++brackets; break;
          case ']': --brackets; break;
          default: break;
        }
        EXPECT_GE(braces, 0);
        EXPECT_GE(brackets, 0);
    }
    EXPECT_FALSE(inString);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(StatRegistry, CounterGaugeBasics)
{
    obs::StatRegistry reg;
    obs::Counter c(reg, "mod.events");
    obs::Gauge g(reg, "mod.level");
    EXPECT_EQ(reg.size(), 2u);

    ++c;
    c.add(9);
    g.set(3.5);
    g.add(-1.0);
    EXPECT_EQ(c.value(), 10u);
    EXPECT_DOUBLE_EQ(g.value(), 2.5);
    EXPECT_EQ(reg.counterValue("mod.events"), 10u);
    EXPECT_EQ(reg.find("mod.events"), &c);
    EXPECT_EQ(reg.find("no.such"), nullptr);

    reg.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(StatRegistry, NameCollisionPanics)
{
    obs::StatRegistry reg;
    obs::Counter c(reg, "dup");
    try {
        obs::Counter clash(reg, "dup");
        FAIL() << "second attach under 'dup' must panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("already registered"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("collision"),
                  std::string::npos);
    }
}

TEST(StatRegistry, DoubleAttachPanics)
{
    obs::StatRegistry reg;
    obs::Counter c(reg, "once");
    try {
        reg.attach("twice", c);
        FAIL() << "re-attaching a live stat must panic";
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("already registered"),
                  std::string::npos);
    }
}

TEST(StatRegistry, DetachOnDestructionFreesName)
{
    obs::StatRegistry reg;
    {
        obs::Counter c(reg, "scoped");
        EXPECT_EQ(reg.size(), 1u);
    }
    EXPECT_EQ(reg.size(), 0u);
    EXPECT_EQ(reg.find("scoped"), nullptr);
    obs::Counter again(reg, "scoped"); // name is free again
    EXPECT_EQ(reg.size(), 1u);
}

TEST(StatRegistry, MovedStatStaysRegistered)
{
    // Components keep stats in growing vectors; a reallocation must
    // re-point the registry entry, not leave it dangling.
    obs::StatRegistry reg;
    std::vector<obs::Counter> v;
    v.reserve(1);
    v.emplace_back(reg, "vec.c0");
    v.emplace_back(reg, "vec.c1"); // forces reallocation of c0
    ++v[0];
    v[1].add(4);
    EXPECT_EQ(reg.find("vec.c0"), &v[0]);
    EXPECT_EQ(reg.find("vec.c1"), &v[1]);
    EXPECT_EQ(reg.counterValue("vec.c0"), 1u);
    EXPECT_EQ(reg.counterValue("vec.c1"), 4u);
}

TEST(StatRegistry, HistogramPercentilesMatchOracle)
{
    obs::StatRegistry reg;
    obs::Histogram h(reg, "lat.us");
    std::vector<double> samples;
    // Deterministic log-uniform samples over [1, 1e4): exercises many
    // powers of two, the regime bucketed histograms get wrong if the
    // sub-bucket math is off.
    uint64_t state = 0x243f6a8885a308d3ull;
    for (int i = 0; i < 10000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        double u = static_cast<double>(state >> 11) / 9007199254740992.0;
        double v = std::pow(10.0, 4.0 * u);
        samples.push_back(v);
        h.add(v);
    }

    BoxSummary box = boxSummary(samples);
    EXPECT_EQ(h.count(), box.count);
    EXPECT_DOUBLE_EQ(h.min(), box.min);
    EXPECT_DOUBLE_EQ(h.max(), box.max);
    // Bucketing bounds the relative error to ~1/kSubBuckets; allow 10%.
    EXPECT_NEAR(h.percentile(0.25), box.q1, 0.10 * box.q1);
    EXPECT_NEAR(h.percentile(0.50), box.median, 0.10 * box.median);
    EXPECT_NEAR(h.percentile(0.75), box.q3, 0.10 * box.q3);
    EXPECT_LE(h.percentile(0.0), h.percentile(1.0));
    EXPECT_GE(h.percentile(0.0), h.min());
    EXPECT_LE(h.percentile(1.0), h.max());

    double sum = 0;
    for (double v : samples)
        sum += v;
    EXPECT_NEAR(h.sum(), sum, 1e-6 * sum);
    EXPECT_NEAR(h.mean(), sum / samples.size(),
                1e-6 * (sum / samples.size()));
}

/** The histogram's nearest-rank convention, computed exactly from the
 *  raw samples: rank = ceil(q * n), 1-based into the sorted order. */
double
exactPercentile(std::vector<double> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    if (q <= 0.0)
        return samples.front();
    if (q >= 1.0)
        return samples.back();
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    if (rank < 1)
        rank = 1;
    return samples[rank - 1];
}

/** Feed `samples` to a histogram and check percentile(q) against the
 *  exact nearest-rank reference for the tail quantiles the serving
 *  report uses. Bucketing bounds the relative error by the bucket
 *  width: high/low <= (0.5 + 1/32)/0.5, so mid is within ~3.2% of any
 *  sample in the bucket. */
void
expectTailPercentilesExact(const std::vector<double> &samples,
                           const char *what)
{
    obs::StatRegistry reg;
    obs::Histogram h(reg, "h");
    for (double v : samples)
        h.add(v);
    for (double q : {0.5, 0.99, 0.999}) {
        double exact = exactPercentile(samples, q);
        EXPECT_NEAR(h.percentile(q), exact, 0.032 * exact)
            << what << " q=" << q;
    }
}

TEST(StatRegistry, HistogramExactPercentileSingleValue)
{
    // Degenerate distribution: every percentile must be EXACTLY the
    // value (the clamp to [min, max] collapses the bucket midpoint).
    obs::StatRegistry reg;
    obs::Histogram h(reg, "h");
    for (int i = 0; i < 1000; ++i)
        h.add(123.456);
    for (double q : {0.001, 0.5, 0.99, 0.999, 1.0})
        EXPECT_EQ(h.percentile(q), 123.456) << "q=" << q;
}

TEST(StatRegistry, HistogramExactPercentileBimodal)
{
    // 50/50 split across three decades: the even-count median must
    // take the LOWER mode (nearest-rank convention, rank n/2), and the
    // tail quantiles the upper one. An off-by-one in the cumulative
    // scan (seen > rank instead of seen >= rank) flips the median to
    // the wrong mode -- that is the bucket-boundary bias this pins.
    std::vector<double> samples;
    for (int i = 0; i < 500; ++i)
        samples.push_back(1.0);
    for (int i = 0; i < 500; ++i)
        samples.push_back(1000.0);
    expectTailPercentilesExact(samples, "bimodal");

    obs::StatRegistry reg;
    obs::Histogram h(reg, "h");
    for (double v : samples)
        h.add(v);
    EXPECT_LT(h.percentile(0.5), 2.0);
    EXPECT_GT(h.percentile(0.51), 500.0);
}

TEST(StatRegistry, HistogramExactPercentileRareTail)
{
    // 990 fast + 10 slow requests: p99 sits exactly on the boundary
    // rank (ceil(0.99 * 1000) = 990, still the fast mode) and p99.9
    // inside the slow mode. This is the serving report's shape.
    std::vector<double> samples;
    for (int i = 0; i < 990; ++i)
        samples.push_back(100.0);
    for (int i = 0; i < 10; ++i)
        samples.push_back(50000.0);
    expectTailPercentilesExact(samples, "rare-tail");

    obs::StatRegistry reg;
    obs::Histogram h(reg, "h");
    for (double v : samples)
        h.add(v);
    EXPECT_LT(h.percentile(0.99), 200.0);
    EXPECT_GT(h.percentile(0.991), 10000.0);
}

TEST(StatRegistry, HistogramExactPercentilePowerLaw)
{
    // Pareto-ish tail (u^-1.5 over a seeded LCG) plus exact powers of
    // two salted in: samples landing exactly on bucket edges must not
    // shift the rank scan.
    std::vector<double> samples;
    uint64_t state = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 20000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        double u = (static_cast<double>(state >> 11) + 1.0) /
                   9007199254740993.0;
        samples.push_back(std::pow(u, -1.5));
    }
    for (int e = 0; e < 16; ++e)
        samples.push_back(static_cast<double>(1 << e));
    expectTailPercentilesExact(samples, "power-law");
}

/** The histogram as a std::map from bucket index to count, with a
 *  sentinel index for <= 0 / non-finite samples: the reference the
 *  flat-bucket obs::Histogram must match byte for byte. */
class MapHistogram
{
  public:
    void
    add(double v)
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
        ++buckets_[bucketIndex(v)];
    }

    double
    percentile(double q) const
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
        uint64_t seen = 0;
        for (const auto &[idx, n] : buckets_) {
            seen += n;
            if (seen >= rank) {
                if (idx == INT32_MIN)
                    return min_;
                double mid = 0.5 * (bucketLow(idx) + bucketLow(idx + 1));
                if (mid < min_)
                    mid = min_;
                if (mid > max_)
                    mid = max_;
                return mid;
            }
        }
        return max_;
    }

    std::string
    print(bool json) const
    {
        const double mn = count_ ? min_ : 0.0;
        const double mx = count_ ? max_ : 0.0;
        const double mean =
            count_ ? sum_ / static_cast<double>(count_) : 0.0;
        std::ostringstream os;
        if (json)
            os << "{\"count\":" << count_ << ",\"sum\":" << sum_
               << ",\"min\":" << mn << ",\"max\":" << mx
               << ",\"mean\":" << mean << ",\"p50\":" << percentile(0.5)
               << ",\"p90\":" << percentile(0.9)
               << ",\"p99\":" << percentile(0.99) << "}";
        else
            os << "count=" << count_ << " mean=" << mean << " min=" << mn
               << " p50=" << percentile(0.5) << " p90=" << percentile(0.9)
               << " max=" << mx;
        return os.str();
    }

  private:
    static constexpr int kSub = 32;

    static int
    bucketIndex(double v)
    {
        if (!(v > 0.0) || !std::isfinite(v))
            return INT32_MIN;
        int e = 0;
        const double m = std::frexp(v, &e);
        int sub = static_cast<int>((m - 0.5) * 2.0 * kSub);
        if (sub >= kSub)
            sub = kSub - 1;
        return e * kSub + sub;
    }

    static double
    bucketLow(int idx)
    {
        const int e =
            idx >= 0 ? idx / kSub : -((-idx + kSub - 1) / kSub);
        const int sub = idx - e * kSub;
        return std::ldexp(0.5 + static_cast<double>(sub) / (2.0 * kSub),
                          e);
    }

    std::map<int, uint64_t> buckets_;
    uint64_t count_ = 0;
    double sum_ = 0.0, min_ = 0.0, max_ = 0.0;
};

std::string
printed(const obs::Histogram &h, bool json)
{
    std::ostringstream os;
    h.printValue(os, json);
    return os.str();
}

TEST(StatRegistry, HistogramFlatBucketsMatchMapOracle)
{
    // Zero, negatives, NaN, +-inf, subnormals and log-uniform values
    // over [1e-300, 1e300], fed shuffled, ascending and descending (a
    // descending stream grows the flat buckets downwards every time).
    Rng rng(2024);
    std::vector<double> values = {0.0, -0.0, -1.0, -1e300,
                                  std::nan(""), HUGE_VAL, -HUGE_VAL,
                                  4.9e-324, 2.2e-308, 1e-300, 1e300};
    for (int i = 0; i < 4000; ++i)
        values.push_back(std::pow(10.0, rng.uniform(-300.0, 300.0)));
    for (int i = 0; i < 400; ++i)
        values.push_back(rng.uniform(1.0, 2.0)); // many per bucket
    std::vector<double> shuffled = values;
    for (size_t i = shuffled.size() - 1; i > 0; --i)
        std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
    // NaN has no place in a sorted order: the ascending feed starts
    // with it and the descending one ends with it.
    std::vector<double> ascending;
    for (double v : values)
        if (!std::isnan(v))
            ascending.push_back(v);
    std::sort(ascending.begin(), ascending.end());
    ascending.insert(ascending.begin(), std::nan(""));
    std::vector<double> descending(ascending.rbegin(), ascending.rend());

    std::vector<double> qs = {0.0, 1e-9, 1e-4, 0.001, 0.01, 0.5, 0.9,
                              0.99, 0.999, 0.9999, 1.0 - 1e-12, 1.0};
    for (int i = 0; i < 200; ++i)
        qs.push_back(rng.uniform());

    obs::StatRegistry reg;
    obs::Histogram h(reg, "h");
    const std::pair<const char *, const std::vector<double> *> orders[] =
        {{"shuffled", &shuffled}, {"ascending", &ascending},
         {"descending", &descending}, {"shuffled again", &shuffled}};
    for (const auto &[name, feed] : orders) {
        // Every order after the first reuses `h` after reset().
        h.reset();
        MapHistogram oracle;
        EXPECT_EQ(printed(h, true), oracle.print(true)) << name;
        // Check partway through as well as at the end.
        for (size_t i = 0; i < feed->size(); ++i) {
            h.add((*feed)[i]);
            oracle.add((*feed)[i]);
            if (i != feed->size() / 3 && i + 1 != feed->size())
                continue;
            for (double q : qs) {
                const double got = h.percentile(q);
                const double want = oracle.percentile(q);
                EXPECT_TRUE(got == want ||
                            (std::isnan(got) && std::isnan(want)))
                    << name << " q=" << q << ": " << got << " vs "
                    << want;
            }
            EXPECT_EQ(printed(h, true), oracle.print(true)) << name;
            EXPECT_EQ(printed(h, false), oracle.print(false)) << name;
        }
    }
}

TEST(StatRegistry, ScopedStatEpochReadsDeltas)
{
    obs::StatRegistry reg;
    obs::Counter c(reg, "e.count");
    obs::Gauge g(reg, "e.level");
    c.add(5);
    obs::ScopedStatEpoch epoch(reg);
    c.add(7);
    g.set(2.0);
    EXPECT_DOUBLE_EQ(epoch.delta("e.count"), 7.0);
    EXPECT_DOUBLE_EQ(epoch.delta("e.level"), 2.0);
    EXPECT_DOUBLE_EQ(epoch.delta("no.such"), 0.0);
    std::map<std::string, double> d = epoch.deltas();
    EXPECT_EQ(d.size(), 2u);
    epoch.rebase();
    EXPECT_DOUBLE_EQ(epoch.delta("e.count"), 0.0);
}

TEST(StatRegistry, DumpJsonIsWellFormed)
{
    obs::StatRegistry reg;
    obs::Counter c(reg, "a.count");
    obs::Gauge g(reg, "a.level");
    obs::Histogram h(reg, "a.hist");
    c.add(3);
    g.set(1.5);
    h.add(10);
    h.add(20);
    std::ostringstream os;
    reg.dumpJson(os);
    std::string s = os.str();
    expectBalancedJson(s);
    EXPECT_NE(s.find("\"a.count\""), std::string::npos);
    EXPECT_NE(s.find("\"a.level\""), std::string::npos);
    EXPECT_NE(s.find("\"a.hist\""), std::string::npos);
}

TEST(Tracer, GoldenChromeTraceJson)
{
    obs::Tracer &tr = obs::Tracer::global();
    tr.clear();
    tr.nameTrack(7, "tid7");
    tr.begin(7, "os", "quantum", 1e-6);
    tr.instant(7, "interp", "migpoint_hit", 2e-6);
    tr.end(7, 3e-6);
    tr.counter(7, "threads", 2, 4e-6);
    std::ostringstream os;
    tr.exportChromeTrace(os);
    tr.clear();

    // The 'E' inherits its 'B' labels at export so pairs are
    // self-describing in the viewer.
    const std::string golden =
        "{\"traceEvents\":[\n"
        "{\"ph\":\"M\",\"pid\":0,\"tid\":7,\"name\":\"thread_name\","
        "\"args\":{\"name\":\"tid7\"}},\n"
        "{\"ph\":\"B\",\"pid\":0,\"tid\":7,\"ts\":1.000,\"cat\":\"os\","
        "\"name\":\"quantum\"},\n"
        "{\"ph\":\"I\",\"pid\":0,\"tid\":7,\"ts\":2.000,"
        "\"cat\":\"interp\",\"name\":\"migpoint_hit\"},\n"
        "{\"ph\":\"E\",\"pid\":0,\"tid\":7,\"ts\":3.000,\"cat\":\"os\","
        "\"name\":\"quantum\"},\n"
        "{\"ph\":\"C\",\"pid\":0,\"tid\":7,\"ts\":4.000,"
        "\"name\":\"threads\",\"args\":{\"value\":2}}\n"
        "],\"displayTimeUnit\":\"ms\"}\n";
    EXPECT_EQ(os.str(), golden);
}

TEST(Tracer, NestedSpansStayBalanced)
{
    obs::Tracer &tr = obs::Tracer::global();
    tr.clear();
    tr.begin(3, "t", "outer", 1e-6);
    tr.begin(3, "t", "mid", 2e-6);
    tr.begin(3, "t", "inner", 3e-6);
    tr.end(3, 4e-6);
    tr.end(3, 5e-6);
    tr.instant(3, "t", "tick", 6e-6);
    tr.end(3, 7e-6);
    std::ostringstream os;
    tr.exportChromeTrace(os);
    tr.clear();
    std::string s = os.str();
    expectBalancedJson(s);

    int depth = 0;
    int begins = 0, ends = 0;
    for (char ph : phases(s)) {
        if (ph == 'B') {
            ++depth;
            ++begins;
        } else if (ph == 'E') {
            --depth;
            ++ends;
        }
        EXPECT_GE(depth, 0) << "'E' before its 'B' in export";
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(begins, 3);
    EXPECT_EQ(ends, 3);
}

TEST(Tracer, OpenSpanGetsSyntheticEndAtExport)
{
    obs::Tracer &tr = obs::Tracer::global();
    tr.clear();
    tr.begin(1, "t", "left_open", 1e-6);
    tr.instant(1, "t", "last", 2e-6);
    std::ostringstream os;
    tr.exportChromeTrace(os);
    tr.clear();
    std::string s = os.str();
    EXPECT_EQ(countOccurrences(s, "\"ph\":\"B\""), 1u);
    EXPECT_EQ(countOccurrences(s, "\"ph\":\"E\""), 1u);
    // The synthetic 'E' lands at the track's last timestamp.
    EXPECT_NE(s.find("\"ph\":\"E\",\"pid\":0,\"tid\":1,\"ts\":2.000"),
              std::string::npos);
}

TEST(Tracer, RingOverwriteDropsOrphanedEnd)
{
    obs::Tracer &tr = obs::Tracer::global();
    tr.clear();
    tr.setCapacityPerTrack(4);
    tr.begin(2, "t", "victim", 1e-6);
    tr.instant(2, "t", "a", 2e-6);
    tr.instant(2, "t", "b", 3e-6);
    tr.instant(2, "t", "c", 4e-6);
    tr.end(2, 5e-6); // overwrites the 'B' -- orphaned at export
    EXPECT_EQ(tr.dropped(), 1u);
    EXPECT_EQ(tr.size(), 4u);
    std::ostringstream os;
    tr.exportChromeTrace(os);
    tr.clear();
    tr.setCapacityPerTrack(1 << 16);
    std::string s = os.str();
    EXPECT_EQ(countOccurrences(s, "\"ph\":\"B\""), 0u);
    EXPECT_EQ(countOccurrences(s, "\"ph\":\"E\""), 0u);
    EXPECT_EQ(countOccurrences(s, "\"ph\":\"I\""), 3u);
    expectBalancedJson(s);
}

TEST(ObsEndToEnd, MigrationTraceCoversSubsystems)
{
    obs::Tracer &tr = obs::Tracer::global();
    tr.clear();
    obs::setTraceEnabled(true);

    Module mod = testing::makeDeepRecursionProgram(25);
    IRRunResult ref = testing::runReference(mod);
    MultiIsaBinary bin = compileModule(mod);
    OsConfig cfg = OsConfig::dualServer();
    cfg.quantum = 150;
    ReplicatedOS os(bin, cfg);
    os.load(1);
    int quanta = 0;
    os.onQuantum = [&](ReplicatedOS &self) {
        if (++quanta == 2)
            self.migrateProcess(0);
    };
    OsRunResult res = os.run();
    obs::setTraceEnabled(false);

    EXPECT_EQ(res.exitCode, ref.retVal);
    ASSERT_GE(os.migrations().size(), 1u);

    std::ostringstream json;
    tr.exportChromeTrace(json);
    tr.clear();
    std::string s = json.str();
    expectBalancedJson(s);
    // One coherent timeline across the layers the migration crossed.
    for (const char *cat :
         {"\"cat\":\"interp\"", "\"cat\":\"os.migrate\"",
          "\"cat\":\"stacktransform\"", "\"cat\":\"dsm\""})
        EXPECT_NE(s.find(cat), std::string::npos) << cat;
    EXPECT_EQ(countOccurrences(s, "\"ph\":\"B\""),
              countOccurrences(s, "\"ph\":\"E\""));

    // The container's registry spans all the instrumented namespaces.
    std::map<std::string, double> snap = os.statRegistry().snapshot();
    EXPECT_EQ(snap.count("machine.instrs"), 1u);
    EXPECT_EQ(snap.count("dsm.read_faults"), 1u);
    EXPECT_EQ(snap.count("stacktransform.transforms"), 1u);
    EXPECT_GE(snap["os.migrations"], 1.0);
    EXPECT_GE(snap["sched.migrate_requests"], 1.0);
    EXPECT_GT(snap["machine.instrs"], 0.0);
    EXPECT_GT(snap["dsm.page_transfers"], 0.0);
}

} // namespace
} // namespace xisa
