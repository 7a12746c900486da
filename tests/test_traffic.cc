/**
 * @file
 * Unit tests for the traffic layer: the deterministic transcendentals,
 * the statistical shape of the generated stream (Poisson arrivals,
 * Zipf popularity, GET/SET mix, key-hash sharding), and the serving
 * simulator's core contracts -- byte-determinism across worker counts,
 * live migration relieving an overloaded shard, and result fields
 * agreeing with the registered counters.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "machine/node.hh"
#include "obs/registry.hh"
#include "traffic/traffic.hh"
#include "util/rng.hh"

namespace xisa {
namespace {

using traffic::Request;
using traffic::ServingConfig;
using traffic::ServingProfile;
using traffic::ServingResult;
using traffic::ServingSim;
using traffic::TrafficConfig;

/** A small stream that runs in milliseconds. */
TrafficConfig
smallConfig()
{
    TrafficConfig cfg;
    cfg.seed = 7;
    cfg.clients = 1000;
    cfg.requestHz = 20.0; // 20k req/s aggregate
    cfg.durationSeconds = 0.5;
    cfg.zipfSkew = 0.99;
    cfg.keySpace = 4096;
    cfg.getFraction = 0.9;
    cfg.shards = 4;
    return cfg;
}

std::string
dumpRegistry(const obs::StatRegistry &reg)
{
    std::ostringstream os;
    reg.dumpJson(os);
    return os.str();
}

TEST(Traffic, DetMathMatchesLibm)
{
    Rng rng(99);
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(1e-6, 1e6);
        EXPECT_NEAR(traffic::detLog(x), std::log(x),
                    1e-12 * std::fabs(std::log(x)) + 1e-13)
            << "log(" << x << ")";
    }
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(-40.0, 40.0);
        EXPECT_NEAR(traffic::detExp(x), std::exp(x),
                    1e-12 * std::exp(x))
            << "exp(" << x << ")";
    }
    for (int i = 0; i < 2000; ++i) {
        double x = rng.uniform(0.01, 100.0);
        double y = rng.uniform(-3.0, 3.0);
        EXPECT_NEAR(traffic::detPow(x, y), std::pow(x, y),
                    1e-11 * std::pow(x, y))
            << x << "^" << y;
    }
}

TEST(Traffic, PoissonStreamHasExpectedRateAndOrder)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> reqs = traffic::generateRequests(cfg);

    // Count within 5 sigma of rate * duration.
    const double expected = cfg.totalRate() * cfg.durationSeconds;
    EXPECT_NEAR(static_cast<double>(reqs.size()), expected,
                5.0 * std::sqrt(expected));

    double prev = 0.0;
    for (const Request &r : reqs) {
        EXPECT_GE(r.arrival, prev);
        EXPECT_LT(r.arrival, cfg.durationSeconds);
        prev = r.arrival;
    }
}

TEST(Traffic, ZipfSkewConcentratesMass)
{
    // Under theta = 0.99 the hottest 1% of keys should absorb a large
    // share of the stream; under theta = 0 they should absorb ~1%.
    for (double theta : {0.0, 0.99}) {
        TrafficConfig cfg = smallConfig();
        cfg.zipfSkew = theta;
        std::vector<Request> reqs = traffic::generateRequests(cfg);
        std::map<uint32_t, uint64_t> byKey;
        for (const Request &r : reqs)
            ++byKey[r.key];
        std::vector<uint64_t> counts;
        for (const auto &[k, n] : byKey)
            counts.push_back(n);
        std::sort(counts.rbegin(), counts.rend());
        uint64_t top = 0, total = reqs.size();
        size_t topKeys = static_cast<size_t>(cfg.keySpace / 100);
        for (size_t i = 0; i < topKeys && i < counts.size(); ++i)
            top += counts[i];
        double share = static_cast<double>(top) /
                       static_cast<double>(total);
        // Uniform sampling is sparse here (~2.4 requests per key), so
        // the top 1% of keys still overshoot 1% of the mass by order
        // statistics; 10% keeps a wide margin to the skewed case.
        if (theta > 0.5)
            EXPECT_GT(share, 0.30) << "theta=" << theta;
        else
            EXPECT_LT(share, 0.10) << "theta=" << theta;
    }
}

TEST(Traffic, MixAndShardingRespectConfig)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> reqs = traffic::generateRequests(cfg);
    ASSERT_FALSE(reqs.empty());

    uint64_t gets = 0;
    std::vector<uint64_t> perShard(cfg.shards, 0);
    for (const Request &r : reqs) {
        if (r.isGet)
            ++gets;
        ASSERT_LT(r.key, cfg.keySpace);
        ASSERT_LT(r.shard, cfg.shards);
        EXPECT_EQ(r.shard,
                  traffic::mix64(r.key) %
                      static_cast<uint64_t>(cfg.shards));
        ++perShard[r.shard];
    }
    EXPECT_NEAR(static_cast<double>(gets) /
                    static_cast<double>(reqs.size()),
                cfg.getFraction, 0.02);
    for (uint64_t n : perShard)
        EXPECT_GT(n, 0u);
}

TEST(Traffic, SameSeedSameStreamDifferentSeedDiffers)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> a = traffic::generateRequests(cfg);
    std::vector<Request> b = traffic::generateRequests(cfg);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].key, b[i].key);
        EXPECT_EQ(a[i].isGet, b[i].isGet);
    }
    cfg.seed = 8;
    std::vector<Request> c = traffic::generateRequests(cfg);
    bool differs = c.size() != a.size();
    for (size_t i = 0; !differs && i < a.size(); ++i)
        differs = a[i].arrival != c[i].arrival || a[i].key != c[i].key;
    EXPECT_TRUE(differs);
}

/** Sets XISA_BENCH_THREADS for one scope and restores it after. */
class ThreadsGuard
{
  public:
    explicit ThreadsGuard(const char *threads)
    {
        if (const char *prev = std::getenv("XISA_BENCH_THREADS"))
            saved_ = prev;
        setenv("XISA_BENCH_THREADS", threads, 1);
    }
    ~ThreadsGuard()
    {
        if (saved_.empty())
            unsetenv("XISA_BENCH_THREADS");
        else
            setenv("XISA_BENCH_THREADS", saved_.c_str(), 1);
    }

  private:
    std::string saved_;
};

/** The generator as one sequential loop over one Rng: the reference
 *  the parallel skip/fill/scan generator must reproduce exactly. */
std::vector<Request>
serialReference(const TrafficConfig &cfg)
{
    std::vector<Request> out;
    const double rate = cfg.totalRate();
    if (rate <= 0.0 || cfg.durationSeconds <= 0.0 || cfg.shards < 1 ||
        cfg.keySpace < 1)
        return out;
    Rng rng(cfg.seed);
    traffic::ZipfGenerator zipf(cfg.keySpace, cfg.zipfSkew);
    const uint64_t keySpace = static_cast<uint64_t>(cfg.keySpace);
    const uint64_t shards = static_cast<uint64_t>(cfg.shards);
    double t = 0.0;
    for (;;) {
        t += -traffic::detLog(1.0 - rng.uniform()) / rate;
        if (t >= cfg.durationSeconds)
            break;
        Request r;
        r.arrival = t;
        const uint64_t rank = static_cast<uint64_t>(zipf.sample(rng));
        r.key = static_cast<uint32_t>(traffic::mix64(rank) % keySpace);
        r.shard = static_cast<uint16_t>(traffic::mix64(r.key) % shards);
        r.isGet = rng.uniform() < cfg.getFraction;
        r.decile = static_cast<uint8_t>(rank * 10 / keySpace);
        out.push_back(r);
    }
    return out;
}

void
expectSameStream(const std::vector<Request> &want,
                 const std::vector<Request> &got, const std::string &what)
{
    ASSERT_EQ(want.size(), got.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(want[i].arrival, got[i].arrival) << what << " #" << i;
        ASSERT_EQ(want[i].key, got[i].key) << what << " #" << i;
        ASSERT_EQ(want[i].shard, got[i].shard) << what << " #" << i;
        ASSERT_EQ(want[i].isGet, got[i].isGet) << what << " #" << i;
        ASSERT_EQ(want[i].decile, got[i].decile) << what << " #" << i;
    }
}

TEST(Traffic, GenerateRequestsMatchesSerialReference)
{
    struct Case {
        std::string name;
        TrafficConfig cfg;
        long count = -1; ///< requests the stream must hold, if >= 0
    };
    std::vector<Case> cases;
    cases.push_back({"small", smallConfig()});
    TrafficConfig c = smallConfig();
    c.zipfSkew = 0.0; // uniform keys: the Rng::below() path
    cases.push_back({"uniform", c});
    c = smallConfig();
    c.keySpace = 1;
    cases.push_back({"one key", c});
    c = smallConfig();
    c.shards = 1;
    cases.push_back({"one shard", c});

    // Durations that cut the stream at exactly 0, 1 and kRequestChunk
    // +-1 requests: request k arrives at ref[k].arrival, and a stream
    // of duration d keeps the arrivals < d.
    TrafficConfig longCfg = smallConfig();
    longCfg.durationSeconds = 2.0; // ~40k requests
    const std::vector<Request> longRef = serialReference(longCfg);
    ASSERT_GT(longRef.size(), traffic::kRequestChunk + 1);
    for (size_t k : {size_t{0}, size_t{1}, traffic::kRequestChunk - 1,
                     traffic::kRequestChunk, traffic::kRequestChunk + 1}) {
        c = longCfg;
        c.durationSeconds = longRef[k].arrival;
        cases.push_back({std::to_string(k) + " requests", c,
                         static_cast<long>(k)});
    }

    // A stream longer than its up-front size takes the refill path. At
    // a mean of 0.015 requests, mean + 8 sigma = 0.995 sizes one
    // request, so find a seed whose stream holds two.
    c = smallConfig();
    c.clients = 1;
    c.requestHz = 1.0;
    c.durationSeconds = 0.015;
    c.keySpace = 16;
    while (serialReference(c).size() < 2)
        ++c.seed;
    cases.push_back({"refill", c});

    for (const char *threads : {"1", "4"}) {
        ThreadsGuard guard(threads);
        for (const Case &k : cases) {
            const std::vector<Request> want = serialReference(k.cfg);
            if (k.count >= 0) {
                EXPECT_EQ(want.size(), static_cast<size_t>(k.count));
            }
            expectSameStream(want, traffic::generateRequests(k.cfg),
                             k.name + " at T=" + threads);
        }
    }
}

TEST(Traffic, CalibrateIsWorkerCountInvariant)
{
    ServingProfile one, four;
    {
        ThreadsGuard guard("1");
        one = ServingProfile::calibrate();
    }
    {
        ThreadsGuard guard("4");
        four = ServingProfile::calibrate();
    }
    EXPECT_EQ(one.getSeconds, four.getSeconds);
    EXPECT_EQ(one.setSeconds, four.setSeconds);
    EXPECT_EQ(one.migrateSeconds, four.migrateSeconds);
    EXPECT_EQ(one.failoverSeconds, four.failoverSeconds);
    EXPECT_EQ(one.coldFactor, four.coldFactor);
    EXPECT_EQ(one.coldRequests, four.coldRequests);
    // The migration cell really measured a pause.
    EXPECT_NE(one.migrateSeconds,
              ServingProfile::synthetic().migrateSeconds);
}

/** Two nodes: fast xeno (0), slow aether (1). */
ServingConfig
twoNodeConfig(int shards)
{
    ServingConfig cfg;
    cfg.nodes = {makeXenoServer(), makeAetherServer()};
    cfg.placement.assign(shards, 1);
    cfg.sloUs = 800.0;
    return cfg;
}

TEST(Traffic, ServingBytesIdenticalAcrossWorkerCounts)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> reqs = traffic::generateRequests(cfg);
    ServingConfig sc = twoNodeConfig(cfg.shards);
    sc.migrations = {{0, 0.2, 0}, {2, 0.3, 0}};
    sc.crashes = {{0, 0.4, 30.0}};

    std::string dumps[2];
    const char *threads[2] = {"1", "7"};
    for (int i = 0; i < 2; ++i) {
        setenv("XISA_BENCH_THREADS", threads[i], 1);
        obs::StatRegistry reg;
        ServingSim sim(sc, ServingProfile::synthetic(), reg, "serving");
        sim.run(reqs);
        dumps[i] = dumpRegistry(reg);
    }
    unsetenv("XISA_BENCH_THREADS");
    EXPECT_EQ(dumps[0], dumps[1])
        << "stats bytes depend on the worker count";
}

TEST(Traffic, MigrationRelievesOverloadedShard)
{
    // The stream overloads slow-node shards (synthetic aether mean
    // service ~80 us vs ~5 kreq/s per shard => utilization ~0.4; scale
    // the rate up so it tips past 1).
    TrafficConfig cfg = smallConfig();
    cfg.requestHz = 80.0; // 80 kreq/s: ~20 kreq/s per shard
    std::vector<Request> reqs = traffic::generateRequests(cfg);

    obs::StatRegistry reg;
    ServingConfig staticCfg = twoNodeConfig(cfg.shards);
    ServingSim staticSim(staticCfg, ServingProfile::synthetic(), reg,
                         "static");
    ServingResult rs = staticSim.run(reqs);

    ServingConfig migCfg = staticCfg;
    for (int s = 0; s < cfg.shards; ++s)
        migCfg.migrations.push_back({s, 0.1, 0});
    ServingSim migSim(migCfg, ServingProfile::synthetic(), reg, "mig");
    ServingResult rm = migSim.run(reqs);

    EXPECT_EQ(rm.migrations, static_cast<uint64_t>(cfg.shards));
    EXPECT_LT(rm.p99Us, rs.p99Us);
    EXPECT_LT(rm.sloViolations, rs.sloViolations);
    // Requests land on the destination node after the moves.
    EXPECT_GT(rm.servedByNode[0], 0u);
}

TEST(Traffic, ResultAgreesWithRegisteredCounters)
{
    TrafficConfig cfg = smallConfig();
    std::vector<Request> reqs = traffic::generateRequests(cfg);
    obs::StatRegistry reg;
    ServingConfig sc = twoNodeConfig(cfg.shards);
    sc.migrations = {{1, 0.25, 0}};
    ServingSim sim(sc, ServingProfile::synthetic(), reg, "s");
    ServingResult r = sim.run(reqs);

    EXPECT_EQ(r.requests, reqs.size());
    EXPECT_EQ(r.gets + r.sets, r.requests);
    EXPECT_EQ(reg.counterValue("s.requests"), r.requests);
    EXPECT_EQ(reg.counterValue("s.gets"), r.gets);
    EXPECT_EQ(reg.counterValue("s.sets"), r.sets);
    EXPECT_EQ(reg.counterValue("s.slo_violations"), r.sloViolations);
    EXPECT_EQ(reg.counterValue("s.migrations"), r.migrations);
    EXPECT_EQ(reg.counterValue("s.failovers"), r.failovers);
    uint64_t served = 0;
    for (size_t nd = 0; nd < r.servedByNode.size(); ++nd) {
        EXPECT_EQ(reg.counterValue("s.node" + std::to_string(nd) +
                                   ".served"),
                  r.servedByNode[nd]);
        served += r.servedByNode[nd];
    }
    EXPECT_EQ(served, r.requests);

    // Cumulative deciles are monotone and end at the total.
    for (size_t d = 1; d < r.violationsByDecile.size(); ++d)
        EXPECT_GE(r.violationsByDecile[d], r.violationsByDecile[d - 1]);
    EXPECT_EQ(r.violationsByDecile.back(), r.sloViolations);
}

} // namespace
} // namespace xisa
