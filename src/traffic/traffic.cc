#include "traffic/traffic.hh"

#include <algorithm>
#include <cmath>

#include "check/audit.hh"
#include "compiler/compile.hh"
#include "exp/sweep.hh"
#include "os/os.hh"
#include "util/fpbits.hh"
#include "util/logging.hh"
#include "workload/workloads.hh"

namespace xisa::traffic {

namespace {

/**
 * Scale from kernel-op cost to request cost, the sched-layer
 * JobProfileTable idiom (kTimeScale): the REDIS kernel's hash ops are
 * toy-sized, so one calibrated op stands for the full parse +
 * hash-table + reply work of one production request. 1000x lands the
 * Xeno GET in the tens of microseconds, where a real in-memory store's
 * end-to-end service time lives.
 */
constexpr double kServiceScale = 1000.0;

/**
 * Disruption costs (migration pause, failover outage) scale less than
 * per-op costs: the transfer mostly pre-copies while the shard keeps
 * serving, so only the stop-and-copy tail shows up as pause.
 */
constexpr double kDisruptScale = 100.0;

constexpr double kLn2 = 0.6931471805599453;

} // namespace

double
detLog(double x)
{
    // x = m * 2^e with m in [1/sqrt2, sqrt2): atanh series in
    // z = (m-1)/(m+1), |z| <= 0.1716, truncated at z^15 (~1e-14 rel).
    int e = 0;
    double m = frexpExact(x, &e);
    if (m < 0.70710678118654752440) {
        m *= 2.0;
        e -= 1;
    }
    const double z = (m - 1.0) / (m + 1.0);
    const double z2 = z * z;
    double term = z;
    double sum = 0.0;
    for (int k = 1; k <= 15; k += 2) {
        sum += term / k;
        term *= z2;
    }
    return 2.0 * sum + static_cast<double>(e) * kLn2;
}

double
detExp(double x)
{
    // x = k*ln2 + r with |r| <= ln2/2: Taylor in r, then ldexp.
    const double k = std::floor(x / kLn2 + 0.5);
    const double r = x - k * kLn2;
    double term = 1.0;
    double sum = 1.0;
    for (int i = 1; i <= 14; ++i) {
        term *= r / i;
        sum += term;
    }
    return ldexpExact(sum, static_cast<int>(k));
}

double
detPow(double x, double y)
{
    if (y == 0.0 || x == 1.0)
        return 1.0;
    return detExp(y * detLog(x));
}

uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

// --- ZipfGenerator --------------------------------------------------

ZipfGenerator::ZipfGenerator(int64_t n, double theta)
    : n_(n > 0 ? n : 1), theta_(theta)
{
    if (theta_ <= 0.0 || n_ <= 1)
        return;
    for (int64_t i = 1; i <= n_; ++i)
        zetan_ += 1.0 / detPow(static_cast<double>(i), theta_);
    zetaHalf_ = detPow(0.5, theta_);
    const double zeta2 = 1.0 + zetaHalf_;
    alpha_ = 1.0 / (1.0 - theta_);
    eta_ = (1.0 - detPow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

int64_t
ZipfGenerator::sample(Rng &rng) const
{
    if (theta_ <= 0.0 || n_ <= 1)
        return static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(n_)));
    // Gray et al.'s rejection-free inverse: one uniform per sample.
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + zetaHalf_)
        return 1;
    int64_t k = static_cast<int64_t>(
        static_cast<double>(n_) *
        detPow(eta_ * u - eta_ + 1.0, alpha_));
    if (k < 0)
        k = 0;
    return k >= n_ ? n_ - 1 : k;
}

// --- Stream generation ----------------------------------------------

void
ZipfGenerator::skip(Rng &rng) const
{
    if (theta_ <= 0.0 || n_ <= 1)
        rng.below(static_cast<uint64_t>(n_));
    else
        rng.next();
}

namespace {

/**
 * generateRequests(cfg), with `lead` cells of other work run first in
 * the fill sweep of its first batch, so they share its workers.
 */
template <typename Lead>
std::vector<Request>
generate(const TrafficConfig &cfg, size_t lead, Lead runLead)
{
    std::vector<Request> out;
    const double rate = cfg.totalRate();
    if (rate <= 0.0 || cfg.durationSeconds <= 0.0 || cfg.shards < 1 ||
        cfg.keySpace < 1) {
        exp::runSweep(lead, [&](size_t c) {
            runLead(c);
            return 0;
        });
        return out;
    }

    // Request i consumes, in order: one uniform for its inter-arrival
    // gap, the Zipf draw for its rank, one uniform for GET/SET. Each
    // batch first skips the Rng over those draws serially, recording
    // its state at every chunk start; then fills the chunks in
    // parallel (arrival holds the gap); then prefix-sums the gaps in
    // order and stops at the first arrival >= duration. Every field is
    // the expression the one-Rng loop computes, so the stream is
    // identical to it draw for draw.
    Rng rng(cfg.seed);
    const ZipfGenerator zipf(cfg.keySpace, cfg.zipfSkew);
    const uint64_t keySpace = static_cast<uint64_t>(cfg.keySpace);
    const uint64_t shards = static_cast<uint64_t>(cfg.shards);
    double t = 0.0;
    for (;;) {
        // Size for the Poisson count of the rest of the run at mean +
        // 8 sigma; in the rare run where that is short, the scan below
        // runs off the end and the loop sizes another batch.
        const double mean = rate * (cfg.durationSeconds - t);
        const size_t batch =
            static_cast<size_t>(mean + 8.0 * std::sqrt(mean)) + 1;
        const size_t first = out.size();
        out.resize(first + batch);

        const size_t chunks = (batch + kRequestChunk - 1) / kRequestChunk;
        std::vector<Rng> starts;
        starts.reserve(chunks);
        for (size_t i = 0; i < batch; ++i) {
            if (i % kRequestChunk == 0)
                starts.push_back(rng);
            rng.next();
            zipf.skip(rng);
            rng.next();
        }

        exp::runSweep(lead + chunks, [&](size_t cell) {
            if (cell < lead) {
                runLead(cell);
                return 0;
            }
            const size_t c = cell - lead;
            Rng local = starts[c];
            const size_t lo = first + c * kRequestChunk;
            const size_t hi = std::min(lo + kRequestChunk, first + batch);
            for (size_t i = lo; i < hi; ++i) {
                Request &r = out[i];
                // Poisson arrivals: exponential inter-arrival by
                // inverse CDF.
                r.arrival = -detLog(1.0 - local.uniform()) / rate;
                // Scramble the popularity rank so hot keys spread over
                // the key space (and thus over shards) instead of
                // clustering at 0.
                const uint64_t rank =
                    static_cast<uint64_t>(zipf.sample(local));
                r.key = static_cast<uint32_t>(mix64(rank) % keySpace);
                r.shard = static_cast<uint16_t>(mix64(r.key) % shards);
                r.isGet = local.uniform() < cfg.getFraction;
                r.decile = static_cast<uint8_t>(rank * 10 / keySpace);
            }
            return 0;
        });
        lead = 0;

        for (size_t i = first; i < out.size(); ++i) {
            t += out[i].arrival;
            if (t >= cfg.durationSeconds) {
                out.resize(i);
                return out;
            }
            out[i].arrival = t;
        }
    }
}

} // namespace

std::vector<Request>
generateRequests(const TrafficConfig &cfg)
{
    return generate(cfg, 0, [](size_t) {});
}

// --- ServingProfile -------------------------------------------------

ServingProfile
ServingProfile::synthetic()
{
    ServingProfile p;
    const size_t xeno = static_cast<size_t>(IsaId::Xeno64);
    const size_t aether = static_cast<size_t>(IsaId::Aether64);
    p.getSeconds[xeno] = 25e-6;
    p.setSeconds[xeno] = 40e-6;
    p.getSeconds[aether] = 75e-6;
    p.setSeconds[aether] = 120e-6;
    p.migrateSeconds = 2e-3;
    p.failoverSeconds = 20e-3;
    p.coldFactor = 1.0;
    p.coldRequests = 256;
    return p;
}

ServingProfile
ServingProfile::calibrate()
{
    // No traffic: the sweep holds just the calibration cells.
    TrafficConfig none;
    none.durationSeconds = 0.0;
    std::vector<Request> reqs;
    return calibrateAndGenerate(none, reqs);
}

ServingProfile
ServingProfile::calibrateAndGenerate(const TrafficConfig &cfg,
                                     std::vector<Request> &reqs)
{
    ServingProfile p = synthetic();
    Module mod = buildWorkload(WorkloadId::REDIS, ProblemClass::A);
    MultiIsaBinary bin = compileModule(mod);
    const double ops = 16384.0 * classScale(ProblemClass::A);

    // Cells 0 and 1 run the binary on one node of each ISA and yield
    // its makespan. Cell 2 is one real cross-ISA live migration of the
    // serving binary and yields the pause between trapping at a
    // migration point and resuming on the other ISA: what a shard sees
    // when moved mid-traffic.
    const NodeSpec presets[2] = {makeXenoServer(), makeAetherServer()};
    std::array<double, 3> secs{};
    reqs = generate(cfg, secs.size(), [&](size_t c) {
        if (c < 2) {
            secs[c] = exp::runSingleNode(bin, presets[c]).makespanSeconds;
            return;
        }
        ReplicatedOS os(bin, OsConfig::dualServer());
        os.load(0);
        bool fired = false;
        os.onQuantum = [&](ReplicatedOS &self) {
            if (fired || self.totalInstrs() < 100000)
                return;
            fired = true;
            self.migrateProcess(1);
        };
        os.run();
        for (const MigrationEvent &ev : os.migrations())
            secs[c] += ev.resumeTime - ev.trapTime;
    });

    for (size_t c = 0; c < 2; ++c) {
        const double perOp = secs[c] / ops * kServiceScale;
        const size_t i = static_cast<size_t>(presets[c].isa);
        // The kernel interleaves GETs and SETs; split the measured
        // average with a fixed ratio (SETs write slot + value).
        p.getSeconds[i] = perOp * 0.85;
        p.setSeconds[i] = perOp * 1.35;
    }
    if (secs[2] > 0.0)
        p.migrateSeconds = secs[2] * kDisruptScale;
    // Losing the node costs roughly an order of magnitude more than a
    // planned move: failure detection, directory reconstruction, and
    // journal replay on the survivor (the PR 5 recovery path).
    p.failoverSeconds = p.migrateSeconds * 10.0;
    return p;
}

// --- ServingSim -----------------------------------------------------

ServingSim::ServingSim(ServingConfig cfg, ServingProfile prof,
                       obs::StatRegistry &reg,
                       const std::string &prefix)
    : cfg_(std::move(cfg)), prof_(std::move(prof)),
      auditing_(check::auditRequested())
{
    reg.attach(prefix + ".requests", requests_);
    reg.attach(prefix + ".gets", gets_);
    reg.attach(prefix + ".sets", sets_);
    reg.attach(prefix + ".slo_violations", sloViolations_);
    reg.attach(prefix + ".migrations", migrations_);
    reg.attach(prefix + ".failovers", failovers_);
    if (!cfg_.brownouts.empty()) {
        reg.attach(prefix + ".shed", shed_);
        reg.attach(prefix + ".slo_violations_degraded",
                   violationsDegraded_);
    }
    reg.attach(prefix + ".latency_us", latencyUs_);
    nodeServed_.reserve(cfg_.nodes.size());
    for (size_t i = 0; i < cfg_.nodes.size(); ++i) {
        nodeServed_.emplace_back();
        reg.attach(prefix + ".node" + std::to_string(i) + ".served",
                   nodeServed_.back());
    }
}

ServingResult
ServingSim::run(const std::vector<Request> &reqs)
{
    const size_t n = reqs.size();
    const int shards = static_cast<int>(cfg_.placement.size());
    const int numNodes = static_cast<int>(cfg_.nodes.size());
    if (shards < 1 || numNodes < 1)
        panic("ServingSim: empty placement or node list");
    for (int nd : cfg_.placement)
        if (nd < 0 || nd >= numNodes)
            panic("ServingSim: placement references node %d", nd);
    if (!cfg_.nodeRack.empty() &&
        cfg_.nodeRack.size() != cfg_.nodes.size())
        panic("ServingSim: nodeRack has %zu entries for %zu nodes",
              cfg_.nodeRack.size(), cfg_.nodes.size());
    for (const BrownoutWindow &w : cfg_.brownouts)
        if (w.end < w.start || w.shedDeciles < 1 || w.shedDeciles > 10)
            panic("ServingSim: bad brownout window [%g, %g) "
                  "shed_deciles=%d",
                  w.start, w.end, w.shedDeciles);

    // A shard is a single-server FIFO that only its own requests and
    // events move. Its schedule is its migrations plus every crash
    // (crashes only bite if the shard sits on the node when it dies),
    // sorted by time with a deterministic tie-break.
    struct Event {
        double time = 0;
        bool isCrash = false;
        int node = 0;       ///< migration destination / crashed node
        double down = 0;    ///< crash only
    };
    struct Shard {
        int node = 0;
        double clock = 0.0;
        int coldLeft = 0;
        std::vector<Event> events;
        size_t next = 0; ///< first event not yet applied
    };
    std::vector<Shard> state(static_cast<size_t>(shards));
    for (int s = 0; s < shards; ++s)
        state[s].node = cfg_.placement[s];
    for (const ShardMigration &m : cfg_.migrations) {
        if (m.shard < 0 || m.shard >= shards || m.node < 0 ||
            m.node >= numNodes)
            panic("ServingSim: bad migration shard=%d node=%d",
                  m.shard, m.node);
        state[m.shard].events.push_back({m.time, false, m.node, 0});
    }
    double firstCrash = -1.0;
    for (const NodeCrash &c : cfg_.crashes) {
        if (c.node < 0 || c.node >= numNodes)
            panic("ServingSim: crash references node %d", c.node);
        if (firstCrash < 0.0 || c.time < firstCrash)
            firstCrash = c.time;
        for (Shard &sh : state)
            sh.events.push_back({c.time, true, c.node, c.downSeconds});
    }
    for (Shard &sh : state)
        std::stable_sort(sh.events.begin(), sh.events.end(),
                         [](const Event &a, const Event &b) {
                             if (a.time != b.time)
                                 return a.time < b.time;
                             if (a.isCrash != b.isCrash)
                                 return a.isCrash; // crashes first
                             return a.node < b.node;
                         });

    auto alive = [&](int nd, double t) {
        for (const NodeCrash &c : cfg_.crashes)
            if (c.node == nd && t >= c.time &&
                t < c.time + c.downSeconds)
                return false;
        return true;
    };
    // Coldest deciles shed at time t: the most any brownout window
    // holding t sheds, 0 outside every window.
    auto shedDeciles = [&](double t) {
        int deciles = 0;
        for (const BrownoutWindow &w : cfg_.brownouts)
            if (t >= w.start && t < w.end)
                deciles = std::max(deciles, w.shedDeciles);
        return deciles;
    };

    ServingResult res;
    res.requests = n;
    res.servedByNode.assign(cfg_.nodes.size(), 0);
    res.servedByNodeAfterCrash.assign(cfg_.nodes.size(), 0);
    auto apply = [&](Shard &sh, const Event &ev) {
        if (ev.isCrash) {
            if (ev.node != sh.node)
                return;
            // Failure-domain-aware failover: the dead node's rack is
            // usually failing with it (ToR or PDU), so prefer the
            // lowest-index survivor OUTSIDE that rack and only fall back
            // to a rack-mate when no other rack has capacity. An empty
            // nodeRack map keeps the legacy rack-blind scan.
            auto firstSurvivor = [&](int avoidRack) {
                for (int cand = 0; cand < numNodes; ++cand)
                    if (cand != ev.node && alive(cand, ev.time) &&
                        (avoidRack < 0 || cfg_.nodeRack[cand] != avoidRack))
                        return cand;
                return -1;
            };
            const int deadRack =
                cfg_.nodeRack.empty() ? -1 : cfg_.nodeRack[ev.node];
            int survivor = deadRack >= 0 ? firstSurvivor(deadRack) : -1;
            if (survivor < 0)
                survivor = firstSurvivor(-1);
            if (survivor >= 0) {
                sh.clock = std::max(sh.clock, ev.time) +
                           prof_.failoverSeconds;
                sh.node = survivor;
            } else {
                // No survivor: wait out the outage in place.
                sh.clock = std::max(sh.clock, ev.time + ev.down) +
                           prof_.failoverSeconds;
            }
            sh.coldLeft = prof_.coldRequests;
            ++res.failovers;
        } else {
            if (ev.node == sh.node || !alive(ev.node, ev.time))
                return;
            sh.clock = std::max(sh.clock, ev.time) + prof_.migrateSeconds;
            sh.node = ev.node;
            sh.coldLeft = prof_.coldRequests;
            ++res.migrations;
        }
    };
    auto serviceSeconds = [&](const Shard &sh, const Request &r) {
        const size_t isa = static_cast<size_t>(cfg_.nodes[sh.node].isa);
        double base = r.isGet ? prof_.getSeconds[isa] : prof_.setSeconds[isa];
        // Key-dependent spread (value size / probe length): 0.75x ..
        // 1.24x, fixed per (key, op).
        const uint64_t h =
            mix64(static_cast<uint64_t>(r.key) * 2 + (r.isGet ? 1 : 0));
        base *= 0.75 + static_cast<double>(h & 63) / 128.0;
        if (sh.coldLeft > 0)
            base *= 1.0 + prof_.coldFactor *
                              static_cast<double>(sh.coldLeft) /
                              prof_.coldRequests;
        return base;
    };

    // One pass in arrival order. Each shard reaches its requests in its
    // own order, so it evolves exactly as if simulated alone, and every
    // request is accounted for as it completes, in one fixed sequence.
    for (size_t i = 0; i < n; ++i) {
        const Request &r = reqs[i];
        if (r.shard >= shards)
            panic("ServingSim: request %zu names shard %d of %d", i,
                  static_cast<int>(r.shard), shards);
        Shard &sh = state[r.shard];
        const std::vector<Event> &evs = sh.events;
        const int shedding = shedDeciles(r.arrival);
        if (shedding > 0 && static_cast<int>(r.decile) >= 10 - shedding) {
            // Shed at the door: no service, no queueing, and the shard
            // clock stays put. Events up to the arrival still fire so
            // node state keeps moving. Counted as a request (and as
            // shed), but it never ran, so it contributes no latency
            // sample, no GET/SET split, and no SLO violation.
            while (sh.next < evs.size() && evs[sh.next].time <= r.arrival)
                apply(sh, evs[sh.next++]);
            ++res.shed;
            res.violationsByDecile[i * 10 / n] = res.sloViolations;
            continue;
        }
        double done = 0.0, service = 0.0;
        for (;;) {
            double start = std::max(r.arrival, sh.clock);
            while (sh.next < evs.size() && evs[sh.next].time <= start) {
                apply(sh, evs[sh.next++]);
                start = std::max(r.arrival, sh.clock);
            }
            service = serviceSeconds(sh, r);
            done = start + service;
            if (sh.next < evs.size() && evs[sh.next].time < done) {
                // The event preempts the in-flight request: for a crash
                // the work is lost; for a live migration the request is
                // replayed on the destination after the pause. Either
                // way its latency keeps growing until it completes.
                apply(sh, evs[sh.next++]);
                continue;
            }
            break;
        }
        // Latency >= service, compared as times: done - arrival can
        // round below the service time while done >= arrival + service.
        if (auditing_ && (done < sh.clock || done < r.arrival + service))
            panic("serving audit: shard %d request %zu completes at %.9f "
                  "(arrival %.9f, service %.9f, shard clock %.9f)",
                  static_cast<int>(r.shard), i, done, r.arrival, service,
                  sh.clock);
        sh.clock = done;
        if (sh.coldLeft > 0)
            --sh.coldLeft;

        const double us = (done - r.arrival) * 1e6;
        latencyUs_.add(us);
        ++(r.isGet ? res.gets : res.sets);
        if (us > cfg_.sloUs) {
            ++res.sloViolations;
            if (shedding > 0)
                ++res.violationsDegraded;
        }
        ++res.servedByNode[sh.node];
        if (firstCrash >= 0.0 && done > firstCrash)
            ++res.servedByNodeAfterCrash[sh.node];
        res.violationsByDecile[i * 10 / n] = res.sloViolations;
    }
    for (size_t d = 1; d < res.violationsByDecile.size(); ++d)
        res.violationsByDecile[d] = std::max(
            res.violationsByDecile[d], res.violationsByDecile[d - 1]);
    requests_.add(n);
    gets_.add(res.gets);
    sets_.add(res.sets);
    sloViolations_.add(res.sloViolations);
    violationsDegraded_.add(res.violationsDegraded);
    shed_.add(res.shed);
    migrations_.add(res.migrations);
    failovers_.add(res.failovers);
    uint64_t byNode = 0;
    for (size_t nd = 0; nd < nodeServed_.size(); ++nd) {
        nodeServed_[nd].add(res.servedByNode[nd]);
        byNode += res.servedByNode[nd];
    }
    if (auditing_ && (res.gets + res.sets + res.shed != res.requests ||
                      byNode != res.gets + res.sets))
        panic("serving audit: %zu requests, %llu gets + %llu sets + %llu "
              "shed, %llu served by node",
              n, static_cast<unsigned long long>(res.gets),
              static_cast<unsigned long long>(res.sets),
              static_cast<unsigned long long>(res.shed),
              static_cast<unsigned long long>(byNode));

    res.p50Us = latencyUs_.percentile(0.5);
    res.p99Us = latencyUs_.percentile(0.99);
    res.p999Us = latencyUs_.percentile(0.999);
    res.maxUs = latencyUs_.max();
    return res;
}

} // namespace xisa::traffic
