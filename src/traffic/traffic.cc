#include "traffic/traffic.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>

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

/** The bits of a Double4's lanes. The kernels keep to what SSE2 does
 *  two lanes at a time -- double arithmetic, 64-bit logical shifts and
 *  bitwise ops -- and so compare lanes by the sign of a difference: a
 *  32-byte vector compare has no SSE2 form, and GCC splits it into
 *  scalar lanes. */
typedef uint64_t Bits4 __attribute__((vector_size(32)));

/** All ones in each lane where `d` is negative (sign bit set), zero
 *  elsewhere. For finite doubles a and b, a < b exactly where a - b is
 *  negative, unless a is -0.0 and b is +0.0: a difference rounds to
 *  zero only when a == b, and rounding keeps the sign. */
void
negativeLanes(const Double4 &d, Bits4 &out)
{
    out = -(__builtin_bit_cast(Bits4, d) >> 63);
}

/** All ones in each lane where `d` is +-0, zero elsewhere: clearing
 *  the sign leaves zero bits only there, and only zero bits wrap to a
 *  set sign bit when one is subtracted. */
void
zeroLanes(const Double4 &d, Bits4 &out)
{
    const Bits4 magnitude =
        __builtin_bit_cast(Bits4, d) & ~(uint64_t{1} << 63);
    out = -((magnitude - 1) >> 63);
}

/** out = mask ? a : b, lane by lane and without branches. */
void
blend(const Bits4 &mask, const Double4 &a, const Double4 &b, Double4 &out)
{
    out = __builtin_bit_cast(Double4,
                             (__builtin_bit_cast(Bits4, a) & mask) |
                                 (__builtin_bit_cast(Bits4, b) & ~mask));
}

/** Adding this to a double of magnitude below 2^51 rounds it to an
 *  integer j and leaves the sum's bits at those of the constant
 *  plus j. */
constexpr double kRoundMagic = 0x1.8p52;

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

// The four-lane kernels repeat the scalar functions' operations lane
// by lane, in the same order: each lane is the scalar result, bit for
// bit, and the vector only supplies the independent work that fills
// the divider.

void
detLog4(const Double4 &x, Double4 &out)
{
    // frexpExact's bit path. A group with any lane outside its range
    // (zero, subnormal, inf, NaN, |e| > kFastExpLimit) takes the
    // scalar function.
    const Bits4 bits = __builtin_bit_cast(Bits4, x);
    const Bits4 field = (bits >> 52) & 0x7ff;
    for (int i = 0; i < 4; ++i) {
        const int64_t e = static_cast<int64_t>(field[i]) - 1022;
        if (e < -kFastExpLimit || e > kFastExpLimit) {
            for (int j = 0; j < 4; ++j)
                out[j] = detLog(x[j]);
            return;
        }
    }
    // The exponent as (2^52 + field) - (2^52 + 1022), both exact; the
    // mantissa rebased to [0.5, 1).
    Double4 e = __builtin_bit_cast(Double4, field | (uint64_t{0x433} << 52)) -
                (0x1p52 + 1022.0);
    Double4 m = __builtin_bit_cast(Double4,
                                   (bits & ~(uint64_t{0x7ff} << 52)) |
                                       (uint64_t{1022} << 52));
    Bits4 low;
    negativeLanes(m - 0.70710678118654752440, low);
    blend(low, m * 2.0, m, m);
    blend(low, e - 1.0, e, e);
    const Double4 z = (m - 1.0) / (m + 1.0);
    const Double4 z2 = z * z;
    Double4 term = z;
    Double4 sum = {};
    for (int k = 1; k <= 15; k += 2) {
        sum += term / static_cast<double>(k);
        term *= z2;
    }
    out = 2.0 * sum + e * kLn2;
}

void
detExp4(const Double4 &x, Double4 &out)
{
    // floor(y) in [-kFastExpLimit, kFastExpLimit] keeps ldexpExact on
    // its bit path; NaN fails the test too.
    const Double4 y = x / kLn2 + 0.5;
    for (int i = 0; i < 4; ++i) {
        if (!(y[i] >= -kFastExpLimit && y[i] < kFastExpLimit + 1)) {
            for (int j = 0; j < 4; ++j)
                out[j] = detExp(x[j]);
            return;
        }
    }
    // Exact floor: round to the nearest integer, then step down where
    // that rounded up. y is never -0.0 (x / kLn2 + 0.5 rounds a zero
    // sum to +0.0), so a zero floor is +0.0 as std::floor's is.
    const Double4 one = {1.0, 1.0, 1.0, 1.0};
    const Double4 zero = {};
    Double4 k = (y + kRoundMagic) - kRoundMagic;
    Bits4 up;
    negativeLanes(y - k, up);
    Double4 down;
    blend(up, one, zero, down);
    k -= down;
    const Double4 r = x - k * kLn2;
    Double4 term = one;
    Double4 sum = one;
    for (int i = 1; i <= 14; ++i) {
        term *= r / static_cast<double>(i);
        sum += term;
    }
    // ldexpExact's 2^k: the biased exponent k + 1023 sits in the low
    // bits of k + (kRoundMagic + 1023); shift it into the exponent
    // field.
    const Bits4 biased =
        __builtin_bit_cast(Bits4, k + (kRoundMagic + 1023.0));
    out = sum * __builtin_bit_cast(Double4, biased << 52);
}

void
detPow4(const Double4 &x, const Double4 &y, Double4 &out)
{
    // detPow's y == 0 or x == 1 (x - 1 is zero only at x == 1); read
    // before `out`, which may alias an input, is written.
    Bits4 yZero, xOne;
    zeroLanes(y, yZero);
    zeroLanes(x - 1.0, xOne);
    Double4 l;
    detLog4(x, l);
    detExp4(y * l, out);
    const Double4 one = {1.0, 1.0, 1.0, 1.0};
    blend(yZero | xOne, one, out, out);
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
    if (!drawsOneUniform())
        return;
    // Four terms at a time, summed in index order.
    const Double4 thetas = {theta_, theta_, theta_, theta_};
    Double4 x = {1.0, 2.0, 3.0, 4.0};
    int64_t i = 1;
    for (; i + 3 <= n_; i += 4, x += 4.0) {
        Double4 p;
        detPow4(x, thetas, p);
        const Double4 inv = 1.0 / p;
        for (int j = 0; j < 4; ++j)
            zetan_ += inv[j];
    }
    for (; i <= n_; ++i)
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
    if (!drawsOneUniform())
        return static_cast<int64_t>(
            rng.below(static_cast<uint64_t>(n_)));
    // Gray et al.'s rejection-free inverse: one uniform per sample.
    return rank(rng.uniform());
}

int64_t
ZipfGenerator::rank(double u) const
{
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + zetaHalf_)
        return 1;
    return tailRank(detPow(eta_ * u - eta_ + 1.0, alpha_));
}

void
ZipfGenerator::rank4(const Double4 &u, int64_t (&out)[4]) const
{
    // Lanes that land on rank 0 or 1 never reach detPow in rank(); they
    // feed it 1.0 instead of their base, which may lie outside its
    // domain.
    const Double4 one = {1.0, 1.0, 1.0, 1.0};
    const Double4 alpha = {alpha_, alpha_, alpha_, alpha_};
    const Double4 uz = u * zetan_;
    Bits4 hot;
    negativeLanes(uz - (1.0 + zetaHalf_), hot);
    Double4 base;
    blend(hot, one, eta_ * u - eta_ + 1.0, base);
    Double4 pow;
    detPow4(base, alpha, pow);
    for (int i = 0; i < 4; ++i) {
        const int64_t tail = tailRank(pow[i]);
        out[i] = hot[i] ? int64_t{uz[i] >= 1.0} : tail;
    }
}

int64_t
ZipfGenerator::tailRank(double pow) const
{
    const int64_t k =
        static_cast<int64_t>(static_cast<double>(n_) * pow);
    if (k < 0)
        return 0;
    return k >= n_ ? n_ - 1 : k;
}

// --- Stream generation ----------------------------------------------

void
ZipfGenerator::skip(Rng &rng) const
{
    if (!drawsOneUniform())
        rng.below(static_cast<uint64_t>(n_));
    else
        rng.next();
}

namespace {

/**
 * generateRequests(cfg), with `lead` cells of other work run first in
 * the fill sweep of its first batch, so they share its workers, and
 * each chunk of the finished stream handed to sink(chunk, n) in stream
 * order -- serially, and only once every lead cell has run.
 */
template <typename Lead, typename Sink>
std::vector<Request>
generate(const TrafficConfig &cfg, size_t lead, Lead runLead, Sink sink)
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
    // batch is one sweep. Producer cell 0 skips the Rng over those
    // draws, publishing its state at every chunk start as it gets
    // there; producer cell 1 sizes the stream. The lead cells come
    // next, then one cell per chunk, which waits for its start and
    // the sized stream and fills its requests (arrival holds the gap).
    // Workers claim cells in index order and producers never wait, so
    // a chunk only ever waits on a cell that is already running. Every
    // field is the expression the one-Rng loop computes, so the stream
    // is identical to it draw for draw.
    Rng rng(cfg.seed);
    const ZipfGenerator zipf(cfg.keySpace, cfg.zipfSkew);
    const uint64_t keySpace = static_cast<uint64_t>(cfg.keySpace);
    const uint64_t shards = static_cast<uint64_t>(cfg.shards);
    auto place = [&](Request &r, uint64_t rank, bool isGet) {
        // Scramble the popularity rank so hot keys spread over the key
        // space (and thus over shards) instead of clustering at 0.
        r.key = static_cast<uint32_t>(mix64(rank) % keySpace);
        r.shard = static_cast<uint16_t>(mix64(r.key) % shards);
        r.isGet = isGet;
        r.decile = static_cast<uint8_t>(rank * 10 / keySpace);
    };
    constexpr size_t kProducers = 2;
    // The drain's state: `draining` guards the running arrival `t`,
    // `end` and the sink's calls.
    std::mutex draining;
    double t = 0.0;
    std::atomic<bool> cut{false};
    size_t end = 0; ///< stream length once `cut`
    for (;;) {
        // Size for the Poisson count of the rest of the run at mean +
        // 8 sigma; in the rare run where that is short, the drain runs
        // off the end and the loop sizes another batch.
        const double mean = rate * (cfg.durationSeconds - t);
        const size_t batch =
            static_cast<size_t>(mean + 8.0 * std::sqrt(mean)) + 1;
        const size_t first = out.size();
        const size_t chunks = (batch + kRequestChunk - 1) / kRequestChunk;
        std::vector<Rng> starts(chunks);
        std::atomic<size_t> published{0};
        std::atomic<bool> sized{false};
        std::vector<std::atomic<bool>> filled(chunks);
        std::atomic<size_t> leadLeft{lead};
        std::atomic<size_t> nextServe{0};

        // The drain: the one cell that wins the try-lock takes each
        // consecutive filled chunk, prefix-sums its gaps into arrivals,
        // stops at the first arrival >= duration and hands the chunk to
        // the sink. No cell ever waits for the lock. A cell that loses
        // it leaves its chunk to the holder, which looks again after
        // unlocking; a chunk that still slips past is served by the
        // caller's drain after the sweep. Everything the re-check reads
        // is atomic.
        auto ready = [&] {
            const size_t c = nextServe.load();
            return !cut.load() && leadLeft.load() == 0 && c < chunks &&
                   filled[c].load();
        };
        auto serve = [&](size_t c) {
            const size_t lo = first + c * kRequestChunk;
            const size_t hi = std::min(lo + kRequestChunk, first + batch);
            size_t i = lo;
            for (; i < hi; ++i) {
                t += out[i].arrival;
                if (t >= cfg.durationSeconds)
                    break;
                out[i].arrival = t;
            }
            if (i > lo)
                sink(&out[lo], i - lo);
            if (i < hi) {
                end = i;
                cut.store(true);
            }
        };
        auto drain = [&] {
            while (ready()) {
                // The sink runs under the lock: that is what keeps its
                // calls serial and in stream order.
                std::unique_lock lock(draining, std::try_to_lock);
                if (!lock.owns_lock())
                    return;
                while (ready()) {
                    serve(nextServe.load());
                    nextServe.fetch_add(1);
                }
            }
        };

        exp::runSweep(kProducers + lead + chunks, [&](size_t cell) {
            if (cell == 0) {
                for (size_t c = 0; c < chunks; ++c) {
                    starts[c] = rng;
                    published.store(c + 1);
                    published.notify_all();
                    const size_t n =
                        std::min(kRequestChunk, batch - c * kRequestChunk);
                    for (size_t i = 0; i < n; ++i) {
                        rng.next();
                        zipf.skip(rng);
                        rng.next();
                    }
                }
                return 0;
            }
            if (cell == 1) {
                out.resize(first + batch);
                sized.store(true);
                sized.notify_all();
                return 0;
            }
            if (cell < kProducers + lead) {
                runLead(cell - kProducers);
                leadLeft.fetch_sub(1);
                drain();
                return 0;
            }
            const size_t c = cell - kProducers - lead;
            for (size_t p; (p = published.load()) <= c;)
                published.wait(p);
            sized.wait(false);

            Rng local = starts[c];
            size_t i = first + c * kRequestChunk;
            const size_t hi = std::min(i + kRequestChunk, first + batch);
            if (zipf.drawsOneUniform()) {
                // Four requests at a time: their 12 uniforms in the
                // one-Rng order, then the samplers four lanes wide.
                for (; i + 4 <= hi; i += 4) {
                    Double4 arrival, rankU;
                    bool isGet[4];
                    for (int j = 0; j < 4; ++j) {
                        arrival[j] = local.uniform();
                        rankU[j] = local.uniform();
                        isGet[j] = local.uniform() < cfg.getFraction;
                    }
                    Double4 logs;
                    detLog4(1.0 - arrival, logs);
                    arrival = -logs / rate;
                    int64_t ranks[4];
                    zipf.rank4(rankU, ranks);
                    for (int j = 0; j < 4; ++j) {
                        out[i + j].arrival = arrival[j];
                        place(out[i + j], static_cast<uint64_t>(ranks[j]),
                              isGet[j]);
                    }
                }
            }
            for (; i < hi; ++i) {
                Request &r = out[i];
                // Poisson arrivals: exponential inter-arrival by
                // inverse CDF.
                r.arrival = -detLog(1.0 - local.uniform()) / rate;
                const uint64_t rank =
                    static_cast<uint64_t>(zipf.sample(local));
                place(r, rank, local.uniform() < cfg.getFraction);
            }
            filled[c].store(true);
            drain();
            return 0;
        });
        lead = 0;

        drain();
        if (cut.load()) {
            out.resize(end);
            return out;
        }
    }
}

} // namespace

std::vector<Request>
generateRequests(const TrafficConfig &cfg)
{
    return generate(cfg, 0, [](size_t) {}, [](const Request *, size_t) {});
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
                                     std::vector<Request> &reqs,
                                     const ChunkSink &sink)
{
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
    auto profile = [&] {
        ServingProfile p = synthetic();
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
        // Losing the node costs roughly an order of magnitude more than
        // a planned move: failure detection, directory reconstruction,
        // and journal replay on the survivor (hDSM crash recovery).
        p.failoverSeconds = p.migrateSeconds * 10.0;
        return p;
    };
    auto measure = [&](size_t c) {
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
    };
    // The drain calls this only after every calibration cell has run.
    std::optional<ServingProfile> calibrated;
    auto forward = [&](const Request *chunk, size_t n) {
        if (!sink)
            return;
        if (!calibrated)
            calibrated = profile();
        sink(*calibrated, chunk, n);
    };
    reqs = generate(cfg, secs.size(), measure, forward);
    return calibrated ? *calibrated : profile();
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
    begin();
    feed(reqs.data(), reqs.size());
    return finish();
}

void
ServingSim::begin()
{
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
    shards_.assign(static_cast<size_t>(shards), Shard{});
    for (int s = 0; s < shards; ++s)
        shards_[s].node = cfg_.placement[s];
    for (const ShardMigration &m : cfg_.migrations) {
        if (m.shard < 0 || m.shard >= shards || m.node < 0 ||
            m.node >= numNodes)
            panic("ServingSim: bad migration shard=%d node=%d",
                  m.shard, m.node);
        shards_[m.shard].events.push_back({m.time, false, m.node, 0});
    }
    firstCrash_ = -1.0;
    for (const NodeCrash &c : cfg_.crashes) {
        if (c.node < 0 || c.node >= numNodes)
            panic("ServingSim: crash references node %d", c.node);
        if (firstCrash_ < 0.0 || c.time < firstCrash_)
            firstCrash_ = c.time;
        for (Shard &sh : shards_)
            sh.events.push_back({c.time, true, c.node, c.downSeconds});
    }
    for (Shard &sh : shards_)
        std::stable_sort(sh.events.begin(), sh.events.end(),
                         [](const Event &a, const Event &b) {
                             if (a.time != b.time)
                                 return a.time < b.time;
                             if (a.isCrash != b.isCrash)
                                 return a.isCrash; // crashes first
                             return a.node < b.node;
                         });

    fed_ = 0;
    violationAt_.clear();
    res_ = ServingResult{};
    res_.servedByNode.assign(cfg_.nodes.size(), 0);
    res_.servedByNodeAfterCrash.assign(cfg_.nodes.size(), 0);
}

void
ServingSim::feed(const Request *reqs, size_t n)
{
    const int shards = static_cast<int>(shards_.size());
    const int numNodes = static_cast<int>(cfg_.nodes.size());
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
    ServingResult &res = res_;
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

    // Each shard reaches its requests in its own order, so it evolves
    // exactly as if simulated alone, and every request is accounted for
    // as it completes, in one fixed sequence.
    for (size_t k = 0; k < n; ++k) {
        const size_t i = fed_ + k;
        const Request &r = reqs[k];
        if (r.shard >= shards)
            panic("ServingSim: request %zu names shard %d of %d", i,
                  static_cast<int>(r.shard), shards);
        Shard &sh = shards_[r.shard];
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
            violationAt_.push_back(i);
            if (shedding > 0)
                ++res.violationsDegraded;
        }
        ++res.servedByNode[sh.node];
        if (firstCrash_ >= 0.0 && done > firstCrash_)
            ++res.servedByNodeAfterCrash[sh.node];
    }
    fed_ += n;
}

ServingResult
ServingSim::finish()
{
    ServingResult res = std::move(res_);
    const size_t n = fed_;
    res.requests = n;
    res.sloViolations = violationAt_.size();
    // Tenth d of the stream ends where tenth d + 1 starts, at
    // ceil((d + 1) * n / 10); an empty tenth (n < 10) repeats the
    // count before it.
    auto v = violationAt_.begin();
    for (size_t d = 0; d < res.violationsByDecile.size(); ++d) {
        const size_t end = ((d + 1) * n + 9) / 10;
        while (v != violationAt_.end() && *v < end)
            ++v;
        res.violationsByDecile[d] =
            static_cast<uint64_t>(v - violationAt_.begin());
    }
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
