/**
 * @file
 * Open-loop traffic generation and serving simulation for the REDIS
 * scenario (ROADMAP item 2): the paper's heterogeneous-ISA story told
 * in SLO terms instead of makespan.
 *
 * The generator produces one seeded request stream -- Poisson
 * inter-arrivals, Zipf key popularity, a configurable GET/SET mix --
 * and shards it across REDIS kernel instances by key hash. ServingSim
 * then replays the stream against a node placement: each shard is a
 * single-server FIFO queue whose per-request service cost comes from a
 * ServingProfile calibrated by executing the real REDIS workload
 * through the interpreter on each ISA, and whose live-migration pause
 * is measured from a real cross-ISA ReplicatedOS migration of that
 * binary. Shards can be live-migrated between nodes mid-traffic and
 * nodes can crash (shards fail over to the lowest-index survivor), so
 * tail latency under "migrate under load" can be compared against a
 * static placement.
 *
 * Determinism is the contract. The stream is the one a sequential
 * loop over one Rng draws. One runSweep builds it: producer cell 0
 * advances the Rng over each request's draws and publishes its state
 * at fixed chunk starts, producer cell 1 sizes the stream, and each
 * chunk cell waits for both, then computes its requests from that
 * state four at a time with the four-lane samplers below. Inside the
 * same sweep a drain takes the filled chunks in stream order:
 * whichever cell wins a try-lock prefix-sums each ready chunk's
 * inter-arrival gaps, cuts the stream at the duration and hands the
 * chunk to an optional sink; the caller drains what is left after
 * the sweep.
 * ServingSim walks the stream once, serially, in arrival order --
 * whole, or chunk by chunk as the drain hands it over: each request
 * advances only its own shard's state and is accounted for --
 * histogram fill, SLO counters -- as it completes. Same seed
 * therefore means byte-identical stats output regardless of
 * XISA_BENCH_THREADS. The few transcendentals involved (exp/log/pow
 * for the samplers) are implemented here from IEEE-exact primitives
 * instead of libm, so the bytes also hold across platforms and libm
 * versions.
 */

#ifndef XISA_TRAFFIC_TRAFFIC_HH
#define XISA_TRAFFIC_TRAFFIC_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "machine/node.hh"
#include "obs/registry.hh"
#include "util/rng.hh"

namespace xisa::traffic {

/** Natural log from IEEE-exact primitives (frexp + atanh series);
 *  bit-reproducible across platforms, ~1e-14 relative error. x > 0. */
double detLog(double x);
/** exp(x), same contract as detLog. */
double detExp(double x);
/** x^y for x > 0, via detExp(y * detLog(x)). */
double detPow(double x, double y);

/**
 * Four doubles in one GCC vector. At the x86-64 baseline (SSE2) a
 * value spans two xmm registers, and each lane operation is the IEEE
 * operation the scalar code performs. Always passed by reference: a
 * 32-byte vector passed by value changes ABI with AVX (-Wpsabi).
 */
typedef double Double4 __attribute__((vector_size(32)));

/** detLog of each lane, bit-equal to the scalar function. A group
 *  with any lane outside frexpExact's exponent-field path takes the
 *  scalar function for all four. */
void detLog4(const Double4 &x, Double4 &out);
/** detExp of each lane, bit-equal; a group with any lane whose 2^k
 *  falls outside ldexpExact's bit path takes the scalar function. */
void detExp4(const Double4 &x, Double4 &out);
/** detPow of each lane, bit-equal. */
void detPow4(const Double4 &x, const Double4 &y, Double4 &out);

/** SplitMix64 finalizer: the keyed hash for sharding and per-key
 *  service-cost spread. */
uint64_t mix64(uint64_t x);

/** Knobs of the open-loop generator ([traffic] in a serving conf). */
struct TrafficConfig {
    uint64_t seed = 42;
    /** Simulated client population; the aggregate arrival process is
     *  Poisson at clients * requestHz (open loop: arrivals never wait
     *  for completions). */
    int64_t clients = 200000;
    double requestHz = 0.5; ///< per-client request rate, Hz
    double durationSeconds = 2.0;
    double zipfSkew = 0.99; ///< YCSB theta; 0 = uniform keys
    int64_t keySpace = 65536;
    double getFraction = 0.9; ///< rest are SETs
    int shards = 8;           ///< REDIS kernel instances

    double totalRate() const
    {
        return static_cast<double>(clients) * requestHz;
    }
};

/** One generated request. */
struct Request {
    double arrival = 0;  ///< sim-clock seconds
    uint32_t key = 0;    ///< scrambled key in [0, keySpace)
    uint16_t shard = 0;  ///< mix64(key) % shards
    bool isGet = true;
    /** Popularity decile of the key's Zipf rank: 0 = hottest tenth of
     *  the key space, 9 = coldest. Brownout shedding drops the
     *  coldest deciles first. */
    uint8_t decile = 0;
};

/**
 * YCSB-style Zipf(theta) sampler over ranks [0, n): rank 0 is the
 * hottest. theta in [0, 1); theta = 0 degenerates to uniform.
 */
class ZipfGenerator
{
  public:
    ZipfGenerator(int64_t n, double theta);
    int64_t sample(Rng &rng) const;
    /** Advance `rng` exactly as sample() does, without computing the
     *  rank. */
    void skip(Rng &rng) const;

    /** True when sample() draws exactly one Rng::uniform(); otherwise
     *  (theta = 0 or n = 1) it draws Rng::below(n), a variable count. */
    bool drawsOneUniform() const { return !(theta_ <= 0.0 || n_ <= 1); }
    /** The rank sample() returns when its uniform is `u`
     *  (drawsOneUniform() only). */
    int64_t rank(double u) const;
    /** rank() of four uniforms at once, bit-equal. */
    void rank4(const Double4 &u, int64_t (&out)[4]) const;

  private:
    /** Rank of a uniform past the two hottest ranks, from its detPow
     *  term. */
    int64_t tailRank(double pow) const;

    int64_t n_ = 1;
    double theta_ = 0;
    double alpha_ = 0, zetan_ = 0, eta_ = 0, zetaHalf_ = 0;
};

/** Requests per parallel fill cell of generateRequests (a constant of
 *  the algorithm, not a knob: the stream never depends on it). */
inline constexpr size_t kRequestChunk = 16384;

/** Generate the full request stream, sorted by arrival time. The
 *  result is the same for every XISA_BENCH_THREADS. */
std::vector<Request> generateRequests(const TrafficConfig &cfg);

/**
 * Per-ISA service costs of one REDIS request plus the disruption costs
 * of moving or losing a shard. calibrate() measures them by running
 * the real workload through the full stack; synthetic() returns fixed
 * numbers with the same shape for fast unit tests.
 */
struct ServingProfile {
    /** Seconds to serve one GET/SET, indexed by IsaId. */
    std::array<double, kNumIsas> getSeconds{};
    std::array<double, kNumIsas> setSeconds{};
    /** Pause a shard sees while live-migrating between ISAs. */
    double migrateSeconds = 0;
    /** Outage from losing a shard's node: failure detection, directory
     *  reconstruction and journal replay on the survivor (PR 5). */
    double failoverSeconds = 0;
    /** Peak extra service cost right after a move (cold pages/caches
     *  paged in on demand by the hDSM), decaying linearly to zero over
     *  coldRequests requests. */
    double coldFactor = 1.0;
    int coldRequests = 256;

    /**
     * Execute REDIS class A through the interpreter on each ISA for
     * the per-op costs, and measure migrateSeconds from a real
     * cross-ISA ReplicatedOS live migration of that binary. The three
     * runs are the cells of one runSweep. Deterministic (pure
     * simulation); one-time cost of a few interpreter runs.
     */
    static ServingProfile calibrate();
    /** Receives the stream chunk by chunk: the calibrated profile and
     *  `n` requests with their final arrivals. */
    using ChunkSink = std::function<void(const ServingProfile &,
                                         const Request *, size_t n)>;

    /** calibrate() and generateRequests(cfg) (into `reqs`) in one
     *  runSweep: the three calibration cells follow the generator's
     *  two producer cells, and the fill chunks take up the workers
     *  they leave idle. Same results as the two calls. Once all three
     *  calibration cells are done, `sink` (if set) is called with each
     *  chunk of the stream as the sweep completes it: serially, in
     *  stream order, possibly on a sweep worker; the chunks together
     *  are `reqs`. */
    static ServingProfile calibrateAndGenerate(const TrafficConfig &cfg,
                                               std::vector<Request> &reqs,
                                               const ChunkSink &sink = {});
    /** Fixed plausible values (Xeno ~25 us GET, Aether ~3x); for unit
     *  tests that should not pay for calibration. */
    static ServingProfile synthetic();
};

/** Scripted live migration of one shard. */
struct ShardMigration {
    int shard = 0;
    double time = 0; ///< sim-clock seconds
    int node = 0;    ///< destination
};

/** Scripted node crash. */
struct NodeCrash {
    int node = 0;
    double time = 0;
    double downSeconds = 30.0;
};

/**
 * One brownout window: degraded-mode serving while a failure domain
 * is out. Inside [start, end) every shard sheds requests for the
 * coldest `shedDeciles` tenths of the key popularity distribution
 * (lowest-decile keys first: a dropped cold GET costs one client a
 * miss; a queue full of cold keys costs every hot key its SLO).
 * Shed requests complete instantly with no service, are counted in
 * ServingResult::shed, and never count as SLO violations; violations
 * of requests that do run inside a window are additionally tagged in
 * violationsDegraded so degraded-mode SLO attainment is accounted
 * separately from steady-state.
 */
struct BrownoutWindow {
    double start = 0;
    double end = 0;
    /** Coldest popularity deciles to shed, 1..10. */
    int shedDeciles = 1;
};

/** A serving scenario: nodes, placement, and the event schedule. */
struct ServingConfig {
    std::vector<NodeSpec> nodes;
    /** shard -> node index; size must equal the stream's shard count. */
    std::vector<int> placement;
    /** node -> rack index (failure-domain map). Empty = rack-blind
     *  legacy failover, byte-identical to before the map existed;
     *  otherwise size must equal nodes.size() and crash failover
     *  prefers a survivor OUTSIDE the dead node's rack (the rest of
     *  the domain is usually failing with it). */
    std::vector<int> nodeRack;
    std::vector<ShardMigration> migrations; ///< applied in time order
    std::vector<NodeCrash> crashes;
    /** Degraded-mode windows (typically spanning a domain outage). */
    std::vector<BrownoutWindow> brownouts;
    double sloUs = 1000.0;
};

/** Aggregate outcome of one scenario replay. */
struct ServingResult {
    uint64_t requests = 0, gets = 0, sets = 0;
    uint64_t sloViolations = 0;
    /** Violations among requests that arrived inside a brownout
     *  window (degraded-mode attainment, accounted separately;
     *  included in sloViolations too). */
    uint64_t violationsDegraded = 0;
    /** Requests shed by brownout windows (never SLO violations). */
    uint64_t shed = 0;
    uint64_t migrations = 0, failovers = 0;
    double p50Us = 0, p99Us = 0, p999Us = 0, maxUs = 0;
    /** Cumulative SLO violations after each tenth of the stream (in
     *  arrival order); monotone by construction, pinned by tests. */
    std::array<uint64_t, 10> violationsByDecile{};
    /** Requests served per node, total and after the first crash. */
    std::vector<uint64_t> servedByNode;
    std::vector<uint64_t> servedByNodeAfterCrash;
};

/**
 * Replays a request stream against a ServingConfig in one ordered pass.
 * A shard is a single-server FIFO that only its own requests and events
 * move, so meeting each shard's requests in arrival order simulates it
 * exactly as if it ran alone. The pass can be fed in pieces: begin(),
 * then feed() each consecutive run of the stream, then finish(); run()
 * is those three calls over the whole stream. Only the per-decile
 * violation counts need the stream's length, so feed() records the
 * index of each violation and finish() counts them per tenth. Stats
 * register on `reg` under `prefix` (e.g. "serving.static"). Under
 * XISA_AUDIT=1 the pass also checks that no shard clock runs
 * backwards, that every latency covers its service time, and that
 * served + shed and the per-node counts add up.
 */
class ServingSim
{
  public:
    ServingSim(ServingConfig cfg, ServingProfile prof,
               obs::StatRegistry &reg, const std::string &prefix);

    ServingResult run(const std::vector<Request> &reqs);

    /** Validate the config and reset the pass to the stream's start. */
    void begin();
    /** Serve the next `n` requests of the stream, in arrival order. */
    void feed(const Request *reqs, size_t n);
    /** End the pass: fill in the per-decile and latency results and add
     *  the counts to the registered stats. */
    ServingResult finish();

    const ServingConfig &config() const { return cfg_; }

  private:
    /** A migration or crash in one shard's schedule. */
    struct Event {
        double time = 0;
        bool isCrash = false;
        int node = 0;    ///< migration destination / crashed node
        double down = 0; ///< crash only
    };
    struct Shard {
        int node = 0;
        double clock = 0.0;
        int coldLeft = 0;
        std::vector<Event> events;
        size_t next = 0; ///< first event not yet applied
    };

    ServingConfig cfg_;
    ServingProfile prof_;
    /** XISA_AUDIT: per-request and end-of-run bookkeeping checks. */
    bool auditing_ = false;
    /** State of the pass in progress. */
    std::vector<Shard> shards_;
    double firstCrash_ = -1.0;
    size_t fed_ = 0; ///< requests served so far
    /** Stream index of every SLO violation, ascending. */
    std::vector<size_t> violationAt_;
    ServingResult res_;
    obs::Counter requests_, gets_, sets_;
    obs::Counter sloViolations_, migrations_, failovers_;
    /** Attached only when brownout windows are configured, so a
     *  window-free scenario's stats output stays byte-identical. */
    obs::Counter shed_, violationsDegraded_;
    obs::Histogram latencyUs_;
    std::vector<obs::Counter> nodeServed_;
};

} // namespace xisa::traffic

#endif // XISA_TRAFFIC_TRAFFIC_HH
