/**
 * @file
 * The benchmark's traced pass and process launcher. perfbench/run.py
 * runs it; it can also be run by hand from a built benchmark tree:
 *
 *     xisa_tracepass setup CONF
 *     xisa_tracepass pass CONF PROBE_DIR SPANS_OUT off-on|on-off
 *     xisa_tracepass measure OUT PROGRAM ARGS...
 *
 * `measure` runs PROGRAM as a child and writes its wall time, peak RSS
 * and exit status to OUT as JSON. Peak RSS is why it exists: a process
 * forked from the Python harness would count the harness's own
 * resident pages as its peak, while a child of this small launcher
 * counts only the launcher's few MiB, well below any workload's.
 *
 * `setup` times the one-time preparation `xisa_exp CONF` does before
 * its first simulated event -- conf parse plus calibration or
 * compilation -- by calling the same public functions, spans off.
 *
 * `pass` makes the calls the runner makes for CONF, in the runner's
 * order, twice: once with spans off (the untraced wall) and once with
 * a span around every call into a layer (name, layer, start, end,
 * parent span, run id), in the order the last argument names. Then it runs the fixed layer probe: small
 * confs from PROBE_DIR through the same code, plus the replay of each
 * calibration the runner did not make, so every layer is measured on
 * every workload. Spans stay in memory and are written to SPANS_OUT
 * (Chrome trace format) when the pass ends. Finally it checks every
 * serial module it compiled against the reference IR interpreter, on
 * both ISAs, untimed. Results go to stdout as one JSON object.
 *
 * JobProfileTable::calibrate() and ServingProfile::calibrate() are
 * opaque, so the pass replays their bodies from the same public calls
 * (buildWorkload, compileModule, ReplicatedOS load/run, migrateProcess)
 * to see inside them, and checks the replay against the real result.
 */

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "compiler/compile.hh"
#include "exp/runner.hh"
#include "exp/sweep.hh"
#include "ir/interp.hh"
#include "machine/interp_threaded.hh"
#include "sched/jobsets.hh"
#include "sched/profile.hh"
#include "traffic/traffic.hh"

using namespace xisa;
using namespace xisa::exp;

namespace {

double
hostNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- spans ----------------------------------------------------------

struct Span {
    int id = 0;
    int parent = -1;
    const char *layer = "";
    const char *name = "";
    double t0 = 0, t1 = 0;
    int run = 0;
    int thread = 0; ///< recording thread, in order of first span
};

/** In-memory span log; recording is off unless `enabled`. */
struct SpanLog {
    bool enabled = false;
    int run = 0;
    std::mutex mu;
    std::vector<Span> spans;
};

SpanLog gLog;
/** Innermost open span on this thread (-1 = none). */
thread_local int tCurrent = -1;
thread_local int tThread = -1;
int gThreads = 0; ///< guarded by gLog.mu

/**
 * One span around a call into a layer. `parent` defaults to the
 * innermost open span on this thread; sweep workers pass the sweep's
 * span explicitly, since they start with no span open.
 */
class Scope
{
  public:
    Scope(const char *layer, const char *name, int parent = -2)
    {
        if (!gLog.enabled)
            return;
        Span s;
        s.layer = layer;
        s.name = name;
        s.parent = parent == -2 ? tCurrent : parent;
        s.run = gLog.run;
        s.t0 = hostNow();
        std::lock_guard<std::mutex> lock(gLog.mu);
        if (tThread < 0)
            tThread = gThreads++;
        s.thread = tThread;
        id_ = s.id = static_cast<int>(gLog.spans.size());
        gLog.spans.push_back(s);
        saved_ = tCurrent;
        tCurrent = id_;
    }
    ~Scope()
    {
        if (id_ < 0)
            return;
        const double t1 = hostNow();
        tCurrent = saved_;
        std::lock_guard<std::mutex> lock(gLog.mu);
        gLog.spans[id_].t1 = t1;
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    int id_ = -1;
    int saved_ = -1;
};

/** Span duration minus the part of it that its children cover. */
std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[s.parent].push_back({s.t0, s.t1});
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::vector<std::pair<double, double>> &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0, end = s.t0;
        for (auto [a, b] : iv) {
            a = std::max(a, end);
            b = std::min(b, s.t1);
            if (b > a) {
                covered += b - a;
                end = b;
            }
        }
        self[i] = (s.t1 - s.t0) - covered;
    }
    return self;
}

void
writeChromeTrace(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream out(path);
    out << "{\"traceEvents\": [\n";
    const double base = spans.empty() ? 0 : spans.front().t0;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char line[512];
        std::snprintf(line, sizeof line,
                      "  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                      "\"X\", \"pid\": %d, \"tid\": %d, \"ts\": %.3f, "
                      "\"dur\": %.3f, \"args\": {\"id\": %d, "
                      "\"parent\": %d}}%s\n",
                      s.name, s.layer, s.run, s.thread,
                      (s.t0 - base) * 1e6,
                      (s.t1 - s.t0) * 1e6, s.id, s.parent,
                      i + 1 < spans.size() ? "," : "");
        out << line;
    }
    out << "]}\n";
}

// --- counts gathered alongside the spans ----------------------------

struct Tally {
    uint64_t modules = 0, textBytes = 0;
    uint64_t hotInstrs = 0, coldInstrs = 0, guestInstrs = 0;
    double coldSeconds = 0;
    double cellHostSeconds = 0, cellMaxSeconds = 0;
    double sweepThreadSeconds = 0;
    uint64_t schedEvents = 0, requests = 0;
    uint64_t migrations = 0, dsmPages = 0, netMessages = 0;
};

Tally gTally;

/** Outcome of the untimed checks that follow the pass. */
struct Checks {
    int attempted = 0;
    int failed = 0;
    std::vector<std::string> messages;

    void expect(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            messages.push_back(what);
        }
    }
};

/** A serial module and the output each ISA printed for it. */
struct Observed {
    std::string name;
    MultiIsaBinary bin;
    std::vector<std::vector<std::string>> outputs;
};
std::vector<Observed> gObserved;

MultiIsaBinary
compileCounted(Module mod, const CompileOptions &opts = {})
{
    Scope s("compiler", "compileModule");
    MultiIsaBinary bin = compileModule(std::move(mod), opts);
    ++gTally.modules;
    for (const auto &perIsa : bin.image)
        for (const FuncImage &f : perIsa)
            gTally.textBytes += f.codeBytes();
    return bin;
}

OsRunResult
runContainer(const MultiIsaBinary &bin, const NodeSpec &node)
{
    Scope s("machine", "ReplicatedOS::run");
    OsConfig cfg;
    cfg.nodes = {node};
    ReplicatedOS os(bin, cfg);
    os.load(0);
    OsRunResult r = os.run();
    gTally.guestInstrs += r.totalInstrs;
    return r;
}

// --- calibration replays ----------------------------------------------

/** Makespan per (workload, ISA) of the JobProfileTable replay. */
using CalibrationTimes = std::map<WorkloadId, std::array<double, kNumIsas>>;

/** JobProfileTable::calibrate(), call for call. */
CalibrationTimes
replayJobCalibration()
{
    Scope s("sched.profile", "JobProfileTable::calibrate");
    CalibrationTimes times;
    for (WorkloadId wl : allWorkloads()) {
        Module mod;
        {
            Scope b("workload", "buildWorkload");
            mod = buildWorkload(wl, ProblemClass::A, 1);
        }
        Observed seen{workloadName(wl), compileCounted(std::move(mod)),
                      {}};
        for (const NodeSpec &node : {makeXenoServer(), makeAetherServer()}) {
            const double c0 = hostNow();
            OsRunResult r = runContainer(seen.bin, node);
            gTally.coldSeconds += hostNow() - c0;
            gTally.coldInstrs += r.totalInstrs;
            times[wl][static_cast<size_t>(node.isa)] = r.makespanSeconds;
            seen.outputs.push_back(r.output);
        }
        gObserved.push_back(std::move(seen));
    }
    return times;
}

/** What the ServingProfile replay measured. */
struct ServingCalibration {
    std::array<double, kNumIsas> makespan{};
    double pause = 0;
};

/** ServingProfile::calibrate(), call for call. */
ServingCalibration
replayServingCalibration()
{
    Scope s("traffic.profile", "ServingProfile::calibrate");
    ServingCalibration cal;
    Module mod;
    {
        Scope b("workload", "buildWorkload");
        mod = buildWorkload(WorkloadId::REDIS, ProblemClass::A);
    }
    Observed seen{"redis", compileCounted(std::move(mod)), {}};
    for (const NodeSpec &node : {makeXenoServer(), makeAetherServer()}) {
        Scope r("machine", "runSingleNode");
        OsRunResult res = runSingleNode(seen.bin, node);
        gTally.guestInstrs += res.totalInstrs;
        cal.makespan[static_cast<size_t>(node.isa)] = res.makespanSeconds;
        seen.outputs.push_back(res.output);
    }

    // The live xeno -> aether migration of the serving binary.
    Scope run("machine", "ReplicatedOS::run");
    ReplicatedOS os(seen.bin, OsConfig::dualServer());
    os.load(0);
    bool fired = false;
    os.onQuantum = [&](ReplicatedOS &self) {
        if (fired || self.totalInstrs() < 100000)
            return;
        fired = true;
        Scope m("migration", "ReplicatedOS::migrateProcess");
        self.migrateProcess(1);
    };
    OsRunResult res = os.run();
    gTally.guestInstrs += res.totalInstrs;
    for (const MigrationEvent &ev : os.migrations())
        cal.pause += ev.resumeTime - ev.trapTime;
    const obs::StatRegistry &reg = os.statRegistry();
    gTally.migrations += reg.counterValue("os.migrations");
    gTally.dsmPages += reg.counterValue("dsm.page_transfers");
    gTally.netMessages += reg.counterValue("net.messages");
    gObserved.push_back(std::move(seen));
    return cal;
}

// --- the runner's paths, call for call ---------------------------------

/** kind = overhead: compile every unique module, then the cell sweep. */
void
overheadPath(const ExperimentSpec &spec)
{
    WorkloadRegistry reg = makeRegistry(spec);
    std::vector<WorkloadRegistry::Resolved> resolved;
    for (const std::string &ref : spec.workloads)
        resolved.push_back(reg.resolve(ref));
    std::vector<NodeSpec> nodes;
    for (const std::string &isa : spec.isas)
        nodes.push_back(spec.cluster.makeNode(isa));

    struct Cell {
        size_t ref;
        NodeSpec node;
        ProblemClass cls;
        int nthreads;
    };
    std::vector<Cell> cells;
    for (size_t ri = 0; ri < resolved.size(); ++ri)
        for (const NodeSpec &node : nodes)
            for (ProblemClass cls : spec.activeClasses(false))
                for (int t : spec.activeThreads(false))
                    cells.push_back({ri, node, cls, t});

    struct Compiled {
        MultiIsaBinary base, inst;
        std::shared_ptr<ExecCache> baseCache =
            std::make_shared<ExecCache>();
        std::shared_ptr<ExecCache> instCache =
            std::make_shared<ExecCache>();
    };
    std::vector<std::unique_ptr<Compiled>> compiled;
    std::vector<size_t> cellBin(cells.size());
    std::map<std::tuple<size_t, int, int>, size_t> seen;
    for (size_t k = 0; k < cells.size(); ++k) {
        const Cell &c = cells[k];
        auto [it, fresh] = seen.emplace(
            std::make_tuple(c.ref, static_cast<int>(c.cls), c.nthreads),
            compiled.size());
        if (fresh) {
            ParameterSet params = resolved[c.ref].params;
            params.set("class", className(c.cls));
            params.set("nthreads", std::to_string(c.nthreads));
            Module mod;
            {
                Scope b("workload", "makeWorkload");
                mod = resolved[c.ref].provider->makeWorkload(params);
            }
            CompileOptions plain;
            plain.boundaryMigPoints = false;
            auto cc = std::make_unique<Compiled>();
            cc->base = compileCounted(mod, plain);
            cc->inst = compileCounted(mod);
            compiled.push_back(std::move(cc));
        }
        cellBin[k] = it->second;
    }

    struct CellResult {
        uint64_t instrs = 0;
        double hostSeconds = 0;
    };
    const int threads = std::min<int>(sweepThreads(),
                                      static_cast<int>(cells.size()));
    Scope sweep("exp", "runSweep");
    const int sweepSpan = tCurrent;
    const double s0 = hostNow();
    std::vector<CellResult> results =
        runSweep(cells.size(), [&](size_t i) {
            const Compiled &bin = *compiled[cellBin[i]];
            const NodeSpec &node = cells[i].node;
            CellResult r;
            const double c0 = hostNow();
            {
                Scope a("machine", "runSingleNode", sweepSpan);
                r.instrs += runSingleNode(bin.base, node, bin.baseCache)
                                .totalInstrs;
            }
            {
                Scope b("machine", "runSingleNode", sweepSpan);
                r.instrs += runSingleNode(bin.inst, node, bin.instCache)
                                .totalInstrs;
            }
            r.hostSeconds = hostNow() - c0;
            return r;
        });
    gTally.sweepThreadSeconds += (hostNow() - s0) * std::max(threads, 1);
    for (const CellResult &r : results) {
        gTally.hotInstrs += r.instrs;
        gTally.guestInstrs += r.instrs;
        gTally.cellHostSeconds += r.hostSeconds;
        gTally.cellMaxSeconds =
            std::max(gTally.cellMaxSeconds, r.hostSeconds);
    }
}

/** kind = rack: every pool x set through a fresh ClusterSim. */
void
rackPath(const ExperimentSpec &spec, const JobProfileTable &table)
{
    const ClusterSpec &cl = spec.cluster;
    for (const PoolSpec &pool : cl.pools) {
        for (int set = 0; set < spec.activeSets(false); ++set) {
            std::vector<Job> jobs;
            {
                Scope j("sched", "makePeriodicSet");
                jobs = makePeriodicSet(
                    spec.seedBase + static_cast<uint64_t>(set),
                    spec.waves,
                    spec.jobsPerWavePerMachine * spec.poolMachines);
            }
            Scope r("sched", "ClusterSim::run");
            ClusterSim sim(cl.makePool(pool), table, cl.simConfig());
            sim.run(jobs, pool.policy);
            gTally.schedEvents += sim.eventsProcessed();
        }
    }
}

/** kind = serving: generate the stream, then replay each scenario. */
void
servingPath(const ExperimentSpec &spec,
            const traffic::ServingProfile &prof)
{
    const TrafficSpec &t = spec.traffic;
    const double duration = t.activeDuration(false);
    traffic::TrafficConfig tc;
    tc.seed = t.seed;
    tc.clients = t.clients;
    tc.requestHz = t.requestHz;
    tc.durationSeconds = duration;
    tc.zipfSkew = t.zipfSkew;
    tc.keySpace = t.keySpace;
    tc.getFraction = t.getFraction;
    tc.shards = t.shards;

    std::vector<traffic::Request> reqs;
    {
        Scope g("traffic", "generateRequests");
        reqs = traffic::generateRequests(tc);
    }
    traffic::ServingConfig base;
    {
        Scope c("exp", "applyFailures");
        for (const std::string &ref : spec.singleMachineRefs)
            base.nodes.push_back(spec.cluster.makeNode(ref));
        base.placement = t.placement;
        base.sloUs = t.sloUs;
        for (const CrashSpec &cs : spec.cluster.crashPlan)
            base.crashes.push_back({cs.machine, cs.time * duration,
                                    spec.cluster.crashDownSeconds});
        applyFailures(spec, duration, base);
    }
    std::vector<traffic::ServingConfig> scenarios{base};
    if (!t.migratePlan.empty()) {
        traffic::ServingConfig cfg = base;
        for (const ShardMigrationSpec &m : t.migratePlan)
            cfg.migrations.push_back({m.shard, m.time * duration, m.node});
        scenarios.push_back(cfg);
    }
    obs::StatRegistry reg;
    for (size_t k = 0; k < scenarios.size(); ++k) {
        Scope r("traffic", "ServingSim::run");
        traffic::ServingSim sim(scenarios[k], prof, reg,
                                "serving." + std::to_string(k));
        gTally.requests += sim.run(reqs).requests;
    }
}

ExperimentSpec
parseSpec(const std::string &path)
{
    Scope p("exp", "parseExperimentFile");
    return parseExperimentFile(path);
}

/** Everything the pass needs that the runner computes opaquely. */
struct Prepared {
    JobProfileTable table = JobProfileTable::synthetic();
    traffic::ServingProfile prof = traffic::ServingProfile::synthetic();
};

struct PassResult {
    bool jobCalibrated = false;
    bool servingCalibrated = false;
    CalibrationTimes jobTimes;
    ServingCalibration servingCal;
};

/** The runner's calls for `spec`, in the runner's order. */
PassResult
runnerPath(const std::string &conf, const Prepared &prep)
{
    PassResult out;
    const ExperimentSpec spec = parseSpec(conf);
    switch (spec.kind) {
      case ExperimentKind::Overhead:
        overheadPath(spec);
        break;
      case ExperimentKind::Rack:
        out.jobTimes = replayJobCalibration();
        out.jobCalibrated = true;
        rackPath(spec, prep.table);
        break;
      case ExperimentKind::Serving:
        out.servingCal = replayServingCalibration();
        out.servingCalibrated = true;
        servingPath(spec, prep.prof);
        break;
      default:
        throw ConfigError(conf + ": the benchmark drives kinds "
                                 "overhead, rack and serving only");
    }
    return out;
}

/** Fixed layer probe: tiny confs through every path, synthetic
 *  profiles, plus the calibration replays the runner path skipped. */
void
layerProbe(const std::string &dir, PassResult &pass)
{
    overheadPath(parseSpec(dir + "/probe_overhead.conf"));
    rackPath(parseSpec(dir + "/probe_rack.conf"),
             JobProfileTable::synthetic());
    servingPath(parseSpec(dir + "/probe_serving.conf"),
                traffic::ServingProfile::synthetic());
    if (!pass.jobCalibrated)
        replayJobCalibration();
    if (!pass.servingCalibrated)
        replayServingCalibration();
}

double
relDiff(double a, double b)
{
    return std::fabs(a - b) / std::max(std::fabs(b), 1e-300);
}

/** Replays against the real calibrations, modules against the IR. */
Checks
runChecks(const Prepared &prep, const PassResult &pass)
{
    Checks c;
    if (pass.jobCalibrated) {
        for (const auto &[wl, secs] : pass.jobTimes)
            for (IsaId isa : {IsaId::Xeno64, IsaId::Aether64})
                c.expect(secs[static_cast<size_t>(isa)] ==
                             prep.table.baseSeconds(wl, isa),
                         std::string("calibration replay of ") +
                             workloadName(wl) + " on " + isaName(isa) +
                             " differs from JobProfileTable::calibrate");
    }
    if (pass.servingCalibrated) {
        const auto x = static_cast<size_t>(IsaId::Xeno64);
        const auto a = static_cast<size_t>(IsaId::Aether64);
        const ServingCalibration &s = pass.servingCal;
        // Service costs are the makespans times private constants, so
        // compare their ISA ratio; the replayed migration must pause.
        c.expect(relDiff(prep.prof.getSeconds[x] / prep.prof.getSeconds[a],
                         s.makespan[x] / s.makespan[a]) < 1e-9 &&
                     s.pause > 0,
                 "serving calibration replay differs from "
                 "ServingProfile::calibrate");
    }
    for (const Observed &o : gObserved) {
        IRInterp ref(o.bin.ir);
        const IRRunResult want = ref.runEntry();
        for (size_t k = 0; k < o.outputs.size(); ++k)
            c.expect(o.outputs[k] == want.output,
                     o.name + ": output on ISA run " + std::to_string(k) +
                         " differs from IRInterp::runEntry");
    }
    return c;
}

void
printJsonString(const std::string &s)
{
    std::putchar('"');
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            std::putchar('\\');
        std::putchar(ch >= ' ' ? ch : ' ');
    }
    std::putchar('"');
}

int
cmdPass(const std::string &conf, const std::string &probeDir,
        const std::string &spansOut, bool offFirst)
{
    // The runner's opaque calibrations, for the pass to consume and
    // the replays to be checked against; untimed.
    Prepared prep;
    {
        const ExperimentSpec spec = parseExperimentFile(conf);
        if (spec.kind == ExperimentKind::Rack)
            prep.table = JobProfileTable::calibrate();
        if (spec.kind == ExperimentKind::Serving)
            prep.prof = traffic::ServingProfile::calibrate();
    }

    // Spans off: the untraced wall of the same calls, whose counts and
    // outputs are dropped. Passes alternate which of the two runs goes
    // first, so warm-up and host drift do not always favour one side.
    double wallOff = 0;
    auto untraced = [&] {
        const Tally keptTally = gTally;
        std::vector<Observed> keptObserved = std::move(gObserved);
        gObserved.clear();
        const double t0 = hostNow();
        runnerPath(conf, prep);
        wallOff = hostNow() - t0;
        gTally = keptTally;
        gObserved = std::move(keptObserved);
    };
    if (offFirst)
        untraced();

    // Spans on: run 1 is the runner path, run 2 the layer probe.
    gLog.enabled = true;
    gLog.run = 1;
    PassResult pass;
    double wallOn = 0;
    {
        Scope root("bench", "pass");
        const double t0 = hostNow();
        pass = runnerPath(conf, prep);
        wallOn = hostNow() - t0;
    }
    const size_t passSpans = gLog.spans.size();
    gLog.enabled = false;
    if (!offFirst)
        untraced();
    gLog.enabled = true;
    gLog.run = 2;
    {
        Scope root("bench", "probe");
        layerProbe(probeDir, pass);
    }
    gLog.enabled = false;
    writeChromeTrace(spansOut, gLog.spans);

    Checks checks = runChecks(prep, pass);

    // Layer self time over the runner path (run 1) for shares and
    // coverage; per-layer metrics over both runs.
    const std::vector<Span> &spans = gLog.spans;
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> layerSelf;
    for (size_t i = 1; i < passSpans; ++i)
        layerSelf[spans[i].layer] += self[i];
    const double coverage = 1.0 - self[0] / (spans[0].t1 - spans[0].t0);
    checks.expect(coverage >= 0.9,
                  "layer spans cover only " +
                      std::to_string(coverage * 100) +
                      "% of the runner path, below 90%");
    // Inclusive time of the runner path's top-level calls, by name.
    std::map<std::string, double> topCalls;
    for (size_t i = 1; i < passSpans; ++i)
        if (spans[i].parent == 0)
            topCalls[spans[i].name] += spans[i].t1 - spans[i].t0;
    std::map<std::string, double> callSeconds;
    for (const Span &s : spans)
        callSeconds[s.name] += s.t1 - s.t0;
    auto calls = [&](const char *name) { return callSeconds[name]; };
    auto rate = [](double n, double s) { return s > 0 ? n / s : 0.0; };

    const Tally &t = gTally;
    const std::vector<std::pair<const char *, double>> metrics = {
        {"exp.parse_s", calls("parseExperimentFile")},
        {"workload.build_s", calls("makeWorkload") + calls("buildWorkload")},
        {"compiler.compile_s", calls("compileModule")},
        {"compiler.modules", double(t.modules)},
        {"compiler.text_bytes", double(t.textBytes)},
        {"sched.calibrate_s", calls("JobProfileTable::calibrate")},
        {"traffic.calibrate_s", calls("ServingProfile::calibrate")},
        {"machine.hot_mips",
         rate(double(t.hotInstrs), t.cellHostSeconds) / 1e6},
        {"machine.cold_mips", rate(double(t.coldInstrs), t.coldSeconds) / 1e6},
        {"machine.guest_instrs", double(t.guestInstrs)},
        {"sweep.busy_frac", rate(t.cellHostSeconds, t.sweepThreadSeconds)},
        {"sweep.cell_max_s", t.cellMaxSeconds},
        {"sched.run_s", calls("ClusterSim::run")},
        {"sched.events", double(t.schedEvents)},
        {"sched.events_per_s",
         rate(double(t.schedEvents), calls("ClusterSim::run"))},
        {"traffic.generate_s", calls("generateRequests")},
        {"traffic.serve_s", calls("ServingSim::run")},
        {"traffic.requests", double(t.requests)},
        {"traffic.serve_requests_per_s",
         rate(double(t.requests), calls("ServingSim::run"))},
        {"migration.count", double(t.migrations)},
        {"migration.dsm_pages", double(t.dsmPages)},
        {"migration.net_messages", double(t.netMessages)},
        {"trace.overhead_frac", wallOn / wallOff - 1.0},
        {"trace.coverage", coverage},
    };

    std::printf("{\"wall_off_s\": %.9f, \"wall_on_s\": %.9f, "
                "\"coverage\": %.9f, \"layers\": {",
                wallOff, wallOn, coverage);
    bool first = true;
    for (const auto &[layer, secs] : layerSelf) {
        std::printf("%s\"%s\": %.9f", first ? "" : ", ", layer.c_str(),
                    secs);
        first = false;
    }
    std::printf("}, \"calls\": {");
    first = true;
    for (const auto &[name, secs] : topCalls) {
        std::printf("%s\"%s\": %.9f", first ? "" : ", ", name.c_str(),
                    secs);
        first = false;
    }
    std::printf("}, \"metrics\": {");
    first = true;
    for (const auto &[name, value] : metrics) {
        std::printf("%s\"%s\": %.17g", first ? "" : ", ", name, value);
        first = false;
    }
    std::printf("}, \"checks\": {\"attempted\": %d, \"failed\": %d, "
                "\"messages\": [",
                checks.attempted, checks.failed);
    for (size_t i = 0; i < checks.messages.size(); ++i) {
        if (i)
            std::printf(", ");
        printJsonString(checks.messages[i]);
    }
    std::printf("]}}\n");
    return 0;
}

/** Conf parse plus the runner's one-time preparation, spans off. */
int
cmdSetup(const std::string &conf)
{
    const double t0 = hostNow();
    const ExperimentSpec spec = parseExperimentFile(conf);
    switch (spec.kind) {
      case ExperimentKind::Overhead: {
        WorkloadRegistry reg = makeRegistry(spec);
        for (const std::string &ref : spec.workloads) {
            const WorkloadRegistry::Resolved r = reg.resolve(ref);
            for (ProblemClass cls : spec.activeClasses(false)) {
                for (int t : spec.activeThreads(false)) {
                    ParameterSet params = r.params;
                    params.set("class", className(cls));
                    params.set("nthreads", std::to_string(t));
                    Module mod = r.provider->makeWorkload(params);
                    CompileOptions plain;
                    plain.boundaryMigPoints = false;
                    compileModule(mod, plain);
                    compileModule(mod);
                }
            }
        }
        break;
      }
      case ExperimentKind::Sustained:
      case ExperimentKind::Rack:
        JobProfileTable::calibrate();
        break;
      case ExperimentKind::Serving:
        traffic::ServingProfile::calibrate();
        break;
      default:
        throw ConfigError(conf + ": no setup defined for this kind");
    }
    std::printf("{\"setup_s\": %.9f}\n", hostNow() - t0);
    return 0;
}

int
cmdMeasure(const std::string &out, char **argv)
{
    const double t0 = hostNow();
    const pid_t pid = fork();
    if (pid < 0)
        return 1;
    if (pid == 0) {
        execv(argv[0], argv);
        _exit(127);
    }
    int status = 0;
    struct rusage ru {};
    if (wait4(pid, &status, 0, &ru) != pid)
        return 1;
    const double wall = hostNow() - t0;
    const int code = WIFEXITED(status) ? WEXITSTATUS(status)
                                       : -WTERMSIG(status);
    std::FILE *f = std::fopen(out.c_str(), "w");
    if (!f)
        return 1;
    std::fprintf(f, "{\"wall_s\": %.9f, \"rss_kib\": %ld, \"code\": %d}\n",
                 wall, ru.ru_maxrss, code);
    std::fclose(f);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> args(argv + 1, argv + argc);
    try {
        if (args.size() == 2 && args[0] == "setup")
            return cmdSetup(args[1]);
        if (args.size() == 5 && args[0] == "pass" &&
            (args[4] == "off-on" || args[4] == "on-off"))
            return cmdPass(args[1], args[2], args[3], args[4] == "off-on");
        if (args.size() >= 3 && args[0] == "measure")
            return cmdMeasure(args[1], argv + 3);
    } catch (const ConfigError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
    }
    std::fprintf(stderr,
                 "usage: %s setup CONF | "
                 "pass CONF PROBE_DIR SPANS_OUT off-on|on-off | "
                 "measure OUT PROGRAM ARGS...\n",
                 argc ? argv[0] : "xisa_tracepass");
    return 2;
}
