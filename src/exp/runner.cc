#include "exp/runner.hh"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <tuple>

#include "check/perturb.hh"
#include "compiler/compile.hh"
#include "exp/sweep.hh"
#include "isa/isa.hh"
#include "machine/interp_threaded.hh"
#include "sched/jobsets.hh"
#include "traffic/traffic.hh"
#include "util/stats.hh"

namespace xisa::exp {

namespace {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Write one --json / --sweep-json file: the shared header, whatever
 * `body` adds (it opens the file's one array), and the closing of that
 * array. An empty path writes nothing. Returns 1 when the file cannot
 * be opened; otherwise names it on stderr as "<what> json: <path>".
 */
template <typename Body>
int
writeJsonFile(const std::string &path, const char *what,
              const ExperimentSpec &spec, size_t configs,
              double wallSeconds, Body &&body)
{
    if (path.empty())
        return 0;
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"%s\",\n"
                 "  \"mode\": \"%s\",\n"
                 "  \"sweep_threads\": %d,\n"
                 "  \"configs\": %zu,\n"
                 "  \"wall_seconds\": %.6f,\n",
                 spec.benchName.c_str(), quickMode() ? "quick" : "full",
                 sweepThreads(), configs, wallSeconds);
    body(f);
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::fprintf(stderr, "%s json: %s\n", what, path.c_str());
    return 0;
}

// --- kind = overhead (the fig06 report) -----------------------------

int
runOverhead(const ExperimentSpec &spec, const Options &opts)
{
    WorkloadRegistry reg = makeRegistry(spec);
    const bool quick = quickMode();
    const std::vector<ProblemClass> &classes =
        spec.activeClasses(quick);
    const std::vector<int> &threads = spec.activeThreads(quick);

    struct Cell {
        const WorkloadProvider *provider;
        ParameterSet params; ///< resolved, before the sweep override
        NodeSpec node;
        ProblemClass cls;
        int nthreads;
        size_t ref; ///< index into `resolved` (the compile-share key)
    };
    struct CellResult {
        double tBase = 0;
        double tInst = 0;
        uint64_t instrs = 0;
        double hostSeconds = 0;
    };

    // Pre-resolve refs/nodes once; the sweep only varies class/threads.
    std::vector<WorkloadRegistry::Resolved> resolved;
    for (const std::string &ref : spec.workloads)
        resolved.push_back(reg.resolve(ref));
    std::vector<NodeSpec> nodeSpecs;
    for (const std::string &isa : spec.isas)
        nodeSpecs.push_back(spec.cluster.makeNode(isa));

    banner(spec.figure.c_str(), spec.title.c_str());

    // Flatten the sweep in print order; the driver may run cells out
    // of order but results come back indexed.
    std::vector<Cell> cells;
    for (size_t ri = 0; ri < resolved.size(); ++ri)
        for (const NodeSpec &node : nodeSpecs)
            for (ProblemClass cls : classes)
                for (int t : threads)
                    cells.push_back({resolved[ri].provider,
                                     resolved[ri].params, node, cls, t,
                                     ri});

    // Compile each unique (workload, class, threads) module once --
    // the node axis reuses the same binaries -- and give every binary
    // an ExecCache so the cells executing it share predecoded streams
    // and lowered superblocks (DESIGN.md §10). Output is unaffected
    // (artifacts are deterministic per binary and timing signature).
    struct Compiled {
        MultiIsaBinary base;
        MultiIsaBinary inst;
        std::shared_ptr<ExecCache> baseCache =
            std::make_shared<ExecCache>();
        std::shared_ptr<ExecCache> instCache =
            std::make_shared<ExecCache>();
    };
    std::vector<std::unique_ptr<Compiled>> compiled;
    std::vector<size_t> cellBin(cells.size());
    {
        std::map<std::tuple<size_t, int, int>, size_t> seen;
        for (size_t k = 0; k < cells.size(); ++k) {
            const Cell &c = cells[k];
            auto key = std::make_tuple(c.ref, static_cast<int>(c.cls),
                                       c.nthreads);
            auto [it, fresh] = seen.emplace(key, compiled.size());
            if (fresh) {
                ParameterSet params = c.params;
                params.set("class", className(c.cls));
                params.set("nthreads", std::to_string(c.nthreads));
                Module mod = c.provider->makeWorkload(params);
                CompileOptions plain;
                plain.boundaryMigPoints = false;
                auto cc = std::make_unique<Compiled>();
                cc->base = compileModule(mod, plain);
                cc->inst = compileModule(mod);
                compiled.push_back(std::move(cc));
            }
            cellBin[k] = it->second;
        }
    }

    // A cell's work grows with its class's problem size, so the
    // largest classes are claimed first and no class-C cell is left
    // to run alone at the end.
    std::vector<double> work;
    for (const Cell &c : cells)
        work.push_back(classScale(c.cls));
    // --stats and --stats-json dump the instrumented run of the last
    // cell, as the other kinds dump their last cell; its container is
    // kept only when one of them asks.
    const bool keepStats = opts.dumpStats || !opts.statsJsonPath.empty();
    std::unique_ptr<ReplicatedOS> lastInst;
    const double t0 = wallNow();
    std::vector<CellResult> results = runSweep(
        cells.size(),
        [&](size_t i) {
            const Cell &c = cells[i];
            const Compiled &bin = *compiled[cellBin[i]];
            CellResult r;
            double c0 = wallNow();
            OsRunResult rb = runSingleNode(bin.base, c.node,
                                           bin.baseCache);
            OsRunResult ri = runSingleNode(
                bin.inst, c.node, bin.instCache,
                keepStats && i + 1 == cells.size() ? &lastInst : nullptr);
            r.tBase = rb.makespanSeconds;
            r.tInst = ri.makespanSeconds;
            r.instrs = rb.totalInstrs + ri.totalInstrs;
            r.hostSeconds = wallNow() - c0;
            return r;
        },
        longestFirst(work));
    const double wallSeconds = wallNow() - t0;

    // Ordered merge: same stdout as the sequential harness.
    size_t i = 0;
    for (const WorkloadRegistry::Resolved &r : resolved) {
        for (const NodeSpec &node : nodeSpecs) {
            std::printf("\n-- %s on %s --\n",
                        r.provider->name().c_str(), node.name.c_str());
            std::printf("%-6s %-7s %14s %14s %9s\n", "class",
                        "threads", "base(s)", "instrumented(s)",
                        "overhead");
            for (ProblemClass cls : classes) {
                for (int t : threads) {
                    const CellResult &cr = results[i++];
                    double overhead =
                        (cr.tInst / cr.tBase - 1.0) * 100.0;
                    std::printf("%-6s %-7d %14.6f %14.6f %8.2f%%\n",
                                className(cls), t, cr.tBase, cr.tInst,
                                overhead);
                }
            }
        }
    }

    uint64_t simInstrs = 0;
    for (const CellResult &r : results)
        simInstrs += r.instrs;

    auto writeRows = [&](std::FILE *f) {
        std::fprintf(f,
                     "  \"simulated_instrs\": %llu,\n"
                     "  \"mips\": %.2f,\n"
                     "  \"rows\": [\n",
                     static_cast<unsigned long long>(simInstrs),
                     simInstrs / wallSeconds / 1e6);
        for (size_t k = 0; k < cells.size(); ++k) {
            const Cell &c = cells[k];
            const CellResult &r = results[k];
            std::fprintf(
                f,
                "    {\"workload\": \"%s\", \"isa\": \"%s\", "
                "\"class\": \"%s\", \"threads\": %d, "
                "\"base_seconds\": %.9f, \"instrumented_seconds\": "
                "%.9f, \"overhead_pct\": %.4f, \"instrs\": %llu}%s\n",
                c.provider->name().c_str(),
                c.node.isa == IsaId::Aether64 ? "Aether64" : "Xeno64",
                className(c.cls), c.nthreads, r.tBase, r.tInst,
                (r.tInst / r.tBase - 1.0) * 100.0,
                static_cast<unsigned long long>(r.instrs),
                k + 1 < cells.size() ? "," : "");
        }
    };
    // Per-cell engine throughput: the cell's simulated instructions
    // (base and instrumented runs) over its host time, comparable at
    // any worker count.
    auto writeCells = [&](std::FILE *f) {
        std::fprintf(f, "  \"cells\": [\n");
        for (size_t k = 0; k < cells.size(); ++k) {
            const Cell &c = cells[k];
            const CellResult &r = results[k];
            std::fprintf(
                f,
                "    {\"index\": %zu, \"workload\": \"%s\", "
                "\"isa\": \"%s\", \"class\": \"%s\", \"threads\": %d, "
                "\"host_seconds\": %.6f, \"instrs\": %llu, "
                "\"mips\": %.2f}%s\n",
                k, c.provider->name().c_str(),
                c.node.isa == IsaId::Aether64 ? "Aether64" : "Xeno64",
                className(c.cls), c.nthreads, r.hostSeconds,
                static_cast<unsigned long long>(r.instrs),
                r.instrs / r.hostSeconds / 1e6,
                k + 1 < cells.size() ? "," : "");
        }
    };
    if (writeJsonFile(opts.perfJsonPath, "perf", spec, cells.size(),
                      wallSeconds, writeRows) ||
        writeJsonFile(opts.sweepJsonPath, "sweep", spec, cells.size(),
                      wallSeconds, writeCells))
        return 1;

    obs::StatRegistry none;
    writeOutputs(opts, lastInst ? lastInst->statRegistry() : none);
    return 0;
}

// --- kind = sustained / rack (the Figs. 12-13 scheduling study) -----

/** One (pool, set) trial of the fleet study. */
struct FleetCell {
    ClusterResult result;
    uint64_t events = 0;
    std::unique_ptr<ClusterSim> sim; ///< the last cell's, for --stats-json
};

/** Every cell of one fleet run, pool-major. */
struct FleetRun {
    std::vector<FleetCell> cells;
    size_t sets = 0;
    double wallSeconds = 0;

    const FleetCell &
    at(size_t pool, size_t set) const
    {
        return cells[pool * sets + set];
    }
};

/** Fig. 12 layout: one row per set, one column per pool. */
void
printSustained(const ExperimentSpec &spec, const FleetRun &run)
{
    const ClusterSpec &cl = spec.cluster;
    std::printf("\n%-6s", "set");
    for (const PoolSpec &p : cl.pools)
        std::printf(" | %*s", p.baseline ? 21 : 25, p.column.c_str());
    std::printf(" |");
    for (const PoolSpec &p : cl.pools)
        if (!p.baseline)
            std::printf(" %7s", p.mkspLabel.c_str());
    std::printf("\n");

    std::vector<RunningStat> dEnergy(cl.pools.size());
    std::vector<RunningStat> mkspRatio(cl.pools.size());
    for (size_t set = 0; set < run.sets; ++set) {
        const ClusterResult &base = run.at(0, set).result;
        std::printf("set-%-2zu", set);
        for (size_t p = 0; p < cl.pools.size(); ++p) {
            const ClusterResult &r = run.at(p, set).result;
            std::printf(" | %9.1f (%4.1f/%4.1f)", r.totalEnergy / 1e3,
                        r.energyJoules[0] / 1e3,
                        r.energyJoules[1] / 1e3);
        }
        std::printf(" |");
        for (size_t p = 0; p < cl.pools.size(); ++p)
            if (!cl.pools[p].baseline)
                std::printf(" %6.2fx",
                            run.at(p, set).result.makespan /
                                base.makespan);
        std::printf("\n");
        for (size_t p = 0; p < cl.pools.size(); ++p) {
            if (cl.pools[p].baseline)
                continue;
            const ClusterResult &r = run.at(p, set).result;
            dEnergy[p].add((1.0 - r.totalEnergy / base.totalEnergy) *
                           100);
            mkspRatio[p].add(r.makespan / base.makespan);
        }
    }

    std::printf("\nEnergy reduction vs %s:",
                cl.pools[0].shortLabel.c_str());
    bool first = true;
    for (size_t p = 0; p < cl.pools.size(); ++p) {
        if (cl.pools[p].baseline)
            continue;
        std::printf("%s %s avg %.1f%% (max %.1f%%)", first ? "" : ",",
                    cl.pools[p].shortLabel.c_str(), dEnergy[p].mean(),
                    dEnergy[p].max());
        first = false;
    }
    std::printf("\n");
    std::printf("Makespan ratio:");
    first = true;
    for (size_t p = 0; p < cl.pools.size(); ++p) {
        if (cl.pools[p].baseline)
            continue;
        std::printf("%s %s avg %.2fx", first ? "" : ",",
                    cl.pools[p].shortLabel.c_str(),
                    mkspRatio[p].mean());
        first = false;
    }
    std::printf("\n");
    if (!spec.footer.empty())
        std::printf("%s\n", spec.footer.c_str());
}

/** Rack layout: one row per pool, means over the sets. */
int
printRack(const ExperimentSpec &spec, const Options &opts,
          const FleetRun &run)
{
    const ClusterSpec &cl = spec.cluster;
    std::printf("\n%-22s %14s %14s %10s %10s %8s\n", "rack mix",
                "energy(kJ)", "makespan(s)", "dE", "dEDP", "migr");
    struct PoolRow {
        const PoolSpec *pool;
        double energyKj = 0;
        double makespan = 0;
        double migrations = 0;
    };
    std::vector<PoolRow> poolRows;
    uint64_t schedEvents = 0;
    double baseEnergy = 0, baseEdp = 0;

    // Ordered merge: the same adds in the same order as a serial loop.
    for (size_t p = 0; p < cl.pools.size(); ++p) {
        const PoolSpec &pool = cl.pools[p];
        RunningStat energy, makespan, edp, migr;
        for (size_t set = 0; set < run.sets; ++set) {
            const FleetCell &cell = run.at(p, set);
            energy.add(cell.result.totalEnergy);
            makespan.add(cell.result.makespan);
            edp.add(cell.result.edp);
            migr.add(cell.result.migrations);
            schedEvents += cell.events;
        }
        if (pool.baseline) {
            baseEnergy = energy.mean();
            baseEdp = edp.mean();
        }
        double de = baseEnergy > 0
                        ? (1.0 - energy.mean() / baseEnergy) * 100
                        : 0;
        double dedp =
            baseEdp > 0 ? (1.0 - edp.mean() / baseEdp) * 100 : 0;
        std::printf("%-22s %14.1f %14.1f %9.1f%% %9.1f%% %8.0f\n",
                    pool.label.c_str(), energy.mean() / 1e3,
                    makespan.mean(), de, dedp, migr.mean());
        poolRows.push_back({&pool, energy.mean() / 1e3,
                            makespan.mean(), migr.mean()});
    }
    if (!spec.footer.empty())
        std::printf("\n%s\n", spec.footer.c_str());

    // Rack perf JSON reports scheduler event throughput, which CI
    // gates as a ratio to the stepping loop, instead of interpreter
    // MIPS: rack runs exercise ClusterSim, not the instruction-level
    // machine.
    const double wall = run.wallSeconds;
    return writeJsonFile(
        opts.perfJsonPath, "perf", spec, run.cells.size(), wall,
        [&](std::FILE *f) {
            std::fprintf(f,
                         "  \"sched_events\": %llu,\n"
                         "  \"events_per_sec\": %.2f,\n"
                         "  \"rows\": [\n",
                         static_cast<unsigned long long>(schedEvents),
                         wall > 0 ? schedEvents / wall : 0.0);
            for (size_t k = 0; k < poolRows.size(); ++k) {
                const PoolRow &row = poolRows[k];
                std::fprintf(
                    f,
                    "    {\"pool\": \"%s\", \"energy_kj\": %.6f, "
                    "\"makespan_seconds\": %.6f, \"migrations\": "
                    "%.1f}%s\n",
                    row.pool->label.c_str(), row.energyKj, row.makespan,
                    row.migrations, k + 1 < poolRows.size() ? "," : "");
            }
        });
}

/**
 * kind = sustained and kind = rack: one calibration, then one sweep
 * over (pool, set) cells. Every cell is an independent trial with its
 * own jobs and a fresh ClusterSim, so a set never inherits link
 * fault-plan state from the sets run before it. Only the job generator
 * and the printer differ per kind.
 */
int
runFleet(const ExperimentSpec &spec, const Options &opts)
{
    banner(spec.figure.c_str(), spec.title.c_str());
    JobProfileTable table = JobProfileTable::calibrate();
    const ClusterSpec &cl = spec.cluster;
    const bool periodic = spec.kind == ExperimentKind::Rack;

    FleetRun run;
    run.sets = static_cast<size_t>(spec.activeSets(quickMode()));
    const size_t numCells = cl.pools.size() * run.sets;
    const double t0 = wallNow();
    run.cells = runSweep(numCells, [&](size_t i) {
        const PoolSpec &pool = cl.pools[i / run.sets];
        const uint64_t seed =
            spec.seedBase + static_cast<uint64_t>(i % run.sets);
        std::vector<Job> jobs =
            periodic ? makePeriodicSet(seed, spec.waves,
                                       spec.jobsPerWavePerMachine *
                                           spec.poolMachines)
                     : makeSustainedSet(seed, spec.jobsPerSet);
        ClusterSim::Config simCfg = cl.simConfig();
        // A set is an independent trial down to its link: its fault
        // schedule comes from [faults] seed plus its job-set seed, so a
        // set run alone still draws the same losses.
        if (cl.hasFaults)
            simCfg.net.faults.seed += seed;
        auto sim = std::make_unique<ClusterSim>(cl.makePool(pool), table,
                                                simCfg);
        FleetCell cell;
        cell.result = sim->run(jobs, pool.policy);
        cell.events = sim->eventsProcessed();
        if (i + 1 == numCells)
            cell.sim = std::move(sim);
        return cell;
    });
    run.wallSeconds = wallNow() - t0;

    if (periodic) {
        if (int rc = printRack(spec, opts, run))
            return rc;
    } else {
        printSustained(spec, run);
    }
    writeOutputs(opts, run.cells.back().sim->statRegistry());
    return 0;
}

// --- kind = single (one container, spec-built) ----------------------

int
runSingle(const ExperimentSpec &spec, const Options &opts)
{
    banner(spec.figure.c_str(), spec.title.c_str());
    WorkloadRegistry reg = makeRegistry(spec);
    WorkloadRegistry::Resolved resolved = reg.resolve(spec.workloadRef);
    Module mod = resolved.provider->makeWorkload(resolved.params);
    MultiIsaBinary bin = compileModule(mod);

    OsConfig cfg;
    for (const std::string &ref : spec.singleMachineRefs)
        cfg.nodes.push_back(spec.cluster.makeNode(ref));
    cfg.net.latencyUs = spec.cluster.latencyUs;
    cfg.net.gbitPerSec = spec.cluster.gbitPerSec;
    if (spec.cluster.hasFaults)
        cfg.net.faults = spec.cluster.faults;
    cfg.quantum = spec.quantum;
    cfg.dsmMode = spec.dsmMode == "remote" ? DsmMode::RemoteAccess
                                           : DsmMode::MigratePages;

    std::printf("\nworkload %s (", spec.workloadRef.c_str());
    bool first = true;
    for (const std::string &key : resolved.params.keys()) {
        std::printf("%s%s=%s", first ? "" : ", ", key.c_str(),
                    resolved.params.getString(key, "").c_str());
        first = false;
    }
    std::printf(") on %zu node(s), dsm=%s, quantum=%llu\n",
                cfg.nodes.size(), spec.dsmMode.c_str(),
                static_cast<unsigned long long>(cfg.quantum));
    for (const NodeSpec &n : cfg.nodes)
        std::printf("  node %s: %s, %d cores @ %.2f GHz\n",
                    n.name.c_str(), isaName(n.isa), n.cores,
                    n.freqGHz);

    ReplicatedOS os(bin, cfg);
    os.load(spec.startNode);
    OsRunResult r = os.run();

    for (const std::string &line : r.output)
        std::printf("  %s\n", line.c_str());
    std::printf("finished=%s exit=%lld instrs=%llu makespan=%.6f s\n",
                r.finished ? "yes" : "no",
                static_cast<long long>(r.exitCode),
                static_cast<unsigned long long>(r.totalInstrs),
                r.makespanSeconds);

    writeOutputs(opts, os.statRegistry());
    return r.finished ? 0 : 1;
}

// --- kind = serving (open-loop REDIS under SLOs) --------------------

} // namespace

void
applyFailures(const ExperimentSpec &spec, double durationSeconds,
              traffic::ServingConfig &cfg)
{
    if (spec.failures.empty())
        return;
    const Topology topo(spec.cluster.topo);
    const int nodes = static_cast<int>(cfg.nodes.size());
    cfg.nodeRack.clear();
    for (int nd = 0; nd < nodes; ++nd)
        cfg.nodeRack.push_back(topo.rackOf(nd));
    for (const FailureSpec &f : spec.failures) {
        const double at = f.at * durationSeconds;
        const double heal = f.heal * durationSeconds;
        for (int nd = 0; nd < nodes; ++nd) {
            const bool member = f.kind == "agg"
                                    ? topo.podOf(nd) == f.domain
                                    : topo.rackOf(nd) == f.domain;
            if (member)
                cfg.crashes.push_back({nd, at, heal - at});
        }
        cfg.brownouts.push_back({at, heal, spec.shedDeciles});
    }
}

namespace {

int
runServing(const ExperimentSpec &spec, const Options &opts)
{
    banner(spec.figure.c_str(), spec.title.c_str());
    const bool quick = quickMode();
    const TrafficSpec &t = spec.traffic;
    const double duration = t.activeDuration(quick);

    traffic::TrafficConfig tc;
    tc.seed = t.seed;
    // XISA_PERTURB overlay: reshape the request stream per sweep seed
    // while keeping the outage/crash schedule fixed, so audit sweeps
    // exercise fresh traffic against the same failure plan (the
    // serving analogue of the cluster link's fault overlay).
    if (check::SchedulePerturber::enabled())
        tc.seed ^= check::SchedulePerturber::envSeed() * 0x9e3779b97f4a7c15ull;
    tc.clients = t.clients;
    tc.requestHz = t.requestHz;
    tc.durationSeconds = duration;
    tc.zipfSkew = t.zipfSkew;
    tc.keySpace = t.keySpace;
    tc.getFraction = t.getFraction;
    tc.shards = t.shards;

    traffic::ServingConfig base;
    for (const std::string &ref : spec.singleMachineRefs)
        base.nodes.push_back(spec.cluster.makeNode(ref));
    base.placement = t.placement;
    base.sloUs = t.sloUs;
    for (const CrashSpec &cs : spec.cluster.crashPlan)
        base.crashes.push_back({cs.machine, cs.time * duration,
                                spec.cluster.crashDownSeconds});
    applyFailures(spec, duration, base);

    struct Row {
        const char *scenario;
        traffic::ServingResult r;
    };
    std::vector<Row> rows;
    obs::StatRegistry reg;
    // Stats detach when their sim dies, so the sims must outlive
    // writeOutputs below or --stats-json dumps an empty registry.
    std::vector<std::unique_ptr<traffic::ServingSim>> sims;
    auto startSims = [&](const traffic::ServingProfile &prof) {
        sims.push_back(std::make_unique<traffic::ServingSim>(
            base, prof, reg, "serving.static"));
        if (!t.migratePlan.empty()) {
            traffic::ServingConfig cfg = base;
            for (const ShardMigrationSpec &m : t.migratePlan)
                cfg.migrations.push_back(
                    {m.shard, m.time * duration, m.node});
            sims.push_back(std::make_unique<traffic::ServingSim>(
                cfg, prof, reg, "serving.migrate"));
        }
        for (const auto &sim : sims)
            sim->begin();
    };

    // Both scenarios are served chunk by chunk inside the generator's
    // sweep, overlapping the fill of the chunks after.
    const double t0 = wallNow();
    std::vector<traffic::Request> reqs;
    const traffic::ServingProfile prof =
        traffic::ServingProfile::calibrateAndGenerate(
            tc, reqs,
            [&](const traffic::ServingProfile &p,
                const traffic::Request *chunk, size_t n) {
                if (sims.empty())
                    startSims(p);
                for (const auto &sim : sims)
                    sim->feed(chunk, n);
            });
    if (sims.empty()) // an empty stream
        startSims(prof);
    rows.push_back({"static", sims[0]->finish()});
    if (sims.size() > 1)
        rows.push_back({"migrate", sims[1]->finish()});
    const double wallSeconds = wallNow() - t0;

    std::printf("\n%llu requests over %.3f s (%.0f req/s offered), "
                "%d shards on %zu nodes, slo %.0f us\n",
                static_cast<unsigned long long>(reqs.size()), duration,
                tc.totalRate(), t.shards, base.nodes.size(), t.sloUs);
    std::printf("calibrated: xeno get/set %.1f/%.1f us, aether "
                "get/set %.1f/%.1f us, migrate %.2f ms, "
                "failover %.2f ms%s\n",
                prof.getSeconds[size_t(IsaId::Xeno64)] * 1e6,
                prof.setSeconds[size_t(IsaId::Xeno64)] * 1e6,
                prof.getSeconds[size_t(IsaId::Aether64)] * 1e6,
                prof.setSeconds[size_t(IsaId::Aether64)] * 1e6,
                prof.migrateSeconds * 1e3, prof.failoverSeconds * 1e3,
                base.crashes.empty()
                    ? ""
                    : ", crash plan active");
    if (!spec.failures.empty())
        std::printf("failure plan: %zu domain outage(s) over %zu "
                    "racked nodes, %zu node crashes scheduled, "
                    "shedding %d decile(s) while degraded\n",
                    spec.failures.size(), base.nodes.size(),
                    base.crashes.size(), spec.shedDeciles);

    std::printf("\n%-8s %10s %10s %10s %10s %10s %10s %7s %5s %6s\n",
                "scenario", "requests", "p50(us)", "p99(us)",
                "p99.9(us)", "max(us)", "slo-viol", "viol%", "migr",
                "failov");
    for (const Row &row : rows) {
        const traffic::ServingResult &r = row.r;
        std::printf("%-8s %10llu %10.1f %10.1f %10.1f %10.1f %10llu "
                    "%6.2f%% %5llu %6llu\n",
                    row.scenario,
                    static_cast<unsigned long long>(r.requests),
                    r.p50Us, r.p99Us, r.p999Us, r.maxUs,
                    static_cast<unsigned long long>(r.sloViolations),
                    r.requests
                        ? 100.0 * static_cast<double>(r.sloViolations) /
                              static_cast<double>(r.requests)
                        : 0.0,
                    static_cast<unsigned long long>(r.migrations),
                    static_cast<unsigned long long>(r.failovers));
    }
    if (!base.brownouts.empty()) {
        for (const Row &row : rows)
            std::printf("%-8s degraded: %llu shed, %llu of %llu slo "
                        "violations inside failure windows\n",
                        row.scenario,
                        static_cast<unsigned long long>(row.r.shed),
                        static_cast<unsigned long long>(
                            row.r.violationsDegraded),
                        static_cast<unsigned long long>(
                            row.r.sloViolations));
    }
    for (const Row &row : rows) {
        std::printf("%-8s cumulative slo violations by decile:",
                    row.scenario);
        for (uint64_t v : row.r.violationsByDecile)
            std::printf(" %llu", static_cast<unsigned long long>(v));
        std::printf("\n");
    }
    if (rows.size() == 2) {
        const traffic::ServingResult &s = rows[0].r;
        const traffic::ServingResult &m = rows[1].r;
        std::printf("\nmigrate vs static: p99 %.1f -> %.1f us "
                    "(%+.1f%%), slo violations %llu -> %llu\n",
                    s.p99Us, m.p99Us,
                    s.p99Us > 0
                        ? (m.p99Us / s.p99Us - 1.0) * 100.0
                        : 0.0,
                    static_cast<unsigned long long>(s.sloViolations),
                    static_cast<unsigned long long>(m.sloViolations));
    }
    if (!spec.footer.empty())
        std::printf("\n%s\n", spec.footer.c_str());

    auto writeRows = [&](std::FILE *f) {
        std::fprintf(f, "  \"rows\": [\n");
        for (size_t k = 0; k < rows.size(); ++k) {
            const traffic::ServingResult &r = rows[k].r;
            char degraded[96] = "";
            if (!spec.failures.empty())
                std::snprintf(
                    degraded, sizeof degraded,
                    ", \"shed\": %llu, "
                    "\"slo_violations_degraded\": %llu",
                    static_cast<unsigned long long>(r.shed),
                    static_cast<unsigned long long>(
                        r.violationsDegraded));
            std::fprintf(
                f,
                "    {\"scenario\": \"%s\", \"requests\": %llu, "
                "\"p50_us\": %.6f, \"p99_us\": %.6f, "
                "\"p999_us\": %.6f, \"max_us\": %.6f, "
                "\"slo_violations\": %llu, \"violation_pct\": %.6f, "
                "\"migrations\": %llu, \"failovers\": %llu%s}%s\n",
                rows[k].scenario,
                static_cast<unsigned long long>(r.requests), r.p50Us,
                r.p99Us, r.p999Us, r.maxUs,
                static_cast<unsigned long long>(r.sloViolations),
                r.requests
                    ? 100.0 * static_cast<double>(r.sloViolations) /
                          static_cast<double>(r.requests)
                    : 0.0,
                static_cast<unsigned long long>(r.migrations),
                static_cast<unsigned long long>(r.failovers),
                degraded, k + 1 < rows.size() ? "," : "");
        }
    };
    if (writeJsonFile(opts.perfJsonPath, "perf", spec, rows.size(),
                      wallSeconds, writeRows))
        return 1;

    writeOutputs(opts, reg);
    return 0;
}

} // namespace

int
runExperiment(const ExperimentSpec &spec, const Options &opts)
{
    // Refuse an output the kind does not write before any work rather
    // than run and silently write nothing.
    const KindInfo &kind = kindInfo(spec.kind);
    const char *unwritten = nullptr;
    if (!opts.perfJsonPath.empty() && !kind.writesJson)
        unwritten = "--json";
    else if (!opts.sweepJsonPath.empty() && !kind.writesSweepJson)
        unwritten = "--sweep-json";
    if (unwritten) {
        std::fprintf(stderr, "%s: %s is not written by kind = %s\n",
                     spec.source.c_str(), unwritten, kind.name);
        return 2;
    }

    switch (spec.kind) {
      case ExperimentKind::Overhead: return runOverhead(spec, opts);
      case ExperimentKind::Sustained:
      case ExperimentKind::Rack: return runFleet(spec, opts);
      case ExperimentKind::Single: return runSingle(spec, opts);
      case ExperimentKind::Serving: return runServing(spec, opts);
    }
    return 2;
}

} // namespace xisa::exp
