/**
 * @file
 * Figure 10: stack-transformation latency box plots for CG, EP, FT, IS.
 *
 * Each benchmark is ping-ponged between the two servers so that the
 * transformation runs at many distinct migration points; for each
 * transformation we record both the simulated on-node latency from the
 * calibrated cost model (min/Q1/median/Q3/max on stdout; it is what the
 * paper's absolute axis corresponds to: <400us typical on x86, ~2x on
 * ARM) and the *measured wall-clock* of our transformation runtime.
 * The wall-clock is host time, so it goes only to `--json FILE`, as the
 * host field `host_us`; stdout stays deterministic.
 */

#include <string>

#include "common.hh"
#include "core/migprofile.hh"
#include "core/stacktransform.hh"
#include "util/stats.hh"

using namespace xisa;
using namespace xisa::bench;

namespace {

/** A five-number summary as a JSON array [min, q1, median, q3, max]. */
std::string
jsonBox(const BoxSummary &b)
{
    char buf[160];
    std::snprintf(buf, sizeof buf, "[%.3f, %.3f, %.3f, %.3f, %.3f]", b.min,
                  b.q1, b.median, b.q3, b.max);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts = parseCommonArgs(argc, argv, kOptPerfJson);
    banner("Figure 10", "stack transformation latency at migration "
                        "points");
    std::printf("\n%-4s %-9s %7s %30s\n", "wl", "direction", "count",
                "sim-us (min/q1/med/q3/max)");
    std::string rows;
    for (WorkloadId wl : {WorkloadId::CG, WorkloadId::EP, WorkloadId::FT,
                          WorkloadId::IS}) {
        // Compile with profile-guided loop migration points so the
        // transformation runs at many distinct sites (as in the
        // paper's instrumented binaries).
        Module mod = buildWorkload(wl, ProblemClass::A, 1);
        CompileOptions copts;
        copts.loopMigPoints = planMigrationPoints(mod, 20000).points;
        MultiIsaBinary bin = compileModule(std::move(mod), copts);
        OsConfig cfg = OsConfig::dualServer();
        cfg.quantum = 2000;
        ReplicatedOS os(bin, cfg);
        os.load(0);
        os.onQuantum = [](ReplicatedOS &self) {
            if (self.migrations().size() < 400)
                self.migrateProcess(1 - self.threadNode(0));
        };
        os.run();

        std::vector<double> hostUs[2], simUs[2];
        for (const MigrationEvent &ev : os.migrations()) {
            int dir = ev.fromNode == 0 ? 0 : 1; // 0: x86->arm
            hostUs[dir].push_back(ev.transform.hostSeconds * 1e6);
            const NodeSpec spec =
                ev.fromNode == 0 ? makeXenoServer() : makeAetherServer();
            double sim =
                static_cast<double>(StackTransformer::costCycles(
                    ev.transform, spec)) *
                spec.secondsPerCycle() * 1e6;
            simUs[dir].push_back(sim);
        }
        const char *names[2] = {"on-x86", "on-arm"};
        for (int dir = 0; dir < 2; ++dir) {
            BoxSummary host = boxSummary(hostUs[dir]);
            BoxSummary sim = boxSummary(simUs[dir]);
            std::printf("%-4s %-9s %7llu %30s\n", workloadName(wl),
                        names[dir],
                        static_cast<unsigned long long>(sim.count),
                        sim.str("%.0f").c_str());
            // host_us sits on a line of its own and is never last, so
            // dropping host fields (tests/host_fields.cmake) keeps the
            // report valid JSON.
            rows += std::string(rows.empty() ? "" : ",\n") +
                    "    {\"workload\": \"" + workloadName(wl) +
                    "\", \"direction\": \"" + names[dir] +
                    "\", \"count\": " + std::to_string(sim.count) +
                    ",\n     \"host_us\": " + jsonBox(host) +
                    ",\n     \"sim_us\": " + jsonBox(sim) + "}";
        }
    }
    std::printf("\n(The transformation itself is the real runtime in "
                "src/core; sim-us is its\n calibrated on-testbed cost. "
                "Its measured host latency is the host_us\n field of "
                "--json FILE.)\n");

    if (opts.perfJsonPath.empty())
        return 0;
    std::FILE *f = std::fopen(opts.perfJsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n",
                     opts.perfJsonPath.c_str());
        return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"bench_fig10_stack_transform\",\n"
                 "  \"rows\": [\n%s\n  ]\n}\n",
                 rows.c_str());
    std::fclose(f);
    std::fprintf(stderr, "perf json: %s\n", opts.perfJsonPath.c_str());
    return 0;
}
