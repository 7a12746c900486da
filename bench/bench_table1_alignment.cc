/**
 * @file
 * Table 1: cost of the unified (cross-ISA aligned) symbol layout.
 *
 * For IS and CG, classes A/B/C, on both servers: execution time and L1
 * instruction-cache miss ratio of the aligned binary relative to the
 * natural per-ISA ("unaligned") layout. The paper reports exec-time
 * ratios within ~1% and correlated L1-I miss-ratio changes; the effect
 * comes from function padding moving code across cache index bits,
 * which our set-associative L1-I model reproduces.
 */

#include "common.hh"

using namespace xisa;
using namespace xisa::bench;

namespace {

struct RunStats {
    double seconds = 0;
    double l1iMissRatio = 0;
};

RunStats
measure(const MultiIsaBinary &bin, const NodeSpec &spec)
{
    OsConfig cfg;
    cfg.nodes = {spec};
    ReplicatedOS os(bin, cfg);
    os.load(0);
    OsRunResult res = os.run();
    RunStats out;
    out.seconds = res.makespanSeconds;
    // Aggregate the L1-I counters across the node's cores.
    uint64_t accesses = 0, misses = 0;
    for (int c = 0; c < spec.cores; ++c) {
        std::string l1i = "node0.core" + std::to_string(c) + ".l1i.";
        accesses += os.statRegistry().counterValue(l1i + "accesses");
        misses += os.statRegistry().counterValue(l1i + "misses");
    }
    out.l1iMissRatio = accesses ? static_cast<double>(misses) /
                                      static_cast<double>(accesses)
                                : 0.0;
    return out;
}

} // namespace

int
main()
{
    banner("Table 1", "aligned vs unaligned layout: exec time and "
                      "L1-I miss ratios");
    std::printf("\nValues are aligned/unaligned ratios; >1 means the "
                "aligned layout is slower.\n\n");
    std::printf("%-4s %-6s | %10s %10s | %10s %10s\n", "wl", "class",
                "x86Exec", "x86L1IMiss", "armExec", "armL1IMiss");
    for (WorkloadId wl : {WorkloadId::IS, WorkloadId::CG}) {
        for (ProblemClass cls : classSweep()) {
            Module mod = buildWorkload(wl, cls, 1);
            CompileOptions alignedOpts;
            CompileOptions unalignedOpts;
            unalignedOpts.alignedLayout = false;
            MultiIsaBinary aligned = compileModule(mod, alignedOpts);
            MultiIsaBinary unaligned = compileModule(mod, unalignedOpts);

            double ratio[2][2]; // [isa][exec/miss]
            for (int node = 0; node < 2; ++node) {
                NodeSpec spec = node == 0 ? makeXenoServer()
                                          : makeAetherServer();
                RunStats a = measure(aligned, spec);
                RunStats u = measure(unaligned, spec);
                ratio[node][0] = a.seconds / u.seconds;
                ratio[node][1] = u.l1iMissRatio > 0
                                     ? a.l1iMissRatio / u.l1iMissRatio
                                     : 1.0;
            }
            std::printf("%-4s %-6s | %10.4f %10.4f | %10.4f %10.4f\n",
                        workloadName(wl), className(cls), ratio[0][0],
                        ratio[0][1], ratio[1][0], ratio[1][1]);
        }
    }
    return 0;
}
