#include "exp/options.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "obs/trace.hh"

namespace xisa::exp {

namespace {

[[noreturn]] void
usageExit(const char *prog, unsigned features, const char *extraUsage,
          const std::string &offender)
{
    if (!offender.empty())
        std::fprintf(stderr, "unknown argument: %s\n", offender.c_str());
    std::fprintf(stderr, "usage: %s [options]\n", prog);
    if (features & kOptQuick)
        std::fprintf(stderr,
                     "  --quick              reduced sweep "
                     "(XISA_QUICK=1)\n");
    if (features & kOptObs)
        std::fprintf(stderr,
                     "  --stats              dump the stat registry\n"
                     "  --stats-json FILE    write the stat registry as "
                     "JSON\n"
                     "  --trace-out FILE     write a Chrome trace of "
                     "the run\n");
    if (features & kOptPerfJson)
        std::fprintf(stderr, "  --json FILE          report rows as JSON\n");
    if (features & kOptSweepJson)
        std::fprintf(stderr,
                     "  --sweep-json FILE    per-cell host time and MIPS\n");
    if (features & kOptSpecTools)
        std::fprintf(stderr,
                     "  --print-spec         parse, print the "
                     "canonical spec, exit\n"
                     "  --list-workloads     list registered "
                     "workloads, exit\n");
    if (extraUsage)
        std::fprintf(stderr, "%s", extraUsage);
    std::exit(2);
}

} // namespace

Options
parseCommonArgs(int argc, char **argv, unsigned features,
                const char *extraUsage)
{
    Options o;
    const char *prog = argc > 0 ? argv[0] : "bench";

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            o.positional.push_back(a);
            continue;
        }
        // Split --flag=value.
        std::string name = a;
        std::string inlineVal;
        bool hasInline = false;
        size_t eq = a.find('=');
        if (eq != std::string::npos) {
            name = a.substr(0, eq);
            inlineVal = a.substr(eq + 1);
            hasInline = true;
        }
        auto val = [&]() -> std::string {
            if (hasInline)
                return inlineVal;
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             name.c_str());
                std::exit(2);
            }
            return argv[++i];
        };

        if ((features & kOptQuick) && name == "--quick") {
            setenv("XISA_QUICK", "1", 1);
        } else if ((features & kOptObs) && name == "--stats") {
            o.dumpStats = true;
        } else if ((features & kOptObs) && name == "--stats-json") {
            o.statsJsonPath = val();
        } else if ((features & kOptObs) && name == "--trace-out") {
            o.traceOutPath = val();
        } else if ((features & kOptPerfJson) && name == "--json") {
            o.perfJsonPath = val();
        } else if ((features & kOptSweepJson) &&
                   name == "--sweep-json") {
            o.sweepJsonPath = val();
        } else if ((features & kOptSpecTools) &&
                   name == "--print-spec") {
            o.printSpec = true;
        } else if ((features & kOptSpecTools) &&
                   name == "--list-workloads") {
            o.listWorkloads = true;
        } else {
            usageExit(prog, features, extraUsage, a);
        }
    }

    if (!o.traceOutPath.empty())
        obs::setTraceEnabled(true);
    return o;
}

void
writeOutputs(const Options &o, obs::StatRegistry &reg)
{
    if (o.dumpStats)
        reg.dump(std::cout);
    if (!o.statsJsonPath.empty()) {
        std::ofstream f(o.statsJsonPath);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.statsJsonPath.c_str());
            std::exit(1);
        }
        reg.dumpJson(f);
        std::printf("stats json: %s\n", o.statsJsonPath.c_str());
    }
    if (!o.traceOutPath.empty()) {
        std::ofstream f(o.traceOutPath);
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n",
                         o.traceOutPath.c_str());
            std::exit(1);
        }
        obs::Tracer::global().exportChromeTrace(f);
        std::printf("trace: %s (%zu events, %llu overwritten)\n",
                    o.traceOutPath.c_str(),
                    obs::Tracer::global().size(),
                    static_cast<unsigned long long>(
                        obs::Tracer::global().dropped()));
    }
}

} // namespace xisa::exp
