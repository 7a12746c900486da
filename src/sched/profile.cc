#include "sched/profile.hh"

#include "compiler/compile.hh"
#include "exp/sweep.hh"
#include "util/logging.hh"

namespace xisa {

JobProfileTable
JobProfileTable::calibrate()
{
    // One cell per workload: compile it, then run it on each ISA. A
    // cell holds one binary and one container at a time; finer
    // (workload, ISA) cells would let the two runs of the largest
    // workload fill two workers' heaps at once. The sweep returns in
    // index order, so the table does not depend on the worker count.
    using Secs = std::array<double, kNumIsas>;
    const std::vector<WorkloadId> wls = allWorkloads();
    const std::vector<Secs> secs = exp::runSweep(wls.size(), [&](size_t w) {
        MultiIsaBinary bin =
            compileModule(buildWorkload(wls[w], ProblemClass::A, 1));
        Secs s{};
        for (const NodeSpec &node : {makeXenoServer(), makeAetherServer()})
            s[static_cast<int>(node.isa)] =
                exp::runSingleNode(bin, node).makespanSeconds;
        return s;
    });

    JobProfileTable table;
    for (size_t w = 0; w < wls.size(); ++w)
        table.base_[wls[w]] = secs[w];
    return table;
}

JobProfileTable
JobProfileTable::synthetic()
{
    JobProfileTable table;
    double ms = 1e-3;
    int i = 0;
    for (WorkloadId wl : allWorkloads()) {
        double x86 = (1.0 + 0.35 * i) * ms;
        double arm = x86 * (2.6 + 0.08 * (i % 5));
        std::array<double, kNumIsas> secs{};
        secs[static_cast<int>(IsaId::Xeno64)] = x86;
        secs[static_cast<int>(IsaId::Aether64)] = arm;
        table.base_[wl] = secs;
        ++i;
    }
    return table;
}

double
JobProfileTable::parallelEfficiency(int threads)
{
    return 1.0 / (1.0 + 0.07 * (threads - 1));
}

double
JobProfileTable::baseSeconds(WorkloadId wl, IsaId isa) const
{
    auto it = base_.find(wl);
    if (it == base_.end())
        fatal("JobProfileTable: workload '%s' not calibrated",
              workloadName(wl));
    return it->second[static_cast<int>(isa)];
}

double
JobProfileTable::seconds(WorkloadId wl, ProblemClass cls, int threads,
                         IsaId isa) const
{
    double serial = baseSeconds(wl, isa) * classScale(cls) * kTimeScale;
    if (threads <= 1)
        return serial;
    return serial / (threads * parallelEfficiency(threads));
}

} // namespace xisa
