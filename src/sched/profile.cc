#include "sched/profile.hh"

#include "compiler/compile.hh"
#include "exp/sweep.hh"
#include "util/logging.hh"

namespace xisa {

JobProfileTable::JobProfileTable()
{
    for (std::array<double, kNumIsas> &row : base_)
        row.fill(-1.0);
}

JobProfileTable
JobProfileTable::calibrate()
{
    // One cell per workload: compile it, then run it on each ISA. A
    // cell holds one binary and one container at a time. Cell costs
    // span 18x (bzip alone is about 40% of the work), so cells are
    // claimed by descending work: bzip starts at once and the smaller
    // cells fill the other workers beside it, rather than bzip
    // starting late and running on alone. The sweep returns in index
    // order, so the table does not depend on the worker count or the
    // claim order.
    using Secs = std::array<double, kNumIsas>;
    const std::vector<WorkloadId> wls = allWorkloads();
    std::vector<double> work;
    for (WorkloadId wl : wls)
        work.push_back(workloadDesc(wl).workMinstrs);
    const std::vector<Secs> secs = exp::runSweep(
        wls.size(),
        [&](size_t w) {
            MultiIsaBinary bin =
                compileModule(buildWorkload(wls[w], ProblemClass::A, 1));
            Secs s{};
            for (const NodeSpec &node :
                 {makeXenoServer(), makeAetherServer()})
                s[static_cast<int>(node.isa)] =
                    exp::runSingleNode(bin, node).makespanSeconds;
            return s;
        },
        exp::longestFirst(work));

    JobProfileTable table;
    for (size_t w = 0; w < wls.size(); ++w)
        table.base_[static_cast<size_t>(wls[w])] = secs[w];
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
        table.base_[static_cast<size_t>(wl)] = secs;
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
    const double secs =
        base_[static_cast<size_t>(wl)][static_cast<size_t>(isa)];
    if (secs < 0.0)
        fatal("JobProfileTable: workload '%s' not calibrated",
              workloadName(wl));
    return secs;
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
