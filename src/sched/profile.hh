/**
 * @file
 * Per-job execution-time profiles for the cluster simulator.
 *
 * The paper's scheduling study needs to know how long each (workload,
 * class, thread-count) job runs on each server type. We calibrate by
 * actually executing every workload (class A, serial) on both simulated
 * servers through the full stack, then scale analytically: problem
 * classes multiply the work by classScale() (the kernels scale
 * linearly), and threads divide it with a parallel-efficiency factor
 * matching fork/join overheads.
 */

#ifndef XISA_SCHED_PROFILE_HH
#define XISA_SCHED_PROFILE_HH

#include <array>

#include "isa/isa.hh"
#include "workload/workloads.hh"

namespace xisa {

/** Calibrated execution-time table. */
class JobProfileTable
{
  public:
    /**
     * Run each workload once per ISA (class A, serial) through the
     * compiler + OS + interpreter stack and derive the table. The
     * workloads fan out over exp::runSweep, one cell each, claimed
     * longest first (WorkloadDesc::workMinstrs) so the largest
     * workload never starts last and runs alone; the table is
     * identical at any worker count. Call once per process and
     * share.
     */
    static JobProfileTable calibrate();

    /**
     * A fixed table with plausible magnitudes (x86 class-A base times
     * of a few ms, ARM ~3x slower). For tests and quick demos that
     * exercise the cluster simulator without paying for calibration;
     * experiment harnesses use calibrate().
     */
    static JobProfileTable synthetic();

    /**
     * Wall seconds of one job on one server type.
     *
     * Includes kTimeScale: the mini-kernels run in milliseconds, while
     * the paper's jobs run "from milliseconds to hundreds of seconds";
     * the scale restores datacenter-sized durations (class A ~ seconds,
     * class C ~ tens of seconds) without changing any ratio.
     */
    double seconds(WorkloadId wl, ProblemClass cls, int threads,
                   IsaId isa) const;

    /** Duration scale from simulator kernels to datacenter jobs. */
    static constexpr double kTimeScale = 1000.0;

    /** Serial class-A seconds measured for a workload on an ISA. */
    double baseSeconds(WorkloadId wl, IsaId isa) const;

    /** Parallel efficiency model: speedup(t) = t / (1 + alpha (t-1)). */
    static double parallelEfficiency(int threads);

    /** An uncalibrated table: every lookup fails until calibrate() or
     *  synthetic() fills it. */
    JobProfileTable();

  private:
    /** Serial class-A seconds, [WorkloadId][IsaId]; negative where not
     *  calibrated. seconds() runs on every placement and migration of
     *  the cluster simulator, so a lookup is two array indexes. */
    std::array<std::array<double, kNumIsas>, kNumWorkloads> base_;
};

} // namespace xisa

#endif // XISA_SCHED_PROFILE_HH
