/**
 * @file
 * The benchmark workloads of the paper's evaluation (Section 6), as BIR
 * programs so they are compiled by the CrossBound toolchain and executed
 * (and migrated) for real.
 *
 * The paper uses NAS Parallel Benchmarks (SP, IS, FT, BT, CG, EP, MG)
 * in classes A/B/C, plus bzip2smp, the Verus model checker, and Redis.
 * We implement miniature kernels with the same computational character:
 *
 *  - CG: sparse-matrix power iteration (irregular memory + FP)
 *  - IS: bucket sort of LCG-generated keys (integer, memory)
 *  - FT: strided butterfly-style sweeps (regular memory + FP)
 *  - EP: pseudo-random pair tallying (CPU-bound, trivially parallel)
 *  - MG: 1-D multigrid V-cycles (mixed strides + FP)
 *  - SP: Jacobi 5-point relaxation (memory streaming + FP)
 *  - BT: per-line Thomas solves (FP + data-dependent recurrences)
 *  - BZIP: RLE + move-to-front + entropy accumulation (branchy, byte)
 *  - VERUS: BFS over an implicit transition system (branchy, pointer)
 *  - REDIS: open-addressing hash-table GET/SET service loop
 *
 * Problem classes A/B/C scale the working set, matching the paper's use
 * of classes to produce short- and long-running jobs. The NPB-like
 * kernels take an nthreads parameter (OpenMP-style fork/join with
 * barriers, the POMP role); the other three are serial, as in the
 * paper's usage. Every workload prints a deterministic checksum used by
 * the differential and migration tests.
 */

#ifndef XISA_WORKLOAD_WORKLOADS_HH
#define XISA_WORKLOAD_WORKLOADS_HH

#include <cstddef>
#include <string>
#include <vector>

#include "ir/ir.hh"

namespace xisa {

/** Workload identifiers. */
enum class WorkloadId {
    CG, IS, FT, EP, MG, SP, BT,
    BZIP, VERUS, REDIS,
};

/** Number of WorkloadIds: REDIS is the last. */
inline constexpr size_t kNumWorkloads =
    static_cast<size_t>(WorkloadId::REDIS) + 1;

/** NPB-style problem classes. */
enum class ProblemClass { A, B, C };

/**
 * One workload, described once. Adding a workload is one record in
 * workloadTable() (name, thread-capability, builder, work); every query
 * below -- and the exp/ WorkloadRegistry -- derives from the table,
 * so there are no parallel switches to keep in sync.
 */
struct WorkloadDesc {
    WorkloadId id;
    const char *name;    ///< short name, e.g. "cg"
    bool threadCapable;  ///< accepts nthreads > 1 (the NPB-like set)
    Module (*build)(ProblemClass cls, int nthreads);
    /** Guest instructions of a class-A serial run on Xeno64, in
     *  millions: the workload's relative host cost, so sweeps can
     *  start their longest cells first. A hint, pinned within 25% of
     *  the measured count by a test. */
    double workMinstrs;
};

/** The registration table, in WorkloadId order. */
const std::vector<WorkloadDesc> &workloadTable();

/** Descriptor lookup; null for an unknown name. */
const WorkloadDesc *findWorkload(const std::string &name);
/** Descriptor of an id (never null for a valid id). */
const WorkloadDesc &workloadDesc(WorkloadId id);

/** Short name, e.g. "cg". */
const char *workloadName(WorkloadId id);
/** "A"/"B"/"C". */
const char *className(ProblemClass cls);
/** Parse "A"/"B"/"C" (also lowercase); false on anything else. */
bool parseProblemClass(const std::string &s, ProblemClass *out);

/** All workloads. */
std::vector<WorkloadId> allWorkloads();
/** The NPB-like, thread-capable subset. */
std::vector<WorkloadId> npbWorkloads();
/** True if the workload supports nthreads > 1. */
bool supportsThreads(WorkloadId id);

/**
 * Build the BIR module for a workload.
 *
 * @param id which kernel
 * @param cls problem class (scales the working set 1x/4x/16x)
 * @param nthreads worker count (must be 1 for serial-only workloads)
 */
Module buildWorkload(WorkloadId id, ProblemClass cls, int nthreads = 1);

/** Problem-size scale factor of a class (A=1, B=4, C=16). */
int classScale(ProblemClass cls);

} // namespace xisa

#endif // XISA_WORKLOAD_WORKLOADS_HH
