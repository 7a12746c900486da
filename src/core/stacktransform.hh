/**
 * @file
 * The stack transformation runtime (Section 5.3) -- the paper's primary
 * contribution together with multi-ISA binaries.
 *
 * At a migration point the thread is suspended at a `Bl` call-out whose
 * call-site id keys per-ISA metadata. The transformer:
 *
 *  1. walks the source stack frame-by-frame via the FP chain (both ABIs
 *     keep caller-FP at [FP] and return address at [FP+8]),
 *  2. lays out the destination frames in the other half of the thread's
 *     stack region (the runtime "divides a thread's stack into two
 *     halves ... and switches stacks right before invoking the thread
 *     migration service"),
 *  3. copies every alloca byte-for-byte and every live value according
 *     to the per-ISA stackmaps, re-homing values held in callee-saved
 *     registers by walking the call chain to the frame that saved the
 *     register (paper: "walks down the function call chain until it
 *     finds the frame where the register has been saved"),
 *  4. rewrites frame linkage (saved FPs and return addresses) to the
 *     destination ISA's resume addresses -- the PC part of the r^AB
 *     register mapping of Section 4,
 *  5. fixes up pointers that point into the source stack so they
 *     reference the matching alloca on the destination stack.
 *
 * The result is a complete destination-ISA register state: PC at the
 * destination resume address, SP/FP in the new half, callee-saved
 * registers populated.
 */

#ifndef XISA_CORE_STACKTRANSFORM_HH
#define XISA_CORE_STACKTRANSFORM_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "binary/multibinary.hh"
#include "dsm/dsm.hh"
#include "machine/interp.hh"
#include "machine/node.hh"
#include "obs/registry.hh"

namespace xisa {

/** Work accounting for one transformation. */
struct TransformStats {
    uint32_t frames = 0;
    uint32_t liveValues = 0;
    uint32_t pointersFixed = 0;
    uint64_t bytesCopied = 0;
    /** Simulated cost charged to the source core. */
    uint64_t cycles = 0;
    /** Measured wall-clock of this (real) transformation run. */
    double hostSeconds = 0.0;
};

/** Cross-ISA stack and register-state transformer. */
class StackTransformer
{
  public:
    explicit StackTransformer(const MultiIsaBinary &bin);

    /**
     * Transform `src` (suspended at migration call site `siteId`, PC at
     * the Bl) into a destination-ISA context.
     *
     * @param src       source thread context
     * @param siteId    migration call-site id from the trap
     * @param destIsa   ISA to rewrite for
     * @param dsm       the process's memory (accessed on `node`)
     * @param node      node performing the transformation (source node)
     * @param stackTopAddr highest address (exclusive) of this thread's
     *        stack region
     * @param stats     optional work accounting out-param
     */
    ThreadContext transform(const ThreadContext &src, uint32_t siteId,
                            IsaId destIsa, DsmSpace &dsm, int node,
                            uint64_t stackTopAddr,
                            TransformStats *stats = nullptr);

    /** Simulated cycle cost model for a transformation of this shape,
     *  on a node with the given spec (calibrated to Fig. 10's scale). */
    static uint64_t costCycles(const TransformStats &work,
                               const NodeSpec &spec);

    /**
     * Attach cumulative work counters (`<prefix>.transforms`, `.frames`,
     * `.live_values`, `.pointers_fixed`, `.bytes_copied`). Host
     * wall-clock stays out of the registry, so a dump is a function of
     * the simulated run alone; it is per transform in
     * TransformStats::hostSeconds.
     */
    void registerStats(obs::StatRegistry &reg, const std::string &prefix);

    const MultiIsaBinary &binary() const { return bin_; }

    /**
     * RAII audit mode: while alive, transform() emits no trace events
     * and bumps no counters, so an auditor can run a shadow (reverse)
     * transformation without changing the run's observables. Memory
     * traffic must additionally be suppressed by the caller (see
     * DsmSpace::ProtocolBypass).
     */
    class AuditScope
    {
      public:
        explicit AuditScope(StackTransformer &x)
            : x_(x), prev_(x.auditMode_)
        {
            x_.auditMode_ = true;
        }
        ~AuditScope() { x_.auditMode_ = prev_; }
        AuditScope(const AuditScope &) = delete;
        AuditScope &operator=(const AuditScope &) = delete;

      private:
        StackTransformer &x_;
        bool prev_;
    };

  private:
    /** One source frame discovered by the walk. */
    struct Frame {
        uint32_t funcId = 0;
        const CallSiteInfo *srcSite = nullptr;  ///< suspended call site
        const CallSiteInfo *destSite = nullptr; ///< same id, dest ISA
        uint64_t srcFp = 0;
        uint64_t destFp = 0;
    };

    const CallSiteInfo *siteByRetAddr(IsaId isa, uint64_t retAddr) const;

    const MultiIsaBinary &bin_;
    /** retAddr -> site, per ISA (built once; the DWARF-index analog). */
    std::array<std::unordered_map<uint64_t, const CallSiteInfo *>,
               kNumIsas> byRetAddr_;
    /** Code-address indices, one per ISA. */
    std::array<CodeMap, kNumIsas> codeMaps_;
    /** Interned "frame <name>" trace labels per funcId, resolved on the
     *  first traced walk of each function. */
    std::vector<const char *> frameSpanNames_;
    /** True inside an AuditScope: suppress stats and trace output. */
    bool auditMode_ = false;

    // Cumulative work across all transforms (registry-backed).
    obs::Counter transforms_;
    obs::Counter frames_;
    obs::Counter liveValues_;
    obs::Counter pointersFixed_;
    obs::Counter bytesCopied_;
};

} // namespace xisa

#endif // XISA_CORE_STACKTRANSFORM_HH
