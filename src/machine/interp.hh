/**
 * @file
 * The machine-code interpreters for Aether64 and Xeno64.
 *
 * One Interp instance executes one ISA's text of a multi-ISA binary on
 * one node's timing model. The interpreter is the "CPU": it implements
 * full call/return semantics (link register on Aether64, pushed return
 * addresses on Xeno64), charges per-op cycle costs plus I-/D-cache and
 * DSM penalties, and stops -- returning control to the OS layer -- on
 * builtin call-outs, migration call-outs, syscalls, thread exit, or
 * budget expiry. It never performs OS work itself.
 */

#ifndef XISA_MACHINE_INTERP_HH
#define XISA_MACHINE_INTERP_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "binary/multibinary.hh"
#include "isa/abi.hh"
#include "machine/mem.hh"
#include "machine/node.hh"

namespace xisa {

class ThreadedEngine;
class ExecCache;
class SuperblockObserver;

/** Architectural condition flags produced by Cmp/CmpImm/FCmp. */
struct Flags {
    bool eq = false;
    bool lt = false;  ///< signed less-than
    bool ult = false; ///< unsigned less-than
};

/** Evaluate a condition code against the flags. Inline: this is the
 *  hottest predicate of both dispatch engines (BCond/CSet uops).
 *  Branchless: the flags form a 3-bit index and each condition is an
 *  8-entry truth table packed into one byte, so evaluation is a table
 *  load and a shift instead of a jump table the branch predictor has
 *  to disambiguate across every conditional uop in flight. */
inline bool
evalCond(Cond cond, const Flags &f)
{
    // Bit i of kTruth[cond] = condition holds for flag index i, where
    // i = eq | lt<<1 | ult<<2 (impossible combinations are don't-care
    // but filled in consistently).
    static constexpr uint8_t kTruth[] = {
        0xAA, // EQ:  eq
        0x55, // NE:  !eq
        0xCC, // LT:  lt
        0xEE, // LE:  lt || eq
        0x11, // GT:  !(lt || eq)
        0x33, // GE:  !lt
        0xF0, // ULT: ult
        0xF2, // ULE: ult || eq
        0x0D, // UGT: !(ult || eq)
        0x0F, // UGE: !ult
        0xFF, // Always
    };
    unsigned idx = (f.eq ? 1u : 0u) | (f.lt ? 2u : 0u) | (f.ult ? 4u : 0u);
    return (kTruth[static_cast<unsigned>(cond)] >> idx) & 1u;
}

/** Architectural state of one thread (the paper's R_i). */
struct ThreadContext {
    uint64_t gpr[kMaxGpr] = {};
    double fpr[kMaxFpr] = {};
    Flags flags;
    CodeLoc pc;
    uint64_t tlsBase = 0;
    IsaId isa = IsaId::Xeno64;

    // Accounting.
    uint64_t instrs = 0;
    uint64_t cycles = 0;
    uint64_t dsmExtraCycles = 0; ///< cycles added by hDSM faults

    uint64_t &sp(const AbiInfo &abi) { return gpr[abi.spReg]; }
    uint64_t &fp(const AbiInfo &abi) { return gpr[abi.fpReg]; }
};

/** Why Interp::run() returned. */
enum class StopReason {
    Budget,      ///< instruction budget exhausted
    Halt,        ///< thread finished (Hlt or return to exit sentinel)
    BuiltinTrap, ///< Bl/Blr to a builtin; OS must execute it
    MigrateTrap, ///< Bl to the migration runtime (flag was set)
    Syscall,     ///< explicit SysCall instruction
};

/** Result of one run() slice. */
struct StepResult {
    StopReason reason = StopReason::Budget;
    uint64_t instrsRun = 0;
    uint64_t cyclesRun = 0;
    uint32_t trapFuncId = 0;   ///< builtin function id (BuiltinTrap)
    uint32_t trapCallSite = 0; ///< call-site id (MigrateTrap / calls)
    int64_t sysno = 0;         ///< syscall number (Syscall)
    uint64_t exitValue = 0;    ///< return value of the thread (Halt)
};

/** Observer of migration-point flag checks (for the gap profiler). */
class MigCheckObserver
{
  public:
    virtual ~MigCheckObserver() = default;
    /**
     * Called each time a thread executes a migration-point check.
     * @param instrsNow the thread's live instruction count (ctx.instrs
     *        is only folded in at the end of a run slice)
     */
    virtual void onMigCheck(const ThreadContext &ctx, uint32_t siteId,
                            uint64_t instrsNow) = 0;
};

/**
 * One predecoded instruction of the fast-path engine (DESIGN.md §7).
 * Everything the dispatch loop used to re-derive per visit -- the
 * instruction fetch address (funcBase + instrOff[idx]), the address of
 * the next instruction (the return address for calls), and the per-op
 * base cycle cost -- is resolved once per function and kept in one
 * dense array the loop indexes directly.
 */
struct PreInstr {
    MachInstr in;
    uint64_t fetchAddr = 0; ///< I-cache address of this instruction
    uint64_t nextAddr = 0;  ///< address of instr idx+1 (call return)
    uint8_t cost = 0;       ///< NodeSpec::cost(op), resolved once
};

/** Machine-code interpreter for one ISA of one binary. */
class Interp
{
  public:
    /**
     * @param bin the multi-ISA binary to execute
     * @param isa which text image to run
     * @param spec timing model of the node this interpreter belongs to
     */
    Interp(const MultiIsaBinary &bin, IsaId isa, const NodeSpec &spec);
    ~Interp(); // out of line: ThreadedEngine is incomplete here

    /**
     * Run `ctx` for at most `maxInstrs` instructions.
     *
     * @param mem  memory path (local or DSM-backed)
     * @param core private core state (caches, counters) to charge
     * @param l2   the node's shared L2
     *
     * On BuiltinTrap/MigrateTrap/Syscall the PC is left AT the trapping
     * instruction; the OS completes the operation and calls
     * finishTrap() (or performs a migration) to advance.
     */
    StepResult run(ThreadContext &ctx, MemPort &mem, Core &core,
                   Cache &l2, uint64_t maxInstrs);

    /**
     * Complete a trapped call-out: write an integer or FP result (per
     * the callee's return type), and advance the PC past the call.
     */
    void finishTrap(ThreadContext &ctx, Type retType, int64_t intResult,
                    double fpResult);

    /** Read the arguments of a trapped builtin call per the ABI. */
    std::vector<int64_t> readTrapArgs(const ThreadContext &ctx,
                                      const IRFunction &callee) const;

    /** Install (or clear) the migration-check observer. While one is
     *  installed run() bypasses the threaded engine: the observer's
     *  per-check callback needs the reference engine's live PC. */
    void setMigCheckObserver(MigCheckObserver *obs) { observer_ = obs; }

    /** Install (or clear) the superblock-boundary observer (audit). */
    void setSuperblockObserver(SuperblockObserver *obs);

    /**
     * Share predecoded streams and lowered superblocks through `cache`
     * (see ExecCache). Call before the first run(); streams already
     * built privately are not retroactively published.
     */
    void shareExecCache(std::shared_ptr<ExecCache> cache);

    /** Enable per-machine-instruction execution counting. */
    void enableProfile();
    /** Profile counts: [funcId][machine instr index]. */
    const std::vector<std::vector<uint64_t>> &profile() const
    {
        return profile_;
    }

    const MultiIsaBinary &binary() const { return bin_; }
    IsaId isa() const { return isa_; }
    const CodeMap &codeMap() const { return codeMap_; }

    /** Predecoded stream of one function (built on first use). */
    const std::vector<PreInstr> &predecoded(uint32_t funcId);

  private:
    /** The dispatch loop, instantiated once per engine: kFast indexes
     *  the predecoded stream, !kFast re-derives everything per step
     *  (the XISA_SLOW_PATH reference semantics). */
    template <bool kFast>
    StepResult runImpl(ThreadContext &ctx, MemPort &mem, Core &core,
                       Cache &l2, uint64_t maxInstrs);

    /** The threaded engine lowers from bin_/spec_ and deopts into
     *  runImpl<true>; it is an extension of this class, not a client. */
    friend class ThreadedEngine;

    const MultiIsaBinary &bin_;
    IsaId isa_;
    const AbiInfo &abi_;
    /** Owned copy: callers routinely keep their NodeSpec in a vector
     *  that may reallocate (ReplicatedOS::nodes_), so a reference here
     *  dangles as soon as the owning element moves. */
    const NodeSpec spec_;
    CodeMap codeMap_;
    MigCheckObserver *observer_ = nullptr;
    bool profiling_ = false;
    /** Fixed at construction: the threaded engine is built over the
     *  fast path only. */
    const bool fastPath_;
    /** Per-function predecoded streams, shared-immutable so ExecCache
     *  can hand one copy to every node of a sweep. [funcId] */
    std::vector<std::shared_ptr<const std::vector<PreInstr>>> pre_;
    std::vector<std::vector<uint64_t>> profile_;
    uint64_t execSig_ = 0; ///< execTimingSig(spec_), the cache key
    std::shared_ptr<ExecCache> execCache_;
    std::unique_ptr<ThreadedEngine> threaded_;
};

} // namespace xisa

#endif // XISA_MACHINE_INTERP_HH
