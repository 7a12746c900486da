/**
 * @file
 * Application binary interface descriptors for the two synthetic ISAs.
 *
 * The ABI descriptor drives code generation (compiler/), frame layout,
 * stackmap emission, and the runtime register-state mapping r^AB of the
 * paper's Section 4. The two descriptors intentionally disagree on
 * argument registers, callee-saved sets, link-register use, and frame
 * header shape so that cross-ISA stack transformation has real work to
 * do.
 */

#ifndef XISA_ISA_ABI_HH
#define XISA_ISA_ABI_HH

#include <cstdint>
#include <vector>

#include "isa/isa.hh"

namespace xisa {

/** Number of architectural GPRs modeled per ISA file (max of both). */
constexpr int kMaxGpr = 32;
/** Number of architectural FPRs modeled per ISA file. */
constexpr int kMaxFpr = 16;

/**
 * Calling convention and register convention of one ISA.
 *
 * Instances are immutable singletons obtained via AbiInfo::of().
 */
struct AbiInfo {
    IsaId isa;
    const char *name;

    int numGpr;  ///< valid GPR ids are [0, numGpr)
    int numFpr;  ///< valid FPR ids are [0, numFpr)
    int spReg;   ///< stack pointer GPR id
    int fpReg;   ///< frame pointer GPR id
    int linkReg; ///< link register GPR id, or -1 if return addr on stack
    int retReg;  ///< integer/pointer return value GPR
    int fpRetReg; ///< f64 return value FPR

    std::vector<uint8_t> intArgRegs; ///< integer argument GPRs, in order
    std::vector<uint8_t> fpArgRegs;  ///< f64 argument FPRs, in order
    std::vector<uint8_t> calleeSavedGpr; ///< excludes SP and FP
    std::vector<uint8_t> calleeSavedFpr;
    std::vector<uint8_t> scratchGpr; ///< caller-saved allocatable GPRs
    std::vector<uint8_t> scratchFpr; ///< caller-saved allocatable FPRs

    int stackAlign;      ///< required SP alignment at call sites
    bool retAddrOnStack; ///< true: Bl pushes return address (Xeno64)

    /** The singleton descriptor for an ISA. */
    static const AbiInfo &of(IsaId isa);

    /** True if GPR `reg` is callee-saved (including the frame pointer). */
    bool isCalleeSavedGpr(int reg) const;

    /** Register name for disassembly, e.g. "x19" / "r12" / "sp". */
    std::string gprName(int reg) const;
    /** FPR name for disassembly, e.g. "d8" / "xmm3". */
    std::string fprName(int reg) const;
};

} // namespace xisa

#endif // XISA_ISA_ABI_HH
