#include "isa/abi.hh"

#include <algorithm>

#include "util/logging.hh"

namespace xisa {

namespace {

AbiInfo
makeAether64()
{
    AbiInfo abi;
    abi.isa = IsaId::Aether64;
    abi.name = "aether64";
    abi.numGpr = 32; // x0..x30 + SP as id 31
    abi.numFpr = 16; // d0..d15
    abi.spReg = 31;
    abi.fpReg = 29;
    abi.linkReg = 30;
    abi.retReg = 0;
    abi.fpRetReg = 0;
    abi.intArgRegs = {0, 1, 2, 3, 4, 5, 6, 7};
    abi.fpArgRegs = {0, 1, 2, 3, 4, 5, 6, 7};
    abi.calleeSavedGpr = {19, 20, 21, 22, 23, 24, 25, 26, 27, 28};
    abi.calleeSavedFpr = {8, 9, 10, 11, 12, 13, 14, 15};
    // x0..x7 are argument registers; x8..x18 are scratch. x16/x17 are
    // reserved as codegen temporaries (see compiler/backend.cc), so the
    // allocator hands out x8..x15 and x18.
    abi.scratchGpr = {8, 9, 10, 11, 12, 13, 14, 15, 18};
    abi.scratchFpr = {0, 1, 2, 3, 4, 5, 6, 7};
    abi.stackAlign = 16;
    abi.retAddrOnStack = false;
    return abi;
}

AbiInfo
makeXeno64()
{
    AbiInfo abi;
    abi.isa = IsaId::Xeno64;
    abi.name = "xeno64";
    abi.numGpr = 16; // r0..r15 (r0=ax, r4=sp, r5=bp per x86-64 numbering)
    abi.numFpr = 16; // xmm0..xmm15
    abi.spReg = 4;
    abi.fpReg = 5;
    abi.linkReg = -1;
    abi.retReg = 0;
    abi.fpRetReg = 0;
    abi.intArgRegs = {7, 6, 2, 1, 8, 9}; // di, si, dx, cx, r8, r9
    abi.fpArgRegs = {0, 1, 2, 3, 4, 5, 6, 7};
    abi.calleeSavedGpr = {3, 12, 13, 14, 15}; // bx, r12..r15 (bp is FP)
    abi.calleeSavedFpr = {};                  // SysV: no FPRs preserved
    // r10/r11 are codegen temporaries; the allocator hands out ax and
    // the argument registers between calls.
    abi.scratchGpr = {0, 1, 2, 6, 7, 8, 9};
    abi.scratchFpr = {0, 1, 2, 3, 4, 5, 6, 7};
    abi.stackAlign = 16;
    abi.retAddrOnStack = true;
    return abi;
}

} // namespace

const AbiInfo &
AbiInfo::of(IsaId isa)
{
    static const AbiInfo aether = makeAether64();
    static const AbiInfo xeno = makeXeno64();
    return isa == IsaId::Aether64 ? aether : xeno;
}

bool
AbiInfo::isCalleeSavedGpr(int reg) const
{
    if (reg == fpReg)
        return true;
    return std::find(calleeSavedGpr.begin(), calleeSavedGpr.end(), reg) !=
           calleeSavedGpr.end();
}

std::string
AbiInfo::gprName(int reg) const
{
    if (reg < 0 || reg >= numGpr)
        panic("gprName: register %d out of range for %s", reg, name);
    if (isa == IsaId::Aether64) {
        if (reg == spReg)
            return "sp";
        return strfmt("x%d", reg);
    }
    static const char *xenoNames[16] = {
        "ax", "cx", "dx", "bx", "sp", "bp", "si", "di",
        "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
    };
    return xenoNames[reg];
}

std::string
AbiInfo::fprName(int reg) const
{
    if (reg < 0 || reg >= numFpr)
        panic("fprName: register %d out of range for %s", reg, name);
    return strfmt(isa == IsaId::Aether64 ? "d%d" : "xmm%d", reg);
}

} // namespace xisa
