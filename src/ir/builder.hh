/**
 * @file
 * Fluent construction of BIR modules.
 *
 * FuncBuilder mirrors LLVM's IRBuilder: it appends instructions to a
 * current block and offers structured helpers (forLoop / whileLoop /
 * ifThen / ifThenElse) so the mini-workloads in workload/ read like the
 * C kernels they stand in for. Loop helpers also maintain the per-block
 * loop-depth hint consumed by the migration-point insertion pass and the
 * register allocator's hotness heuristic.
 */

#ifndef XISA_IR_BUILDER_HH
#define XISA_IR_BUILDER_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ir/ir.hh"

namespace xisa {

class ModuleBuilder;

/** Builds one BIR function. Obtained from ModuleBuilder::defineFunc(). */
class FuncBuilder
{
  public:
    /** The ValueId of parameter `idx`. */
    ValueId param(size_t idx) const;

    /** Allocate a fresh virtual register of the given type. */
    ValueId newReg(Type type);

    /** Declare a stack slot; returns the slot index for allocaAddr(). */
    uint32_t declareAlloca(uint32_t size, uint32_t align,
                           const std::string &name);

    /** Create a new (empty) basic block; does not switch to it. */
    uint32_t newBlock();
    /** Switch the insertion point to `block`. */
    void setBlock(uint32_t block);
    /** Current insertion block. */
    uint32_t currentBlock() const { return cur_; }

    // --- Constants -----------------------------------------------------
    ValueId constInt(int64_t value, Type type = Type::I64);
    ValueId constFloat(double value);

    // --- Integer arithmetic (result type = type of lhs) ----------------
    ValueId add(ValueId a, ValueId b);
    ValueId sub(ValueId a, ValueId b);
    ValueId mul(ValueId a, ValueId b);
    ValueId sdiv(ValueId a, ValueId b);
    ValueId udiv(ValueId a, ValueId b);
    ValueId srem(ValueId a, ValueId b);
    ValueId urem(ValueId a, ValueId b);
    ValueId band(ValueId a, ValueId b);
    ValueId bor(ValueId a, ValueId b);
    ValueId bxor(ValueId a, ValueId b);
    ValueId shl(ValueId a, ValueId b);
    ValueId lshr(ValueId a, ValueId b);
    ValueId ashr(ValueId a, ValueId b);
    ValueId neg(ValueId a);
    /** a + constant (emits a ConstInt as needed). */
    ValueId addImm(ValueId a, int64_t imm);
    ValueId mulImm(ValueId a, int64_t imm);

    // --- Floating point -------------------------------------------------
    ValueId fadd(ValueId a, ValueId b);
    ValueId fsub(ValueId a, ValueId b);
    ValueId fmul(ValueId a, ValueId b);
    ValueId fdiv(ValueId a, ValueId b);
    ValueId fneg(ValueId a);
    ValueId sitofp(ValueId a);
    ValueId fptosi(ValueId a);

    // --- Comparisons (result is I64 0/1) --------------------------------
    ValueId icmp(Cond cond, ValueId a, ValueId b);
    ValueId fcmp(Cond cond, ValueId a, ValueId b);

    // --- Data movement ---------------------------------------------------
    /** dst = src (types must match); returns dst for chaining. */
    void copy(ValueId dst, ValueId src);

    // --- Memory ----------------------------------------------------------
    ValueId allocaAddr(uint32_t slot);
    ValueId globalAddr(uint32_t globalId);
    ValueId tlsAddr(uint32_t globalId);
    ValueId funcAddr(uint32_t funcId);
    ValueId load(Type type, ValueId addr, int64_t off = 0);
    void store(Type type, ValueId addr, ValueId value, int64_t off = 0);
    ValueId loadIdx(Type type, ValueId base, ValueId index, int64_t scale);
    void storeIdx(Type type, ValueId base, ValueId index, ValueId value,
                  int64_t scale);
    ValueId atomicAdd(ValueId addr, ValueId value);

    // --- Control flow -----------------------------------------------------
    void br(uint32_t block);
    void condBr(ValueId cond, uint32_t thenBlock, uint32_t elseBlock);
    void ret(ValueId value = kNoValue);
    ValueId call(uint32_t funcId, const std::vector<ValueId> &args = {});
    /** Call whose result (if any) is discarded. */
    void callVoid(uint32_t funcId, const std::vector<ValueId> &args = {});
    ValueId callInd(Type retType, ValueId targetAddr,
                    const std::vector<ValueId> &args = {});
    /** Insert an explicit migration point (Section 5.2.1). */
    void migPoint();

    // --- Structured control-flow helpers ----------------------------------
    /**
     * Emit `for (iv = lo; iv < hi; iv += step) body(iv)`.
     * The induction variable is a fresh I64 vreg passed to `body`.
     */
    void forLoop(ValueId lo, ValueId hi,
                 const std::function<void(ValueId iv)> &body,
                 int64_t step = 1);
    /** forLoop with constant bounds. */
    void forLoopI(int64_t lo, int64_t hi,
                  const std::function<void(ValueId iv)> &body,
                  int64_t step = 1);
    /**
     * Emit `while (cond()) body()`. `cond` must emit code computing the
     * condition value in the current block and return it.
     */
    void whileLoop(const std::function<ValueId()> &cond,
                   const std::function<void()> &body);
    /** Emit `if (cond != 0) then()`. */
    void ifThen(ValueId cond, const std::function<void()> &then);
    /** Emit `if (cond != 0) then() else other()`. */
    void ifThenElse(ValueId cond, const std::function<void()> &then,
                    const std::function<void()> &other);

    /** The function being built (valid until ModuleBuilder::finish). */
    IRFunction &fn() { return *fn_; }

  private:
    friend class ModuleBuilder;
    FuncBuilder(ModuleBuilder &parent, IRFunction &fn);

    IRInstr &emit(IRInstr instr);
    ValueId emitBin(IROp op, ValueId a, ValueId b);
    ValueId emitBinF(IROp op, ValueId a, ValueId b);
    Type typeOf(ValueId v) const;

    ModuleBuilder &parent_;
    IRFunction *fn_;
    uint32_t cur_ = 0;
    int loopDepth_ = 0;
};

/** Builds a whole BIR module, including the standard builtins. */
class ModuleBuilder
{
  public:
    explicit ModuleBuilder(std::string name);

    /**
     * Define a function and return a builder positioned at its entry
     * block. The returned reference is stable until finish().
     */
    FuncBuilder &defineFunc(const std::string &name, Type retType,
                            const std::vector<Type> &params);

    /** Declare a zero-initialized global. Returns its id. */
    uint32_t addGlobal(const std::string &name, uint64_t size,
                       uint32_t align = 8, bool isConst = false,
                       bool isTls = false);
    /** Declare a global initialized with raw bytes. */
    uint32_t addGlobalData(const std::string &name,
                           std::vector<uint8_t> init, uint32_t align = 8,
                           bool isConst = false);
    /** Declare a global holding an array of i64 values. */
    uint32_t addGlobalI64s(const std::string &name,
                           const std::vector<int64_t> &values,
                           bool isConst = false);
    /** Declare a global holding an array of f64 values. */
    uint32_t addGlobalF64s(const std::string &name,
                           const std::vector<double> &values,
                           bool isConst = false);

    /** Function id of a standard builtin (declared automatically). */
    uint32_t builtin(Builtin which) const;

    /** Id a function will get if defined next / already has. */
    uint32_t findFunc(const std::string &name) const;

    /** Signature of a declared function or builtin (front-end use). */
    const IRFunction &
    signature(uint32_t funcId) const
    {
        return calleeRef(funcId);
    }

    /**
     * Finalize: set the entry to `entryName`, verify, and move the
     * module out. The builder must not be used afterwards.
     */
    Module finish(const std::string &entryName = "main");

  private:
    friend class FuncBuilder;
    void declareBuiltins();
    /** Signature of a declared function (for Call type checking). */
    const IRFunction &calleeRef(uint32_t funcId) const;

    Module mod_;
    /** Functions under construction; pointer-stable across defineFunc. */
    std::vector<std::unique_ptr<IRFunction>> funcs_;
    std::vector<std::unique_ptr<FuncBuilder>> funcBuilders_;
    uint32_t builtinIds_[16] = {};
};

} // namespace xisa

#endif // XISA_IR_BUILDER_HH
