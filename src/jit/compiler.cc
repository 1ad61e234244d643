#include "jit/compiler.h"

#include <cassert>
#include <cpuid.h>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "jit/assembler.h"
#include "jit/code_buffer.h"
#include "wasm/serialize.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/trace.h"

namespace lnb::jit {

namespace {

/** Compile-time probes only: nothing here runs inside generated code,
 * so the per-strategy execution timings are unaffected. */
struct JitMetrics
{
    obs::Counter modulesCompiled = obs::registerCounter(
        "jit.modules_compiled");
    obs::Counter functionsCompiled = obs::registerCounter(
        "jit.functions_compiled");
    obs::Counter codeBytes = obs::registerCounter("jit.code_bytes");
    obs::Counter boundsChecksEmitted = obs::registerCounter(
        "jit.bounds_checks_emitted");
    obs::Counter boundsChecksElided = obs::registerCounter(
        "jit.bounds_checks_elided");
    obs::Counter guardAccessesEmitted = obs::registerCounter(
        "jit.guard_accesses_emitted");
    obs::Histogram compileLatency = obs::registerHistogram(
        "jit.compile_ns");
};

JitMetrics&
jitMetrics()
{
    static JitMetrics m;
    return m;
}

/**
 * Stable ids for the runtime glue symbols generated code calls through
 * movabs (RelocKind::glue addends). The ids go to disk inside serialized
 * artifacts, so the numbering must never be reordered — append only.
 */
enum GlueSym : uint64_t {
    kGlueHostCall = 0,
    kGlueInterrupt = 1,
    kGlueAtomic = 2,
    kGlueMemSize = 3,
    kGlueMemGrow = 4,
    kGlueMemCopy = 5,
    kGlueMemFill = 6,
    kGlueCount = 7,
};

/** Current process address of glue symbol @p id; null for unknown ids
 * (an artifact written by a newer build — the caller rejects it). */
const void*
glueSymAddress(uint64_t id)
{
    switch (id) {
      case kGlueHostCall:
        return reinterpret_cast<const void*>(&exec::lnbJitHostCall);
      case kGlueInterrupt:
        return reinterpret_cast<const void*>(&exec::lnbJitInterrupt);
      case kGlueAtomic:
        return reinterpret_cast<const void*>(&exec::lnbJitAtomic);
      case kGlueMemSize:
        return reinterpret_cast<const void*>(&exec::lnbJitMemorySize);
      case kGlueMemGrow:
        return reinterpret_cast<const void*>(&exec::lnbJitMemoryGrow);
      case kGlueMemCopy:
        return reinterpret_cast<const void*>(&exec::lnbJitMemoryCopy);
      case kGlueMemFill:
        return reinterpret_cast<const void*>(&exec::lnbJitMemoryFill);
      default:
        return nullptr;
    }
}

using exec::InstanceContext;
using mem::BoundsStrategy;
using wasm::LInst;
using wasm::LOp;
using wasm::LoweredFunc;
using wasm::LoweredModule;
using wasm::Op;
using wasm::TrapKind;
using wasm::ValType;

// ----- helpers for decomposing fused pseudo-ops (wasm/opt.*) -----

/** Signature character of @p binop's operand @p index ('i'/'I'/'f'/'F'). */
char
operandSigChar(Op binop, int index)
{
    return wasm::opInfo(binop).sig[index];
}

/** Const opcode whose cell write matches operand @p index of @p binop. */
Op
constOpForOperand(Op binop, int index)
{
    switch (operandSigChar(binop, index)) {
      case 'i': return Op::i32_const;
      case 'I': return Op::i64_const;
      case 'f': return Op::f32_const;
      default: return Op::f64_const;
    }
}

/** ValType of operand @p index of @p binop (drives copy register class). */
ValType
valTypeForOperand(Op binop, int index)
{
    switch (operandSigChar(binop, index)) {
      case 'i': return ValType::i32;
      case 'I': return ValType::i64;
      case 'f': return ValType::f32;
      default: return ValType::f64;
    }
}

LInst
synthBinop(uint16_t op, uint32_t a, uint32_t b)
{
    LInst binop;
    binop.op = op;
    binop.a = a;
    binop.b = b;
    return binop;
}

// ---------------------------------------------------------------------
// Register conventions (see DESIGN.md §6)
//
//   rbp  InstanceContext*                        (pinned, callee-saved)
//   r15  frame base (cells) in the value stack   (pinned, callee-saved)
//   rbx, r12, r13, r14   integer homes of stack slots 0..3
//   xmm8..xmm11          float homes of stack slots 0..3
//   rax, rcx, rdx, rsi, rdi, r8-r11, xmm0-xmm5   scratch
// ---------------------------------------------------------------------

constexpr Reg kCtxReg = rbp;
constexpr Reg kFrameReg = r15;

/**
 * Register-home pools. Index 0..1 are the homes of operand-stack slots 0
 * and 1 (dual-class: a slot holds ints or floats depending on the program
 * point). Indices 2..5 are assigned to the function's first four locals;
 * a local uses the pool register of its own class (the cross-class
 * register of that index stays idle). rbx/r12/r13/r14 are callee-saved;
 * r8/r9 and every xmm are caller-saved and spilled around native calls.
 */
constexpr Reg kSlotGpr[7] = {rbx, r12, r13, r14, r8, r9, r10};
constexpr Xmm kSlotXmm[7] = {xmm8, xmm9, xmm10, xmm11, xmm12, xmm13, xmm14};
constexpr int kNumSlotRegs = 3;  ///< stack slots with register homes
constexpr int kNumLocalRegs = 4; ///< locals with register homes

Mem
ctxField(size_t offset)
{
    return Mem{kCtxReg, int32_t(offset)};
}

#define CTX_FIELD(name) ctxField(offsetof(InstanceContext, name))

/** Register class of a value type. */
enum class RC : uint8_t { gpr, fpr };

RC
classOf(ValType t)
{
    return wasm::isFloatType(t) ? RC::fpr : RC::gpr;
}

/** IEEE-754 bit-pattern constants used by conversion sequences. */
constexpr uint64_t kF64Bits2p31 = 0x41E0000000000000ull;  // 2^31
constexpr uint64_t kF64Bits2p32 = 0x41F0000000000000ull;  // 2^32
constexpr uint64_t kF64Bits2p63 = 0x43E0000000000000ull;  // 2^63
constexpr uint64_t kF64Bits2p64 = 0x43F0000000000000ull;  // 2^64
constexpr uint64_t kF64BitsIntMin = 0xC1E0000000000000ull; // -2^31
constexpr uint64_t kF64BitsI64Min = 0xC3E0000000000000ull; // -2^63
constexpr uint32_t kF32Bits2p31 = 0x4F000000u;
constexpr uint32_t kF32Bits2p32 = 0x4F800000u;
constexpr uint32_t kF32Bits2p63 = 0x5F000000u;
constexpr uint32_t kF32Bits2p64 = 0x5F800000u;
constexpr uint32_t kF32BitsIntMin = 0xCF000000u;
constexpr uint32_t kF32BitsI64Min = 0xDF000000u;
constexpr uint64_t kF64QuietNaN = 0x7FF8000000000000ull;
constexpr uint32_t kF32QuietNaN = 0x7FC00000u;

/** Compiles one lowered function into the shared assembler stream. */
class FunctionCompiler
{
  public:
    FunctionCompiler(Assembler& as, const LoweredModule& mod,
                     const LoweredFunc& func, const JitOptions& opts,
                     const std::vector<Label>& func_labels,
                     std::vector<std::pair<uint32_t, uint32_t>>*
                         check_ranges = nullptr)
        : as_(as),
          mod_(mod),
          func_(func),
          opts_(opts),
          funcLabels_(func_labels),
          checkRanges_(check_ranges)
    {
        assignLocalHomes();
        for (uint32_t pc : func_.elidableCheckPcs)
            elideHints_.insert(pc);
        for (uint32_t i = 0; i < func_.entryCheckFacts.size(); i++) {
            uint32_t pc = func_.entryCheckFacts[i].pc;
            auto [it, inserted] = factRanges_.emplace(
                pc, std::make_pair(i, i + 1));
            if (!inserted)
                it->second.second = i + 1; // facts are sorted by pc
        }
    }

    void compile();

  private:
    // ----- home resolution -----
    /** Pool index of the cell's register home, or -1 for memory. */
    int
    slotRegIndex(uint32_t cell) const
    {
        if (cell < func_.numLocalCells)
            return localHome_[cell];
        uint32_t s = cell - func_.numLocalCells;
        return s < uint32_t(kNumSlotRegs) ? int(s) : -1;
    }

    void
    assignLocalHomes()
    {
        localHome_.assign(func_.numLocalCells, -1);
        int next = kNumSlotRegs;
        for (uint32_t i = 0;
             i < func_.numLocalCells &&
             next < kNumSlotRegs + kNumLocalRegs;
             i++) {
            localHome_[i] = int8_t(next++);
        }
    }
    Mem cellMem(uint32_t cell) const
    {
        return Mem{kFrameReg, int32_t(cell * 8)};
    }

    void
    loadGpr32(Reg dst, uint32_t cell)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movRR32(dst, kSlotGpr[s]);
        else
            as_.movRM32(dst, cellMem(cell));
    }
    void
    loadGpr64(Reg dst, uint32_t cell)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movRR64(dst, kSlotGpr[s]);
        else
            as_.movRM64(dst, cellMem(cell));
    }
    void
    storeGpr32(uint32_t cell, Reg src)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movRR32(kSlotGpr[s], src);
        else
            as_.movMR32(cellMem(cell), src);
        invalidate(cell);
    }
    void
    storeGpr64(uint32_t cell, Reg src)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movRR64(kSlotGpr[s], src);
        else
            as_.movMR64(cellMem(cell), src);
        invalidate(cell);
    }
    void
    loadXmm32(Xmm dst, uint32_t cell)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movapsRR(dst, kSlotXmm[s]);
        else
            as_.movssRM(dst, cellMem(cell));
    }
    void
    loadXmm64(Xmm dst, uint32_t cell)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movapsRR(dst, kSlotXmm[s]);
        else
            as_.movsdRM(dst, cellMem(cell));
    }
    void
    storeXmm32(uint32_t cell, Xmm src)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movapsRR(kSlotXmm[s], src);
        else
            as_.movssMR(cellMem(cell), src);
        invalidate(cell);
    }
    void
    storeXmm64(uint32_t cell, Xmm src)
    {
        int s = slotRegIndex(cell);
        if (s >= 0)
            as_.movapsRR(kSlotXmm[s], src);
        else
            as_.movsdMR(cellMem(cell), src);
        invalidate(cell);
    }
    void
    loadBits64(Reg dst, uint32_t cell, RC rc)
    {
        int s = slotRegIndex(cell);
        if (s < 0) {
            as_.movRM64(dst, cellMem(cell));
        } else if (rc == RC::gpr) {
            as_.movRR64(dst, kSlotGpr[s]);
        } else {
            as_.movqRX(dst, kSlotXmm[s]);
        }
    }
    void
    storeBits64(uint32_t cell, Reg src, RC rc)
    {
        int s = slotRegIndex(cell);
        if (s < 0) {
            as_.movMR64(cellMem(cell), src);
        } else if (rc == RC::gpr) {
            as_.movRR64(kSlotGpr[s], src);
        } else {
            as_.movqXR(kSlotXmm[s], src);
        }
        invalidate(cell);
    }

    /** Write the cell's register home back to its memory slot (calls). */
    void
    spillCell(uint32_t cell, RC rc)
    {
        int s = slotRegIndex(cell);
        if (s < 0)
            return;
        if (rc == RC::gpr)
            as_.movMR64(cellMem(cell), kSlotGpr[s]);
        else
            as_.movsdMR(cellMem(cell), kSlotXmm[s]);
    }
    /** Load the cell's register home from its memory slot (call results). */
    void
    fillCell(uint32_t cell, RC rc)
    {
        int s = slotRegIndex(cell);
        if (s < 0)
            return;
        if (rc == RC::gpr)
            as_.movRM64(kSlotGpr[s], cellMem(cell));
        else
            as_.movsdRM(kSlotXmm[s], cellMem(cell));
        invalidate(cell);
    }

    /**
     * Spill/reload the caller-saved register homes around a native call:
     * live float *slot* registers (per the lowering's mask) plus every
     * local home living in a caller-saved register (all xmm homes, and
     * the gpr homes beyond r13/r14).
     */
    bool
    localHomeIsCallClobbered(uint32_t cell) const
    {
        int h = localHome_[cell];
        if (h < 0)
            return false;
        if (wasm::isFloatType(func_.localTypes[cell]))
            return true; // xmm registers are caller-saved
        Reg reg = kSlotGpr[h];
        return reg == r8 || reg == r9 || reg == r10;
    }
    void
    spillFloatMask(uint16_t mask)
    {
        for (int s = 0; s < kNumSlotRegs; s++) {
            if (mask & (1u << s)) {
                uint32_t cell = func_.numLocalCells + uint32_t(s);
                as_.movsdMR(cellMem(cell), kSlotXmm[s]);
            }
        }
        for (uint32_t i = 0; i < func_.numLocalCells; i++) {
            if (!localHomeIsCallClobbered(i))
                continue;
            int h = localHome_[i];
            if (wasm::isFloatType(func_.localTypes[i]))
                as_.movsdMR(cellMem(i), kSlotXmm[h]);
            else
                as_.movMR64(cellMem(i), kSlotGpr[h]);
        }
    }
    void
    reloadFloatMask(uint16_t mask)
    {
        for (int s = 0; s < kNumSlotRegs; s++) {
            if (mask & (1u << s)) {
                uint32_t cell = func_.numLocalCells + uint32_t(s);
                as_.movsdRM(kSlotXmm[s], cellMem(cell));
            }
        }
        for (uint32_t i = 0; i < func_.numLocalCells; i++) {
            if (!localHomeIsCallClobbered(i))
                continue;
            int h = localHome_[i];
            if (wasm::isFloatType(func_.localTypes[i]))
                as_.movsdRM(kSlotXmm[h], cellMem(i));
            else
                as_.movRM64(kSlotGpr[h], cellMem(i));
        }
    }

    // ----- trap islands -----
    Label
    trapLabel(TrapKind kind)
    {
        auto it = trapLabels_.find(uint8_t(kind));
        if (it != trapLabels_.end())
            return it->second;
        Label label = as_.newLabel();
        trapLabels_.emplace(uint8_t(kind), label);
        return label;
    }
    void
    emitTrapIslands()
    {
        for (auto& [kind, label] : trapLabels_) {
            as_.bind(label);
            as_.ud2();
            as_.emitByte(kind); // read by the SIGILL handler (signals.cc)
        }
    }

    // ----- epoch interrupt polls -----
    Label
    interruptIsland()
    {
        if (interruptLabel_.id < 0)
            interruptLabel_ = as_.newLabel();
        return interruptLabel_;
    }
    /** Load+test+branch on the instance interrupt flag. rax is dead at
     * instruction boundaries, so nothing is saved; an aligned 32-bit
     * load is atomic on x86, pairing with the killer thread's store. */
    void
    emitEpochPoll()
    {
        as_.movRM32(rax, CTX_FIELD(interruptFlag));
        as_.testRR32(rax, rax);
        as_.jcc(Cond::ne, interruptIsland());
    }
    /** The poll's cold target: hand the context to the noreturn
     * lnbJitInterrupt glue, which raises the requested trap via
     * siglongjmp. Because nothing returns here, the call is safe even
     * though XMM-homed locals are caller-saved. */
    void
    emitInterruptIsland()
    {
        if (interruptLabel_.id < 0)
            return;
        as_.bind(interruptLabel_);
        as_.movRR64(rdi, kCtxReg);
        as_.callImmReloc(reinterpret_cast<const void*>(&exec::lnbJitInterrupt),
                         RelocKind::glue, kGlueInterrupt);
    }

    // ----- bounds-check cache (opt tier) -----
    void invalidate(uint32_t cell) { checkedLimit_.erase(cell); }
    /** A call, memory.grow or synchronizing op may clobber any cell of
     * the frame (or memSize, seen from another thread): forget every
     * cached check. */
    void invalidateAllChecks() { checkedLimit_.clear(); }

    /** The check cache is live (trap strategy, optimizing tier). */
    bool
    checkCacheActive() const
    {
        return opts_.optimize && opts_.strategy == BoundsStrategy::trap;
    }

    /** Re-seed the cache with facts the opt pass proved to hold on
     * every path into the block starting at @p pc. */
    void
    seedFactsAt(uint32_t pc)
    {
        if (!checkCacheActive())
            return;
        auto it = factRanges_.find(pc);
        if (it == factRanges_.end())
            return;
        for (uint32_t i = it->second.first; i < it->second.second; i++) {
            const auto& fact = func_.entryCheckFacts[i];
            checkedLimit_[fact.cell] = fact.limit;
        }
    }

    /** Propagate the source cell's checked limit through a copy (the
     * address value moved, so its passed check moved with it). */
    void
    propagateCheckOnCopy(const LInst& inst)
    {
        if (!checkCacheActive()) {
            invalidate(inst.b);
            return;
        }
        auto it = checkedLimit_.find(inst.a);
        if (it != checkedLimit_.end())
            checkedLimit_[inst.b] = it->second;
        else
            checkedLimit_.erase(inst.b);
    }

    /** ctx->checksRetired++ (mov/lea/mov: no flags touched). Emitted in
     * front of a software check when the counting knob is on. Clobbers
     * rcx only. */
    void
    emitCountRetired()
    {
        if (!opts_.countChecks)
            return;
        as_.movRM64(rcx, CTX_FIELD(checksRetired));
        as_.lea(rcx, Mem{rcx, 1});
        as_.movMR64(CTX_FIELD(checksRetired), rcx);
    }

    /** Record [check_begin, current) as a bounds-check PC range for the
     * profiler code map. Emission is monotonic, so ranges arrive sorted
     * and disjoint. */
    void
    recordCheckRange(uint32_t check_begin)
    {
        if (checkRanges_ != nullptr)
            checkRanges_->emplace_back(check_begin,
                                       uint32_t(as_.size()));
    }

    /**
     * Compute the accessible address for a memory access: returns a Mem
     * operand ready for the load/store. Address scratch: rax (+rcx);
     * clobbers rsi.
     */
    Mem
    emitAddress(const LInst& inst, unsigned access_size)
    {
        uint64_t offset = inst.imm;
        loadGpr32(rax, inst.a); // zero-extends the 32-bit wasm address

        bool soft = opts_.strategy == BoundsStrategy::clamp ||
                    opts_.strategy == BoundsStrategy::trap;
        if (!soft) {
            // Guard-page strategies: fold the offset into the x86
            // displacement when it fits; the 8 GiB reservation absorbs
            // the worst case (2^32-1 base + 2^32-1 offset).
            jitMetrics().guardAccessesEmitted.add();
            as_.movRM64(rsi, CTX_FIELD(memBase));
            as_.addRR64(rax, rsi);
            if (offset <= 0x7FFFFF00ull)
                return Mem{rax, int32_t(offset)};
            as_.movRI32(rcx, uint32_t(offset));
            as_.addRR64(rax, rcx);
            return Mem{rax, 0};
        }

        // Software checks: ea = addr + offset in rax.
        if (offset != 0) {
            as_.movRI32(rcx, uint32_t(offset));
            as_.addRR64(rax, rcx);
        }

        uint64_t limit = offset + access_size;
        bool elide = false;
        if (opts_.optimize) {
            auto it = checkedLimit_.find(inst.a);
            elide = it != checkedLimit_.end() && it->second >= limit;
            // Elision hints are only sound where skipping the check means
            // trapping was already guaranteed; clamp must still redirect.
            if (!elide && opts_.strategy == BoundsStrategy::trap &&
                elideHints_.count(curPc_))
                elide = true;
        }
        if (elide) {
            jitMetrics().boundsChecksElided.add();
        } else {
            jitMetrics().boundsChecksEmitted.add();
            emitCountRetired();
            uint32_t check_begin = uint32_t(as_.size());
            // rcx = ea + size; compare against the live memory size.
            as_.lea(rcx, Mem{rax, int32_t(access_size)});
            as_.cmpRM64(rcx, CTX_FIELD(memSize));
            if (opts_.strategy == BoundsStrategy::clamp) {
                // Out of bounds: redirect to the red zone ("the memory
                // end pointer is used instead", paper §3.1).
                as_.cmovccRM64(Cond::a, rax, CTX_FIELD(clampOffset));
            } else {
                as_.jcc(Cond::a,
                        trapLabel(TrapKind::out_of_bounds_memory));
                if (opts_.optimize)
                    checkedLimit_[inst.a] = limit;
            }
            recordCheckRange(check_begin);
        }
        as_.movRM64(rsi, CTX_FIELD(memBase));
        as_.addRR64(rax, rsi);
        return Mem{rax, 0};
    }

    // ----- instruction emission -----
    void emitPrologue();
    void emitEpilogue();
    void emitInstr(const LInst& inst);
    void emitWasmOp(const LInst& inst);
    void emitLoad(const LInst& inst);
    void emitStore(const LInst& inst);
    void emitAtomic(const LInst& inst);
    void emitIntDivRem(const LInst& inst);
    void emitFloatMinMax(const LInst& inst);
    void emitFloatCompare(const LInst& inst);
    void emitIntCompare(const LInst& inst, bool is64, Cond cond);
    void emitTruncChecked(const LInst& inst);
    void emitTruncSat(const LInst& inst);
    void emitConvert(const LInst& inst);
    void emitCall(const LInst& inst);
    void emitCallHost(const LInst& inst);
    void emitCallIndirect(const LInst& inst);

    /** cmp helper: set al by cond then zero-extend into eax. */
    void
    materializeCond(Cond cond)
    {
        as_.setcc(cond, rax);
        as_.andRI32(rax, 0xFF);
    }

    void
    loadF64Const(Xmm dst, uint64_t bits)
    {
        as_.movRI64(rcx, bits);
        as_.movqXR(dst, rcx);
    }
    void
    loadF32Const(Xmm dst, uint32_t bits)
    {
        as_.movRI32(rcx, bits);
        as_.movdXR(dst, rcx);
    }

    Assembler& as_;
    const LoweredModule& mod_;
    const LoweredFunc& func_;
    const JitOptions& opts_;
    const std::vector<Label>& funcLabels_;
    /** Sink for emitted bounds-check PC ranges (buffer offsets), fed to
     * the profiler code map; null when symbolization is not wanted. */
    std::vector<std::pair<uint32_t, uint32_t>>* checkRanges_ = nullptr;

    /** Pool index per local cell, -1 = memory home. */
    std::vector<int8_t> localHome_;
    std::vector<Label> pcLabels_;
    std::unordered_set<uint32_t> jumpTargets_;
    /** Targets of at least one backward jump (loop headers): the epoch
     * poll sites. Subset of jumpTargets_. */
    std::unordered_set<uint32_t> backEdgeTargets_;
    std::unordered_map<uint8_t, Label> trapLabels_;
    /** Per-function epoch-interrupt island (lazily created; id -1 when no
     * poll was emitted). */
    Label interruptLabel_;
    /** addr cell -> highest offset+size already checked (trap mode). */
    std::unordered_map<uint32_t, uint64_t> checkedLimit_;
    /** pc currently being emitted (for elision-hint lookups). */
    uint32_t curPc_ = 0;
    /** Accesses the opt pass proved covered by an earlier check. */
    std::unordered_set<uint32_t> elideHints_;
    /** Jump-target pc -> [begin, end) range into func_.entryCheckFacts. */
    std::unordered_map<uint32_t, std::pair<uint32_t, uint32_t>> factRanges_;
};

void
FunctionCompiler::emitPrologue()
{
    as_.push(rbp);
    as_.push(rbx);
    as_.push(r12);
    as_.push(r13);
    as_.push(r14);
    as_.push(r15);
    as_.subRI64(rsp, 8); // keep rsp 16-byte aligned at call sites
    as_.movRR64(kCtxReg, rdi);
    as_.movRR64(kFrameReg, rsi);

    if (opts_.stackChecks) {
        // Native stack headroom (guards runaway recursion).
        as_.cmpRM64(rsp, CTX_FIELD(nativeStackLimit));
        as_.jcc(Cond::be, trapLabel(TrapKind::stack_overflow));
        // Value-stack headroom for this frame.
        as_.lea(rax, Mem{kFrameReg, int32_t(func_.numCells * 8)});
        as_.cmpRM64(rax, CTX_FIELD(vstackEnd));
        as_.jcc(Cond::a, trapLabel(TrapKind::stack_overflow));
    }

    // Parameters arrive in the frame's memory cells (the caller wrote
    // them there); load register-homed ones. Zero-initialize the rest.
    for (uint32_t i = 0; i < func_.numLocalCells; i++) {
        int h = localHome_[i];
        bool is_float = wasm::isFloatType(func_.localTypes[i]);
        if (i < func_.numParams) {
            if (h < 0)
                continue;
            if (is_float)
                as_.movsdRM(kSlotXmm[h], cellMem(i));
            else
                as_.movRM64(kSlotGpr[h], cellMem(i));
        } else if (h >= 0) {
            if (is_float)
                as_.pxor(kSlotXmm[h], kSlotXmm[h]);
            else
                as_.xorRR32(kSlotGpr[h], kSlotGpr[h]);
        } else {
            as_.movMI64(cellMem(i), 0);
        }
    }

    // Function-entry epoch poll: recursion without loops must still be
    // preemptible, and entries are where the interpreters poll too.
    if (opts_.epochChecks)
        emitEpochPoll();
}

void
FunctionCompiler::emitEpilogue()
{
    as_.addRI64(rsp, 8);
    as_.pop(r15);
    as_.pop(r14);
    as_.pop(r13);
    as_.pop(r12);
    as_.pop(rbx);
    as_.pop(rbp);
    as_.ret();
}

void
FunctionCompiler::compile()
{
    // Pre-scan for jump targets so the bounds-check cache resets at basic
    // block boundaries and labels exist before backward jumps bind.
    pcLabels_.resize(func_.code.size());
    // A target at or before its jump is a loop back edge: those labels
    // additionally get an epoch poll (the JIT's preemption sites).
    auto mark = [&](uint32_t pc, uint32_t from) {
        jumpTargets_.insert(pc);
        if (pc <= from)
            backEdgeTargets_.insert(pc);
    };
    for (uint32_t pc = 0; pc < func_.code.size(); pc++) {
        const LInst& inst = func_.code[pc];
        switch (LOp(inst.op)) {
          case LOp::jump:
          case LOp::jump_if:
          case LOp::jump_if_zero:
          case LOp::fused_cmp_jump:
            mark(inst.a, pc);
            break;
          case LOp::jump_table:
            for (uint32_t i = 0; i <= inst.aux; i++)
                mark(func_.tablePool[inst.a + i], pc);
            break;
          default:
            break;
        }
    }
    for (uint32_t pc : jumpTargets_)
        pcLabels_[pc] = as_.newLabel();

    emitPrologue();

    for (uint32_t pc = 0; pc < func_.code.size(); pc++) {
        if (jumpTargets_.count(pc)) {
            as_.bind(pcLabels_[pc]);
            invalidateAllChecks();
            // Re-seed the cache with facts the opt pass proved to hold
            // on every path into this label, so elision keeps working
            // across block boundaries and around loop back edges.
            seedFactsAt(pc);
            // Loop headers poll the interrupt flag: every back edge runs
            // through here, so a spinning loop is preempted within one
            // iteration. The poll has no memory-state effect, so the
            // check cache seeded above stays valid.
            if (opts_.epochChecks && backEdgeTargets_.count(pc))
                emitEpochPoll();
        }
        curPc_ = pc;
        emitInstr(func_.code[pc]);
    }

    emitTrapIslands();
    emitInterruptIsland();
}

void
FunctionCompiler::emitInstr(const LInst& inst)
{
    switch (LOp(inst.op)) {
      case LOp::jump:
        as_.jmp(pcLabels_[inst.a]);
        return;

      case LOp::jump_if:
        loadGpr32(rax, inst.b);
        as_.testRR32(rax, rax);
        as_.jcc(Cond::ne, pcLabels_[inst.a]);
        return;

      case LOp::jump_if_zero:
        loadGpr32(rax, inst.b);
        as_.testRR32(rax, rax);
        as_.jcc(Cond::e, pcLabels_[inst.a]);
        return;

      case LOp::jump_table: {
        loadGpr32(rax, inst.b);
        as_.movRI32(rcx, inst.aux);
        as_.cmpRR32(rax, rcx);
        as_.cmovcc32(Cond::a, rax, rcx); // clamp to the default case
        Label table = as_.newLabel();
        as_.movRI64Label(rcx, table);
        as_.jmpMemIdx(MemIdx{rcx, rax, 8, 0});
        as_.bind(table);
        for (uint32_t i = 0; i <= inst.aux; i++)
            as_.absq(pcLabels_[func_.tablePool[inst.a + i]]);
        return;
      }

      case LOp::copy: {
        RC rc = classOf(ValType(inst.aux));
        if (opts_.optimize) {
            // Move directly between homes when either side is a register.
            int src = slotRegIndex(inst.a), dst = slotRegIndex(inst.b);
            if (rc == RC::gpr) {
                if (dst >= 0 && src >= 0)
                    as_.movRR64(kSlotGpr[dst], kSlotGpr[src]);
                else if (dst >= 0)
                    as_.movRM64(kSlotGpr[dst], cellMem(inst.a));
                else if (src >= 0)
                    as_.movMR64(cellMem(inst.b), kSlotGpr[src]);
                else
                    goto copy_generic;
            } else {
                if (dst >= 0 && src >= 0)
                    as_.movapsRR(kSlotXmm[dst], kSlotXmm[src]);
                else if (dst >= 0)
                    as_.movsdRM(kSlotXmm[dst], cellMem(inst.a));
                else if (src >= 0)
                    as_.movsdMR(cellMem(inst.b), kSlotXmm[src]);
                else
                    goto copy_generic;
            }
            propagateCheckOnCopy(inst);
            return;
        }
      copy_generic:
        loadBits64(rax, inst.a, rc);
        storeBits64(inst.b, rax, rc); // invalidates b; re-derive below
        propagateCheckOnCopy(inst);
        return;
      }

      case LOp::ret: {
        if (inst.aux != 0) {
            RC rc = classOf(mod_.module.types[func_.typeIdx].results[0]);
            loadBits64(rax, inst.a, rc);
            as_.movMR64(Mem{kFrameReg, 0}, rax);
        }
        emitEpilogue();
        return;
      }

      case LOp::callf:
        emitCall(inst);
        return;
      case LOp::call_host:
        emitCallHost(inst);
        return;
      case LOp::calli:
        emitCallIndirect(inst);
        return;

      case LOp::trap:
        as_.jmp(trapLabel(TrapKind(inst.aux)));
        return;

      case LOp::count_fallback:
        // Versioned-loop guard failure: bump the fallback counter. A
        // plain mov/lea/mov so no live register or flag is disturbed.
        as_.movRM64(rax, CTX_FIELD(guardFallbacks));
        as_.lea(rax, Mem{rax, 1});
        as_.movMR64(CTX_FIELD(guardFallbacks), rax);
        return;

      // The engine only enables fusion for the interpreter tiers, but
      // keep the JIT total over the IR by decomposing fused forms back
      // into their original pair.
      case LOp::fused_const_binop: {
        LInst c;
        c.op = uint16_t(constOpForOperand(Op(inst.aux), 1));
        c.a = inst.b;
        c.imm = inst.imm;
        emitWasmOp(c);
        emitWasmOp(synthBinop(inst.aux, inst.a, inst.b));
        return;
      }

      case LOp::fused_cmp_jump: {
        emitWasmOp(synthBinop(inst.aux, inst.b, uint32_t(inst.imm >> 1)));
        loadGpr32(rax, inst.b);
        as_.testRR32(rax, rax);
        as_.jcc((inst.imm & 1) ? Cond::e : Cond::ne, pcLabels_[inst.a]);
        return;
      }

      case LOp::fused_copy_binop: {
        uint32_t dst = uint32_t(inst.imm);
        LInst c;
        c.op = uint16_t(LOp::copy);
        c.aux = uint16_t(
            valTypeForOperand(Op(inst.aux), dst == inst.a ? 0 : 1));
        c.a = uint32_t(inst.imm >> 32);
        c.b = dst;
        emitInstr(c);
        emitWasmOp(synthBinop(inst.aux, inst.a, inst.b));
        return;
      }

      case LOp::fused_load_binop: {
        LInst load;
        load.op = uint16_t(inst.imm >> 32);
        load.a = inst.b;
        load.imm = uint32_t(inst.imm);
        emitWasmOp(load);
        emitWasmOp(synthBinop(inst.aux, inst.a, inst.b));
        return;
      }

      default:
        emitWasmOp(inst);
        return;
    }
}

void
FunctionCompiler::emitCall(const LInst& inst)
{
    const wasm::FuncType& callee = mod_.module.funcType(inst.a);
    // Materialize register-homed arguments into their memory cells (which
    // are the callee's parameter locals, thanks to frame overlap).
    for (size_t i = 0; i < callee.params.size(); i++)
        spillCell(inst.b + uint32_t(i), classOf(callee.params[i]));
    spillFloatMask(inst.aux);

    as_.movRR64(rdi, kCtxReg);
    as_.lea(rsi, cellMem(inst.b));
    if (opts_.codeTable != nullptr) {
        // Cross-tier dispatch: load the callee's *current* entry from its
        // code-table slot (an aligned 8-byte load; publication is a
        // release store on the compiler thread, and x86-TSO makes the
        // dependent call see the published code). edx carries the
        // function index for interpreter entries.
        as_.movRI64Reloc(rax, uint64_t(&opts_.codeTable[inst.a].entry),
                         RelocKind::codeTable,
                         uint64_t(inst.a) * sizeof(exec::FuncCode));
        as_.movRM64(rax, Mem{rax, 0});
        as_.movRI32(rdx, inst.a);
        as_.callReg(rax);
    } else {
        uint32_t defined = inst.a - mod_.module.numImportedFuncs();
        as_.callLabel(funcLabels_[defined]);
    }

    reloadFloatMask(inst.aux);
    if (!callee.results.empty())
        fillCell(inst.b, classOf(callee.results[0]));
    invalidateAllChecks();
}

void
FunctionCompiler::emitCallHost(const LInst& inst)
{
    const wasm::FuncType& callee = mod_.module.funcType(inst.a);
    for (size_t i = 0; i < callee.params.size(); i++)
        spillCell(inst.b + uint32_t(i), classOf(callee.params[i]));
    spillFloatMask(inst.aux);

    as_.movRR64(rdi, kCtxReg);
    as_.lea(rsi, cellMem(inst.b));
    as_.movRI32(rdx, inst.a);
    as_.callImmReloc(reinterpret_cast<const void*>(&exec::lnbJitHostCall),
                     RelocKind::glue, kGlueHostCall);

    reloadFloatMask(inst.aux);
    if (!callee.results.empty())
        fillCell(inst.b, classOf(callee.results[0]));
    invalidateAllChecks();
}

void
FunctionCompiler::emitCallIndirect(const LInst& inst)
{
    const wasm::FuncType& callee = mod_.module.types[inst.a];
    uint32_t nargs = uint32_t(callee.params.size());
    uint32_t arg_base = inst.b - nargs;

    loadGpr32(rax, inst.b); // table index (zero-extended)
    as_.cmpRM64(rax, CTX_FIELD(tableSize));
    as_.jcc(Cond::ae, trapLabel(TrapKind::out_of_bounds_table));
    as_.shiftImm64(4, rax, 5); // * sizeof(TableEntry) == 32
    as_.movRM64(rcx, CTX_FIELD(table));
    as_.addRR64(rcx, rax);

    as_.movRM64(rdx, Mem{rcx, int32_t(offsetof(exec::TableEntry,
                                               initialized))});
    as_.testRR64(rdx, rdx);
    as_.jcc(Cond::e, trapLabel(TrapKind::uninitialized_element));

    as_.movRM64(rdx,
                Mem{rcx, int32_t(offsetof(exec::TableEntry, typeIdx))});
    as_.cmpRI64(rdx, int32_t(uint32_t(inst.imm))); // canonical type index
    as_.jcc(Cond::ne, trapLabel(TrapKind::indirect_type_mismatch));

    for (uint32_t i = 0; i < nargs; i++)
        spillCell(arg_base + i, classOf(callee.params[i]));
    spillFloatMask(inst.aux);

    if (opts_.codeTable != nullptr) {
        // Cross-tier dispatch: index the code table by the entry's
        // function index (slots are 16 bytes; entry pointer at offset 0)
        // instead of snapshotting TableEntry::code, so funcref calls pick
        // up tier-up publications too. Imports resolve to the host-call
        // glue, which takes the function index (== import index) in edx.
        as_.movRM64(rdx, Mem{rcx, int32_t(offsetof(exec::TableEntry,
                                                   funcIdx))});
        as_.movRR64(rax, rdx);
        as_.shiftImm64(4, rax, 4); // * sizeof(FuncCode) == 16
        as_.movRI64Reloc(r11, uint64_t(opts_.codeTable),
                         RelocKind::codeTable, 0);
        as_.addRR64(rax, r11);
        as_.movRM64(rax, Mem{rax, 0});
    } else {
        as_.movRM64(rax,
                    Mem{rcx, int32_t(offsetof(exec::TableEntry, code))});
    }
    as_.movRR64(rdi, kCtxReg);
    as_.lea(rsi, cellMem(arg_base));
    as_.callReg(rax);

    reloadFloatMask(inst.aux);
    if (!callee.results.empty())
        fillCell(arg_base, classOf(callee.results[0]));
    invalidateAllChecks();
}

void
FunctionCompiler::emitLoad(const LInst& inst)
{
    Op op = Op(inst.op);
    unsigned size = wasm::memAccessSize(op);
    Mem src = emitAddress(inst, size);

    if (opts_.optimize) {
        // Load straight into the destination's register home.
        int dst = slotRegIndex(inst.a);
        if (dst >= 0) {
            Reg hg = kSlotGpr[dst];
            Xmm hx = kSlotXmm[dst];
            switch (op) {
              case Op::i32_load: as_.movRM32(hg, src); break;
              case Op::i64_load: as_.movRM64(hg, src); break;
              case Op::f32_load: as_.movssRM(hx, src); break;
              case Op::f64_load: as_.movsdRM(hx, src); break;
              case Op::i32_load8_s: as_.movsxRM8_32(hg, src); break;
              case Op::i32_load8_u: as_.movzxRM8(hg, src); break;
              case Op::i32_load16_s: as_.movsxRM16_32(hg, src); break;
              case Op::i32_load16_u: as_.movzxRM16(hg, src); break;
              case Op::i64_load8_s: as_.movsxRM8_64(hg, src); break;
              case Op::i64_load8_u: as_.movzxRM8(hg, src); break;
              case Op::i64_load16_s: as_.movsxRM16_64(hg, src); break;
              case Op::i64_load16_u: as_.movzxRM16(hg, src); break;
              case Op::i64_load32_s: as_.movsxRM32_64(hg, src); break;
              case Op::i64_load32_u: as_.movRM32(hg, src); break;
              default: assert(false);
            }
            invalidate(inst.a);
            return;
        }
    }

    switch (op) {
      case Op::i32_load:
        as_.movRM32(rdx, src);
        storeGpr32(inst.a, rdx);
        break;
      case Op::i64_load:
        as_.movRM64(rdx, src);
        storeGpr64(inst.a, rdx);
        break;
      case Op::f32_load:
        as_.movssRM(xmm0, src);
        storeXmm32(inst.a, xmm0);
        break;
      case Op::f64_load:
        as_.movsdRM(xmm0, src);
        storeXmm64(inst.a, xmm0);
        break;
      case Op::i32_load8_s:
        as_.movsxRM8_32(rdx, src);
        storeGpr32(inst.a, rdx);
        break;
      case Op::i32_load8_u:
        as_.movzxRM8(rdx, src);
        storeGpr32(inst.a, rdx);
        break;
      case Op::i32_load16_s:
        as_.movsxRM16_32(rdx, src);
        storeGpr32(inst.a, rdx);
        break;
      case Op::i32_load16_u:
        as_.movzxRM16(rdx, src);
        storeGpr32(inst.a, rdx);
        break;
      case Op::i64_load8_s:
        as_.movsxRM8_64(rdx, src);
        storeGpr64(inst.a, rdx);
        break;
      case Op::i64_load8_u:
        as_.movzxRM8(rdx, src);
        storeGpr64(inst.a, rdx);
        break;
      case Op::i64_load16_s:
        as_.movsxRM16_64(rdx, src);
        storeGpr64(inst.a, rdx);
        break;
      case Op::i64_load16_u:
        as_.movzxRM16(rdx, src);
        storeGpr64(inst.a, rdx);
        break;
      case Op::i64_load32_s:
        as_.movsxRM32_64(rdx, src);
        storeGpr64(inst.a, rdx);
        break;
      case Op::i64_load32_u:
        as_.movRM32(rdx, src); // zero-extends
        storeGpr64(inst.a, rdx);
        break;
      default:
        assert(false);
    }
}

void
FunctionCompiler::emitStore(const LInst& inst)
{
    Op op = Op(inst.op);
    unsigned size = wasm::memAccessSize(op);

    // Stage the value first (the address computation clobbers
    // rax/rcx/rsi); in the optimizing tier a register-homed value is
    // stored straight from its home (the slot registers survive
    // emitAddress).
    bool is_float = op == Op::f32_store || op == Op::f64_store;
    int sval = opts_.optimize ? slotRegIndex(inst.b) : -1;
    Reg gval = rdx;
    Xmm xval = xmm0;
    if (sval >= 0) {
        gval = kSlotGpr[sval];
        xval = kSlotXmm[sval];
    } else if (is_float) {
        if (op == Op::f32_store)
            loadXmm32(xmm0, inst.b);
        else
            loadXmm64(xmm0, inst.b);
    } else {
        loadGpr64(rdx, inst.b);
    }

    Mem dst = emitAddress(inst, size);
    switch (op) {
      case Op::i32_store:
        as_.movMR32(dst, gval);
        break;
      case Op::i64_store:
        as_.movMR64(dst, gval);
        break;
      case Op::f32_store:
        as_.movssMR(dst, xval);
        break;
      case Op::f64_store:
        as_.movsdMR(dst, xval);
        break;
      case Op::i32_store8:
      case Op::i64_store8:
        as_.movMR8(dst, gval);
        break;
      case Op::i32_store16:
      case Op::i64_store16:
        as_.movMR16(dst, gval);
        break;
      case Op::i64_store32:
        as_.movMR32(dst, gval);
        break;
      default:
        assert(false);
    }
}

/**
 * Atomics compile to calls into the lnbJitAtomic glue: the assembler has
 * no lock-prefixed encodings, and funneling every tier through the one
 * sem::atomicRmw seq_cst lowering keeps interp/jit/tiered executions
 * bit-exact and TSAN-instrumented. Alignment and bounds checks (atomics
 * trap, never clamp) happen inside the glue against the refreshed
 * shared-size mirror.
 */
void
FunctionCompiler::emitAtomic(const LInst& inst)
{
    Op op = Op(inst.op);
    const bool is64 = wasm::memAccessSize(op) == 8 &&
                      op != Op::memory_atomic_notify;
    exec::AtomicOp aop;
    // Operand shape: how many cells the op consumed (arg-base layout for
    // 3, top-two layout for 2; see lowerSigOp).
    unsigned shape;
    switch (op) {
      case Op::memory_atomic_notify: aop = exec::AtomicOp::notify; shape = 2; break;
      case Op::memory_atomic_wait32:
      case Op::memory_atomic_wait64: aop = exec::AtomicOp::wait; shape = 3; break;
      case Op::i32_atomic_load:
      case Op::i64_atomic_load: aop = exec::AtomicOp::load; shape = 1; break;
      case Op::i32_atomic_store:
      case Op::i64_atomic_store: aop = exec::AtomicOp::store; shape = 2; break;
      case Op::i32_atomic_rmw_add:
      case Op::i64_atomic_rmw_add: aop = exec::AtomicOp::add; shape = 2; break;
      case Op::i32_atomic_rmw_sub:
      case Op::i64_atomic_rmw_sub: aop = exec::AtomicOp::sub; shape = 2; break;
      case Op::i32_atomic_rmw_and:
      case Op::i64_atomic_rmw_and: aop = exec::AtomicOp::and_; shape = 2; break;
      case Op::i32_atomic_rmw_or:
      case Op::i64_atomic_rmw_or: aop = exec::AtomicOp::or_; shape = 2; break;
      case Op::i32_atomic_rmw_xor:
      case Op::i64_atomic_rmw_xor: aop = exec::AtomicOp::xor_; shape = 2; break;
      case Op::i32_atomic_rmw_xchg:
      case Op::i64_atomic_rmw_xchg: aop = exec::AtomicOp::xchg; shape = 2; break;
      case Op::i32_atomic_rmw_cmpxchg:
      case Op::i64_atomic_rmw_cmpxchg:
        aop = exec::AtomicOp::cmpxchg;
        shape = 3;
        break;
      default:
        assert(false);
        return;
    }

    spillFloatMask(inst.aux);
    as_.movRR64(rdi, kCtxReg);
    loadGpr32(rsi, inst.a); // linear address
    if (shape == 2) {
        // Value/count at the top-of-stack cell.
        if (is64)
            loadGpr64(rdx, inst.b);
        else
            loadGpr32(rdx, inst.b);
    } else if (shape == 3) {
        // Arg-base layout: operands at a+1 (expected) and a+2
        // (replacement / timeout_ns).
        if (is64)
            loadGpr64(rdx, inst.a + 1);
        else
            loadGpr32(rdx, inst.a + 1);
        if (aop == exec::AtomicOp::wait)
            loadGpr64(rcx, inst.a + 2); // timeout_ns is always i64
        else if (is64)
            loadGpr64(rcx, inst.a + 2);
        else
            loadGpr32(rcx, inst.a + 2);
    }
    if (inst.imm <= UINT32_MAX)
        as_.movRI32(r8, uint32_t(inst.imm));
    else
        as_.movRI64(r8, inst.imm);
    as_.movRI32(r9, exec::atomicOpMode(
                        aop, is64, exec::checkModeFor(opts_.strategy)));
    as_.callImmReloc(reinterpret_cast<const void*>(&exec::lnbJitAtomic),
                     RelocKind::glue, kGlueAtomic);
    reloadFloatMask(inst.aux);
    if (aop != exec::AtomicOp::store)
        storeGpr64(inst.a, rax); // glue returns zero-extended results
    invalidateAllChecks();
}

void
FunctionCompiler::emitIntDivRem(const LInst& inst)
{
    Op op = Op(inst.op);
    bool is64 = op >= Op::i64_div_s && op <= Op::i64_rem_u;
    bool is_signed = op == Op::i32_div_s || op == Op::i32_rem_s ||
                     op == Op::i64_div_s || op == Op::i64_rem_s;
    bool is_rem = op == Op::i32_rem_s || op == Op::i32_rem_u ||
                  op == Op::i64_rem_s || op == Op::i64_rem_u;

    if (is64) {
        loadGpr64(rax, inst.a);
        loadGpr64(rcx, inst.b);
    } else {
        loadGpr32(rax, inst.a);
        loadGpr32(rcx, inst.b);
    }

    // Division by zero traps in hardware (SIGFPE -> wasm trap); only the
    // INT_MIN / -1 overflow case needs an explicit check.
    Label done = as_.newLabel();
    if (is_signed) {
        Label do_div = as_.newLabel();
        if (is64)
            as_.cmpRI64(rcx, -1);
        else
            as_.cmpRI32(rcx, 0xFFFFFFFFu);
        as_.jcc(Cond::ne, do_div);
        if (is_rem) {
            // INT_MIN % -1 == 0 (never traps).
            as_.movRI32(rdx, 0);
            as_.jmp(done);
        } else {
            if (is64) {
                as_.movRI64(rdx, 0x8000000000000000ull);
                as_.cmpRR64(rax, rdx);
            } else {
                as_.cmpRI32(rax, 0x80000000u);
            }
            as_.jcc(Cond::e, trapLabel(TrapKind::integer_overflow));
        }
        as_.bind(do_div);
        if (is64) {
            as_.cqo();
            as_.idiv64(rcx);
        } else {
            as_.cdq();
            as_.idiv32(rcx);
        }
    } else {
        as_.movRI32(rdx, 0);
        if (is64)
            as_.div64(rcx);
        else
            as_.div32(rcx);
    }
    as_.bind(done);

    Reg result = is_rem ? rdx : rax;
    if (is64)
        storeGpr64(inst.a, result);
    else
        storeGpr32(inst.a, result);
}

void
FunctionCompiler::emitFloatMinMax(const LInst& inst)
{
    Op op = Op(inst.op);
    bool is32 = op == Op::f32_min || op == Op::f32_max;
    bool is_min = op == Op::f32_min || op == Op::f64_min;

    if (is32) {
        loadXmm32(xmm0, inst.a);
        loadXmm32(xmm1, inst.b);
        as_.ucomiss(xmm0, xmm1);
    } else {
        loadXmm64(xmm0, inst.a);
        loadXmm64(xmm1, inst.b);
        as_.ucomisd(xmm0, xmm1);
    }

    Label nan = as_.newLabel(), take_b = as_.newLabel(),
          store = as_.newLabel(), equal = as_.newLabel();
    as_.jcc(Cond::p, nan);
    as_.jcc(Cond::e, equal);
    as_.jcc(is_min ? Cond::a : Cond::b, take_b);
    as_.jmp(store); // keep a

    as_.bind(equal);
    // ±0 handling: OR merges signs for min (-0 wins), AND for max.
    if (is_min) {
        if (is32)
            as_.orps(xmm0, xmm1);
        else
            as_.orpd(xmm0, xmm1);
    } else {
        if (is32)
            as_.andps(xmm0, xmm1);
        else
            as_.andpd(xmm0, xmm1);
    }
    as_.jmp(store);

    as_.bind(take_b);
    as_.movapsRR(xmm0, xmm1);
    as_.jmp(store);

    as_.bind(nan);
    if (is32)
        loadF32Const(xmm0, kF32QuietNaN);
    else
        loadF64Const(xmm0, kF64QuietNaN);

    as_.bind(store);
    if (is32)
        storeXmm32(inst.a, xmm0);
    else
        storeXmm64(inst.a, xmm0);
}

void
FunctionCompiler::emitFloatCompare(const LInst& inst)
{
    Op op = Op(inst.op);
    bool is32 = op >= Op::f32_eq && op <= Op::f32_ge;
    auto cmp = [&](uint32_t lhs, uint32_t rhs) {
        if (is32) {
            loadXmm32(xmm0, lhs);
            loadXmm32(xmm1, rhs);
            as_.ucomiss(xmm0, xmm1);
        } else {
            loadXmm64(xmm0, lhs);
            loadXmm64(xmm1, rhs);
            as_.ucomisd(xmm0, xmm1);
        }
    };

    switch (op) {
      case Op::f32_eq:
      case Op::f64_eq:
        cmp(inst.a, inst.b);
        as_.setcc(Cond::e, rax);
        as_.setcc(Cond::np, rcx);
        as_.andRR32(rax, rcx);
        as_.andRI32(rax, 0xFF);
        break;
      case Op::f32_ne:
      case Op::f64_ne:
        cmp(inst.a, inst.b);
        as_.setcc(Cond::ne, rax);
        as_.setcc(Cond::p, rcx);
        as_.orRR32(rax, rcx);
        as_.andRI32(rax, 0xFF);
        break;
      case Op::f32_lt:
      case Op::f64_lt:
        cmp(inst.b, inst.a); // reversed: a < b  <=>  b `above` a
        materializeCond(Cond::a);
        break;
      case Op::f32_gt:
      case Op::f64_gt:
        cmp(inst.a, inst.b);
        materializeCond(Cond::a);
        break;
      case Op::f32_le:
      case Op::f64_le:
        cmp(inst.b, inst.a);
        materializeCond(Cond::ae);
        break;
      case Op::f32_ge:
      case Op::f64_ge:
        cmp(inst.a, inst.b);
        materializeCond(Cond::ae);
        break;
      default:
        assert(false);
    }
    storeGpr32(inst.a, rax);
}

void
FunctionCompiler::emitIntCompare(const LInst& inst, bool is64, Cond cond)
{
    if (is64) {
        loadGpr64(rax, inst.a);
        loadGpr64(rcx, inst.b);
        as_.cmpRR64(rax, rcx);
    } else {
        loadGpr32(rax, inst.a);
        loadGpr32(rcx, inst.b);
        as_.cmpRR32(rax, rcx);
    }
    materializeCond(cond);
    storeGpr32(inst.a, rax);
}

void
FunctionCompiler::emitTruncChecked(const LInst& inst)
{
    Op op = Op(inst.op);
    bool src32 = op == Op::i32_trunc_f32_s || op == Op::i32_trunc_f32_u ||
                 op == Op::i64_trunc_f32_s || op == Op::i64_trunc_f32_u;
    if (src32)
        loadXmm32(xmm0, inst.a);
    else
        loadXmm64(xmm0, inst.a);

    Label ok = as_.newLabel();
    Label trap_check = as_.newLabel();

    auto emitNanOrOverflowTrap = [&] {
        as_.bind(trap_check);
        if (src32)
            as_.ucomiss(xmm0, xmm0);
        else
            as_.ucomisd(xmm0, xmm0);
        as_.jcc(Cond::p, trapLabel(TrapKind::invalid_conversion));
        as_.jmp(trapLabel(TrapKind::integer_overflow));
    };

    switch (op) {
      case Op::i32_trunc_f32_s:
      case Op::i32_trunc_f64_s: {
        if (src32)
            as_.cvttss2si32(rax, xmm0);
        else
            as_.cvttsd2si32(rax, xmm0);
        as_.cmpRI32(rax, 0x80000000u);
        as_.jcc(Cond::ne, ok);
        // Sentinel: valid iff the input truncates to exactly INT32_MIN,
        // i.e. x in (-2^31 - 1, -2^31]. In f32 no value lies strictly
        // between, so the bound is -2^31 itself; in f64 values like
        // -2147483648.9 are valid.
        if (src32) {
            loadF32Const(xmm1, kF32BitsIntMin);
            as_.ucomiss(xmm0, xmm1);
            as_.jcc(Cond::p, trapLabel(TrapKind::invalid_conversion));
            as_.jcc(Cond::b, trapLabel(TrapKind::integer_overflow));
        } else {
            loadF64Const(xmm1, 0xC1E0000000200000ull); // -2147483649.0
            as_.ucomisd(xmm0, xmm1);
            as_.jcc(Cond::p, trapLabel(TrapKind::invalid_conversion));
            as_.jcc(Cond::be, trapLabel(TrapKind::integer_overflow));
        }
        // x >= 2^31 also produces the sentinel; reject it.
        if (src32) {
            loadF32Const(xmm1, kF32Bits2p31);
            as_.ucomiss(xmm0, xmm1);
        } else {
            loadF64Const(xmm1, kF64Bits2p31);
            as_.ucomisd(xmm0, xmm1);
        }
        as_.jcc(Cond::ae, trapLabel(TrapKind::integer_overflow));
        as_.bind(ok);
        storeGpr32(inst.a, rax);
        return;
      }

      case Op::i32_trunc_f32_u:
      case Op::i32_trunc_f64_u: {
        // Truncate through 64-bit signed; valid iff 0 <= v <= UINT32_MAX.
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.movRR64(rcx, rax);
        as_.shiftImm64(5, rcx, 32); // shr: any high bit -> out of range
        as_.testRR64(rcx, rcx);
        as_.jcc(Cond::ne, trap_check);
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, trap_check);
        as_.jmp(ok);
        emitNanOrOverflowTrap();
        as_.bind(ok);
        storeGpr32(inst.a, rax);
        return;
      }

      case Op::i64_trunc_f32_s:
      case Op::i64_trunc_f64_s: {
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.cmpRR64(rax, rcx);
        as_.jcc(Cond::ne, ok);
        if (src32) {
            loadF32Const(xmm1, kF32BitsI64Min);
            as_.ucomiss(xmm0, xmm1);
        } else {
            loadF64Const(xmm1, kF64BitsI64Min);
            as_.ucomisd(xmm0, xmm1);
        }
        as_.jcc(Cond::p, trapLabel(TrapKind::invalid_conversion));
        as_.jcc(Cond::ne, trapLabel(TrapKind::integer_overflow));
        as_.bind(ok);
        storeGpr64(inst.a, rax);
        return;
      }

      case Op::i64_trunc_f32_u:
      case Op::i64_trunc_f64_u: {
        Label big = as_.newLabel();
        if (src32) {
            loadF32Const(xmm1, kF32Bits2p63);
            as_.ucomiss(xmm0, xmm1);
        } else {
            loadF64Const(xmm1, kF64Bits2p63);
            as_.ucomisd(xmm0, xmm1);
        }
        as_.jcc(Cond::ae, big);
        // Small (or NaN, which falls here via CF=1): direct convert.
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, trap_check);
        as_.jmp(ok);

        as_.bind(big);
        if (src32) {
            as_.subss(xmm0, xmm1);
            as_.cvttss2si64(rax, xmm0);
        } else {
            as_.subsd(xmm0, xmm1);
            as_.cvttsd2si64(rax, xmm0);
        }
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, trapLabel(TrapKind::integer_overflow));
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.addRR64(rax, rcx);
        as_.jmp(ok);

        emitNanOrOverflowTrap();
        as_.bind(ok);
        storeGpr64(inst.a, rax);
        return;
      }

      default:
        assert(false);
    }
}

void
FunctionCompiler::emitTruncSat(const LInst& inst)
{
    Op op = Op(inst.op);
    bool src32 = op == Op::i32_trunc_sat_f32_s ||
                 op == Op::i32_trunc_sat_f32_u ||
                 op == Op::i64_trunc_sat_f32_s ||
                 op == Op::i64_trunc_sat_f32_u;
    if (src32)
        loadXmm32(xmm0, inst.a);
    else
        loadXmm64(xmm0, inst.a);

    auto ucomiSelf = [&] {
        if (src32)
            as_.ucomiss(xmm0, xmm0);
        else
            as_.ucomisd(xmm0, xmm0);
    };
    auto ucomiConst = [&](uint64_t bits64, uint32_t bits32) {
        if (src32) {
            loadF32Const(xmm1, bits32);
            as_.ucomiss(xmm0, xmm1);
        } else {
            loadF64Const(xmm1, bits64);
            as_.ucomisd(xmm0, xmm1);
        }
    };

    Label ok = as_.newLabel();
    switch (op) {
      case Op::i32_trunc_sat_f32_s:
      case Op::i32_trunc_sat_f64_s: {
        Label sat = as_.newLabel();
        if (src32)
            as_.cvttss2si32(rax, xmm0);
        else
            as_.cvttsd2si32(rax, xmm0);
        as_.cmpRI32(rax, 0x80000000u);
        as_.jcc(Cond::ne, ok);
        ucomiSelf();
        Label not_nan = as_.newLabel();
        as_.jcc(Cond::np, not_nan);
        as_.movRI32(rax, 0);
        as_.jmp(ok);
        as_.bind(not_nan);
        as_.bind(sat);
        // Negative -> INT32_MIN (already in rax); positive -> INT32_MAX.
        as_.pxor(xmm1, xmm1);
        if (src32)
            as_.ucomiss(xmm0, xmm1);
        else
            as_.ucomisd(xmm0, xmm1);
        as_.jcc(Cond::b, ok); // below zero: keep INT32_MIN
        as_.movRI32(rax, 0x7FFFFFFFu);
        as_.bind(ok);
        storeGpr32(inst.a, rax);
        return;
      }

      case Op::i32_trunc_sat_f32_u:
      case Op::i32_trunc_sat_f64_u: {
        Label sat_max = as_.newLabel();
        ucomiConst(kF64Bits2p32, kF32Bits2p32);
        as_.jcc(Cond::ae, sat_max);
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        // NaN/negative -> clamp to zero.
        as_.movRI32(rcx, 0);
        as_.testRR64(rax, rax);
        as_.cmovcc64(Cond::s, rax, rcx);
        as_.jmp(ok);
        as_.bind(sat_max);
        as_.movRI32(rax, 0xFFFFFFFFu);
        as_.bind(ok);
        storeGpr32(inst.a, rax);
        return;
      }

      case Op::i64_trunc_sat_f32_s:
      case Op::i64_trunc_sat_f64_s: {
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.cmpRR64(rax, rcx);
        as_.jcc(Cond::ne, ok);
        ucomiSelf();
        Label not_nan = as_.newLabel();
        as_.jcc(Cond::np, not_nan);
        as_.movRI32(rax, 0);
        as_.jmp(ok);
        as_.bind(not_nan);
        as_.pxor(xmm1, xmm1);
        if (src32)
            as_.ucomiss(xmm0, xmm1);
        else
            as_.ucomisd(xmm0, xmm1);
        as_.jcc(Cond::b, ok); // negative: keep INT64_MIN
        as_.movRI64(rax, 0x7FFFFFFFFFFFFFFFull);
        as_.bind(ok);
        storeGpr64(inst.a, rax);
        return;
      }

      case Op::i64_trunc_sat_f32_u:
      case Op::i64_trunc_sat_f64_u: {
        Label sat_max = as_.newLabel(), big = as_.newLabel(),
              zero = as_.newLabel();
        ucomiConst(kF64Bits2p64, kF32Bits2p64);
        as_.jcc(Cond::ae, sat_max);
        ucomiConst(kF64Bits2p63, kF32Bits2p63);
        as_.jcc(Cond::ae, big);
        if (src32)
            as_.cvttss2si64(rax, xmm0);
        else
            as_.cvttsd2si64(rax, xmm0);
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, zero); // NaN or negative
        as_.jmp(ok);
        as_.bind(big);
        if (src32) {
            as_.subss(xmm0, xmm1);
            as_.cvttss2si64(rax, xmm0);
        } else {
            as_.subsd(xmm0, xmm1);
            as_.cvttsd2si64(rax, xmm0);
        }
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.addRR64(rax, rcx);
        as_.jmp(ok);
        as_.bind(sat_max);
        as_.movRI64(rax, 0xFFFFFFFFFFFFFFFFull);
        as_.jmp(ok);
        as_.bind(zero);
        as_.movRI32(rax, 0);
        as_.bind(ok);
        storeGpr64(inst.a, rax);
        return;
      }

      default:
        assert(false);
    }
}

void
FunctionCompiler::emitConvert(const LInst& inst)
{
    Op op = Op(inst.op);
    switch (op) {
      case Op::f32_convert_i32_s:
        loadGpr32(rax, inst.a);
        as_.cvtsi2ss32(xmm0, rax);
        storeXmm32(inst.a, xmm0);
        return;
      case Op::f32_convert_i32_u:
        loadGpr32(rax, inst.a); // zero-extend, then 64-bit convert is exact
        as_.cvtsi2ss64(xmm0, rax);
        storeXmm32(inst.a, xmm0);
        return;
      case Op::f64_convert_i32_s:
        loadGpr32(rax, inst.a);
        as_.cvtsi2sd32(xmm0, rax);
        storeXmm64(inst.a, xmm0);
        return;
      case Op::f64_convert_i32_u:
        loadGpr32(rax, inst.a);
        as_.cvtsi2sd64(xmm0, rax);
        storeXmm64(inst.a, xmm0);
        return;
      case Op::f32_convert_i64_s:
        loadGpr64(rax, inst.a);
        as_.cvtsi2ss64(xmm0, rax);
        storeXmm32(inst.a, xmm0);
        return;
      case Op::f64_convert_i64_s:
        loadGpr64(rax, inst.a);
        as_.cvtsi2sd64(xmm0, rax);
        storeXmm64(inst.a, xmm0);
        return;
      case Op::f32_convert_i64_u:
      case Op::f64_convert_i64_u: {
        bool to32 = op == Op::f32_convert_i64_u;
        loadGpr64(rax, inst.a);
        Label negative = as_.newLabel(), done = as_.newLabel();
        as_.testRR64(rax, rax);
        as_.jcc(Cond::s, negative);
        if (to32)
            as_.cvtsi2ss64(xmm0, rax);
        else
            as_.cvtsi2sd64(xmm0, rax);
        as_.jmp(done);
        as_.bind(negative);
        // (x >> 1 | x & 1) rounds to odd, halving keeps it in range;
        // doubling after the convert restores the magnitude.
        as_.movRR64(rcx, rax);
        as_.shiftImm64(5, rcx, 1); // shr
        as_.aluRI64(4, rax, 1);    // and
        as_.orRR64(rcx, rax);
        if (to32) {
            as_.cvtsi2ss64(xmm0, rcx);
            as_.addss(xmm0, xmm0);
        } else {
            as_.cvtsi2sd64(xmm0, rcx);
            as_.addsd(xmm0, xmm0);
        }
        as_.bind(done);
        if (to32)
            storeXmm32(inst.a, xmm0);
        else
            storeXmm64(inst.a, xmm0);
        return;
      }
      case Op::f32_demote_f64:
        loadXmm64(xmm0, inst.a);
        as_.cvtsd2ss(xmm0, xmm0);
        storeXmm32(inst.a, xmm0);
        return;
      case Op::f64_promote_f32:
        loadXmm32(xmm0, inst.a);
        as_.cvtss2sd(xmm0, xmm0);
        storeXmm64(inst.a, xmm0);
        return;
      default:
        assert(false);
    }
}

void
FunctionCompiler::emitWasmOp(const LInst& inst)
{
    Op op = Op(inst.op);

    if (wasm::isLoadOp(op)) {
        emitLoad(inst);
        return;
    }
    if (wasm::isStoreOp(op)) {
        emitStore(inst);
        return;
    }
    if (wasm::isAtomicOp(op)) {
        emitAtomic(inst);
        return;
    }

    switch (op) {
      // ----- constants -----
      case Op::i32_const: {
        int dst = opts_.optimize ? slotRegIndex(inst.a) : -1;
        as_.movRI32(dst >= 0 ? kSlotGpr[dst] : rax, uint32_t(inst.imm));
        if (dst >= 0)
            invalidate(inst.a);
        else
            storeGpr32(inst.a, rax);
        return;
      }
      case Op::i64_const: {
        int dst = opts_.optimize ? slotRegIndex(inst.a) : -1;
        Reg target = dst >= 0 ? kSlotGpr[dst] : rax;
        if (inst.imm <= UINT32_MAX)
            as_.movRI32(target, uint32_t(inst.imm));
        else
            as_.movRI64(target, inst.imm);
        if (dst >= 0)
            invalidate(inst.a);
        else
            storeGpr64(inst.a, rax);
        return;
      }
      case Op::f32_const:
        as_.movRI32(rax, uint32_t(inst.imm));
        storeBits64(inst.a, rax, RC::fpr);
        return;
      case Op::f64_const:
        if (inst.imm <= UINT32_MAX)
            as_.movRI32(rax, uint32_t(inst.imm));
        else
            as_.movRI64(rax, inst.imm);
        storeBits64(inst.a, rax, RC::fpr);
        return;

      // ----- memory management -----
      case Op::memory_size:
        if (opts_.sharedMemory) {
            // Synchronization point on shared memories: the glue
            // refreshes ctx->memSize from the authoritative size word.
            spillFloatMask(inst.aux);
            as_.movRR64(rdi, kCtxReg);
            as_.callImmReloc(
                reinterpret_cast<const void*>(&exec::lnbJitMemorySize),
                RelocKind::glue, kGlueMemSize);
            reloadFloatMask(inst.aux);
            storeGpr32(inst.a, rax);
            invalidateAllChecks();
            return;
        }
        as_.movRM64(rax, CTX_FIELD(memSize));
        as_.shiftImm64(5, rax, 16); // bytes -> 64 KiB pages
        storeGpr32(inst.a, rax);
        return;
      case Op::memory_grow:
        spillFloatMask(inst.aux);
        as_.movRR64(rdi, kCtxReg);
        loadGpr32(rsi, inst.a);
        as_.callImmReloc(
            reinterpret_cast<const void*>(&exec::lnbJitMemoryGrow),
            RelocKind::glue, kGlueMemGrow);
        reloadFloatMask(inst.aux);
        storeGpr32(inst.a, rax);
        invalidateAllChecks();
        return;
      case Op::memory_copy:
        spillFloatMask(inst.aux);
        as_.movRR64(rdi, kCtxReg);
        loadGpr32(rsi, inst.a);
        loadGpr32(rdx, inst.a + 1);
        loadGpr32(rcx, inst.a + 2);
        as_.callImmReloc(
            reinterpret_cast<const void*>(&exec::lnbJitMemoryCopy),
            RelocKind::glue, kGlueMemCopy);
        reloadFloatMask(inst.aux);
        return;
      case Op::memory_fill:
        spillFloatMask(inst.aux);
        as_.movRR64(rdi, kCtxReg);
        loadGpr32(rsi, inst.a);
        loadGpr32(rdx, inst.a + 1);
        loadGpr32(rcx, inst.a + 2);
        as_.callImmReloc(
            reinterpret_cast<const void*>(&exec::lnbJitMemoryFill),
            RelocKind::glue, kGlueMemFill);
        reloadFloatMask(inst.aux);
        return;

      // ----- parametric / globals -----
      case Op::select: {
        RC rc = classOf(ValType(inst.aux));
        loadGpr32(rcx, inst.a + 2);
        loadBits64(rax, inst.a, rc);
        loadBits64(rdx, inst.a + 1, rc);
        as_.testRR32(rcx, rcx);
        as_.cmovcc64(Cond::e, rax, rdx);
        storeBits64(inst.a, rax, rc);
        return;
      }
      case Op::global_get: {
        RC rc = classOf(ValType(inst.aux));
        as_.movRM64(rcx, CTX_FIELD(globals));
        as_.movRM64(rax, Mem{rcx, int32_t(inst.b * 8)});
        storeBits64(inst.a, rax, rc);
        return;
      }
      case Op::global_set: {
        RC rc = classOf(ValType(inst.aux));
        loadBits64(rax, inst.a, rc);
        as_.movRM64(rcx, CTX_FIELD(globals));
        as_.movMR64(Mem{rcx, int32_t(inst.b * 8)}, rax);
        return;
      }

      // ----- i32 compare -----
      case Op::i32_eqz:
        loadGpr32(rax, inst.a);
        as_.testRR32(rax, rax);
        materializeCond(Cond::e);
        storeGpr32(inst.a, rax);
        return;
      case Op::i32_eq: emitIntCompare(inst, false, Cond::e); return;
      case Op::i32_ne: emitIntCompare(inst, false, Cond::ne); return;
      case Op::i32_lt_s: emitIntCompare(inst, false, Cond::l); return;
      case Op::i32_lt_u: emitIntCompare(inst, false, Cond::b); return;
      case Op::i32_gt_s: emitIntCompare(inst, false, Cond::g); return;
      case Op::i32_gt_u: emitIntCompare(inst, false, Cond::a); return;
      case Op::i32_le_s: emitIntCompare(inst, false, Cond::le); return;
      case Op::i32_le_u: emitIntCompare(inst, false, Cond::be); return;
      case Op::i32_ge_s: emitIntCompare(inst, false, Cond::ge); return;
      case Op::i32_ge_u: emitIntCompare(inst, false, Cond::ae); return;

      // ----- i64 compare -----
      case Op::i64_eqz:
        loadGpr64(rax, inst.a);
        as_.testRR64(rax, rax);
        materializeCond(Cond::e);
        storeGpr32(inst.a, rax);
        return;
      case Op::i64_eq: emitIntCompare(inst, true, Cond::e); return;
      case Op::i64_ne: emitIntCompare(inst, true, Cond::ne); return;
      case Op::i64_lt_s: emitIntCompare(inst, true, Cond::l); return;
      case Op::i64_lt_u: emitIntCompare(inst, true, Cond::b); return;
      case Op::i64_gt_s: emitIntCompare(inst, true, Cond::g); return;
      case Op::i64_gt_u: emitIntCompare(inst, true, Cond::a); return;
      case Op::i64_le_s: emitIntCompare(inst, true, Cond::le); return;
      case Op::i64_le_u: emitIntCompare(inst, true, Cond::be); return;
      case Op::i64_ge_s: emitIntCompare(inst, true, Cond::ge); return;
      case Op::i64_ge_u: emitIntCompare(inst, true, Cond::ae); return;

      // ----- float compares -----
      case Op::f32_eq: case Op::f32_ne: case Op::f32_lt:
      case Op::f32_gt: case Op::f32_le: case Op::f32_ge:
      case Op::f64_eq: case Op::f64_ne: case Op::f64_lt:
      case Op::f64_gt: case Op::f64_le: case Op::f64_ge:
        emitFloatCompare(inst);
        return;

      // ----- i32 arithmetic -----
      case Op::i32_add: case Op::i32_sub: case Op::i32_mul:
      case Op::i32_and: case Op::i32_or: case Op::i32_xor: {
        // Optimizing tier: operate directly on the destination home.
        int sa = slotRegIndex(inst.a), sb = slotRegIndex(inst.b);
        if (opts_.optimize && sa >= 0) {
            Reg a = kSlotGpr[sa];
            if (sb >= 0) {
                Reg b = kSlotGpr[sb];
                switch (op) {
                  case Op::i32_add: as_.addRR32(a, b); break;
                  case Op::i32_sub: as_.subRR32(a, b); break;
                  case Op::i32_mul: as_.imulRR32(a, b); break;
                  case Op::i32_and: as_.andRR32(a, b); break;
                  case Op::i32_or: as_.orRR32(a, b); break;
                  default: as_.xorRR32(a, b); break;
                }
            } else if (op == Op::i32_mul) {
                loadGpr32(rcx, inst.b);
                as_.imulRR32(a, rcx);
            } else {
                Mem b = cellMem(inst.b);
                switch (op) {
                  case Op::i32_add: as_.aluRM32(0x00, a, b); break;
                  case Op::i32_sub: as_.aluRM32(0x28, a, b); break;
                  case Op::i32_and: as_.aluRM32(0x20, a, b); break;
                  case Op::i32_or: as_.aluRM32(0x08, a, b); break;
                  default: as_.aluRM32(0x30, a, b); break;
                }
            }
            invalidate(inst.a);
            return;
        }
        loadGpr32(rax, inst.a);
        loadGpr32(rcx, inst.b);
        switch (op) {
          case Op::i32_add: as_.addRR32(rax, rcx); break;
          case Op::i32_sub: as_.subRR32(rax, rcx); break;
          case Op::i32_mul: as_.imulRR32(rax, rcx); break;
          case Op::i32_and: as_.andRR32(rax, rcx); break;
          case Op::i32_or: as_.orRR32(rax, rcx); break;
          default: as_.xorRR32(rax, rcx); break;
        }
        storeGpr32(inst.a, rax);
        return;
      }

      // ----- i64 arithmetic -----
      case Op::i64_add: case Op::i64_sub: case Op::i64_mul:
      case Op::i64_and: case Op::i64_or: case Op::i64_xor: {
        int sa = slotRegIndex(inst.a), sb = slotRegIndex(inst.b);
        if (opts_.optimize && sa >= 0) {
            Reg a = kSlotGpr[sa];
            if (sb >= 0) {
                Reg b = kSlotGpr[sb];
                switch (op) {
                  case Op::i64_add: as_.addRR64(a, b); break;
                  case Op::i64_sub: as_.subRR64(a, b); break;
                  case Op::i64_mul: as_.imulRR64(a, b); break;
                  case Op::i64_and: as_.andRR64(a, b); break;
                  case Op::i64_or: as_.orRR64(a, b); break;
                  default: as_.xorRR64(a, b); break;
                }
            } else if (op == Op::i64_mul) {
                loadGpr64(rcx, inst.b);
                as_.imulRR64(a, rcx);
            } else {
                Mem b = cellMem(inst.b);
                switch (op) {
                  case Op::i64_add: as_.aluRM64(0x00, a, b); break;
                  case Op::i64_sub: as_.aluRM64(0x28, a, b); break;
                  case Op::i64_and: as_.aluRM64(0x20, a, b); break;
                  case Op::i64_or: as_.aluRM64(0x08, a, b); break;
                  default: as_.aluRM64(0x30, a, b); break;
                }
            }
            invalidate(inst.a);
            return;
        }
        loadGpr64(rax, inst.a);
        loadGpr64(rcx, inst.b);
        switch (op) {
          case Op::i64_add: as_.addRR64(rax, rcx); break;
          case Op::i64_sub: as_.subRR64(rax, rcx); break;
          case Op::i64_mul: as_.imulRR64(rax, rcx); break;
          case Op::i64_and: as_.andRR64(rax, rcx); break;
          case Op::i64_or: as_.orRR64(rax, rcx); break;
          default: as_.xorRR64(rax, rcx); break;
        }
        storeGpr64(inst.a, rax);
        return;
      }

      case Op::i32_div_s: case Op::i32_div_u:
      case Op::i32_rem_s: case Op::i32_rem_u:
      case Op::i64_div_s: case Op::i64_div_u:
      case Op::i64_rem_s: case Op::i64_rem_u:
        emitIntDivRem(inst);
        return;

      // ----- shifts / rotates -----
      case Op::i32_shl: case Op::i32_shr_s: case Op::i32_shr_u:
      case Op::i32_rotl: case Op::i32_rotr: {
        loadGpr32(rcx, inst.b);
        loadGpr32(rax, inst.a);
        uint8_t ext = op == Op::i32_shl     ? 4
                      : op == Op::i32_shr_u ? 5
                      : op == Op::i32_shr_s ? 7
                      : op == Op::i32_rotl  ? 0
                                            : 1;
        as_.shiftCl32(ext, rax);
        storeGpr32(inst.a, rax);
        return;
      }
      case Op::i64_shl: case Op::i64_shr_s: case Op::i64_shr_u:
      case Op::i64_rotl: case Op::i64_rotr: {
        loadGpr64(rcx, inst.b);
        loadGpr64(rax, inst.a);
        uint8_t ext = op == Op::i64_shl     ? 4
                      : op == Op::i64_shr_u ? 5
                      : op == Op::i64_shr_s ? 7
                      : op == Op::i64_rotl  ? 0
                                            : 1;
        as_.shiftCl64(ext, rax);
        storeGpr64(inst.a, rax);
        return;
      }

      // ----- bit counting -----
      case Op::i32_clz:
        loadGpr32(rcx, inst.a);
        as_.bsr32(rax, rcx);
        as_.movRI32(rdx, 0xFFFFFFFFu);
        as_.cmovcc32(Cond::e, rax, rdx); // src == 0 -> -1
        as_.movRI32(rcx, 31);
        as_.subRR32(rcx, rax); // 31 - (-1) == 32
        storeGpr32(inst.a, rcx);
        return;
      case Op::i32_ctz:
        loadGpr32(rcx, inst.a);
        as_.bsf32(rax, rcx);
        as_.movRI32(rdx, 32);
        as_.cmovcc32(Cond::e, rax, rdx);
        storeGpr32(inst.a, rax);
        return;
      case Op::i64_clz:
        loadGpr64(rcx, inst.a);
        as_.bsr64(rax, rcx);
        as_.movRI64(rdx, ~0ull);
        as_.cmovcc64(Cond::e, rax, rdx);
        as_.movRI32(rcx, 63);
        as_.subRR64(rcx, rax);
        storeGpr64(inst.a, rcx);
        return;
      case Op::i64_ctz:
        loadGpr64(rcx, inst.a);
        as_.bsf64(rax, rcx);
        as_.movRI32(rdx, 64);
        as_.cmovcc64(Cond::e, rax, rdx);
        storeGpr64(inst.a, rax);
        return;
      case Op::i32_popcnt:
        loadGpr32(rcx, inst.a);
        as_.popcnt32(rax, rcx);
        storeGpr32(inst.a, rax);
        return;
      case Op::i64_popcnt:
        loadGpr64(rcx, inst.a);
        as_.popcnt64(rax, rcx);
        storeGpr64(inst.a, rax);
        return;

      // ----- float arithmetic -----
      case Op::f32_add: case Op::f32_sub: case Op::f32_mul:
      case Op::f32_div: {
        uint8_t opcode = op == Op::f32_add   ? 0x58
                         : op == Op::f32_sub ? 0x5C
                         : op == Op::f32_mul ? 0x59
                                             : 0x5E;
        int sa = slotRegIndex(inst.a), sb = slotRegIndex(inst.b);
        if (opts_.optimize && sa >= 0) {
            if (sb >= 0)
                as_.sseOp(0xF3, opcode, kSlotXmm[sa], kSlotXmm[sb]);
            else
                as_.sseOpRM(0xF3, opcode, kSlotXmm[sa], cellMem(inst.b));
            invalidate(inst.a);
            return;
        }
        loadXmm32(xmm0, inst.a);
        loadXmm32(xmm1, inst.b);
        switch (op) {
          case Op::f32_add: as_.addss(xmm0, xmm1); break;
          case Op::f32_sub: as_.subss(xmm0, xmm1); break;
          case Op::f32_mul: as_.mulss(xmm0, xmm1); break;
          default: as_.divss(xmm0, xmm1); break;
        }
        storeXmm32(inst.a, xmm0);
        return;
      }
      case Op::f64_add: case Op::f64_sub: case Op::f64_mul:
      case Op::f64_div: {
        uint8_t opcode = op == Op::f64_add   ? 0x58
                         : op == Op::f64_sub ? 0x5C
                         : op == Op::f64_mul ? 0x59
                                             : 0x5E;
        int sa = slotRegIndex(inst.a), sb = slotRegIndex(inst.b);
        if (opts_.optimize && sa >= 0) {
            if (sb >= 0)
                as_.sseOp(0xF2, opcode, kSlotXmm[sa], kSlotXmm[sb]);
            else
                as_.sseOpRM(0xF2, opcode, kSlotXmm[sa], cellMem(inst.b));
            invalidate(inst.a);
            return;
        }
        loadXmm64(xmm0, inst.a);
        loadXmm64(xmm1, inst.b);
        switch (op) {
          case Op::f64_add: as_.addsd(xmm0, xmm1); break;
          case Op::f64_sub: as_.subsd(xmm0, xmm1); break;
          case Op::f64_mul: as_.mulsd(xmm0, xmm1); break;
          default: as_.divsd(xmm0, xmm1); break;
        }
        storeXmm64(inst.a, xmm0);
        return;
      }

      case Op::f32_min: case Op::f32_max:
      case Op::f64_min: case Op::f64_max:
        emitFloatMinMax(inst);
        return;

      case Op::f32_sqrt:
        loadXmm32(xmm0, inst.a);
        as_.sqrtss(xmm0, xmm0);
        storeXmm32(inst.a, xmm0);
        return;
      case Op::f64_sqrt:
        loadXmm64(xmm0, inst.a);
        as_.sqrtsd(xmm0, xmm0);
        storeXmm64(inst.a, xmm0);
        return;

      // Rounding: roundss/roundsd immediate (0=nearest 1=floor 2=ceil
      // 3=trunc).
      case Op::f32_ceil: case Op::f32_floor: case Op::f32_trunc:
      case Op::f32_nearest: {
        uint8_t mode = op == Op::f32_nearest ? 0
                       : op == Op::f32_floor ? 1
                       : op == Op::f32_ceil  ? 2
                                             : 3;
        loadXmm32(xmm0, inst.a);
        as_.roundss(xmm0, xmm0, mode);
        storeXmm32(inst.a, xmm0);
        return;
      }
      case Op::f64_ceil: case Op::f64_floor: case Op::f64_trunc:
      case Op::f64_nearest: {
        uint8_t mode = op == Op::f64_nearest ? 0
                       : op == Op::f64_floor ? 1
                       : op == Op::f64_ceil  ? 2
                                             : 3;
        loadXmm64(xmm0, inst.a);
        as_.roundsd(xmm0, xmm0, mode);
        storeXmm64(inst.a, xmm0);
        return;
      }

      // Sign-bit manipulation in integer registers.
      case Op::f32_abs:
        loadBits64(rax, inst.a, RC::fpr);
        as_.andRI32(rax, 0x7FFFFFFFu);
        storeBits64(inst.a, rax, RC::fpr);
        return;
      case Op::f32_neg:
        loadBits64(rax, inst.a, RC::fpr);
        as_.movRI32(rcx, 0x80000000u);
        as_.xorRR32(rax, rcx);
        storeBits64(inst.a, rax, RC::fpr);
        return;
      case Op::f64_abs:
        loadBits64(rax, inst.a, RC::fpr);
        as_.movRI64(rcx, 0x7FFFFFFFFFFFFFFFull);
        as_.andRR64(rax, rcx);
        storeBits64(inst.a, rax, RC::fpr);
        return;
      case Op::f64_neg:
        loadBits64(rax, inst.a, RC::fpr);
        as_.movRI64(rcx, 0x8000000000000000ull);
        as_.xorRR64(rax, rcx);
        storeBits64(inst.a, rax, RC::fpr);
        return;
      case Op::f32_copysign:
        loadBits64(rax, inst.a, RC::fpr);
        loadBits64(rcx, inst.b, RC::fpr);
        as_.andRI32(rax, 0x7FFFFFFFu);
        as_.movRI32(rdx, 0x80000000u);
        as_.andRR32(rcx, rdx);
        as_.orRR32(rax, rcx);
        storeBits64(inst.a, rax, RC::fpr);
        return;
      case Op::f64_copysign:
        loadBits64(rax, inst.a, RC::fpr);
        loadBits64(rcx, inst.b, RC::fpr);
        as_.movRI64(rdx, 0x7FFFFFFFFFFFFFFFull);
        as_.andRR64(rax, rdx);
        as_.movRI64(rdx, 0x8000000000000000ull);
        as_.andRR64(rcx, rdx);
        as_.orRR64(rax, rcx);
        storeBits64(inst.a, rax, RC::fpr);
        return;

      // ----- conversions -----
      case Op::i32_wrap_i64:
        loadGpr32(rax, inst.a); // take the low 32 bits, zero-extended
        storeGpr32(inst.a, rax);
        return;
      case Op::i64_extend_i32_s:
        loadGpr32(rax, inst.a);
        as_.movsxdRR(rax, rax);
        storeGpr64(inst.a, rax);
        return;
      case Op::i64_extend_i32_u:
        loadGpr32(rax, inst.a);
        storeGpr64(inst.a, rax);
        return;

      case Op::i32_trunc_f32_s: case Op::i32_trunc_f32_u:
      case Op::i32_trunc_f64_s: case Op::i32_trunc_f64_u:
      case Op::i64_trunc_f32_s: case Op::i64_trunc_f32_u:
      case Op::i64_trunc_f64_s: case Op::i64_trunc_f64_u:
        emitTruncChecked(inst);
        return;

      case Op::i32_trunc_sat_f32_s: case Op::i32_trunc_sat_f32_u:
      case Op::i32_trunc_sat_f64_s: case Op::i32_trunc_sat_f64_u:
      case Op::i64_trunc_sat_f32_s: case Op::i64_trunc_sat_f32_u:
      case Op::i64_trunc_sat_f64_s: case Op::i64_trunc_sat_f64_u:
        emitTruncSat(inst);
        return;

      case Op::f32_convert_i32_s: case Op::f32_convert_i32_u:
      case Op::f32_convert_i64_s: case Op::f32_convert_i64_u:
      case Op::f64_convert_i32_s: case Op::f64_convert_i32_u:
      case Op::f64_convert_i64_s: case Op::f64_convert_i64_u:
      case Op::f32_demote_f64: case Op::f64_promote_f32:
        emitConvert(inst);
        return;

      // Reinterpretations move the bits between register classes.
      case Op::i32_reinterpret_f32:
      case Op::i64_reinterpret_f64:
        loadBits64(rax, inst.a, RC::fpr);
        storeBits64(inst.a, rax, RC::gpr);
        return;
      case Op::f32_reinterpret_i32:
      case Op::f64_reinterpret_i64:
        loadBits64(rax, inst.a, RC::gpr);
        storeBits64(inst.a, rax, RC::fpr);
        return;

      // ----- sign extension -----
      case Op::i32_extend8_s:
        loadGpr32(rax, inst.a);
        as_.movsxRR8_32(rax, rax);
        storeGpr32(inst.a, rax);
        return;
      case Op::i32_extend16_s:
        loadGpr32(rax, inst.a);
        as_.movsxRR16_32(rax, rax);
        storeGpr32(inst.a, rax);
        return;
      case Op::i64_extend8_s:
        loadGpr64(rax, inst.a);
        as_.movsxRR8_64(rax, rax);
        storeGpr64(inst.a, rax);
        return;
      case Op::i64_extend16_s:
        loadGpr64(rax, inst.a);
        as_.movsxRR16_64(rax, rax);
        storeGpr64(inst.a, rax);
        return;
      case Op::i64_extend32_s:
        loadGpr64(rax, inst.a);
        as_.movsxdRR(rax, rax);
        storeGpr64(inst.a, rax);
        return;

      default:
        assert(false && "unhandled op in JIT");
        as_.ud2();
        return;
    }
}

// ---------------------------------------------------------------------
// Module-level driver
// ---------------------------------------------------------------------

class ModuleArtifact : public CompiledCode
{
  public:
    EntryFn
    entry(uint32_t func_idx) const override
    {
        uint32_t defined = func_idx - numImports_ - firstDefined_;
        return reinterpret_cast<EntryFn>(buffer_->data() +
                                         entryOffsets_[defined]);
    }

    const void*
    tableCode(uint32_t func_idx) const override
    {
        if (func_idx < numImports_)
            return buffer_->data() + thunkOffsets_[func_idx];
        return buffer_->data() +
               entryOffsets_[func_idx - numImports_ - firstDefined_];
    }

    size_t codeBytes() const override { return buffer_->used(); }

    std::string
    dumpFunction(uint32_t func_idx) const override
    {
        uint32_t defined = func_idx - numImports_ - firstDefined_;
        size_t begin = entryOffsets_[defined];
        size_t end = defined + 1 < entryOffsets_.size()
                         ? entryOffsets_[defined + 1]
                         : buffer_->used();
        std::string out;
        char hex[4];
        for (size_t i = begin; i < end; i++) {
            std::snprintf(hex, sizeof hex, "%02x ", buffer_->data()[i]);
            out += hex;
            if ((i - begin) % 16 == 15)
                out += '\n';
        }
        out += '\n';
        return out;
    }

    /** Profiler symbolization table. Declared before buffer_ on
     * purpose: members destroy in reverse order, so the buffer
     * (unregister + quiesce in-flight SIGPROF lookups) goes first and
     * the table outlives every reader. */
    mem::JitCodeInfo codeInfo_;
    std::unique_ptr<CodeBuffer> buffer_;
    std::vector<size_t> entryOffsets_; ///< per compiled function
    std::vector<size_t> thunkOffsets_; ///< per import
    uint32_t numImports_ = 0;
    /** First defined-function index covered by entryOffsets_ (non-zero
     * for single-function tier-up artifacts). */
    uint32_t firstDefined_ = 0;
    /** Absolute-address sites recorded at emit time; everything a
     * serialized copy of the code must re-patch (DESIGN.md §14). */
    std::vector<Reloc> relocs_;

    /** Fill codeInfo_ from the collected offsets + check ranges. */
    void
    buildCodeInfo(bool optimized,
                  const std::vector<std::pair<uint32_t, uint32_t>>& checks)
    {
        codeInfo_.tier = optimized ? obs::kProfTierJitOpt
                                   : obs::kProfTierJitBase;
        codeInfo_.funcStarts.reserve(entryOffsets_.size());
        codeInfo_.funcIndices.reserve(entryOffsets_.size());
        for (size_t i = 0; i < entryOffsets_.size(); i++) {
            codeInfo_.funcStarts.push_back(uint32_t(entryOffsets_[i]));
            codeInfo_.funcIndices.push_back(numImports_ + firstDefined_ +
                                            uint32_t(i));
        }
        codeInfo_.checkStarts.reserve(checks.size());
        codeInfo_.checkEnds.reserve(checks.size());
        for (const auto& [begin, end] : checks) {
            codeInfo_.checkStarts.push_back(begin);
            codeInfo_.checkEnds.push_back(end);
        }
    }
};

} // namespace

bool
jitSupported()
{
#if defined(__x86_64__)
    unsigned eax, ebx, ecx, edx;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx))
        return false;
    bool sse41 = (ecx & (1u << 19)) != 0;
    bool popcnt = (ecx & (1u << 23)) != 0;
    return sse41 && popcnt;
#else
    return false;
#endif
}

Result<std::unique_ptr<CompiledCode>>
compileModule(const LoweredModule& module, const JitOptions& options)
{
    LNB_TRACE_SCOPE("jit.compile");
    obs::ScopedLatency compile_latency(jitMetrics().compileLatency);
    // Size estimate: generous per-instruction expansion plus fixed
    // per-function overhead; grows are handled by failing with a clear
    // error (callers can retry with bigger estimates if ever needed).
    size_t estimate = 4096;
    for (const LoweredFunc& func : module.funcs)
        estimate += func.code.size() * 96 + func.numLocalCells * 16 + 512;
    estimate += module.module.imports.size() * 32;

    LNB_ASSIGN_OR_RETURN(auto buffer, CodeBuffer::allocate(estimate));
    Assembler as(buffer->data(), buffer->capacity());

    auto artifact = std::make_unique<ModuleArtifact>();
    artifact->numImports_ = module.module.numImportedFuncs();

    // Host-call thunks (used from funcref tables): set the import index
    // and tail-call the host glue.
    for (uint32_t i = 0; i < artifact->numImports_; i++) {
        artifact->thunkOffsets_.push_back(as.size());
        as.movRI32(rdx, i);
        as.movRI64Reloc(r11,
                        uint64_t(reinterpret_cast<const void*>(
                            &exec::lnbJitHostCall)),
                        RelocKind::glue, kGlueHostCall);
        as.jmpReg(r11);
    }

    // Function labels first so calls can be direct rel32.
    std::vector<Label> func_labels;
    func_labels.reserve(module.funcs.size());
    for (size_t i = 0; i < module.funcs.size(); i++)
        func_labels.push_back(as.newLabel());

    std::vector<std::pair<uint32_t, uint32_t>> check_ranges;
    for (size_t i = 0; i < module.funcs.size(); i++) {
        as.bind(func_labels[i]);
        artifact->entryOffsets_.push_back(as.size());
        FunctionCompiler compiler(as, module, module.funcs[i], options,
                                  func_labels, &check_ranges);
        compiler.compile();
    }

    if (as.overflow())
        return errInternal("JIT code buffer overflow");

    artifact->buildCodeInfo(options.optimize, check_ranges);
    LNB_RETURN_IF_ERROR(buffer->finalize(as.size(), &artifact->codeInfo_));
    jitMetrics().modulesCompiled.add();
    jitMetrics().functionsCompiled.add(module.funcs.size());
    jitMetrics().codeBytes.add(as.size());
    artifact->relocs_ = as.takeRelocs();
    artifact->buffer_ = std::move(buffer);
    return std::unique_ptr<CompiledCode>(std::move(artifact));
}

Result<std::unique_ptr<CompiledCode>>
compileFunction(const LoweredModule& module, uint32_t func_idx,
                const JitOptions& options)
{
    if (options.codeTable == nullptr)
        return errInvalid("compileFunction requires a code table");
    LNB_TRACE_SCOPE("jit.compile_function");
    const LoweredFunc& func = module.funcByIndex(func_idx);
    size_t estimate =
        4096 + func.code.size() * 96 + func.numLocalCells * 16 + 512;

    LNB_ASSIGN_OR_RETURN(auto buffer, CodeBuffer::allocate(estimate));
    Assembler as(buffer->data(), buffer->capacity());

    auto artifact = std::make_unique<ModuleArtifact>();
    artifact->numImports_ = module.module.numImportedFuncs();
    artifact->firstDefined_ =
        func_idx - artifact->numImports_;

    // No sibling labels: every outgoing call is table-indirect.
    std::vector<Label> no_labels;
    std::vector<std::pair<uint32_t, uint32_t>> check_ranges;
    artifact->entryOffsets_.push_back(as.size());
    FunctionCompiler compiler(as, module, func, options, no_labels,
                              &check_ranges);
    compiler.compile();

    if (as.overflow())
        return errInternal("JIT code buffer overflow");

    artifact->buildCodeInfo(options.optimize, check_ranges);
    LNB_RETURN_IF_ERROR(buffer->finalize(as.size(), &artifact->codeInfo_));
    jitMetrics().functionsCompiled.add();
    jitMetrics().codeBytes.add(as.size());
    artifact->relocs_ = as.takeRelocs();
    artifact->buffer_ = std::move(buffer);
    return std::unique_ptr<CompiledCode>(std::move(artifact));
}

// ---------------------------------------------------------------------
// Artifact serialization (the persistent code cache, DESIGN.md §14)
// ---------------------------------------------------------------------

void
serializeCode(const CompiledCode& code, wasm::ByteWriter& w)
{
    const auto& art = static_cast<const ModuleArtifact&>(code);
    const uint8_t* base = art.buffer_->data();

    w.u32(art.numImports_);
    w.u32(art.firstDefined_);
    w.u64(art.buffer_->used());
    w.u64(art.entryOffsets_.size());
    for (size_t off : art.entryOffsets_)
        w.u64(off);
    w.u64(art.thunkOffsets_.size());
    for (size_t off : art.thunkOffsets_)
        w.u64(off);

    w.u8(art.codeInfo_.tier);
    w.podVec(art.codeInfo_.funcStarts);
    w.podVec(art.codeInfo_.funcIndices);
    w.podVec(art.codeInfo_.checkStarts);
    w.podVec(art.codeInfo_.checkEnds);

    w.u64(art.relocs_.size());
    for (const Reloc& reloc : art.relocs_) {
        // codeAbs sites were recorded before their labels bound, so the
        // vector holds addend 0; the finished code holds the absolute
        // patched address — recover the base-relative addend here.
        uint64_t addend = reloc.addend;
        if (reloc.kind == RelocKind::codeAbs) {
            uint64_t absolute;
            std::memcpy(&absolute, base + reloc.offset, sizeof absolute);
            addend = absolute - uint64_t(reinterpret_cast<uintptr_t>(base));
        }
        w.u32(reloc.offset);
        w.u8(uint8_t(reloc.kind));
        w.u64(addend);
    }

    w.raw(base, art.buffer_->used());
}

Result<std::unique_ptr<CompiledCode>>
deserializeCode(wasm::ByteReader& r, exec::FuncCode* code_table)
{
    auto artifact = std::make_unique<ModuleArtifact>();
    artifact->numImports_ = r.u32();
    artifact->firstDefined_ = r.u32();
    uint64_t used = r.u64();

    uint64_t n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++)
        artifact->entryOffsets_.push_back(size_t(r.u64()));
    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++)
        artifact->thunkOffsets_.push_back(size_t(r.u64()));

    artifact->codeInfo_.tier = r.u8();
    artifact->codeInfo_.funcStarts = r.podVec<uint32_t>();
    artifact->codeInfo_.funcIndices = r.podVec<uint32_t>();
    artifact->codeInfo_.checkStarts = r.podVec<uint32_t>();
    artifact->codeInfo_.checkEnds = r.podVec<uint32_t>();

    n = r.u64();
    for (uint64_t i = 0; i < n && r.ok(); i++) {
        Reloc reloc;
        reloc.offset = r.u32();
        reloc.kind = RelocKind(r.u8());
        reloc.addend = r.u64();
        artifact->relocs_.push_back(reloc);
    }

    const uint8_t* code = r.rawBytes(size_t(used));
    if (!r.ok() || code == nullptr)
        return errInvalid("truncated serialized code artifact");

    LNB_ASSIGN_OR_RETURN(auto buffer, CodeBuffer::allocate(size_t(used)));
    std::memcpy(buffer->data(), code, size_t(used));

    // Patch every absolute-address site against this process's symbols
    // and allocations while the buffer is still RW.
    for (const Reloc& reloc : artifact->relocs_) {
        if (reloc.offset + 8 > used)
            return errInvalid("relocation outside serialized code");
        uint64_t value;
        switch (reloc.kind) {
          case RelocKind::glue: {
            const void* sym = glueSymAddress(reloc.addend);
            if (sym == nullptr)
                return errInvalid("unknown glue symbol in artifact");
            value = uint64_t(reinterpret_cast<uintptr_t>(sym));
            break;
          }
          case RelocKind::codeTable:
            if (code_table == nullptr)
                return errInvalid("artifact needs a code table");
            value = uint64_t(reinterpret_cast<uintptr_t>(code_table)) +
                    reloc.addend;
            break;
          case RelocKind::codeAbs:
            value = uint64_t(reinterpret_cast<uintptr_t>(buffer->data())) +
                    reloc.addend;
            break;
          default:
            return errInvalid("unknown relocation kind in artifact");
        }
        std::memcpy(buffer->data() + reloc.offset, &value, sizeof value);
    }

    LNB_RETURN_IF_ERROR(
        buffer->finalize(size_t(used), &artifact->codeInfo_));
    jitMetrics().codeBytes.add(used);
    artifact->buffer_ = std::move(buffer);
    return std::unique_ptr<CompiledCode>(std::move(artifact));
}

} // namespace lnb::jit
