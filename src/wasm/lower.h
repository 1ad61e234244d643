/**
 * @file
 * Lowering from validated WebAssembly bodies to the executable slot-machine
 * IR shared by the interpreters and the JIT.
 *
 * WebAssembly's operand stack has a statically known depth at every
 * instruction, so "stack slot s" can be treated as a fixed storage location.
 * A frame is a flat array of 8-byte cells: locals (parameters first) occupy
 * cells [0, L), and stack slot s occupies cell L+s. Lowering resolves:
 *
 *  - structured control (block/loop/if/else/end, br/br_if/br_table) into
 *    absolute jumps, with block-exit value motion made explicit as typed
 *    `copy` instructions;
 *  - locals into plain cell copies;
 *  - operand positions into absolute cell indices precomputed per
 *    instruction (a register-machine encoding of the stack program);
 *  - function results into the convention "results start at cell 0 of the
 *    callee frame", which lets caller and callee frames overlap so calls
 *    move no argument bytes in the interpreter.
 */
#ifndef LNB_WASM_LOWER_H
#define LNB_WASM_LOWER_H

#include <cstdint>
#include <vector>

#include "support/status.h"
#include "wasm/module.h"

namespace lnb::wasm {

/**
 * Operand-stack slots 0..kRegisterSlots-1 have register homes in both JIT
 * tiers (one integer and one float register each); the lowering's
 * float-live masks cover exactly these.
 */
constexpr uint32_t kRegisterSlots = 5;

/** Pseudo-instructions appended after the wasm opcode space. */
enum class LOp : uint16_t {
    jump = uint16_t(Op::count_), ///< a = target pc
    jump_if,                     ///< a = target pc, b = condition cell
    jump_if_zero,                ///< a = target pc, b = condition cell
    jump_table, ///< a = tablePool base, aux = case count, b = index cell
    copy,       ///< a = src cell, b = dst cell, aux = ValType
    ret,        ///< aux = result count, a = result cell
    callf,      ///< a = defined function index, b = argument base cell
    call_host,  ///< a = import index, b = argument base cell
    calli,      ///< a = type index, b = table-index cell
    trap,       ///< aux = TrapKind
    // ----- emitted only by the optimization pass (wasm/opt.*) -----
    //
    // Dead-operand contract. Each fused form is defined as its original
    // pair, including the write of the intermediate ("consumed") cell.
    // An executor may leave that cell unwritten only where the lowering
    // guarantees it is dead: for the three binop forms the consumed cell
    // is the binop's rhs, which must be the popped stack slot
    // (b == a + 1 && b >= numLocalCells); for a compare feeding a branch
    // it is the compare's result, which the branch pops, so it must be a
    // stack cell (>= numLocalCells). Operand-stack cells above the top
    // are always rewritten before they are read again, and so are the
    // versioning guard's scratch cells past the original numCells.
    //
    /** f[b] = imm, then 2-input wasm op `aux` on (a, b). */
    fused_const_binop,
    /**
     * 2-input compare `aux` on (b, imm>>1 cell), then jump to pc `a` if
     * the result is nonzero (imm bit 0 clear) or zero (bit 0 set).
     */
    fused_cmp_jump,
    /** f[imm & 0xffffffff] = f[imm >> 32], then wasm op `aux` on (a, b). */
    fused_copy_binop,
    /**
     * Load op `imm >> 32` into cell b (address also cell b, byte offset
     * imm & 0xffffffff), then 2-input wasm op `aux` on (a, b).
     */
    fused_load_binop,
    /**
     * First instruction of the slow-path clone a versioned loop falls
     * back to when its preheader guard fails: bumps the instance's
     * guard-fallback counter (surfaced as opt.guard_fallbacks). No
     * operands; pure diagnostics, never affects execution semantics.
     */
    count_fallback,
    count_
};

constexpr size_t kLOpCount = size_t(LOp::count_);

/**
 * One lowered instruction. `op` holds either a wasm Op (< Op::count_) or an
 * LOp. Cell-index operands are absolute within the function frame.
 *
 * Operand conventions for wasm ops (by signature arity):
 *   0 inputs, 1 output : a = destination cell
 *   1 input            : a = source cell, also destination
 *   2 inputs           : a = lhs cell (also destination), b = rhs cell
 *   3 inputs           : a = first of three consecutive cells
 * Loads/stores carry the byte offset in `imm`; constants carry the payload.
 * global_get/global_set keep the global index in `b`.
 */
struct LInst
{
    uint16_t op = 0;
    uint16_t aux = 0;
    uint32_t a = 0;
    uint32_t b = 0;
    uint64_t imm = 0;

    bool isWasmOp() const { return op < uint16_t(Op::count_); }
    Op wasmOp() const { return Op(op); }
    LOp lop() const { return LOp(op); }
};

/** Executable form of one defined function. */
struct LoweredFunc
{
    uint32_t funcIdx = 0;  ///< index in the module's function space
    uint32_t typeIdx = 0;
    uint32_t numParams = 0;
    uint32_t numLocalCells = 0; ///< locals including parameters
    uint32_t numCells = 0;      ///< locals + maximum operand-stack depth
    uint16_t numResults = 0;
    /** Types of all locals (parameters first); drives zero-init and JIT
     * register classes. */
    std::vector<ValType> localTypes;
    std::vector<LInst> code;
    /** jump_table target pcs: aux cases then the default, per table. */
    std::vector<uint32_t> tablePool;

    // ----- facts published by the optimization pass (wasm/opt.*) ------
    /**
     * A bounds-check fact proven to hold on every path into the jump
     * target at `pc`: cell `cell` holds an i32 address for which
     * address + limit <= memSize has already been checked. Valid for the
     * trap strategy only (memories never shrink, so a passed check stays
     * passed). Sorted by pc.
     */
    struct EntryCheckFact
    {
        uint32_t pc = 0;
        uint32_t cell = 0;
        uint64_t limit = 0;
    };
    std::vector<EntryCheckFact> entryCheckFacts;
    /**
     * pcs of memory accesses whose bounds check the pass proved
     * redundant (trap strategy only): an earlier check in the same block
     * covers the same address value with an equal-or-larger limit, or a
     * versioned loop's preheader guard covers it. Sorted ascending.
     */
    std::vector<uint32_t> elidableCheckPcs;
};

/** A module plus the lowered form of each defined function. */
struct LoweredModule
{
    Module module;
    std::vector<LoweredFunc> funcs;
    /**
     * Canonical type index per type index: the first structurally equal
     * entry. call_indirect signature checks compare canonical indices so
     * duplicate type entries do not cause spurious mismatches. calli
     * instructions carry their canonical index in `imm`.
     */
    std::vector<uint32_t> typeCanon;

    const LoweredFunc& funcByIndex(uint32_t func_idx) const
    {
        return funcs[func_idx - module.numImportedFuncs()];
    }
};

/**
 * Lower every defined function. @p module must already be validated;
 * lowering asserts on conditions the validator guarantees.
 */
Result<LoweredModule> lowerModule(Module module);

/** Name of a lowered opcode (wasm mnemonic or pseudo-op name). */
const char* lopName(uint16_t op);

} // namespace lnb::wasm

#endif // LNB_WASM_LOWER_H
