/**
 * @file
 * Optimization pass over the lowered slot-machine IR, shared by the
 * interpreter and JIT tiers. Three transforms, selected per engine
 * configuration:
 *
 *  - Bounds-check analysis (trap strategy only): rediscovers basic
 *    blocks, dominators, and natural loops from the resolved-jump CFG,
 *    value-numbers addresses within each block to mark checks that are
 *    provably covered by an earlier check of the same address value
 *    (`elidableCheckPcs`), and runs a forward "available bounds checks"
 *    dataflow — facts keyed by address cell, killed when the cell is
 *    rewritten — whose block-entry solutions (`entryCheckFacts`) let the
 *    JIT keep eliding across block boundaries instead of resetting its
 *    per-block cache at every label.
 *
 *  - Affine loop versioning (trap strategy only): for single-block
 *    bottom-test counted loops whose memory accesses are affine in the
 *    induction variable (`k_iv*i + k_base*base + const`), the loop body
 *    is cloned; the original becomes a fast path whose accesses are all
 *    marked elidable, guarded by preheader range checks — evaluated in
 *    64-bit arithmetic over the maximum IV extent, which also rules out
 *    u32 wraparound of the in-loop address arithmetic — that jump to the
 *    fully-checked clone when they fail. The only sound way to remove
 *    variable-index checks.
 *
 *  - Superinstruction fusion (every executor but the baseline JIT):
 *    adjacent const+binop, compare+branch, copy+binop, and load+binop
 *    pairs are rewritten into single fused pseudo-instructions. The
 *    interpreters retire one dispatch per pair, replaying the original
 *    two instructions through the shared semantic functions, so results
 *    (including NaN payloads and trap order) stay bit-exact. The
 *    optimizing JIT emits each pair as one native operation where x86
 *    has one (immediate, register or memory operand, cmp+jcc), relying
 *    on the dead-operand contract in wasm/lower.h.
 *
 * The check analysis is intraprocedural: every call clears the facts.
 *
 * The pass reports opt.checks_elided_crossblock, opt.loops_versioned and
 * opt.insts_fused through the obs registry (opt.guard_fallbacks is a
 * runtime counter fed from InstanceContext::guardFallbacks).
 */
#ifndef LNB_WASM_OPT_H
#define LNB_WASM_OPT_H

#include <cstdint>

#include "wasm/lower.h"

namespace lnb::wasm {

/** Which transforms to run. Check analysis and versioning are only sound
 * when the executor traps (never clamps) on out-of-bounds accesses; the
 * caller is responsible for enabling them only under that strategy. */
struct OptOptions
{
    bool fuse = false;          ///< superinstruction fusion
    bool analyzeChecks = false; ///< VN elision hints + cross-block facts
    /** No effect; kept only because lnbbench/steady.cc sets it. */
    bool hoistChecks = false;
    bool versionLoops = false;  ///< affine loop versioning (guard + clone)
    /** No effect; kept only because lnbbench/steady.cc sets it. */
    bool ipoSummaries = false;
};

/** What the pass did, accumulated over all functions of a module. */
struct OptStats
{
    /** Always 0; kept only because lnbbench/steady.cc reads it. */
    uint64_t checksHoisted = 0;
    uint64_t checksElided = 0;
    uint64_t instsFused = 0;
    /** Loops that received a guarded fast-path clone. */
    uint64_t loopsVersioned = 0;
    /** Accesses on versioned fast paths whose checks became elidable. */
    uint64_t checksVersioned = 0;
    /** Lowered instruction counts before/after (fusion shrinks code,
     * versioning grows it). */
    uint64_t instsBefore = 0;
    uint64_t instsAfter = 0;
};

/** Optimize one lowered function in place. */
OptStats optimizeLoweredFunc(LoweredFunc& func, const OptOptions& opts);

/** Optimize every function of @p module in place and bump the obs
 * counters by the module-wide totals. */
OptStats optimizeLoweredModule(LoweredModule& module, const OptOptions& opts);

} // namespace lnb::wasm

#endif // LNB_WASM_OPT_H
