/**
 * @file
 * Tests for the lowered-IR optimization pass (wasm/opt.*): fusion
 * counts and pc remapping, cross-block check facts, loop versioning,
 * the bounds-check soundness property (a rewrite of the address cell
 * must never let an elided check skip a required trap), the
 * LNB_OPT_DISABLED switch, and the headline elision rate on a
 * PolyBench-style loop kernel.
 */
#include <gtest/gtest.h>

#include <cstdlib>

#include "jit/compiler.h"
#include "obs/metrics.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "svc/module_cache.h"
#include "wasm/builder.h"
#include "wasm/lower.h"
#include "wasm/opt.h"
#include "wasm/validator.h"

namespace lnb::wasm {
namespace {

using mem::BoundsStrategy;
using rt::Engine;
using rt::EngineConfig;
using rt::EngineKind;
using rt::Instance;

/** sum += mem[addr] over i in [0, n) with a bottom-test loop, so the
 * loop header holds the body. */
Module
bottomTestSumModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // params: addr, n
    f.addLocal(ValType::i32); // local 2: i
    f.addLocal(ValType::i32); // local 3: sum
    auto exit = f.block();
    f.localGet(1);
    f.i32Const(0);
    f.emit(Op::i32_le_s);
    f.brIf(exit);
    auto head = f.loop();
    // Invariant-address access first: mem[addr]
    f.localGet(0);
    f.memOp(Op::i32_load, 0);
    f.localGet(3);
    f.emit(Op::i32_add);
    f.localSet(3);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(1);
    f.emit(Op::i32_lt_s);
    f.brIf(head);
    f.end(); // loop
    f.end(); // block
    f.localGet(3);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

/**
 * The gemm beta-scale phase as its own kernel: C[i] *= beta over a
 * contiguous f64 row, a read-modify-write loop where load and store hit
 * the same address. The per-block JIT cache cannot carry the check from
 * the load to the store (the load clobbers its own address cell), but
 * value numbering proves the store's check redundant.
 */
Module
rmwScaleModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32, ValType::f64}, {});
    auto& f = mb.addFunction(t); // params: n, beta
    f.addLocal(ValType::i32); // local 2: i
    auto exit = f.block();
    f.localGet(0);
    f.i32Const(0);
    f.emit(Op::i32_le_s);
    f.brIf(exit);
    auto head = f.loop();
    f.localGet(2);
    f.i32Const(3);
    f.emit(Op::i32_shl); // byte offset = i * 8
    f.localGet(2);
    f.i32Const(3);
    f.emit(Op::i32_shl);
    f.memOp(Op::f64_load, 0);
    f.localGet(1);
    f.emit(Op::f64_mul);
    f.memOp(Op::f64_store, 0);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(0);
    f.emit(Op::i32_lt_s);
    f.brIf(head);
    f.end(); // loop
    f.end(); // block
    uint32_t idx = f.finish();
    mb.exportFunc("scale", idx);
    return mb.build();
}

// ---------------------------------------------------------------------
// Fusion
// ---------------------------------------------------------------------

TEST(Fusion, FusesPairsAndShrinksCode)
{
    Module module = bottomTestSumModule();
    auto lowered = lowerModule(std::move(module));
    ASSERT_TRUE(lowered.isOk());
    LoweredModule lm = lowered.takeValue();

    OptOptions opts;
    opts.fuse = true;
    OptStats stats = optimizeLoweredModule(lm, opts);
    EXPECT_GT(stats.instsFused, 0u);
    EXPECT_EQ(stats.instsBefore - stats.instsFused, stats.instsAfter);
    EXPECT_EQ(lm.funcs[0].code.size(), stats.instsAfter);

    bool has_fused = false;
    for (const LInst& inst : lm.funcs[0].code) {
        if (!inst.isWasmOp() && (inst.lop() == LOp::fused_cmp_jump ||
                                 inst.lop() == LOp::fused_const_binop ||
                                 inst.lop() == LOp::fused_copy_binop ||
                                 inst.lop() == LOp::fused_load_binop))
            has_fused = true;
        // Every surviving jump target must be in range after the remap.
        if (!inst.isWasmOp() &&
            (inst.lop() == LOp::jump || inst.lop() == LOp::jump_if ||
             inst.lop() == LOp::jump_if_zero ||
             inst.lop() == LOp::fused_cmp_jump)) {
            EXPECT_LT(inst.a, lm.funcs[0].code.size());
        }
    }
    EXPECT_TRUE(has_fused);
}

TEST(Fusion, InterpretersMatchUnoptimizedResults)
{
    for (EngineKind kind :
         {EngineKind::interp_switch, EngineKind::interp_threaded}) {
        std::vector<uint32_t> sums;
        for (bool opt : {false, true}) {
            EngineConfig config;
            config.kind = kind;
            config.strategy = BoundsStrategy::trap;
            config.optimizeLoweredIR = opt;
            Engine engine(config);
            auto compiled = engine.compile(bottomTestSumModule());
            ASSERT_TRUE(compiled.isOk());
            if (opt) {
                EXPECT_GT(compiled.value()->optStats().instsFused, 0u);
            }
            auto inst = Instance::create(compiled.takeValue());
            ASSERT_TRUE(inst.isOk());
            auto out = inst.value()->callExport(
                "run", {Value::fromI32(0), Value::fromI32(1000)});
            ASSERT_TRUE(out.ok());
            sums.push_back(out.results[0].i32);
        }
        EXPECT_EQ(sums[0], sums[1]);
    }
}

// ---------------------------------------------------------------------
// Value numbering + cross-block facts
// ---------------------------------------------------------------------

TEST(Analysis, RmwStoreCheckIsValueNumberedAway)
{
    Module module = rmwScaleModule();
    auto lowered = lowerModule(std::move(module));
    ASSERT_TRUE(lowered.isOk());
    LoweredModule lm = lowered.takeValue();

    OptOptions opts;
    opts.analyzeChecks = true;
    OptStats stats = optimizeLoweredModule(lm, opts);
    // The store at i*8 is covered by the load at i*8 (same value, same
    // limit) even though they use different address cells.
    EXPECT_GE(stats.checksElided, 1u);
    EXPECT_FALSE(lm.funcs[0].elidableCheckPcs.empty());
}

// ---------------------------------------------------------------------
// Soundness: rewriting the address cell must kill the elision
// ---------------------------------------------------------------------

/** load mem[in-bounds], overwrite the address local with an OOB value
 * (optionally in a separate block), load again at the same offset. */
Module
addressRewriteModule(bool cross_block)
{
    ModuleBuilder mb;
    mb.addMemory(1, 1); // 65536 bytes
    uint32_t t = mb.addType({ValType::i32}, {ValType::i64});
    auto& f = mb.addFunction(t); // param: flag
    f.addLocal(ValType::i32); // local 1: a
    f.i32Const(65528);
    f.localSet(1);
    f.localGet(1);
    f.memOp(Op::i64_load, 0); // 65528 + 8 == 65536: in bounds
    if (cross_block) {
        auto skip = f.block();
        f.localGet(0);
        f.emit(Op::i32_eqz);
        f.brIf(skip);
        f.i32Const(65536);
        f.localSet(1);
        f.end();
    } else {
        f.i32Const(65536);
        f.localSet(1);
    }
    f.localGet(1);
    f.memOp(Op::i64_load, 0); // 65536 + 8 > 65536: must trap
    f.emit(Op::i64_add);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

TEST(Soundness, AddressRewriteNeverSkipsRequiredCheck)
{
    for (EngineKind kind :
         {EngineKind::interp_switch, EngineKind::interp_threaded,
          EngineKind::jit_base, EngineKind::jit_opt}) {
        if ((kind == EngineKind::jit_base || kind == EngineKind::jit_opt) &&
            !jit::jitSupported())
            continue;
        for (bool cross_block : {false, true}) {
            for (bool opt : {false, true}) {
                EngineConfig config;
                config.kind = kind;
                config.strategy = BoundsStrategy::trap;
                config.optimizeLoweredIR = opt;
                Engine engine(config);
                auto compiled =
                    engine.compile(addressRewriteModule(cross_block));
                ASSERT_TRUE(compiled.isOk());
                auto inst = Instance::create(compiled.takeValue());
                ASSERT_TRUE(inst.isOk());
                auto out =
                    inst.value()->callExport("run", {Value::fromI32(1)});
                EXPECT_EQ(out.trap, TrapKind::out_of_bounds_memory)
                    << "engine " << int(kind) << " cross_block "
                    << cross_block << " opt " << opt;
                // The not-rewritten path must still succeed.
                auto ok =
                    inst.value()->callExport("run", {Value::fromI32(0)});
                EXPECT_TRUE(cross_block ? ok.ok() : !ok.ok());
            }
        }
    }
}

// ---------------------------------------------------------------------
// Headline criterion: >= 30% fewer emitted checks on an RMW loop kernel
// ---------------------------------------------------------------------

#ifndef LNB_OBS_DISABLED
TEST(Criterion, EmittedChecksDropAtLeast30PercentOnRmwKernel)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    obs::Counter emitted =
        obs::registerCounter("jit.bounds_checks_emitted");
    uint64_t deltas[2];
    for (bool opt : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optimizeLoweredIR = opt;
        Engine engine(config);
        uint64_t before = emitted.value();
        auto compiled = engine.compile(rmwScaleModule());
        ASSERT_TRUE(compiled.isOk());
        deltas[opt] = emitted.value() - before;
    }
    ASSERT_GT(deltas[0], 0u);
    EXPECT_LE(deltas[1] * 10, deltas[0] * 7)
        << "opt-off emitted " << deltas[0] << ", opt-on emitted "
        << deltas[1];
    // Behavior must be identical: scale a row and compare memory.
    for (bool opt : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optimizeLoweredIR = opt;
        Engine engine(config);
        auto compiled = engine.compile(rmwScaleModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());
        auto out = inst.value()->callExport(
            "scale", {Value::fromI32(8192), Value::fromF64(2.5)});
        EXPECT_TRUE(out.ok());
    }
}
#endif // LNB_OBS_DISABLED

// ---------------------------------------------------------------------
// Affine loop versioning
// ---------------------------------------------------------------------

/**
 * sum += mem[base + i*4] for i in [0, n), as a bottom-test counted loop
 * with an unsigned exit compare — the exact shape the versioner's
 * planner recognizes (affine address {base:1, i:4}, invariant bound).
 */
Module
affineSumModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // params: base, n
    f.addLocal(ValType::i32); // local 2: i
    f.addLocal(ValType::i32); // local 3: sum
    auto exit = f.block();
    f.localGet(1);
    f.emit(Op::i32_eqz);
    f.brIf(exit);
    auto head = f.loop();
    f.localGet(0);
    f.localGet(2);
    f.i32Const(2);
    f.emit(Op::i32_shl); // i * 4
    f.emit(Op::i32_add);
    f.memOp(Op::i32_load, 0);
    f.localGet(3);
    f.emit(Op::i32_add);
    f.localSet(3);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(1);
    f.emit(Op::i32_lt_u);
    f.brIf(head);
    f.end(); // loop
    f.end(); // block
    f.localGet(3);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

/** mem[base + i*4] = i + 1 for i in [0, n), plus a "peek" accessor so a
 * test can observe which stores retired before a trap. */
Module
affineStoreModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {});
    auto& f = mb.addFunction(t); // params: base, n
    f.addLocal(ValType::i32); // local 2: i
    auto exit = f.block();
    f.localGet(1);
    f.emit(Op::i32_eqz);
    f.brIf(exit);
    auto head = f.loop();
    f.localGet(0);
    f.localGet(2);
    f.i32Const(2);
    f.emit(Op::i32_shl);
    f.emit(Op::i32_add);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.memOp(Op::i32_store, 0);
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(1);
    f.emit(Op::i32_lt_u);
    f.brIf(head);
    f.end(); // loop
    f.end(); // block
    uint32_t run = f.finish();
    uint32_t pt = mb.addType({ValType::i32}, {ValType::i32});
    auto& p = mb.addFunction(pt);
    p.localGet(0);
    p.memOp(Op::i32_load, 0);
    uint32_t peek = p.finish();
    mb.exportFunc("run", run);
    mb.exportFunc("peek", peek);
    return mb.build();
}

/** The affine sum loop with a versioning blocker in the body: either a
 * memory.grow or a call (both may move/extend memory mid-loop). */
Module
blockedLoopModule(bool use_grow)
{
    ModuleBuilder mb;
    mb.addMemory(1, 4);
    uint32_t helper_t = mb.addType({}, {});
    auto& h = mb.addFunction(helper_t);
    uint32_t helper = h.finish();
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // params: base, n
    f.addLocal(ValType::i32);
    f.addLocal(ValType::i32);
    auto exit = f.block();
    f.localGet(1);
    f.emit(Op::i32_eqz);
    f.brIf(exit);
    auto head = f.loop();
    f.localGet(0);
    f.localGet(2);
    f.i32Const(2);
    f.emit(Op::i32_shl);
    f.emit(Op::i32_add);
    f.memOp(Op::i32_load, 0);
    f.localGet(3);
    f.emit(Op::i32_add);
    f.localSet(3);
    if (use_grow) {
        f.i32Const(0);
        f.memoryGrow();
        f.drop();
    } else {
        f.call(helper);
    }
    f.localGet(2);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.localTee(2);
    f.localGet(1);
    f.emit(Op::i32_lt_u);
    f.brIf(head);
    f.end();
    f.end();
    f.localGet(3);
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

/** Optimize one module with the full check pipeline (analysis and
 * versioning) as the engine would configure it. */
OptStats
optimizeWithVersioning(LoweredModule& lm, bool versioning = true)
{
    OptOptions opts;
    opts.analyzeChecks = true;
    opts.versionLoops = versioning;
    return optimizeLoweredModule(lm, opts);
}

TEST(Versioning, AffineLoopGetsVersionedClone)
{
    auto lowered = lowerModule(affineSumModule());
    ASSERT_TRUE(lowered.isOk());
    LoweredModule lm = lowered.takeValue();

    OptStats stats = optimizeWithVersioning(lm);
    EXPECT_GE(stats.loopsVersioned, 1u);
    EXPECT_GE(stats.checksVersioned, 1u);

    // The rewritten function carries a fallback-counting slow clone and
    // fast-path accesses marked elidable for the JIT.
    const LoweredFunc& func = lm.funcs[0];
    bool has_fallback_marker = false;
    for (const LInst& inst : func.code) {
        if (!inst.isWasmOp() && inst.lop() == LOp::count_fallback)
            has_fallback_marker = true;
    }
    EXPECT_TRUE(has_fallback_marker);
    EXPECT_FALSE(func.elidableCheckPcs.empty());
    for (uint32_t pc : func.elidableCheckPcs)
        EXPECT_LT(pc, func.code.size());
}

TEST(Versioning, GrowOrCallInBodyPreventsVersioning)
{
    for (bool use_grow : {true, false}) {
        auto lowered = lowerModule(blockedLoopModule(use_grow));
        ASSERT_TRUE(lowered.isOk());
        LoweredModule lm = lowered.takeValue();
        OptStats stats = optimizeWithVersioning(lm);
        EXPECT_EQ(stats.loopsVersioned, 0u)
            << (use_grow ? "memory.grow" : "call") << " in the body";
    }
}

TEST(Versioning, FastPathMatchesInterpreterAndSkipsFallback)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    // Reference: unoptimized switch interpreter.
    uint32_t expected;
    {
        EngineConfig config;
        config.kind = EngineKind::interp_switch;
        config.strategy = BoundsStrategy::trap;
        config.optimizeLoweredIR = false;
        Engine engine(config);
        auto compiled = engine.compile(affineSumModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());
        auto out = inst.value()->callExport(
            "run", {Value::fromI32(64), Value::fromI32(1000)});
        ASSERT_TRUE(out.ok());
        expected = out.results[0].i32;
    }
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::trap;
    Engine engine(config);
    auto compiled = engine.compile(affineSumModule());
    ASSERT_TRUE(compiled.isOk());
    EXPECT_GE(compiled.value()->optStats().loopsVersioned, 1u);
    auto inst = Instance::create(compiled.takeValue());
    ASSERT_TRUE(inst.isOk());
    auto out = inst.value()->callExport(
        "run", {Value::fromI32(64), Value::fromI32(1000)});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.results[0].i32, expected);
    // Every access fits in one page, so the guard passes and the
    // fallback clone never runs.
    EXPECT_EQ(inst.value()->guardFallbacks(), 0u);
}

TEST(Versioning, GuardFallbackPreservesTrapOrderAndSideEffects)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    for (bool versioning : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optVersioning = versioning;
        Engine engine(config);
        auto compiled = engine.compile(affineStoreModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());

        // Exact fit: stores at 65528 and 65532 (+4 == memSize) succeed.
        auto ok = inst.value()->callExport(
            "run", {Value::fromI32(65528), Value::fromI32(2)});
        EXPECT_TRUE(ok.ok());
        uint64_t fallbacks_ok = inst.value()->guardFallbacks();

        // One more iteration runs past the page: the guard must reject,
        // and the checked clone must retire the two in-bounds stores
        // before trapping on the third — same order as unoptimized.
        auto trap = inst.value()->callExport(
            "run", {Value::fromI32(65528), Value::fromI32(3)});
        EXPECT_EQ(trap.trap, TrapKind::out_of_bounds_memory);
        auto peek0 =
            inst.value()->callExport("peek", {Value::fromI32(65528)});
        auto peek1 =
            inst.value()->callExport("peek", {Value::fromI32(65532)});
        ASSERT_TRUE(peek0.ok() && peek1.ok());
        EXPECT_EQ(peek0.results[0].i32, 1);
        EXPECT_EQ(peek1.results[0].i32, 2);
        if (versioning) {
            EXPECT_EQ(fallbacks_ok, 0u) << "exact fit must stay fast";
            EXPECT_GE(inst.value()->guardFallbacks(), 1u)
                << "the trapping run must take the checked clone";
        } else {
            EXPECT_EQ(inst.value()->guardFallbacks(), 0u);
        }
    }
}

TEST(Versioning, U32WraparoundFallsBackSoundly)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    // base + i*4 wraps u32 between iterations. The guard evaluates the
    // worst-case extent in u64 (no wrap), so it must reject and leave the
    // wrap semantics — including the first-iteration trap — to the
    // checked clone.
    for (bool versioning : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optVersioning = versioning;
        Engine engine(config);
        auto compiled = engine.compile(affineSumModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());
        auto out = inst.value()->callExport(
            "run",
            {Value::fromI32(int32_t(0xFFFFFFFCu)), Value::fromI32(2)});
        EXPECT_EQ(out.trap, TrapKind::out_of_bounds_memory);
        if (versioning) {
            EXPECT_GE(inst.value()->guardFallbacks(), 1u);
        }
    }
}

// ---------------------------------------------------------------------
// call_indirect clears the check facts
// ---------------------------------------------------------------------

/**
 * caller: check mem[addr], then table[0](addr) via call_indirect, then
 * load through the callee-returned value. calli's inst.b is the
 * table-index cell, not the arg base, so the result cell (arg base =
 * inst.b - nargs) sits *below* inst.b — a value-numbering clear that
 * started at inst.b would leave it holding addr's (checked) value
 * number while the callee wrote an arbitrary address into it.
 */
Module
indirectResultModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    mb.addTable(1, 1);
    uint32_t leaf_t = mb.addType({ValType::i32}, {ValType::i32});
    auto& leaf = mb.addFunction(leaf_t); // param ignored
    leaf.i32Const(70000); // callee-controlled, beyond the single page
    uint32_t leaf_idx = leaf.finish();
    mb.addElem(0, {leaf_idx});

    uint32_t t = mb.addType({ValType::i32}, {ValType::i32});
    auto& f = mb.addFunction(t); // param: addr
    f.localGet(0);
    f.memOp(Op::i32_load, 0); // checks addr's value
    f.drop();
    f.localGet(0); // arg cell: carries addr's value number
    f.i32Const(0); // table index
    f.callIndirect(leaf_t); // result overwrites the arg cell
    f.memOp(Op::i32_load, 0); // address is the callee's result
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

TEST(CallIndirect, ResultKeepsItsCheck)
{
    auto lowered = lowerModule(indirectResultModule());
    ASSERT_TRUE(lowered.isOk());
    LoweredModule lm = lowered.takeValue();
    optimizeWithVersioning(lm);

    // The load after the calli must not be hinted elidable: the call
    // clears every cell name, and its result is a fresh value.
    const LoweredFunc& caller = lm.funcs[1];
    bool saw_calli = false;
    bool checked_post_call_load = false;
    for (uint32_t pc = 0; pc < caller.code.size(); pc++) {
        const LInst& inst = caller.code[pc];
        if (!inst.isWasmOp() && inst.lop() == LOp::calli) {
            saw_calli = true;
            continue;
        }
        if (saw_calli && inst.isWasmOp() && isLoadOp(inst.wasmOp())) {
            for (uint32_t hinted : caller.elidableCheckPcs)
                EXPECT_NE(hinted, pc);
            checked_post_call_load = true;
            break;
        }
    }
    EXPECT_TRUE(saw_calli);
    EXPECT_TRUE(checked_post_call_load);
}

TEST(CallIndirect, ResultTrapsOutOfBounds)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    // End-to-end: with the full opt pipeline on, the load through the
    // indirect call's out-of-range result must still trap.
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::trap;
    Engine engine(config);
    auto compiled = engine.compile(indirectResultModule());
    ASSERT_TRUE(compiled.isOk());
    auto inst = Instance::create(compiled.takeValue());
    ASSERT_TRUE(inst.isOk());
    auto out = inst.value()->callExport("run", {Value::fromI32(0)});
    EXPECT_EQ(out.trap, TrapKind::out_of_bounds_memory)
        << trapKindName(out.trap);
}

// ---------------------------------------------------------------------
// Headline criterion: >= 60% fewer retired checks on the affine kernel
// ---------------------------------------------------------------------

TEST(Criterion, RetiredChecksDropAtLeast60PercentOnAffineKernel)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    constexpr uint32_t kTrips = 5000;
    uint64_t retired[2];
    for (bool opt : {false, true}) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optimizeLoweredIR = opt;
        config.countRetiredChecks = true;
        Engine engine(config);
        auto compiled = engine.compile(affineSumModule());
        ASSERT_TRUE(compiled.isOk());
        auto inst = Instance::create(compiled.takeValue());
        ASSERT_TRUE(inst.isOk());
        auto out = inst.value()->callExport(
            "run", {Value::fromI32(0), Value::fromI32(int32_t(kTrips))});
        ASSERT_TRUE(out.ok());
        retired[opt] = inst.value()->checksRetired();
    }
    // Unoptimized code retires one check per iteration.
    ASSERT_GE(retired[0], uint64_t(kTrips));
    EXPECT_LE(retired[1] * 10, retired[0] * 4)
        << "opt-off retired " << retired[0] << ", opt-on retired "
        << retired[1];
}

// ---------------------------------------------------------------------
// Toggles
// ---------------------------------------------------------------------

TEST(Toggles, VersioningConfigKnob)
{
    auto stats_with = [](bool versioning) {
        auto lowered = lowerModule(affineSumModule());
        LoweredModule lm = lowered.takeValue();
        return optimizeWithVersioning(lm, versioning);
    };
    EXPECT_GE(stats_with(true).loopsVersioned, 1u);
    EXPECT_EQ(stats_with(false).loopsVersioned, 0u);
    // The engine-level kill switch takes the same path.
    if (jit::jitSupported()) {
        EngineConfig config;
        config.kind = EngineKind::jit_opt;
        config.strategy = BoundsStrategy::trap;
        config.optVersioning = false;
        Engine engine(config);
        auto compiled = engine.compile(affineSumModule());
        ASSERT_TRUE(compiled.isOk());
        EXPECT_EQ(compiled.value()->optStats().loopsVersioned, 0u);
    }
}

TEST(Toggles, OptDisabledEnvIsResolvedAsAFlag)
{
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::trap;
    ::unsetenv("LNB_OPT_DISABLED");
    const uint64_t unset =
        svc::engineConfigFingerprint(rt::resolveEngineConfig(config));

    // "1" turns the pass off in the resolved config, so the code-cache
    // key cannot match an artifact optimized under the unset default.
    ::setenv("LNB_OPT_DISABLED", "1", 1);
    EXPECT_FALSE(rt::resolveEngineConfig(config).optimizeLoweredIR);
    EXPECT_NE(svc::engineConfigFingerprint(rt::resolveEngineConfig(config)),
              unset);

    // "0" follows the flag convention: the pass stays on.
    ::setenv("LNB_OPT_DISABLED", "0", 1);
    EXPECT_EQ(svc::engineConfigFingerprint(rt::resolveEngineConfig(config)),
              unset);
    if (jit::jitSupported()) {
        Engine engine(config);
        auto compiled = engine.compile(affineSumModule());
        ASSERT_TRUE(compiled.isOk());
        EXPECT_GT(compiled.value()->optStats().loopsVersioned, 0u);
    }
    ::unsetenv("LNB_OPT_DISABLED");
}

TEST(Toggles, DisabledConfigSkipsThePass)
{
    EngineConfig config;
    config.kind = EngineKind::interp_threaded;
    config.optimizeLoweredIR = false;
    Engine engine(config);
    auto compiled = engine.compile(bottomTestSumModule());
    ASSERT_TRUE(compiled.isOk());
    EXPECT_EQ(compiled.value()->optStats().instsFused, 0u);
    EXPECT_EQ(compiled.value()->stats().optSeconds, 0.0);
}

} // namespace
} // namespace lnb::wasm
