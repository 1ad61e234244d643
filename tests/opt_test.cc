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
#include <functional>
#include <string>

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

constexpr BoundsStrategy kAllStrategies[] = {
    BoundsStrategy::none, BoundsStrategy::clamp, BoundsStrategy::trap,
    BoundsStrategy::mprotect, BoundsStrategy::uffd};

TEST(Fusion, FusedExecutorsMatchUnoptimizedResults)
{
    struct Case
    {
        EngineKind kind;
        BoundsStrategy strategy;
    };
    std::vector<Case> cases = {
        {EngineKind::interp_switch, BoundsStrategy::trap},
        {EngineKind::interp_threaded, BoundsStrategy::trap}};
    if (jit::jitSupported()) {
        for (BoundsStrategy strategy : kAllStrategies)
            cases.push_back({EngineKind::jit_opt, strategy});
    }
    for (const Case& c : cases) {
        SCOPED_TRACE(std::string(rt::engineKindName(c.kind)) + " " +
                     mem::boundsStrategyName(c.strategy));
        std::vector<uint32_t> sums;
        for (bool opt : {false, true}) {
            EngineConfig config;
            config.kind = c.kind;
            config.strategy = c.strategy;
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

/**
 * Edge cases for jit_opt's native fused forms. Every export takes
 * (x: i32, y: i64, z: f64, addr: i32) and returns an i64 fold of its
 * results. Each body is exported twice: as is, and as "<name>_deep"
 * with three filler values under it, so its operands land in frame
 * cells instead of register homes.
 */
Module
fusedEdgeModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    std::vector<uint8_t> tail(64);
    for (size_t i = 0; i < tail.size(); i++)
        tail[i] = uint8_t((i * 3 + 1) % 64); // no NaN bit patterns
    mb.addData(65536 - 64, tail);
    uint32_t t = mb.addType(
        {ValType::i32, ValType::i64, ValType::f64, ValType::i32},
        {ValType::i64});
    constexpr uint32_t x = 0, y = 1, z = 2, addr = 3;
    constexpr int64_t k2p31 = int64_t(1) << 31;
    constexpr int64_t kMinus2p31m1 = -k2p31 - 1;
    constexpr int64_t k2p63 = INT64_MIN;

    // Exports body (net +1 i64) at stack depth 0 and at depth 3.
    auto add = [&](const std::string& name,
                   const std::function<void(FunctionBuilder&)>& body) {
        auto& shallow = mb.addFunction(t);
        body(shallow);
        mb.exportFunc(name, shallow.finish());
        auto& deep = mb.addFunction(t);
        for (int i = 0; i < 3; i++)
            deep.i64Const(i + 1);
        body(deep);
        for (int i = 0; i < 3; i++)
            deep.emit(Op::i64_xor);
        mb.exportFunc(name + "_deep", deep.finish());
    };
    auto binI32 = [](FunctionBuilder& f, int32_t k, Op op, Op fold) {
        f.localGet(x);
        f.i32Const(k);
        f.emit(op);
        f.emit(fold);
    };
    auto binI64 = [](FunctionBuilder& f, int64_t k, Op op, Op fold) {
        f.localGet(y);
        f.i64Const(k);
        f.emit(op);
        f.emit(fold);
    };

    // const+binop, i32: shift counts >= 32, negative immediates.
    add("imm32", [&](FunctionBuilder& f) {
        f.localGet(x);
        f.i32Const(33);
        f.emit(Op::i32_shl);
        binI32(f, 40, Op::i32_shr_s, Op::i32_xor);
        binI32(f, 32, Op::i32_shr_u, Op::i32_xor);
        binI32(f, 37, Op::i32_rotl, Op::i32_xor);
        binI32(f, 63, Op::i32_rotr, Op::i32_xor);
        binI32(f, -5, Op::i32_add, Op::i32_xor);
        binI32(f, -7, Op::i32_sub, Op::i32_xor);
        binI32(f, -3, Op::i32_mul, Op::i32_xor);
        binI32(f, 27, Op::i32_mul, Op::i32_add);
        binI32(f, -16, Op::i32_and, Op::i32_xor);
        binI32(f, -256, Op::i32_or, Op::i32_xor);
        binI32(f, -1, Op::i32_xor, Op::i32_xor);
        // Compares materialized into a bit string.
        const std::pair<int32_t, Op> cmps[] = {
            {-1, Op::i32_lt_s}, {-1, Op::i32_lt_u}, {-7, Op::i32_gt_s},
            {5, Op::i32_gt_u}, {-5, Op::i32_le_s}, {100, Op::i32_le_u},
            {0, Op::i32_ge_s}, {INT32_MIN, Op::i32_ge_u},
            {-5, Op::i32_eq}, {3, Op::i32_ne}};
        for (const auto& [k, op] : cmps) {
            f.i32Const(1);
            f.emit(Op::i32_shl);
            binI32(f, k, op, Op::i32_or);
        }
        f.emit(Op::i64_extend_i32_u);
    });

    // const+binop, i64: shift counts >= 64, and immediates that do not
    // sign-extend from 32 bits (2^31, -2^31-1, 2^63) next to ones that do.
    add("imm64", [&](FunctionBuilder& f) {
        f.localGet(y);
        f.i64Const(65);
        f.emit(Op::i64_shl);
        binI64(f, 100, Op::i64_shr_s, Op::i64_xor);
        binI64(f, 64, Op::i64_shr_u, Op::i64_xor);
        binI64(f, 70, Op::i64_rotl, Op::i64_xor);
        binI64(f, 127, Op::i64_rotr, Op::i64_xor);
        binI64(f, k2p63, Op::i64_shl, Op::i64_add);
        binI64(f, k2p31, Op::i64_add, Op::i64_xor);
        binI64(f, kMinus2p31m1, Op::i64_sub, Op::i64_xor);
        binI64(f, k2p63, Op::i64_mul, Op::i64_xor);
        binI64(f, k2p63, Op::i64_and, Op::i64_xor);
        binI64(f, k2p31, Op::i64_or, Op::i64_xor);
        binI64(f, kMinus2p31m1, Op::i64_xor, Op::i64_xor);
        binI64(f, -5, Op::i64_add, Op::i64_xor);
        binI64(f, 30, Op::i64_mul, Op::i64_xor);
        binI64(f, -3, Op::i64_mul, Op::i64_add);
        binI64(f, -k2p31, Op::i64_and, Op::i64_xor);
        binI64(f, k2p31 - 1, Op::i64_sub, Op::i64_xor);
        const std::pair<int64_t, Op> cmps[] = {
            {k2p31, Op::i64_lt_s}, {k2p31, Op::i64_lt_u},
            {k2p63, Op::i64_eq}, {-1, Op::i64_gt_u},
            {kMinus2p31m1, Op::i64_ge_s}, {-k2p31, Op::i64_le_s},
            {0, Op::i64_ne}, {7, Op::i64_le_u}};
        for (const auto& [k, op] : cmps) {
            f.i64Const(1);
            f.emit(Op::i64_shl);
            f.localGet(y);
            f.i64Const(k);
            f.emit(op);
            f.emit(Op::i64_extend_i32_u);
            f.emit(Op::i64_or);
        }
    });

    // Compare-with-immediate feeding br_if (jump_if) and if
    // (jump_if_zero), signed and unsigned; register compares feeding a
    // branch; a counted loop whose back edge compares with an immediate.
    add("branches", [&](FunctionBuilder& f) {
        uint32_t acc = f.addLocal(ValType::i32);
        uint32_t i = f.addLocal(ValType::i32);
        auto setBit = [&](int32_t bit) {
            f.localGet(acc);
            f.i32Const(bit);
            f.emit(Op::i32_or);
            f.localSet(acc);
        };
        f.i32Const(0);
        f.localSet(acc);
        auto skipUnless = [&](auto cond, int32_t bit) {
            auto b = f.block();
            cond();
            f.brIf(b);
            setBit(bit);
            f.end();
        };
        auto ifElse = [&](auto cond, int32_t then_bit, int32_t else_bit) {
            cond();
            f.ifElse();
            setBit(then_bit);
            if (else_bit != 0) {
                f.elseBranch();
                setBit(else_bit);
            }
            f.end();
        };
        auto cmp32 = [&](int32_t k, Op op) {
            return [&f, k, op] {
                f.localGet(x);
                f.i32Const(k);
                f.emit(op);
            };
        };
        auto cmp64 = [&](int64_t k, Op op) {
            return [&f, k, op] {
                f.localGet(y);
                f.i64Const(k);
                f.emit(op);
            };
        };
        skipUnless(cmp32(-7, Op::i32_lt_s), 1);
        skipUnless(cmp32(100, Op::i32_lt_u), 2);
        ifElse(cmp32(-3, Op::i32_ge_s), 4, 8);
        ifElse(cmp32(5, Op::i32_gt_u), 16, 0);
        skipUnless(cmp64(-1, Op::i64_eq), 32);
        skipUnless(cmp64(k2p31, Op::i64_lt_s), 64);
        ifElse(cmp64(7, Op::i64_lt_u), 128, 0);
        ifElse(cmp64(kMinus2p31m1, Op::i64_gt_s), 256, 0);
        // (x + 1) <s (x * 2): a fused_cmp_jump on computed operands.
        skipUnless(
            [&] {
                f.localGet(x);
                f.i32Const(1);
                f.emit(Op::i32_add);
                f.localGet(x);
                f.i32Const(2);
                f.emit(Op::i32_mul);
                f.emit(Op::i32_lt_s);
            },
            512);
        ifElse(
            [&] {
                f.localGet(y);
                f.i64Const(1);
                f.emit(Op::i64_add);
                f.localGet(y);
                f.i64Const(3);
                f.emit(Op::i64_mul);
                f.emit(Op::i64_ge_u);
            },
            1024, 2048);
        // do { i += 3; acc += 4096 } while (i <u 30)
        f.i32Const(0);
        f.localSet(i);
        auto head = f.loop();
        f.localGet(acc);
        f.i32Const(4096);
        f.emit(Op::i32_add);
        f.localSet(acc);
        f.localGet(i);
        f.i32Const(3);
        f.emit(Op::i32_add);
        f.localTee(i);
        f.i32Const(30);
        f.emit(Op::i32_lt_u);
        f.brIf(head);
        f.end();
        f.localGet(acc);
        f.emit(Op::i64_extend_i32_u);
    });

    // copy+binop where the copied local also feeds the lhs: x op x.
    add("copysrc", [&](FunctionBuilder& f) {
        auto same = [&f](uint32_t local, Op op) {
            f.localGet(local);
            f.localGet(local);
            f.emit(op);
        };
        same(x, Op::i32_sub);
        same(x, Op::i32_mul);
        f.emit(Op::i32_xor);
        same(x, Op::i32_shl);
        f.emit(Op::i32_xor);
        same(x, Op::i32_lt_s);
        f.emit(Op::i32_xor);
        f.emit(Op::i64_extend_i32_u);
        same(y, Op::i64_sub);
        f.emit(Op::i64_xor);
        same(y, Op::i64_mul);
        f.emit(Op::i64_xor);
        same(y, Op::i64_or);
        f.emit(Op::i64_add);
        same(z, Op::f64_sub);
        same(z, Op::f64_mul);
        f.emit(Op::f64_add);
        same(z, Op::f64_div);
        f.emit(Op::f64_add);
        f.emit(Op::i64_reinterpret_f64);
        f.emit(Op::i64_xor);
    });

    // load+binop pairs (the tests call them at and one byte past the end
    // of memory): lhs op load(addr + offset), twice.
    auto addLoad = [&](const char* name, uint32_t lhs, Op load,
                       uint32_t offset, Op op1, Op op2) {
        add(name, [=](FunctionBuilder& f) {
            if (lhs == x || lhs == y || lhs == z)
                f.localGet(lhs);
            else
                f.f32Const(2.5f);
            f.localGet(addr);
            f.memOp(load, offset);
            f.emit(op1);
            f.localGet(addr);
            f.memOp(load, offset);
            f.emit(op2);
            if (load == Op::i32_load) {
                f.emit(Op::i64_extend_i32_u);
            } else if (load == Op::f32_load) {
                f.emit(Op::i32_reinterpret_f32);
                f.emit(Op::i64_extend_i32_u);
            } else if (load == Op::f64_load) {
                f.emit(Op::i64_reinterpret_f64);
            }
        });
    };
    addLoad("load_i32", x, Op::i32_load, 0, Op::i32_add, Op::i32_sub);
    addLoad("load_i64", y, Op::i64_load, 0, Op::i64_xor, Op::i64_sub);
    addLoad("load_f32", addr, Op::f32_load, 0, Op::f32_div, Op::f32_add);
    addLoad("load_f64", z, Op::f64_load, 0, Op::f64_mul, Op::f64_sub);
    addLoad("load_f64_off16", z, Op::f64_load, 16, Op::f64_add,
            Op::f64_mul);
    return mb.build();
}

/** Outcome of one call as comparable bits: trap kind, then the i64. */
std::pair<TrapKind, uint64_t>
runEdge(Instance& inst, const std::string& name,
        const std::vector<Value>& args)
{
    rt::CallOutcome out = inst.callExport(name, args);
    if (!out.ok())
        return {out.trap, 0};
    return {TrapKind::none, out.results[0].i64};
}

TEST(Fusion, NativeFormsMatchUnoptimizedInterpreterOnEdgeCases)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    const int32_t xs[] = {0, 1, -1, 5, -7, INT32_MAX, INT32_MIN, 99};
    const int64_t ys[] = {0, -1, int64_t(1) << 31, -(int64_t(1) << 31) - 1,
                          INT64_MIN, 7, 0x123456789abcdefll, -3};
    const double zs[] = {1.5, -2.25, 1e300, 3.0, -0.5, 1e-300, 7.0, 0.75};
    std::vector<std::vector<Value>> arith_args;
    for (size_t i = 0; i < 8; i++) {
        arith_args.push_back({Value::fromI32(uint32_t(xs[i])),
                              Value::fromI64(uint64_t(ys[i])),
                              Value::fromF64(zs[i]), Value::fromI32(0)});
    }
    // Last in-bounds address, one byte past the end, far out of bounds.
    struct LoadCall
    {
        const char* name;
        uint32_t lastOk;
    };
    const LoadCall loads[] = {{"load_i32", 65532}, {"load_i64", 65528},
                              {"load_f32", 65532}, {"load_f64", 65528},
                              {"load_f64_off16", 65512}};

    for (BoundsStrategy strategy : kAllStrategies) {
        SCOPED_TRACE(mem::boundsStrategyName(strategy));
        std::unique_ptr<Instance> insts[2];
        for (int opt = 0; opt < 2; opt++) {
            EngineConfig config;
            config.kind = opt ? EngineKind::jit_opt : EngineKind::interp_switch;
            config.strategy = strategy;
            config.optimizeLoweredIR = opt != 0;
            Engine engine(config);
            auto compiled = engine.compile(fusedEdgeModule());
            ASSERT_TRUE(compiled.isOk()) << compiled.status().toString();
            if (opt) {
                EXPECT_GT(compiled.value()->optStats().instsFused, 0u);
            }
            auto inst = Instance::create(compiled.takeValue());
            ASSERT_TRUE(inst.isOk());
            insts[opt] = inst.takeValue();
        }
        // Runs both variants of an export on both engines; returns the
        // reference outcome's trap kind (the same for both variants).
        auto expectSame = [&](const std::string& name,
                              const std::vector<Value>& args) {
            TrapKind trap = TrapKind::none;
            for (const std::string& variant : {name, name + "_deep"}) {
                auto want = runEdge(*insts[0], variant, args);
                auto got = runEdge(*insts[1], variant, args);
                EXPECT_EQ(got.first, want.first) << variant;
                EXPECT_EQ(got.second, want.second) << variant;
                trap = want.first;
            }
            return trap;
        };
        for (const auto& args : arith_args) {
            for (const char* name : {"imm32", "imm64", "branches", "copysrc"})
                EXPECT_EQ(expectSame(name, args), TrapKind::none) << name;
        }
        for (const LoadCall& load : loads) {
            for (uint32_t a : {0u, 64u, load.lastOk, load.lastOk + 1,
                               0xFFFFFFF0u}) {
                std::vector<Value> args = arith_args[3];
                args[3] = Value::fromI32(a);
                TrapKind trap = expectSame(load.name, args);
                // Clamp redirects instead of trapping, and none does
                // not check at all (the reservation stays readable).
                bool traps = a > load.lastOk &&
                             strategy != BoundsStrategy::clamp &&
                             strategy != BoundsStrategy::none;
                EXPECT_EQ(trap, traps ? TrapKind::out_of_bounds_memory
                                      : TrapKind::none)
                    << load.name << " " << a;
            }
        }
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

/**
 * acc *= mem[base + i*8] (f64) for i in [0, n): the body's f64.load feeds
 * f64.mul directly, so fusion turns the pair into a fused_load_binop
 * that must keep the load's versioning hint.
 */
Module
affineProductModule()
{
    ModuleBuilder mb;
    mb.addMemory(1, 1);
    uint32_t t = mb.addType({ValType::i32, ValType::i32}, {ValType::f64});
    auto& f = mb.addFunction(t); // params: base, n
    f.addLocal(ValType::i32); // local 2: i
    f.addLocal(ValType::f64); // local 3: acc
    f.f64Const(1.0);
    f.localSet(3);
    auto exit = f.block();
    f.localGet(1);
    f.emit(Op::i32_eqz);
    f.brIf(exit);
    auto head = f.loop();
    f.localGet(3);
    f.localGet(0);
    f.localGet(2);
    f.i32Const(3);
    f.emit(Op::i32_shl); // i * 8
    f.emit(Op::i32_add);
    f.memOp(Op::f64_load, 0);
    f.emit(Op::f64_mul);
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

TEST(Versioning, FusedLoadKeepsItsVersioningHint)
{
    if (!jit::jitSupported())
        GTEST_SKIP() << "JIT unsupported on this CPU";
    EngineConfig config;
    config.kind = EngineKind::jit_opt;
    config.strategy = BoundsStrategy::trap;
    config.countRetiredChecks = true;
    Engine engine(config);
    auto compiled = engine.compile(affineProductModule());
    ASSERT_TRUE(compiled.isOk());
    EXPECT_GE(compiled.value()->optStats().loopsVersioned, 1u);
    bool fused_load = false;
    for (const LInst& inst : compiled.value()->lowered().funcs[0].code) {
        if (!inst.isWasmOp() && inst.lop() == LOp::fused_load_binop)
            fused_load = true;
    }
    EXPECT_TRUE(fused_load);
    auto inst = Instance::create(compiled.takeValue());
    ASSERT_TRUE(inst.isOk());
    auto out = inst.value()->callExport(
        "run", {Value::fromI32(0), Value::fromI32(1000)});
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(inst.value()->guardFallbacks(), 0u);
    EXPECT_EQ(inst.value()->checksRetired(), 0u);
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
