/**
 * @file
 * Differential execution fuzzing: randomly generated (but always valid
 * and non-trapping) programs must produce bit-identical results on every
 * engine and bounds strategy. This is the strongest correctness oracle in
 * the suite: the two interpreters and the two JIT tiers share no
 * execution code beyond the lowered IR, so any semantic divergence in
 * ~190 instructions shows up as a mismatch.
 */
#include <gtest/gtest.h>

#include <functional>

#include "runtime/engine.h"
#include "runtime/instance.h"
#include "support/rng.h"
#include "wasm/builder.h"
#include "wasm/validator.h"

namespace lnb {
namespace {

using wasm::FunctionBuilder;
using wasm::ModuleBuilder;
using wasm::Op;
using wasm::ValType;

/**
 * The native-call targets a generated program reaches: two helper
 * functions of each of two signatures, called directly and through a
 * table (slots 0..3 hold a0, a1, b0, b1).
 */
struct Callees
{
    uint32_t typeA = 0; ///< (i32, f64) -> f64
    uint32_t typeB = 0; ///< (i64, f32, i32) -> i32
    uint32_t a[2] = {0, 0};
    uint32_t b[2] = {0, 0};
};

/**
 * Emits a helper body that writes every register a native call may
 * clobber: six integer and ten float locals (more than the JIT has local
 * homes of either class), all live at once, and an integer expression
 * six values deep. Deterministic in its parameters: locals 0..@p
 * num_params-1.
 */
void
emitClobberingHelper(FunctionBuilder& f, const std::vector<ValType>& params,
                     ValType result, int salt)
{
    std::vector<uint32_t> ints, floats;
    for (int i = 0; i < 6; i++)
        ints.push_back(f.addLocal(ValType::i64));
    for (int i = 0; i < 10; i++)
        floats.push_back(f.addLocal(ValType::f64));
    // Fold the parameters into one i64 seed and one f64 seed.
    uint32_t seed = ints[0], fseed = floats[0];
    f.i64Const(salt);
    f.localSet(seed);
    f.f64Const(0.25 * salt);
    f.localSet(fseed);
    for (uint32_t p = 0; p < params.size(); p++) {
        f.localGet(p);
        switch (params[p]) {
          case ValType::i32: f.emit(Op::i64_extend_i32_s); break;
          case ValType::i64: break;
          case ValType::f32:
            f.emit(Op::f64_promote_f32);
            f.emit(Op::i64_trunc_sat_f64_s);
            break;
          default: f.emit(Op::i64_trunc_sat_f64_s); break;
        }
        f.localGet(seed);
        f.emit(Op::i64_xor);
        f.localSet(seed);
    }
    f.localGet(seed);
    f.emit(Op::f64_convert_i64_s);
    f.localGet(fseed);
    f.emit(Op::f64_add);
    f.localSet(fseed);
    for (size_t i = 1; i < ints.size(); i++) {
        f.localGet(ints[i - 1]);
        f.i64Const(int64_t(0x9E3779B97F4A7C15ull) + int64_t(i));
        f.emit(Op::i64_mul);
        f.localSet(ints[i]);
    }
    for (size_t i = 1; i < floats.size(); i++) {
        f.localGet(floats[i - 1]);
        f.f64Const(1.0 + 0.125 * double(i));
        f.emit(Op::f64_mul);
        f.localSet(floats[i]);
    }
    // Six integers deep, then every float: the stack-slot homes too.
    for (uint32_t local : ints)
        f.localGet(local);
    for (size_t i = 1; i < ints.size(); i++)
        f.emit(i % 2 ? Op::i64_add : Op::i64_xor);
    f.emit(Op::f64_convert_i64_s);
    for (uint32_t local : floats)
        f.localGet(local);
    for (size_t i = 0; i < floats.size(); i++)
        f.emit(Op::f64_add);
    if (result == ValType::i32)
        f.emit(Op::i32_trunc_sat_f64_s);
}

/** Generates a random valid function body over typed locals. */
class ProgramGenerator
{
  public:
    ProgramGenerator(FunctionBuilder& f, Rng& rng, const Callees& callees)
        : f_(f), rng_(rng), callees_(callees)
    {
        // Five locals of each type (more than the JIT has local homes of
        // either class), pre-seeded from constants.
        for (int i = 0; i < 5; i++) {
            i32Locals_.push_back(f.addLocal(ValType::i32));
            i64Locals_.push_back(f.addLocal(ValType::i64));
            f64Locals_.push_back(f.addLocal(ValType::f64));
            f32Locals_.push_back(f.addLocal(ValType::f32));
        }
    }

    /** Emit the whole body; leaves one i64 result on the stack. */
    void
    emitBody()
    {
        // Seed locals.
        for (uint32_t local : i32Locals_) {
            f_.i32Const(int32_t(rng_.next()));
            f_.localSet(local);
        }
        for (uint32_t local : i64Locals_) {
            f_.i64Const(int64_t(rng_.next()));
            f_.localSet(local);
        }
        for (uint32_t local : f64Locals_) {
            f_.f64Const(smallF64());
            f_.localSet(local);
        }
        for (uint32_t local : f32Locals_) {
            f_.f32Const(float(smallF64()));
            f_.localSet(local);
        }

        int statements = 6 + int(rng_.nextBelow(10));
        for (int s = 0; s < statements; s++)
            emitStatement();

        // Fold everything into one i64.
        f_.i64Const(0);
        for (uint32_t local : i64Locals_) {
            f_.localGet(local);
            f_.emit(Op::i64_xor);
        }
        for (uint32_t local : i32Locals_) {
            f_.localGet(local);
            f_.emit(Op::i64_extend_i32_u);
            f_.emit(Op::i64_add);
        }
        for (uint32_t local : f64Locals_) {
            f_.localGet(local);
            canonicalizeF64();
            f_.emit(Op::i64_reinterpret_f64);
            f_.emit(Op::i64_xor);
        }
        for (uint32_t local : f32Locals_) {
            f_.localGet(local);
            f_.emit(Op::f64_promote_f32);
            canonicalizeF64();
            f_.emit(Op::i64_reinterpret_f64);
            f_.emit(Op::i64_add);
        }
        // Mix in a memory cell.
        f_.i32Const(128);
        f_.memOp(Op::i64_load);
        f_.emit(Op::i64_xor);
    }

  private:
    /** Replace non-canonical NaNs so cross-engine NaN payload freedom
     * cannot cause spurious mismatches: x != x ? 1.5 : x. */
    void
    canonicalizeF64()
    {
        uint32_t tmp = scratchF64();
        f_.localTee(tmp);
        f_.f64Const(1.5);
        f_.localGet(tmp);
        f_.localGet(tmp);
        f_.emit(Op::f64_eq); // false iff NaN
        f_.select();
    }

    uint32_t
    scratchF64()
    {
        if (scratchF64_ == UINT32_MAX)
            scratchF64_ = f_.addLocal(ValType::f64);
        return scratchF64_;
    }

    uint32_t
    scratchI64()
    {
        if (scratchI64_ == UINT32_MAX)
            scratchI64_ = f_.addLocal(ValType::i64);
        return scratchI64_;
    }

    /** Convert the top of stack, of type @p t, to an i64 (floats through
     * their canonicalized bit pattern). */
    void
    toI64(ValType t)
    {
        switch (t) {
          case ValType::i32: f_.emit(Op::i64_extend_i32_u); break;
          case ValType::i64: break;
          case ValType::f32:
            f_.emit(Op::f64_promote_f32);
            canonicalizeF64();
            f_.emit(Op::i64_reinterpret_f64);
            break;
          default:
            canonicalizeF64();
            f_.emit(Op::i64_reinterpret_f64);
            break;
        }
    }

    void
    emitValue(ValType t, int depth)
    {
        switch (t) {
          case ValType::i32: emitI32(depth); break;
          case ValType::i64: emitI64(depth); break;
          case ValType::f32: emitF32(depth); break;
          default: emitF64(depth); break;
        }
    }

    /**
     * An i64 built around one native call: three to seven values of
     * random classes stay live on the operand stack (in integer and
     * float slot homes, and past the fifth slot in frame cells) while a
     * helper call, an indirect call, memory.grow, memory.copy or
     * memory.fill runs on top of them; then everything folds into one
     * i64.
     */
    void
    emitAroundNativeCall(int depth)
    {
        static constexpr ValType kTypes[] = {ValType::i32, ValType::i64,
                                             ValType::f32, ValType::f64};
        std::vector<ValType> live;
        int n = 3 + int(rng_.nextBelow(5));
        for (int i = 0; i < n; i++) {
            live.push_back(kTypes[rng_.nextBelow(4)]);
            emitValue(live.back(), depth - 1);
        }
        switch (rng_.nextBelow(7)) {
          case 0: // direct call, (i32, f64) -> f64
          case 1: // indirect call through table slot 0 or 1
            emitI32(0);
            emitF64(0);
            if (rng_.chance(0.5)) {
                f_.call(callees_.a[rng_.nextBelow(2)]);
            } else {
                f_.i32Const(int32_t(rng_.nextBelow(2)));
                f_.callIndirect(callees_.typeA);
            }
            live.push_back(ValType::f64);
            break;
          case 2: // direct call, (i64, f32, i32) -> i32
          case 3: // indirect call through table slot 2 or 3
            emitI64(0);
            emitF32(0);
            emitI32(0);
            if (rng_.chance(0.5)) {
                f_.call(callees_.b[rng_.nextBelow(2)]);
            } else {
                f_.i32Const(2 + int32_t(rng_.nextBelow(2)));
                f_.callIndirect(callees_.typeB);
            }
            live.push_back(ValType::i32);
            break;
          case 4: // grow by 0 or 1 page (fails once at the 2-page max)
            f_.i32Const(int32_t(rng_.nextBelow(2)));
            f_.memoryGrow();
            live.push_back(ValType::i32);
            break;
          case 5: // copy within the first page
            f_.i32Const(int32_t(rng_.nextBelow(60000)));
            f_.i32Const(int32_t(rng_.nextBelow(60000)));
            f_.i32Const(int32_t(rng_.nextBelow(1024)));
            f_.memoryCopy();
            break;
          default: // fill within the first page
            f_.i32Const(int32_t(rng_.nextBelow(60000)));
            emitI32(0);
            f_.i32Const(int32_t(rng_.nextBelow(1024)));
            f_.memoryFill();
            break;
        }
        // Fold from the top: acc = i64(top); acc = i64(next) ^ acc ...
        toI64(live.back());
        for (size_t i = live.size() - 1; i-- > 0;) {
            f_.localSet(scratchI64());
            toI64(live[i]);
            f_.localGet(scratchI64());
            f_.emit(i % 2 ? Op::i64_xor : Op::i64_add);
        }
    }

    double
    smallF64()
    {
        return (rng_.nextDouble() - 0.5) * 1e6;
    }

    uint32_t
    pick(const std::vector<uint32_t>& locals)
    {
        return locals[rng_.nextBelow(locals.size())];
    }

    void
    emitStatement()
    {
        switch (rng_.nextBelow(8)) {
          case 0: { // i32 assignment
            emitI32(3);
            f_.localSet(pick(i32Locals_));
            break;
          }
          case 1: { // i64 assignment
            emitI64(3);
            f_.localSet(pick(i64Locals_));
            break;
          }
          case 2: { // f64 assignment
            emitF64(3);
            f_.localSet(pick(f64Locals_));
            break;
          }
          case 3: { // store + load through memory
            f_.i32Const(int32_t(rng_.nextBelow(480) * 8));
            emitI64(2);
            f_.memOp(Op::i64_store);
            break;
          }
          case 4: { // if/else on a random condition
            emitI32(2);
            f_.ifElse();
            emitI64(2);
            f_.localSet(pick(i64Locals_));
            f_.elseBranch();
            emitI64(2);
            f_.localSet(pick(i64Locals_));
            f_.end();
            break;
          }
          case 5: { // bounded loop accumulating into an i32 local
            uint32_t counter = f_.addLocal(ValType::i32);
            uint32_t target = pick(i32Locals_);
            int trips = 1 + int(rng_.nextBelow(6));
            f_.i32Const(trips);
            f_.localSet(counter);
            auto exit = f_.block();
            auto head = f_.loop();
            f_.localGet(counter);
            f_.emit(Op::i32_eqz);
            f_.brIf(exit);
            f_.localGet(target);
            emitI32(1);
            f_.emit(Op::i32_add);
            f_.localSet(target);
            f_.localGet(counter);
            f_.i32Const(1);
            f_.emit(Op::i32_sub);
            f_.localSet(counter);
            f_.br(head);
            f_.end();
            f_.end();
            break;
          }
          case 6: { // counted affine memory loop (loop-versioning shape)
            // do { mem[base + i*8] ^= k; i++ } while (i < trips), with
            // an unsigned bottom-test — the exact form the versioner
            // recognizes, so the versioning sweep axis exercises both
            // the guarded fast path and the original loop.
            uint32_t i = f_.addLocal(ValType::i32);
            uint32_t base = uint32_t(rng_.nextBelow(256)) * 8;
            uint32_t trips = 1 + uint32_t(rng_.nextBelow(8));
            f_.i32Const(0);
            f_.localSet(i);
            auto head = f_.loop();
            f_.i32Const(int32_t(base));
            f_.localGet(i);
            f_.i32Const(3);
            f_.emit(Op::i32_shl);
            f_.emit(Op::i32_add);
            f_.i32Const(int32_t(base));
            f_.localGet(i);
            f_.i32Const(3);
            f_.emit(Op::i32_shl);
            f_.emit(Op::i32_add);
            f_.memOp(Op::i64_load);
            f_.localGet(pick(i64Locals_));
            f_.emit(Op::i64_xor);
            f_.memOp(Op::i64_store);
            f_.localGet(i);
            f_.i32Const(1);
            f_.emit(Op::i32_add);
            f_.localTee(i);
            f_.i32Const(int32_t(trips));
            f_.emit(Op::i32_lt_u);
            f_.brIf(head);
            f_.end();
            break;
          }
          default: { // f32 assignment
            emitF32(2);
            f_.localSet(pick(f32Locals_));
            break;
          }
        }
    }

    void
    emitI32(int depth)
    {
        if (depth == 0 || rng_.chance(0.25)) {
            if (rng_.chance(0.5))
                f_.i32Const(int32_t(rng_.next()));
            else
                f_.localGet(pick(i32Locals_));
            return;
        }
        switch (rng_.nextBelow(10)) {
          case 0:
            emitI32(depth - 1);
            emitI32(depth - 1);
            f_.emit(kI32BinOps[rng_.nextBelow(kNumI32BinOps)]);
            break;
          case 1: // division with a never-zero divisor
            emitI32(depth - 1);
            emitI32(depth - 1);
            f_.i32Const(1);
            f_.emit(Op::i32_or);
            f_.emit(rng_.chance(0.5) ? Op::i32_div_u : Op::i32_rem_u);
            break;
          case 2:
            emitI32(depth - 1);
            f_.emit(kI32UnOps[rng_.nextBelow(kNumI32UnOps)]);
            break;
          case 3:
            emitI64(depth - 1);
            f_.emit(Op::i32_wrap_i64);
            break;
          case 4:
            emitF64(depth - 1);
            f_.emit(Op::i32_trunc_sat_f64_s);
            break;
          case 5: // comparison
            emitI64(depth - 1);
            emitI64(depth - 1);
            f_.emit(Op::i64_lt_s);
            break;
          case 6:
            emitF64(depth - 1);
            emitF64(depth - 1);
            f_.emit(Op::f64_le);
            break;
          case 7: { // select
            emitI32(depth - 1);
            emitI32(depth - 1);
            emitI32(depth - 1);
            f_.select();
            break;
          }
          case 8: // in-bounds load
            emitI32(depth - 1);
            f_.i32Const(0xFFF);
            f_.emit(Op::i32_and);
            f_.memOp(Op::i32_load8_u, 16);
            break;
          default:
            emitF32(depth - 1);
            f_.emit(Op::i32_trunc_sat_f32_u);
            break;
        }
    }

    void
    emitI64(int depth)
    {
        if (depth == 0 || rng_.chance(0.25)) {
            if (rng_.chance(0.5))
                f_.i64Const(int64_t(rng_.next()));
            else
                f_.localGet(pick(i64Locals_));
            return;
        }
        switch (rng_.nextBelow(7)) {
          case 0:
            emitI64(depth - 1);
            emitI64(depth - 1);
            f_.emit(kI64BinOps[rng_.nextBelow(kNumI64BinOps)]);
            break;
          case 6:
            emitAroundNativeCall(depth);
            break;
          case 1:
            emitI64(depth - 1);
            emitI64(depth - 1);
            f_.i64Const(1);
            f_.emit(Op::i64_or);
            f_.emit(rng_.chance(0.5) ? Op::i64_div_u : Op::i64_rem_s);
            break;
          case 2:
            emitI64(depth - 1);
            f_.emit(kI64UnOps[rng_.nextBelow(kNumI64UnOps)]);
            break;
          case 3:
            emitI32(depth - 1);
            f_.emit(rng_.chance(0.5) ? Op::i64_extend_i32_s
                                     : Op::i64_extend_i32_u);
            break;
          case 4:
            emitF64(depth - 1);
            f_.emit(Op::i64_trunc_sat_f64_u);
            break;
          default:
            emitF64(depth - 1);
            f_.emit(Op::i64_reinterpret_f64);
            break;
        }
    }

    void
    emitF64(int depth)
    {
        if (depth == 0 || rng_.chance(0.3)) {
            if (rng_.chance(0.5))
                f_.f64Const(smallF64());
            else
                f_.localGet(pick(f64Locals_));
            return;
        }
        switch (rng_.nextBelow(6)) {
          case 0:
            emitF64(depth - 1);
            emitF64(depth - 1);
            f_.emit(kF64BinOps[rng_.nextBelow(kNumF64BinOps)]);
            break;
          case 1:
            emitF64(depth - 1);
            f_.emit(kF64UnOps[rng_.nextBelow(kNumF64UnOps)]);
            break;
          case 2:
            emitF64(depth - 1);
            f_.emit(Op::f64_abs);
            f_.emit(Op::f64_sqrt);
            break;
          case 3:
            emitI64(depth - 1);
            f_.emit(rng_.chance(0.5) ? Op::f64_convert_i64_s
                                     : Op::f64_convert_i64_u);
            break;
          case 4:
            emitF32(depth - 1);
            f_.emit(Op::f64_promote_f32);
            break;
          default:
            emitI32(depth - 1);
            f_.emit(Op::f64_convert_i32_s);
            break;
        }
    }

    void
    emitF32(int depth)
    {
        if (depth == 0 || rng_.chance(0.4)) {
            if (rng_.chance(0.5))
                f_.f32Const(float(smallF64()));
            else
                f_.localGet(pick(f32Locals_));
            return;
        }
        switch (rng_.nextBelow(4)) {
          case 0:
            emitF32(depth - 1);
            emitF32(depth - 1);
            f_.emit(kF32BinOps[rng_.nextBelow(kNumF32BinOps)]);
            break;
          case 1:
            emitF32(depth - 1);
            f_.emit(kF32UnOps[rng_.nextBelow(kNumF32UnOps)]);
            break;
          case 2:
            emitF64(depth - 1);
            f_.emit(Op::f32_demote_f64);
            break;
          default:
            emitI32(depth - 1);
            f_.emit(Op::f32_convert_i32_u);
            break;
        }
    }

    static constexpr Op kI32BinOps[] = {
        Op::i32_add, Op::i32_sub, Op::i32_mul, Op::i32_and, Op::i32_or,
        Op::i32_xor, Op::i32_shl, Op::i32_shr_s, Op::i32_shr_u,
        Op::i32_rotl, Op::i32_rotr, Op::i32_eq, Op::i32_lt_u,
        Op::i32_ge_s};
    static constexpr size_t kNumI32BinOps =
        sizeof(kI32BinOps) / sizeof(Op);
    static constexpr Op kI32UnOps[] = {Op::i32_clz, Op::i32_ctz,
                                       Op::i32_popcnt, Op::i32_eqz,
                                       Op::i32_extend8_s,
                                       Op::i32_extend16_s};
    static constexpr size_t kNumI32UnOps = sizeof(kI32UnOps) / sizeof(Op);
    static constexpr Op kI64BinOps[] = {
        Op::i64_add, Op::i64_sub, Op::i64_mul, Op::i64_and, Op::i64_or,
        Op::i64_xor, Op::i64_shl, Op::i64_shr_s, Op::i64_shr_u,
        Op::i64_rotl, Op::i64_rotr};
    static constexpr size_t kNumI64BinOps =
        sizeof(kI64BinOps) / sizeof(Op);
    static constexpr Op kI64UnOps[] = {Op::i64_clz, Op::i64_ctz,
                                       Op::i64_popcnt, Op::i64_extend8_s,
                                       Op::i64_extend16_s,
                                       Op::i64_extend32_s};
    static constexpr size_t kNumI64UnOps = sizeof(kI64UnOps) / sizeof(Op);
    static constexpr Op kF64BinOps[] = {Op::f64_add, Op::f64_sub,
                                        Op::f64_mul, Op::f64_div,
                                        Op::f64_min, Op::f64_max,
                                        Op::f64_copysign};
    static constexpr size_t kNumF64BinOps =
        sizeof(kF64BinOps) / sizeof(Op);
    static constexpr Op kF64UnOps[] = {Op::f64_neg, Op::f64_abs,
                                       Op::f64_ceil, Op::f64_floor,
                                       Op::f64_trunc, Op::f64_nearest};
    static constexpr size_t kNumF64UnOps = sizeof(kF64UnOps) / sizeof(Op);
    static constexpr Op kF32BinOps[] = {Op::f32_add, Op::f32_sub,
                                        Op::f32_mul, Op::f32_min,
                                        Op::f32_max};
    static constexpr size_t kNumF32BinOps =
        sizeof(kF32BinOps) / sizeof(Op);
    static constexpr Op kF32UnOps[] = {Op::f32_neg, Op::f32_abs,
                                       Op::f32_floor, Op::f32_nearest};
    static constexpr size_t kNumF32UnOps = sizeof(kF32UnOps) / sizeof(Op);

    FunctionBuilder& f_;
    Rng& rng_;
    const Callees& callees_;
    std::vector<uint32_t> i32Locals_, i64Locals_, f64Locals_, f32Locals_;
    uint32_t scratchF64_ = UINT32_MAX;
    uint32_t scratchI64_ = UINT32_MAX;
};

wasm::Module
generateProgram(uint64_t seed)
{
    Rng rng(seed);
    ModuleBuilder mb;
    mb.addMemory(1, 2);
    Callees callees;
    const std::vector<ValType> params_a = {ValType::i32, ValType::f64};
    const std::vector<ValType> params_b = {ValType::i64, ValType::f32,
                                           ValType::i32};
    callees.typeA = mb.addType(params_a, {ValType::f64});
    callees.typeB = mb.addType(params_b, {ValType::i32});
    for (int i = 0; i < 2; i++) {
        auto& a = mb.addFunction(callees.typeA);
        emitClobberingHelper(a, params_a, ValType::f64, 1 + i);
        callees.a[i] = a.finish();
        auto& b = mb.addFunction(callees.typeB);
        emitClobberingHelper(b, params_b, ValType::i32, 3 + i);
        callees.b[i] = b.finish();
    }
    mb.addTable(4, 4);
    mb.addElem(0, {callees.a[0], callees.a[1], callees.b[0], callees.b[1]});
    uint32_t type = mb.addType({}, {ValType::i64});
    auto& f = mb.addFunction(type);
    ProgramGenerator gen(f, rng, callees);
    gen.emitBody();
    uint32_t idx = f.finish();
    mb.exportFunc("run", idx);
    return mb.build();
}

/**
 * Deterministic single-threaded atomic-op program over a SHARED linear
 * memory: a random sequence of atomic loads/stores/RMWs/cmpxchgs at
 * aligned addresses, closed out with the deterministic wait/notify
 * outcomes (notify with no waiters -> 0, value-mismatch wait -> 1,
 * zero-timeout wait -> 2) and one memory.grow. Every result folds into
 * the returned i64, so the sweep proves the seq_cst atomic lowering is
 * bit-exact across both interpreters, both JIT tiers, the tiered
 * pipeline, all five bounds strategies and all opt modes.
 */
wasm::Module
generateAtomicsProgram(uint64_t seed)
{
    Rng rng(seed);
    ModuleBuilder mb;
    mb.addMemory(1, 2, /*shared=*/true);
    uint32_t type = mb.addType({}, {ValType::i64});
    auto& f = mb.addFunction(type);
    uint32_t acc = f.addLocal(ValType::i64);

    // stack holds an i64 result r: acc = acc*131 + r
    auto fold64 = [&] {
        f.localGet(acc);
        f.i64Const(131);
        f.emit(Op::i64_mul);
        f.emit(Op::i64_add);
        f.localSet(acc);
    };
    auto fold32 = [&] {
        f.emit(Op::i64_extend_i32_u);
        fold64();
    };

    static constexpr Op kRmw32[] = {
        Op::i32_atomic_rmw_add, Op::i32_atomic_rmw_sub,
        Op::i32_atomic_rmw_and, Op::i32_atomic_rmw_or,
        Op::i32_atomic_rmw_xor, Op::i32_atomic_rmw_xchg};
    static constexpr Op kRmw64[] = {
        Op::i64_atomic_rmw_add, Op::i64_atomic_rmw_sub,
        Op::i64_atomic_rmw_and, Op::i64_atomic_rmw_or,
        Op::i64_atomic_rmw_xor, Op::i64_atomic_rmw_xchg};

    int ops = 24 + int(rng.nextBelow(24));
    for (int s = 0; s < ops; s++) {
        bool is64 = rng.chance(0.5);
        uint32_t size = is64 ? 8 : 4;
        uint32_t addr = uint32_t(rng.nextBelow(512)) * size;
        uint32_t offset = uint32_t(rng.nextBelow(16)) * size;
        f.i32Const(int32_t(addr));
        switch (rng.nextBelow(10)) {
          case 0: // load
            f.memOp(is64 ? Op::i64_atomic_load : Op::i32_atomic_load,
                    offset);
            is64 ? fold64() : fold32();
            break;
          case 1: // store
            if (is64)
                f.i64Const(int64_t(rng.next()));
            else
                f.i32Const(int32_t(rng.next()));
            f.memOp(is64 ? Op::i64_atomic_store : Op::i32_atomic_store,
                    offset);
            break;
          case 2: // cmpxchg (expected only occasionally matches)
            if (is64) {
                f.i64Const(rng.chance(0.3) ? 0 : int64_t(rng.next()));
                f.i64Const(int64_t(rng.next()));
                f.memOp(Op::i64_atomic_rmw_cmpxchg, offset);
                fold64();
            } else {
                f.i32Const(rng.chance(0.3) ? 0 : int32_t(rng.next()));
                f.i32Const(int32_t(rng.next()));
                f.memOp(Op::i32_atomic_rmw_cmpxchg, offset);
                fold32();
            }
            break;
          default: // rmw returns the old value
            if (is64) {
                f.i64Const(int64_t(rng.next()));
                f.memOp(kRmw64[rng.nextBelow(6)], offset);
                fold64();
            } else {
                f.i32Const(int32_t(rng.next()));
                f.memOp(kRmw32[rng.nextBelow(6)], offset);
                fold32();
            }
            break;
        }
    }

    // notify with no waiters -> woken count 0
    f.i32Const(64);
    f.i32Const(int32_t(rng.nextBelow(5)));
    f.memOp(Op::memory_atomic_notify);
    fold32();
    // wait32 with a mismatching expected value -> not-equal (1)
    f.i32Const(64);
    f.i32Const(64);
    f.memOp(Op::i32_atomic_load);
    f.i32Const(1);
    f.emit(Op::i32_add);
    f.i64Const(0);
    f.memOp(Op::memory_atomic_wait32);
    fold32();
    // wait64 with the matching value but a zero timeout -> timed-out (2)
    f.i32Const(72);
    f.i32Const(72);
    f.memOp(Op::i64_atomic_load);
    f.i64Const(0);
    f.memOp(Op::memory_atomic_wait64);
    fold32();
    // one in-limits shared grow (1 -> 2 pages); folds the old size
    f.i32Const(1);
    f.memoryGrow();
    fold32();

    f.localGet(acc);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

/**
 * Run @p module on every engine (plus the tiered pipeline) x every
 * bounds strategy x opt modes; every configuration must return the same
 * i64 bit pattern and none may trap.
 */
void
sweepAllEngines(const wasm::Module& module, uint64_t seed)
{
    bool have_reference = false;
    uint64_t reference = 0;
    std::string reference_config;

    // The fixed engines plus a fifth pseudo-engine: the tiered pipeline
    // (interp_threaded below, jit_opt above, eager tier-up).
    for (int engine = 0; engine <= rt::kNumEngineKinds; engine++) {
        const bool tiered = engine == rt::kNumEngineKinds;
        for (auto strategy :
             {mem::BoundsStrategy::none, mem::BoundsStrategy::clamp,
              mem::BoundsStrategy::trap, mem::BoundsStrategy::mprotect,
              mem::BoundsStrategy::uffd}) {
            // Sweep the lowered-IR optimization pass off/on, and — where
            // the check pipeline is live — loop versioning off/on within
            // the opt configuration: fusion, check elimination and the
            // versioned fast/slow split must all be bit-invisible
            // (results, NaN payloads, trap behavior).
            for (int mode = 0; mode < 3; mode++) {
                const bool opt = mode > 0;
                const bool versioning = mode == 2;
                // versioning-off only differs from -on where the check
                // analysis runs; skip the redundant configuration.
                if (mode == 1 &&
                    !((tiered ||
                       rt::EngineKind(engine) == rt::EngineKind::jit_opt) &&
                      strategy == mem::BoundsStrategy::trap))
                    continue;
                rt::EngineConfig config;
                config.kind = tiered ? rt::EngineKind::jit_opt
                                     : rt::EngineKind(engine);
                config.tiered = tiered;
                config.tierThreshold = 1;
                config.strategy = strategy;
                config.optimizeLoweredIR = opt;
                config.optVersioning = versioning;
                rt::Engine eng(config);
                wasm::Module copy = module;
                auto compiled = eng.compile(std::move(copy));
                ASSERT_TRUE(compiled.isOk())
                    << compiled.status().toString();
                auto inst = rt::Instance::create(compiled.takeValue());
                ASSERT_TRUE(inst.isOk()) << inst.status().toString();
                rt::CallOutcome out = inst.value()->callExport("run", {});
                ASSERT_TRUE(out.ok())
                    << "seed " << seed << " trapped on "
                    << engineKindName(config.kind) << "/"
                    << boundsStrategyName(strategy) << ": "
                    << trapKindName(out.trap);
                uint64_t result = out.results[0].i64;
                if (!have_reference) {
                    reference = result;
                    have_reference = true;
                    reference_config =
                        std::string(engineKindName(config.kind)) + "/" +
                        boundsStrategyName(strategy);
                } else {
                    ASSERT_EQ(result, reference)
                        << "seed " << seed << ": "
                        << (tiered ? "tiered"
                                   : engineKindName(config.kind))
                        << "/" << boundsStrategyName(strategy)
                        << (mode == 0        ? " (no-opt)"
                            : versioning     ? " (opt+versioning)"
                                             : " (opt, no versioning)")
                        << " disagrees with " << reference_config;
                }
            }
        }
    }
}

class DifferentialFuzz : public testing::TestWithParam<uint64_t>
{};

TEST_P(DifferentialFuzz, AllEnginesAgree)
{
    wasm::Module module = generateProgram(GetParam());
    ASSERT_TRUE(wasm::validateModule(module).isOk())
        << "seed " << GetParam() << ": "
        << wasm::validateModule(module).toString();
    sweepAllEngines(module, GetParam());
}

std::vector<uint64_t>
fuzzSeeds()
{
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < 60; i++)
        seeds.push_back(0xD1FF0000 + i);
    return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         testing::ValuesIn(fuzzSeeds()));

class AtomicsDifferentialFuzz : public testing::TestWithParam<uint64_t>
{};

TEST_P(AtomicsDifferentialFuzz, AllEnginesAgree)
{
    wasm::Module module = generateAtomicsProgram(GetParam());
    ASSERT_TRUE(wasm::validateModule(module).isOk())
        << "seed " << GetParam() << ": "
        << wasm::validateModule(module).toString();
    sweepAllEngines(module, GetParam());
}

std::vector<uint64_t>
atomicsSeeds()
{
    std::vector<uint64_t> seeds;
    for (uint64_t i = 0; i < 20; i++)
        seeds.push_back(0xA7031C00 + i);
    return seeds;
}

INSTANTIATE_TEST_SUITE_P(Seeds, AtomicsDifferentialFuzz,
                         testing::ValuesIn(atomicsSeeds()));

} // namespace
} // namespace lnb
