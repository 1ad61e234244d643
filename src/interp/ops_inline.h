/**
 * @file
 * Inline semantics of every lowered wasm instruction, shared by the switch
 * and threaded interpreters so the two agree bit-exactly. Each sem_<op>
 * function reads/writes frame cells per the LInst operand conventions
 * (see wasm/lower.h) and raises wasm traps via TrapManager.
 *
 * Numeric semantics follow the WebAssembly core spec: shift counts are
 * masked, integer division traps on zero and INT_MIN/-1, float min/max
 * propagate NaN and order -0 < +0, checked truncations trap on NaN and
 * out-of-range inputs, saturating truncations clamp.
 *
 * Every lowered wasm instruction gets its own inline function so the
 * threaded interpreter can give every opcode an independent handler (and
 * therefore an independently predicted dispatch branch, the property that
 * makes threaded interpreters fast — paper §2.2). The switch interpreter
 * reuses the same functions through an X-macro-generated switch, so the
 * two dispatch techniques share identical semantics.
 */
#ifndef LNB_INTERP_OPS_INLINE_H
#define LNB_INTERP_OPS_INLINE_H

#include <cmath>
#include <cstring>
#include <limits>

#include "interp/exec_common.h"
#include "mem/signals.h"

namespace lnb::exec::sem {

using wasm::LInst;
using wasm::TrapKind;
using wasm::Value;

[[noreturn]] inline void
trap(TrapKind kind)
{
    mem::TrapManager::raiseTrap(kind);
}

// ---------------------------------------------------------------------
// Memory access
// ---------------------------------------------------------------------

/**
 * Resolve the effective address of an access of @p size bytes at linear
 * address cell-value + offset, applying the executor check mode.
 */
template <CheckMode M>
inline uint8_t*
memAddr(InstanceContext* ctx, uint32_t addr, uint64_t offset, unsigned size)
{
    uint64_t ea = uint64_t(addr) + offset;
    if constexpr (M == CheckMode::clamp) {
        ctx->checksRetired++;
        if (ea + size > ctx->memSize) {
            // Failed-check slow path: on a shared memory another thread
            // may have grown since the mirror was last refreshed.
            syncSharedSize(ctx);
            if (ea + size > ctx->memSize)
                ea = ctx->clampOffset;
        }
    } else if constexpr (M == CheckMode::trap) {
        ctx->checksRetired++;
        if (ea + size > ctx->memSize) {
            syncSharedSize(ctx);
            if (ea + size > ctx->memSize)
                trap(TrapKind::out_of_bounds_memory);
        }
    }
    // CheckMode::raw: the guard pages (or the flat mapping) police this.
    return ctx->memBase + ea;
}

template <CheckMode M, typename MemT, typename CellT>
inline void
loadOp(InstanceContext* ctx, Value* f, const LInst& inst)
{
    MemT raw;
    std::memcpy(&raw, memAddr<M>(ctx, f[inst.a].i32, inst.imm, sizeof(MemT)),
                sizeof(MemT));
    CellT widened = CellT(raw);
    if constexpr (sizeof(CellT) == 4) {
        f[inst.a].i32 = uint32_t(widened);
    } else {
        f[inst.a].i64 = uint64_t(widened);
    }
}

template <CheckMode M>
inline void
loadF32(InstanceContext* ctx, Value* f, const LInst& inst)
{
    std::memcpy(&f[inst.a].f32, memAddr<M>(ctx, f[inst.a].i32, inst.imm, 4),
                4);
}

template <CheckMode M>
inline void
loadF64(InstanceContext* ctx, Value* f, const LInst& inst)
{
    std::memcpy(&f[inst.a].f64, memAddr<M>(ctx, f[inst.a].i32, inst.imm, 8),
                8);
}

template <CheckMode M, typename MemT>
inline void
storeOp(InstanceContext* ctx, Value* f, const LInst& inst, uint64_t bits)
{
    MemT narrow = MemT(bits);
    std::memcpy(memAddr<M>(ctx, f[inst.a].i32, inst.imm, sizeof(MemT)),
                &narrow, sizeof(MemT));
}

// ---------------------------------------------------------------------
// Integer helpers
// ---------------------------------------------------------------------

inline uint32_t
idiv32s(uint32_t lhs, uint32_t rhs)
{
    auto a = int32_t(lhs), b = int32_t(rhs);
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    if (a == INT32_MIN && b == -1)
        trap(TrapKind::integer_overflow);
    return uint32_t(a / b);
}

inline uint32_t
irem32s(uint32_t lhs, uint32_t rhs)
{
    auto a = int32_t(lhs), b = int32_t(rhs);
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    if (b == -1)
        return 0; // INT_MIN % -1 == 0, no trap
    return uint32_t(a % b);
}

inline uint32_t
idiv32u(uint32_t a, uint32_t b)
{
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    return a / b;
}

inline uint32_t
irem32u(uint32_t a, uint32_t b)
{
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    return a % b;
}

inline uint64_t
idiv64s(uint64_t lhs, uint64_t rhs)
{
    auto a = int64_t(lhs), b = int64_t(rhs);
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    if (a == INT64_MIN && b == -1)
        trap(TrapKind::integer_overflow);
    return uint64_t(a / b);
}

inline uint64_t
irem64s(uint64_t lhs, uint64_t rhs)
{
    auto a = int64_t(lhs), b = int64_t(rhs);
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    if (b == -1)
        return 0;
    return uint64_t(a % b);
}

inline uint64_t
idiv64u(uint64_t a, uint64_t b)
{
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    return a / b;
}

inline uint64_t
irem64u(uint64_t a, uint64_t b)
{
    if (b == 0)
        trap(TrapKind::integer_divide_by_zero);
    return a % b;
}

inline uint32_t clz32(uint32_t v) { return v ? uint32_t(__builtin_clz(v)) : 32; }
inline uint32_t ctz32(uint32_t v) { return v ? uint32_t(__builtin_ctz(v)) : 32; }
inline uint64_t clz64(uint64_t v) { return v ? uint64_t(__builtin_clzll(v)) : 64; }
inline uint64_t ctz64(uint64_t v) { return v ? uint64_t(__builtin_ctzll(v)) : 64; }

inline uint32_t
rotl32(uint32_t v, uint32_t n)
{
    n &= 31;
    return n == 0 ? v : (v << n) | (v >> (32 - n));
}
inline uint32_t
rotr32(uint32_t v, uint32_t n)
{
    n &= 31;
    return n == 0 ? v : (v >> n) | (v << (32 - n));
}
inline uint64_t
rotl64(uint64_t v, uint64_t n)
{
    n &= 63;
    return n == 0 ? v : (v << n) | (v >> (64 - n));
}
inline uint64_t
rotr64(uint64_t v, uint64_t n)
{
    n &= 63;
    return n == 0 ? v : (v >> n) | (v << (64 - n));
}

// ---------------------------------------------------------------------
// Float helpers (wasm min/max/nearest semantics)
// ---------------------------------------------------------------------

template <typename T>
inline T
fminWasm(T a, T b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<T>::quiet_NaN();
    if (a < b)
        return a;
    if (b < a)
        return b;
    // Equal (covers +0/-0): -0 wins for min.
    return std::signbit(a) ? a : b;
}

template <typename T>
inline T
fmaxWasm(T a, T b)
{
    if (std::isnan(a) || std::isnan(b))
        return std::numeric_limits<T>::quiet_NaN();
    if (a > b)
        return a;
    if (b > a)
        return b;
    // Equal: +0 wins for max.
    return std::signbit(a) ? b : a;
}

/** Round to nearest, ties to even (the default FP environment mode). */
inline float fnearest(float v) { return std::nearbyintf(v); }
inline double fnearest(double v) { return std::nearbyint(v); }

// ---------------------------------------------------------------------
// Checked truncations (trap variants)
// ---------------------------------------------------------------------

template <typename F>
[[noreturn]] inline void
truncTrap(F v)
{
    trap(std::isnan(v) ? TrapKind::invalid_conversion
                       : TrapKind::integer_overflow);
}

inline uint32_t
truncF32ToI32s(float v)
{
    if (!(v >= -2147483648.0f && v < 2147483648.0f))
        truncTrap(v);
    return uint32_t(int32_t(v));
}
inline uint32_t
truncF32ToI32u(float v)
{
    if (!(v > -1.0f && v < 4294967296.0f))
        truncTrap(v);
    return v <= 0.0f ? 0u : uint32_t(v);
}
inline uint32_t
truncF64ToI32s(double v)
{
    if (!(v > -2147483649.0 && v < 2147483648.0))
        truncTrap(v);
    return uint32_t(int32_t(v));
}
inline uint32_t
truncF64ToI32u(double v)
{
    if (!(v > -1.0 && v < 4294967296.0))
        truncTrap(v);
    return v <= 0.0 ? 0u : uint32_t(v);
}
inline uint64_t
truncF32ToI64s(float v)
{
    if (!(v >= -9223372036854775808.0f && v < 9223372036854775808.0f))
        truncTrap(v);
    return uint64_t(int64_t(v));
}
inline uint64_t
truncF32ToI64u(float v)
{
    if (!(v > -1.0f && v < 18446744073709551616.0f))
        truncTrap(v);
    return v <= 0.0f ? 0ull : uint64_t(v);
}
inline uint64_t
truncF64ToI64s(double v)
{
    if (!(v >= -9223372036854775808.0 && v < 9223372036854775808.0))
        truncTrap(v);
    return uint64_t(int64_t(v));
}
inline uint64_t
truncF64ToI64u(double v)
{
    if (!(v > -1.0 && v < 18446744073709551616.0))
        truncTrap(v);
    return v <= 0.0 ? 0ull : uint64_t(v);
}

// ---------------------------------------------------------------------
// Saturating truncations
// ---------------------------------------------------------------------

inline uint32_t
satF32ToI32s(float v)
{
    if (std::isnan(v)) return 0;
    if (v <= -2147483648.0f) return uint32_t(INT32_MIN);
    if (v >= 2147483648.0f) return uint32_t(INT32_MAX);
    return uint32_t(int32_t(v));
}
inline uint32_t
satF32ToI32u(float v)
{
    if (std::isnan(v) || v <= -1.0f) return 0;
    if (v >= 4294967296.0f) return UINT32_MAX;
    return v <= 0.0f ? 0u : uint32_t(v);
}
inline uint32_t
satF64ToI32s(double v)
{
    if (std::isnan(v)) return 0;
    if (v <= -2147483649.0) return uint32_t(INT32_MIN);
    if (v >= 2147483648.0) return uint32_t(INT32_MAX);
    return uint32_t(int32_t(v));
}
inline uint32_t
satF64ToI32u(double v)
{
    if (std::isnan(v) || v <= -1.0) return 0;
    if (v >= 4294967296.0) return UINT32_MAX;
    return v <= 0.0 ? 0u : uint32_t(v);
}
inline uint64_t
satF32ToI64s(float v)
{
    if (std::isnan(v)) return 0;
    if (v <= -9223372036854775808.0f) return uint64_t(INT64_MIN);
    if (v >= 9223372036854775808.0f) return uint64_t(INT64_MAX);
    return uint64_t(int64_t(v));
}
inline uint64_t
satF32ToI64u(float v)
{
    if (std::isnan(v) || v <= -1.0f) return 0;
    if (v >= 18446744073709551616.0f) return UINT64_MAX;
    return v <= 0.0f ? 0ull : uint64_t(v);
}
inline uint64_t
satF64ToI64s(double v)
{
    if (std::isnan(v)) return 0;
    if (v <= -9223372036854775808.0) return uint64_t(INT64_MIN);
    if (v >= 9223372036854775808.0) return uint64_t(INT64_MAX);
    return uint64_t(int64_t(v));
}
inline uint64_t
satF64ToI64u(double v)
{
    if (std::isnan(v) || v <= -1.0) return 0;
    if (v >= 18446744073709551616.0) return UINT64_MAX;
    return v <= 0.0 ? 0ull : uint64_t(v);
}

// ---------------------------------------------------------------------
// Bulk memory
// ---------------------------------------------------------------------

template <CheckMode M>
inline void
memoryCopyImpl(InstanceContext* ctx, Value* f, const LInst& inst)
{
    uint64_t d = f[inst.a].i32;
    uint64_t s = f[inst.a + 1].i32;
    uint64_t n = f[inst.a + 2].i32;
    // Bulk ops always bounds-check per spec, regardless of strategy: guard
    // pages would catch them too, but memmove would partially copy first.
    if (d + n > ctx->memSize || s + n > ctx->memSize) {
        syncSharedSize(ctx);
        if (d + n > ctx->memSize || s + n > ctx->memSize)
            trap(TrapKind::out_of_bounds_memory);
    }
    std::memmove(ctx->memBase + d, ctx->memBase + s, n);
}

template <CheckMode M>
inline void
memoryFillImpl(InstanceContext* ctx, Value* f, const LInst& inst)
{
    uint64_t d = f[inst.a].i32;
    uint8_t v = uint8_t(f[inst.a + 1].i32);
    uint64_t n = f[inst.a + 2].i32;
    if (d + n > ctx->memSize) {
        syncSharedSize(ctx);
        if (d + n > ctx->memSize)
            trap(TrapKind::out_of_bounds_memory);
    }
    std::memset(ctx->memBase + d, v, n);
}

// ---------------------------------------------------------------------
// Atomics (threads proposal)
// ---------------------------------------------------------------------

#if defined(__SANITIZE_THREAD__)
#define LNB_TSAN_BUILD 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define LNB_TSAN_BUILD 1
#endif
#endif
#ifndef LNB_TSAN_BUILD
#define LNB_TSAN_BUILD 0
#endif

/**
 * Resolve the effective address of an atomic access: natural alignment is
 * a runtime requirement (unaligned_atomic trap), the shared-size mirror
 * is refreshed first (every atomic is a synchronization point), and
 * out-of-bounds traps under BOTH software-check modes — the threads
 * spec has no clamping atomics, and redirecting an atomic into the red
 * zone would invent a spurious synchronization address. Raw mode defers
 * to the guard pages as usual — except under TSAN, where the __atomic op
 * runs inside the sanitizer runtime holding its per-address sync-object
 * lock; a guard-page fault there would siglongjmp past that lock and
 * deadlock the process, so raw mode pre-checks with the same trap the
 * guard fault would raise. (Populate faults are fine either way: their
 * handler returns normally and the access resumes.)
 */
template <CheckMode M>
inline uint8_t*
atomicAddr(InstanceContext* ctx, uint32_t addr, uint64_t offset,
           unsigned size)
{
    uint64_t ea = uint64_t(addr) + offset;
    if ((ea & (size - 1)) != 0)
        trap(TrapKind::unaligned_atomic);
    syncSharedSize(ctx);
    if constexpr (M != CheckMode::raw) {
        ctx->checksRetired++;
        if (ea + size > ctx->memSize)
            trap(TrapKind::out_of_bounds_memory);
    } else if constexpr (LNB_TSAN_BUILD) {
        if (ea + size > ctx->memSize)
            trap(TrapKind::out_of_bounds_memory);
    }
    return ctx->memBase + ea;
}

/**
 * The one seq_cst lowering shared by every tier: interpreters call this
 * from the sem_* handlers and the JIT through the lnbJitAtomic glue, so
 * all tiers execute the identical (and TSAN-instrumented) atomic
 * operation. Returns the old value for rmw, the observed value for
 * cmpxchg (v1 = expected, v2 = replacement), the loaded value for load,
 * 0 for store.
 */
template <typename T>
inline T
atomicRmw(AtomicOp op, T* p, T v1, T v2)
{
    switch (op) {
      case AtomicOp::load:
        return __atomic_load_n(p, __ATOMIC_SEQ_CST);
      case AtomicOp::store:
        __atomic_store_n(p, v1, __ATOMIC_SEQ_CST);
        return 0;
      case AtomicOp::add:
        return __atomic_fetch_add(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::sub:
        return __atomic_fetch_sub(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::and_:
        return __atomic_fetch_and(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::or_:
        return __atomic_fetch_or(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::xor_:
        return __atomic_fetch_xor(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::xchg:
        return __atomic_exchange_n(p, v1, __ATOMIC_SEQ_CST);
      case AtomicOp::cmpxchg: {
        T expected = v1;
        __atomic_compare_exchange_n(p, &expected, v2, false,
                                    __ATOMIC_SEQ_CST, __ATOMIC_SEQ_CST);
        return expected; // the observed value, per wasm cmpxchg semantics
      }
      default:
        trap(TrapKind::host_error); // notify/wait never reach here
    }
}

/** 32-bit atomic with a 2-operand shape (store/rmw): addr at f[a],
 * operand at f[b]; rmw result overwrites f[a] zero-extended so the full
 * cell matches the JIT's 64-bit store of the glue's return value. */
template <CheckMode M>
inline void
atomic32(InstanceContext* ctx, Value* f, const LInst& inst, AtomicOp op)
{
    auto* p = reinterpret_cast<uint32_t*>(
        atomicAddr<M>(ctx, f[inst.a].i32, inst.imm, 4));
    uint32_t r = atomicRmw<uint32_t>(op, p, f[inst.b].i32, 0);
    if (op != AtomicOp::store)
        f[inst.a].i64 = r;
}

template <CheckMode M>
inline void
atomic64(InstanceContext* ctx, Value* f, const LInst& inst, AtomicOp op)
{
    auto* p = reinterpret_cast<uint64_t*>(
        atomicAddr<M>(ctx, f[inst.a].i32, inst.imm, 8));
    uint64_t r = atomicRmw<uint64_t>(op, p, f[inst.b].i64, 0);
    if (op != AtomicOp::store)
        f[inst.a].i64 = r;
}

// ---------------------------------------------------------------------
// Per-opcode semantic functions
// ---------------------------------------------------------------------

#define LNB_SEM(name, ...)                                                   \
    template <CheckMode M>                                                   \
    inline void sem_##name(InstanceContext* ctx, Value* f,                   \
                           const LInst& inst)                                \
    {                                                                        \
        (void)ctx;                                                           \
        (void)f;                                                             \
        (void)inst;                                                          \
        __VA_ARGS__                                                          \
    }

/** Control/variable ops never survive lowering; their handlers are
 * unreachable for validated modules. */
#define LNB_SEM_ABSENT(name) LNB_SEM(name, trap(TrapKind::host_error);)

LNB_SEM_ABSENT(unreachable)
LNB_SEM_ABSENT(nop)
LNB_SEM_ABSENT(block)
LNB_SEM_ABSENT(loop)
LNB_SEM_ABSENT(if_)
LNB_SEM_ABSENT(else_)
LNB_SEM_ABSENT(end)
LNB_SEM_ABSENT(br)
LNB_SEM_ABSENT(br_if)
LNB_SEM_ABSENT(br_table)
LNB_SEM_ABSENT(return_)
LNB_SEM_ABSENT(call)
LNB_SEM_ABSENT(call_indirect)
LNB_SEM_ABSENT(drop)
LNB_SEM_ABSENT(local_get)
LNB_SEM_ABSENT(local_set)
LNB_SEM_ABSENT(local_tee)

// ----- loads -----
LNB_SEM(i32_load, (loadOp<M, uint32_t, uint32_t>(ctx, f, inst));)
LNB_SEM(i64_load, (loadOp<M, uint64_t, uint64_t>(ctx, f, inst));)
LNB_SEM(f32_load, loadF32<M>(ctx, f, inst);)
LNB_SEM(f64_load, loadF64<M>(ctx, f, inst);)
LNB_SEM(i32_load8_s, (loadOp<M, int8_t, int32_t>(ctx, f, inst));)
LNB_SEM(i32_load8_u, (loadOp<M, uint8_t, uint32_t>(ctx, f, inst));)
LNB_SEM(i32_load16_s, (loadOp<M, int16_t, int32_t>(ctx, f, inst));)
LNB_SEM(i32_load16_u, (loadOp<M, uint16_t, uint32_t>(ctx, f, inst));)
LNB_SEM(i64_load8_s, (loadOp<M, int8_t, int64_t>(ctx, f, inst));)
LNB_SEM(i64_load8_u, (loadOp<M, uint8_t, uint64_t>(ctx, f, inst));)
LNB_SEM(i64_load16_s, (loadOp<M, int16_t, int64_t>(ctx, f, inst));)
LNB_SEM(i64_load16_u, (loadOp<M, uint16_t, uint64_t>(ctx, f, inst));)
LNB_SEM(i64_load32_s, (loadOp<M, int32_t, int64_t>(ctx, f, inst));)
LNB_SEM(i64_load32_u, (loadOp<M, uint32_t, uint64_t>(ctx, f, inst));)

// ----- stores -----
LNB_SEM(i32_store, (storeOp<M, uint32_t>(ctx, f, inst, f[inst.b].i32));)
LNB_SEM(i64_store, (storeOp<M, uint64_t>(ctx, f, inst, f[inst.b].i64));)
LNB_SEM(f32_store, (storeOp<M, uint32_t>(ctx, f, inst, f[inst.b].i32));)
LNB_SEM(f64_store, (storeOp<M, uint64_t>(ctx, f, inst, f[inst.b].i64));)
LNB_SEM(i32_store8, (storeOp<M, uint8_t>(ctx, f, inst, f[inst.b].i32));)
LNB_SEM(i32_store16, (storeOp<M, uint16_t>(ctx, f, inst, f[inst.b].i32));)
LNB_SEM(i64_store8, (storeOp<M, uint8_t>(ctx, f, inst, f[inst.b].i64));)
LNB_SEM(i64_store16, (storeOp<M, uint16_t>(ctx, f, inst, f[inst.b].i64));)
LNB_SEM(i64_store32, (storeOp<M, uint32_t>(ctx, f, inst, f[inst.b].i64));)

// ----- memory management -----
LNB_SEM(memory_size, f[inst.a].i64 = 0; f[inst.a].i32 = execMemorySize(ctx);)
LNB_SEM(memory_grow,
        f[inst.a].i32 = uint32_t(execMemoryGrow(ctx, f[inst.a].i32));)
LNB_SEM(memory_copy, memoryCopyImpl<M>(ctx, f, inst);)
LNB_SEM(memory_fill, memoryFillImpl<M>(ctx, f, inst);)

// ----- atomics (threads proposal) -----
// Results are written as full zero-extended 64-bit cells so every tier
// (and the differential sweep) observes identical cell bits.
LNB_SEM(memory_atomic_notify,
        f[inst.a].i64 = execAtomicNotify(ctx, f[inst.a].i32,
                                         f[inst.b].i32, inst.imm);)
LNB_SEM(memory_atomic_wait32,
        f[inst.a].i64 = execAtomicWait(ctx, f[inst.a].i32,
                                       f[inst.a + 1].i32,
                                       int64_t(f[inst.a + 2].i64), false,
                                       inst.imm);)
LNB_SEM(memory_atomic_wait64,
        f[inst.a].i64 = execAtomicWait(ctx, f[inst.a].i32,
                                       f[inst.a + 1].i64,
                                       int64_t(f[inst.a + 2].i64), true,
                                       inst.imm);)
LNB_SEM(i32_atomic_load, atomic32<M>(ctx, f, inst, AtomicOp::load);)
LNB_SEM(i64_atomic_load, atomic64<M>(ctx, f, inst, AtomicOp::load);)
LNB_SEM(i32_atomic_store, atomic32<M>(ctx, f, inst, AtomicOp::store);)
LNB_SEM(i64_atomic_store, atomic64<M>(ctx, f, inst, AtomicOp::store);)
LNB_SEM(i32_atomic_rmw_add, atomic32<M>(ctx, f, inst, AtomicOp::add);)
LNB_SEM(i64_atomic_rmw_add, atomic64<M>(ctx, f, inst, AtomicOp::add);)
LNB_SEM(i32_atomic_rmw_sub, atomic32<M>(ctx, f, inst, AtomicOp::sub);)
LNB_SEM(i64_atomic_rmw_sub, atomic64<M>(ctx, f, inst, AtomicOp::sub);)
LNB_SEM(i32_atomic_rmw_and, atomic32<M>(ctx, f, inst, AtomicOp::and_);)
LNB_SEM(i64_atomic_rmw_and, atomic64<M>(ctx, f, inst, AtomicOp::and_);)
LNB_SEM(i32_atomic_rmw_or, atomic32<M>(ctx, f, inst, AtomicOp::or_);)
LNB_SEM(i64_atomic_rmw_or, atomic64<M>(ctx, f, inst, AtomicOp::or_);)
LNB_SEM(i32_atomic_rmw_xor, atomic32<M>(ctx, f, inst, AtomicOp::xor_);)
LNB_SEM(i64_atomic_rmw_xor, atomic64<M>(ctx, f, inst, AtomicOp::xor_);)
LNB_SEM(i32_atomic_rmw_xchg, atomic32<M>(ctx, f, inst, AtomicOp::xchg);)
LNB_SEM(i64_atomic_rmw_xchg, atomic64<M>(ctx, f, inst, AtomicOp::xchg);)
LNB_SEM(i32_atomic_rmw_cmpxchg, {
    auto* p = reinterpret_cast<uint32_t*>(
        atomicAddr<M>(ctx, f[inst.a].i32, inst.imm, 4));
    f[inst.a].i64 = atomicRmw<uint32_t>(AtomicOp::cmpxchg, p,
                                        f[inst.a + 1].i32,
                                        f[inst.a + 2].i32);
})
LNB_SEM(i64_atomic_rmw_cmpxchg, {
    auto* p = reinterpret_cast<uint64_t*>(
        atomicAddr<M>(ctx, f[inst.a].i32, inst.imm, 8));
    f[inst.a].i64 = atomicRmw<uint64_t>(AtomicOp::cmpxchg, p,
                                        f[inst.a + 1].i64,
                                        f[inst.a + 2].i64);
})

// ----- constants -----
LNB_SEM(i32_const, f[inst.a].i64 = inst.imm;)
LNB_SEM(i64_const, f[inst.a].i64 = inst.imm;)
LNB_SEM(f32_const, f[inst.a].i64 = inst.imm;)
LNB_SEM(f64_const, f[inst.a].i64 = inst.imm;)

// ----- i32 compare -----
LNB_SEM(i32_eqz, f[inst.a].i32 = f[inst.a].i32 == 0;)
LNB_SEM(i32_eq, f[inst.a].i32 = f[inst.a].i32 == f[inst.b].i32;)
LNB_SEM(i32_ne, f[inst.a].i32 = f[inst.a].i32 != f[inst.b].i32;)
LNB_SEM(i32_lt_s,
        f[inst.a].i32 = int32_t(f[inst.a].i32) < int32_t(f[inst.b].i32);)
LNB_SEM(i32_lt_u, f[inst.a].i32 = f[inst.a].i32 < f[inst.b].i32;)
LNB_SEM(i32_gt_s,
        f[inst.a].i32 = int32_t(f[inst.a].i32) > int32_t(f[inst.b].i32);)
LNB_SEM(i32_gt_u, f[inst.a].i32 = f[inst.a].i32 > f[inst.b].i32;)
LNB_SEM(i32_le_s,
        f[inst.a].i32 = int32_t(f[inst.a].i32) <= int32_t(f[inst.b].i32);)
LNB_SEM(i32_le_u, f[inst.a].i32 = f[inst.a].i32 <= f[inst.b].i32;)
LNB_SEM(i32_ge_s,
        f[inst.a].i32 = int32_t(f[inst.a].i32) >= int32_t(f[inst.b].i32);)
LNB_SEM(i32_ge_u, f[inst.a].i32 = f[inst.a].i32 >= f[inst.b].i32;)

// ----- i64 compare -----
LNB_SEM(i64_eqz, f[inst.a].i32 = f[inst.a].i64 == 0;)
LNB_SEM(i64_eq, f[inst.a].i32 = f[inst.a].i64 == f[inst.b].i64;)
LNB_SEM(i64_ne, f[inst.a].i32 = f[inst.a].i64 != f[inst.b].i64;)
LNB_SEM(i64_lt_s,
        f[inst.a].i32 = int64_t(f[inst.a].i64) < int64_t(f[inst.b].i64);)
LNB_SEM(i64_lt_u, f[inst.a].i32 = f[inst.a].i64 < f[inst.b].i64;)
LNB_SEM(i64_gt_s,
        f[inst.a].i32 = int64_t(f[inst.a].i64) > int64_t(f[inst.b].i64);)
LNB_SEM(i64_gt_u, f[inst.a].i32 = f[inst.a].i64 > f[inst.b].i64;)
LNB_SEM(i64_le_s,
        f[inst.a].i32 = int64_t(f[inst.a].i64) <= int64_t(f[inst.b].i64);)
LNB_SEM(i64_le_u, f[inst.a].i32 = f[inst.a].i64 <= f[inst.b].i64;)
LNB_SEM(i64_ge_s,
        f[inst.a].i32 = int64_t(f[inst.a].i64) >= int64_t(f[inst.b].i64);)
LNB_SEM(i64_ge_u, f[inst.a].i32 = f[inst.a].i64 >= f[inst.b].i64;)

// ----- float compare -----
LNB_SEM(f32_eq, f[inst.a].i32 = f[inst.a].f32 == f[inst.b].f32;)
LNB_SEM(f32_ne, f[inst.a].i32 = f[inst.a].f32 != f[inst.b].f32;)
LNB_SEM(f32_lt, f[inst.a].i32 = f[inst.a].f32 < f[inst.b].f32;)
LNB_SEM(f32_gt, f[inst.a].i32 = f[inst.a].f32 > f[inst.b].f32;)
LNB_SEM(f32_le, f[inst.a].i32 = f[inst.a].f32 <= f[inst.b].f32;)
LNB_SEM(f32_ge, f[inst.a].i32 = f[inst.a].f32 >= f[inst.b].f32;)
LNB_SEM(f64_eq, f[inst.a].i32 = f[inst.a].f64 == f[inst.b].f64;)
LNB_SEM(f64_ne, f[inst.a].i32 = f[inst.a].f64 != f[inst.b].f64;)
LNB_SEM(f64_lt, f[inst.a].i32 = f[inst.a].f64 < f[inst.b].f64;)
LNB_SEM(f64_gt, f[inst.a].i32 = f[inst.a].f64 > f[inst.b].f64;)
LNB_SEM(f64_le, f[inst.a].i32 = f[inst.a].f64 <= f[inst.b].f64;)
LNB_SEM(f64_ge, f[inst.a].i32 = f[inst.a].f64 >= f[inst.b].f64;)

// ----- i32 arithmetic -----
LNB_SEM(i32_clz, f[inst.a].i32 = clz32(f[inst.a].i32);)
LNB_SEM(i32_ctz, f[inst.a].i32 = ctz32(f[inst.a].i32);)
LNB_SEM(i32_popcnt,
        f[inst.a].i32 = uint32_t(__builtin_popcount(f[inst.a].i32));)
LNB_SEM(i32_add, f[inst.a].i32 += f[inst.b].i32;)
LNB_SEM(i32_sub, f[inst.a].i32 -= f[inst.b].i32;)
LNB_SEM(i32_mul, f[inst.a].i32 *= f[inst.b].i32;)
LNB_SEM(i32_div_s, f[inst.a].i32 = idiv32s(f[inst.a].i32, f[inst.b].i32);)
LNB_SEM(i32_div_u, f[inst.a].i32 = idiv32u(f[inst.a].i32, f[inst.b].i32);)
LNB_SEM(i32_rem_s, f[inst.a].i32 = irem32s(f[inst.a].i32, f[inst.b].i32);)
LNB_SEM(i32_rem_u, f[inst.a].i32 = irem32u(f[inst.a].i32, f[inst.b].i32);)
LNB_SEM(i32_and, f[inst.a].i32 &= f[inst.b].i32;)
LNB_SEM(i32_or, f[inst.a].i32 |= f[inst.b].i32;)
LNB_SEM(i32_xor, f[inst.a].i32 ^= f[inst.b].i32;)
LNB_SEM(i32_shl, f[inst.a].i32 <<= (f[inst.b].i32 & 31);)
LNB_SEM(i32_shr_s,
        f[inst.a].i32 =
            uint32_t(int32_t(f[inst.a].i32) >> (f[inst.b].i32 & 31));)
LNB_SEM(i32_shr_u, f[inst.a].i32 >>= (f[inst.b].i32 & 31);)
LNB_SEM(i32_rotl, f[inst.a].i32 = rotl32(f[inst.a].i32, f[inst.b].i32);)
LNB_SEM(i32_rotr, f[inst.a].i32 = rotr32(f[inst.a].i32, f[inst.b].i32);)

// ----- i64 arithmetic -----
LNB_SEM(i64_clz, f[inst.a].i64 = clz64(f[inst.a].i64);)
LNB_SEM(i64_ctz, f[inst.a].i64 = ctz64(f[inst.a].i64);)
LNB_SEM(i64_popcnt,
        f[inst.a].i64 = uint64_t(__builtin_popcountll(f[inst.a].i64));)
LNB_SEM(i64_add, f[inst.a].i64 += f[inst.b].i64;)
LNB_SEM(i64_sub, f[inst.a].i64 -= f[inst.b].i64;)
LNB_SEM(i64_mul, f[inst.a].i64 *= f[inst.b].i64;)
LNB_SEM(i64_div_s, f[inst.a].i64 = idiv64s(f[inst.a].i64, f[inst.b].i64);)
LNB_SEM(i64_div_u, f[inst.a].i64 = idiv64u(f[inst.a].i64, f[inst.b].i64);)
LNB_SEM(i64_rem_s, f[inst.a].i64 = irem64s(f[inst.a].i64, f[inst.b].i64);)
LNB_SEM(i64_rem_u, f[inst.a].i64 = irem64u(f[inst.a].i64, f[inst.b].i64);)
LNB_SEM(i64_and, f[inst.a].i64 &= f[inst.b].i64;)
LNB_SEM(i64_or, f[inst.a].i64 |= f[inst.b].i64;)
LNB_SEM(i64_xor, f[inst.a].i64 ^= f[inst.b].i64;)
LNB_SEM(i64_shl, f[inst.a].i64 <<= (f[inst.b].i64 & 63);)
LNB_SEM(i64_shr_s,
        f[inst.a].i64 =
            uint64_t(int64_t(f[inst.a].i64) >> (f[inst.b].i64 & 63));)
LNB_SEM(i64_shr_u, f[inst.a].i64 >>= (f[inst.b].i64 & 63);)
LNB_SEM(i64_rotl, f[inst.a].i64 = rotl64(f[inst.a].i64, f[inst.b].i64);)
LNB_SEM(i64_rotr, f[inst.a].i64 = rotr64(f[inst.a].i64, f[inst.b].i64);)

// ----- f32 arithmetic -----
LNB_SEM(f32_abs, f[inst.a].f32 = std::fabs(f[inst.a].f32);)
LNB_SEM(f32_neg, f[inst.a].f32 = -f[inst.a].f32;)
LNB_SEM(f32_ceil, f[inst.a].f32 = std::ceil(f[inst.a].f32);)
LNB_SEM(f32_floor, f[inst.a].f32 = std::floor(f[inst.a].f32);)
LNB_SEM(f32_trunc, f[inst.a].f32 = std::trunc(f[inst.a].f32);)
LNB_SEM(f32_nearest, f[inst.a].f32 = fnearest(f[inst.a].f32);)
LNB_SEM(f32_sqrt, f[inst.a].f32 = std::sqrt(f[inst.a].f32);)
LNB_SEM(f32_add, f[inst.a].f32 += f[inst.b].f32;)
LNB_SEM(f32_sub, f[inst.a].f32 -= f[inst.b].f32;)
LNB_SEM(f32_mul, f[inst.a].f32 *= f[inst.b].f32;)
LNB_SEM(f32_div, f[inst.a].f32 /= f[inst.b].f32;)
LNB_SEM(f32_min, f[inst.a].f32 = fminWasm(f[inst.a].f32, f[inst.b].f32);)
LNB_SEM(f32_max, f[inst.a].f32 = fmaxWasm(f[inst.a].f32, f[inst.b].f32);)
LNB_SEM(f32_copysign,
        f[inst.a].f32 = std::copysign(f[inst.a].f32, f[inst.b].f32);)

// ----- f64 arithmetic -----
LNB_SEM(f64_abs, f[inst.a].f64 = std::fabs(f[inst.a].f64);)
LNB_SEM(f64_neg, f[inst.a].f64 = -f[inst.a].f64;)
LNB_SEM(f64_ceil, f[inst.a].f64 = std::ceil(f[inst.a].f64);)
LNB_SEM(f64_floor, f[inst.a].f64 = std::floor(f[inst.a].f64);)
LNB_SEM(f64_trunc, f[inst.a].f64 = std::trunc(f[inst.a].f64);)
LNB_SEM(f64_nearest, f[inst.a].f64 = fnearest(f[inst.a].f64);)
LNB_SEM(f64_sqrt, f[inst.a].f64 = std::sqrt(f[inst.a].f64);)
LNB_SEM(f64_add, f[inst.a].f64 += f[inst.b].f64;)
LNB_SEM(f64_sub, f[inst.a].f64 -= f[inst.b].f64;)
LNB_SEM(f64_mul, f[inst.a].f64 *= f[inst.b].f64;)
LNB_SEM(f64_div, f[inst.a].f64 /= f[inst.b].f64;)
LNB_SEM(f64_min, f[inst.a].f64 = fminWasm(f[inst.a].f64, f[inst.b].f64);)
LNB_SEM(f64_max, f[inst.a].f64 = fmaxWasm(f[inst.a].f64, f[inst.b].f64);)
LNB_SEM(f64_copysign,
        f[inst.a].f64 = std::copysign(f[inst.a].f64, f[inst.b].f64);)

// ----- conversions -----
LNB_SEM(i32_wrap_i64, f[inst.a].i32 = uint32_t(f[inst.a].i64);)
LNB_SEM(i32_trunc_f32_s, f[inst.a].i32 = truncF32ToI32s(f[inst.a].f32);)
LNB_SEM(i32_trunc_f32_u, f[inst.a].i32 = truncF32ToI32u(f[inst.a].f32);)
LNB_SEM(i32_trunc_f64_s, f[inst.a].i32 = truncF64ToI32s(f[inst.a].f64);)
LNB_SEM(i32_trunc_f64_u, f[inst.a].i32 = truncF64ToI32u(f[inst.a].f64);)
LNB_SEM(i64_extend_i32_s,
        f[inst.a].i64 = uint64_t(int64_t(int32_t(f[inst.a].i32)));)
LNB_SEM(i64_extend_i32_u, f[inst.a].i64 = f[inst.a].i32;)
LNB_SEM(i64_trunc_f32_s, f[inst.a].i64 = truncF32ToI64s(f[inst.a].f32);)
LNB_SEM(i64_trunc_f32_u, f[inst.a].i64 = truncF32ToI64u(f[inst.a].f32);)
LNB_SEM(i64_trunc_f64_s, f[inst.a].i64 = truncF64ToI64s(f[inst.a].f64);)
LNB_SEM(i64_trunc_f64_u, f[inst.a].i64 = truncF64ToI64u(f[inst.a].f64);)
LNB_SEM(f32_convert_i32_s, f[inst.a].f32 = float(int32_t(f[inst.a].i32));)
LNB_SEM(f32_convert_i32_u, f[inst.a].f32 = float(f[inst.a].i32);)
LNB_SEM(f32_convert_i64_s, f[inst.a].f32 = float(int64_t(f[inst.a].i64));)
LNB_SEM(f32_convert_i64_u, f[inst.a].f32 = float(f[inst.a].i64);)
LNB_SEM(f32_demote_f64, f[inst.a].f32 = float(f[inst.a].f64);)
LNB_SEM(f64_convert_i32_s, f[inst.a].f64 = double(int32_t(f[inst.a].i32));)
LNB_SEM(f64_convert_i32_u, f[inst.a].f64 = double(f[inst.a].i32);)
LNB_SEM(f64_convert_i64_s, f[inst.a].f64 = double(int64_t(f[inst.a].i64));)
LNB_SEM(f64_convert_i64_u, f[inst.a].f64 = double(f[inst.a].i64);)
LNB_SEM(f64_promote_f32, f[inst.a].f64 = double(f[inst.a].f32);)
// Reinterpret casts: the bit pattern is already in the cell.
LNB_SEM(i32_reinterpret_f32, ;)
LNB_SEM(i64_reinterpret_f64, ;)
LNB_SEM(f32_reinterpret_i32, ;)
LNB_SEM(f64_reinterpret_i64, ;)

// ----- sign extension -----
LNB_SEM(i32_extend8_s,
        f[inst.a].i32 = uint32_t(int32_t(int8_t(f[inst.a].i32)));)
LNB_SEM(i32_extend16_s,
        f[inst.a].i32 = uint32_t(int32_t(int16_t(f[inst.a].i32)));)
LNB_SEM(i64_extend8_s,
        f[inst.a].i64 = uint64_t(int64_t(int8_t(f[inst.a].i64)));)
LNB_SEM(i64_extend16_s,
        f[inst.a].i64 = uint64_t(int64_t(int16_t(f[inst.a].i64)));)
LNB_SEM(i64_extend32_s,
        f[inst.a].i64 = uint64_t(int64_t(int32_t(f[inst.a].i64)));)

// ----- saturating truncations -----
LNB_SEM(i32_trunc_sat_f32_s, f[inst.a].i32 = satF32ToI32s(f[inst.a].f32);)
LNB_SEM(i32_trunc_sat_f32_u, f[inst.a].i32 = satF32ToI32u(f[inst.a].f32);)
LNB_SEM(i32_trunc_sat_f64_s, f[inst.a].i32 = satF64ToI32s(f[inst.a].f64);)
LNB_SEM(i32_trunc_sat_f64_u, f[inst.a].i32 = satF64ToI32u(f[inst.a].f64);)
LNB_SEM(i64_trunc_sat_f32_s, f[inst.a].i64 = satF32ToI64s(f[inst.a].f32);)
LNB_SEM(i64_trunc_sat_f32_u, f[inst.a].i64 = satF32ToI64u(f[inst.a].f32);)
LNB_SEM(i64_trunc_sat_f64_s, f[inst.a].i64 = satF64ToI64s(f[inst.a].f64);)
LNB_SEM(i64_trunc_sat_f64_u, f[inst.a].i64 = satF64ToI64u(f[inst.a].f64);)

// ----- parametric / variable ops that survive lowering -----
LNB_SEM(select, if (f[inst.a + 2].i32 == 0) f[inst.a] = f[inst.a + 1];)
LNB_SEM(global_get, f[inst.a] = ctx->globals[inst.b];)
LNB_SEM(global_set, ctx->globals[inst.b] = f[inst.a];)

#undef LNB_SEM_ABSENT
#undef LNB_SEM

/**
 * Switch-dispatched execution of one lowered wasm instruction (used by the
 * switch interpreter and as a slow path elsewhere). Control pseudo-ops
 * (LOp) are handled by the interpreter loops themselves.
 */
template <CheckMode M>
inline void
execWasmOp(InstanceContext* ctx, Value* f, const LInst& inst)
{
    using wasm::Op;
    switch (Op(inst.op)) {
#define V(id, name, enc, imm, sig)                                           \
      case Op::id:                                                           \
        sem_##id<M>(ctx, f, inst);                                           \
        break;
        LNB_FOREACH_OPCODE(V)
#undef V
      default:
        trap(TrapKind::host_error);
    }
}

// ---------------------------------------------------------------------
// Pseudo-ops emitted by the optimization pass (wasm/opt.*)
// ---------------------------------------------------------------------

/** Replay a 2-input wasm binop `op` on cells (a, b) through the shared
 * semantic functions, so fused forms stay bit-exact with the originals. */
template <CheckMode M>
inline void
replayBinop(InstanceContext* ctx, Value* f, uint16_t op, uint32_t a,
            uint32_t b)
{
    LInst binop;
    binop.op = op;
    binop.a = a;
    binop.b = b;
    execWasmOp<M>(ctx, f, binop);
}

/** fused const+binop: f[b] = imm, then wasm binop `aux` on (a, b). */
template <CheckMode M>
inline void
semFusedConstBinop(InstanceContext* ctx, Value* f, const LInst& inst)
{
    f[inst.b].i64 = inst.imm;
    replayBinop<M>(ctx, f, inst.aux, inst.a, inst.b);
}

/**
 * fused compare+branch: compare `aux` on (b, imm>>1), then report
 * whether the jump to pc `a` should be taken (imm bit 0 inverts the
 * condition for jump_if_zero). The interpreter loop performs the jump.
 */
template <CheckMode M>
inline bool
semFusedCmpJump(InstanceContext* ctx, Value* f, const LInst& inst)
{
    replayBinop<M>(ctx, f, inst.aux, inst.b, uint32_t(inst.imm >> 1));
    bool taken = f[inst.b].i32 != 0;
    return (inst.imm & 1) ? !taken : taken;
}

/** fused copy+binop: f[imm & 0xffffffff] = f[imm >> 32], then wasm
 * binop `aux` on (a, b). */
template <CheckMode M>
inline void
semFusedCopyBinop(InstanceContext* ctx, Value* f, const LInst& inst)
{
    f[uint32_t(inst.imm)] = f[inst.imm >> 32];
    replayBinop<M>(ctx, f, inst.aux, inst.a, inst.b);
}

/** The load half of fused load+binop: load op `imm >> 32` into cell b
 * (offset imm & 0xffffffff). Split out so the threaded interpreter can
 * dispatch the binop half through its own handler table. */
template <CheckMode M>
inline void
semFusedLoadPart(InstanceContext* ctx, Value* f, const LInst& inst)
{
    LInst load;
    load.op = uint16_t(inst.imm >> 32);
    load.a = inst.b;
    load.imm = uint32_t(inst.imm);
    execWasmOp<M>(ctx, f, load);
}

/** fused load+binop: load op `imm >> 32` into cell b (offset
 * imm & 0xffffffff), then wasm binop `aux` on (a, b). */
template <CheckMode M>
inline void
semFusedLoadBinop(InstanceContext* ctx, Value* f, const LInst& inst)
{
    semFusedLoadPart<M>(ctx, f, inst);
    replayBinop<M>(ctx, f, inst.aux, inst.a, inst.b);
}

} // namespace lnb::exec::sem

#endif // LNB_INTERP_OPS_INLINE_H
