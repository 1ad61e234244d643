/**
 * @file
 * The switch-dispatch interpreter: a portable fetch/execute loop over the
 * lowered IR. Serves as the naive performance lower bound among the
 * engines (paper §2.2's "relatively slow, but simple interpreters").
 *
 * Calls (callf/calli) dispatch through the per-function code table, so an
 * interpreted caller transparently enters JIT code once a callee has been
 * tiered up (and vice versa). The Profile variant additionally counts
 * function entries and loop back edges for the tier-up policy.
 */
#include "interp/interpreter.h"
#include "obs/profiler.h"
#include "interp/ops_inline.h"

namespace lnb::exec {

namespace {

using wasm::LInst;
using wasm::LOp;
using wasm::LoweredFunc;
using wasm::TrapKind;
using wasm::Value;

template <CheckMode M, bool Profile>
void
runSwitch(InstanceContext* ctx, const LoweredFunc& func, Value* frame)
{
    detail::enterFrame(ctx, func, frame);

    const LInst* code = func.code.data();
    const uint32_t* table_pool = func.tablePool.data();
    uint32_t pc = 0;

    // Loop back edges (jumps to an earlier or the current pc) feed the
    // hotness counter in the profiled variant and are the epoch poll
    // sites in every variant: a spinning loop must observe a pending
    // interrupt within epochInterval back edges.
    auto profile_jump = [&](uint32_t target) {
        if (target <= pc) {
            if constexpr (Profile)
                recordHotness(ctx, func.funcIdx, 1);
            epochPoll(ctx);
        }
    };

    for (;;) {
        const LInst& inst = code[pc];
        switch (LOp(inst.op)) {
          case LOp::jump:
            profile_jump(inst.a);
            pc = inst.a;
            continue;

          case LOp::jump_if:
            if (frame[inst.b].i32 != 0) {
                profile_jump(inst.a);
                pc = inst.a;
                continue;
            }
            break;

          case LOp::jump_if_zero:
            if (frame[inst.b].i32 == 0) {
                profile_jump(inst.a);
                pc = inst.a;
                continue;
            }
            break;

          case LOp::jump_table: {
            uint32_t idx = frame[inst.b].i32;
            if (idx > inst.aux)
                idx = inst.aux; // default case
            uint32_t target = table_pool[inst.a + idx];
            profile_jump(target);
            pc = target;
            continue;
          }

          case LOp::copy:
            frame[inst.b] = frame[inst.a];
            break;

          case LOp::ret:
            if (inst.aux != 0)
                frame[0] = frame[inst.a];
            ctx->callDepth--;
            return;

          case LOp::callf:
            detail::callThroughTable(ctx, inst.a, frame + inst.b);
            break;

          case LOp::call_host:
            lnbJitHostCall(ctx, frame + inst.b, inst.a);
            break;

          case LOp::calli: {
            detail::IndirectTarget target =
                detail::resolveIndirect(ctx, inst, frame);
            detail::callThroughTable(ctx, target.funcIdx, target.argBase);
            break;
          }

          case LOp::trap:
            mem::TrapManager::raiseTrap(TrapKind(inst.aux));

          case LOp::fused_const_binop:
            sem::semFusedConstBinop<M>(ctx, frame, inst);
            break;

          case LOp::fused_cmp_jump:
            if (sem::semFusedCmpJump<M>(ctx, frame, inst)) {
                profile_jump(inst.a);
                pc = inst.a;
                continue;
            }
            break;

          case LOp::fused_copy_binop:
            sem::semFusedCopyBinop<M>(ctx, frame, inst);
            break;

          case LOp::fused_load_binop:
            sem::semFusedLoadBinop<M>(ctx, frame, inst);
            break;

          case LOp::count_fallback:
            ctx->guardFallbacks++;
            break;

          default:
            sem::execWasmOp<M>(ctx, frame, inst);
            break;
        }
        pc++;
    }
}

/** Code-table entry: locate the lowered body, profile, run. */
template <CheckMode M, bool Profile>
void
switchEntry(InstanceContext* ctx, Value* frame, uint32_t func_idx)
{
    if constexpr (Profile)
        recordHotness(ctx, func_idx, kEntryHotness);
    // Function entries are the second epoch poll site, so deep
    // call-chain recursion without loops is still preemptible.
    epochPoll(ctx);
    // Sampler frame marker: one relaxed load + branch when profiling is
    // off, declared-interp category + chain link when on.
    obs::ProfFrameScope prof_frame(func_idx, obs::kProfTierInterp);
    runSwitch<M, Profile>(ctx, ctx->lowered->funcByIndex(func_idx), frame);
}

} // namespace

EntryFn
switchFuncEntry(CheckMode mode, bool profiled)
{
    switch (mode) {
      case CheckMode::raw:
        return profiled ? &switchEntry<CheckMode::raw, true>
                        : &switchEntry<CheckMode::raw, false>;
      case CheckMode::clamp:
        return profiled ? &switchEntry<CheckMode::clamp, true>
                        : &switchEntry<CheckMode::clamp, false>;
      case CheckMode::trap:
        return profiled ? &switchEntry<CheckMode::trap, true>
                        : &switchEntry<CheckMode::trap, false>;
    }
    return nullptr;
}

} // namespace lnb::exec
