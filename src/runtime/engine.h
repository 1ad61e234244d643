/**
 * @file
 * The public embedding API: Engine (a compilation pipeline configured with
 * an execution technique and a bounds-checking strategy), CompiledModule
 * (an immutable, thread-shareable artifact), and — in instance.h — Instance
 * (per-tenant execution state).
 *
 * Typical use:
 *
 *   rt::Engine engine({rt::EngineKind::jit_opt,
 *                      mem::BoundsStrategy::uffd});
 *   auto cm = engine.compile(std::move(module)).takeValue();
 *   auto inst = rt::Instance::create(cm, rt::ImportMap{}).takeValue();
 *   auto out = inst->callExport("run", {});
 */
#ifndef LNB_RUNTIME_ENGINE_H
#define LNB_RUNTIME_ENGINE_H

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "interp/interpreter.h"
#include "jit/compiler.h"
#include "mem/linear_memory.h"
#include "runtime/tiering.h"
#include "support/status.h"
#include "wasm/lower.h"
#include "wasm/opt.h"
#include "wasm/module.h"

namespace lnb::rt {

/** The four execution engines (paper-runtime analogues; DESIGN.md §2). */
enum class EngineKind : uint8_t {
    interp_switch = 0, ///< naive switch interpreter (lower bound)
    interp_threaded,   ///< computed-goto interpreter (wasm3 analogue)
    jit_base,          ///< single-pass baseline JIT (V8/Wasmtime analogue)
    jit_opt,           ///< optimizing JIT (WAVM analogue)
};

constexpr int kNumEngineKinds = 4;

const char* engineKindName(EngineKind kind);
bool engineKindFromName(const std::string& name, EngineKind& out);

inline bool
engineIsJit(EngineKind kind)
{
    return kind == EngineKind::jit_base || kind == EngineKind::jit_opt;
}

/** Engine configuration: execution technique + safety knobs. */
struct EngineConfig
{
    EngineKind kind = EngineKind::jit_base;
    mem::BoundsStrategy strategy = mem::BoundsStrategy::mprotect;
    /** Force the uffd emulation even when real userfaultfd exists. */
    bool forceUffdEmulation = false;
    /** Function-entry stack-overflow checks (ablation knob). */
    bool stackChecks = true;
    /** Value-stack size per instance, in 8-byte cells. */
    uint32_t valueStackCells = 1u << 20;
    uint32_t maxCallDepth = 8192;
    /**
     * Run the lowered-IR optimization pass (wasm/opt.*) between lowering
     * and execution: superinstruction fusion for the interpreter tiers,
     * cross-block/loop bounds-check elimination for jit_opt under the
     * trap strategy. Ablation knob; LNB_OPT_DISABLED=1 turns it off.
     */
    bool optimizeLoweredIR = true;
    /**
     * Affine loop versioning (wasm/opt.*): clone counted loops with
     * in-loop bounds checks behind a preheader range guard so the fast
     * path runs check-free; the guard falls back to the fully-checked
     * clone. Effective only where check analysis runs (jit_opt or tiered,
     * trap strategy, optimizeLoweredIR on). LNB_OPT_VERSIONING=0/1
     * overrides.
     */
    bool optVersioning = true;
    /**
     * Count dynamically retired software bounds checks in JIT code
     * (InstanceContext::checksRetired; the interpreters always count).
     * Measurement-only knob — the increments pollute steady-state
     * timings. LNB_COUNT_CHECKS=0/1 overrides.
     */
    bool countRetiredChecks = false;
    /**
     * Per-function tiered execution: every function starts in the
     * profiled threaded interpreter and is recompiled with the jit_opt
     * pipeline in the background once its hotness (function entries +
     * loop back edges) crosses tierThreshold; the new entry is published
     * atomically into the module's code table. When set, `kind` is
     * ignored (the tiers are fixed: interp_threaded below, jit_opt
     * above); the four EngineKinds remain available as degenerate
     * fixed-tier configurations with tiered == false. LNB_TIER_DISABLED
     * force-disables tier-up (the module stays interpreted) and
     * LNB_TIER_THRESHOLD / LNB_TIER_COMPILE_THREADS override the two
     * knobs below.
     */
    bool tiered = false;
    /** Hotness units (entry = 8, back edge = 1) before tier-up. */
    uint32_t tierThreshold = 1u << 14;
    /** Background compiler threads serving the tier-up queue. */
    uint32_t tierCompileThreads = 1;
    /**
     * Ablation (BM_TierDispatch baseline): restore the pre-code-table
     * monolithic JIT dispatch — direct rel32 calls between functions and
     * TableEntry::code for call_indirect. JIT kinds only; incompatible
     * with tiered.
     */
    bool directJitCalls = false;
    /**
     * Compile for a shared (multi-thread) linear memory even when the
     * module's memory section does not carry the shared flag: instances
     * get a process-shared mapping with an atomic size word, the JIT
     * lowers memory.size as a synchronizing native call, and loop
     * versioning is disabled unless the module is grow-free (another
     * thread's memory.grow must not invalidate a versioned fast path).
     * Forced on automatically when the module declares a shared memory.
     * LNB_SHARED_MEM=0/1 overrides (strict parse).
     */
    bool sharedMemory = false;
    /**
     * Compile epoch interrupt checks into all tiers: a load+branch on the
     * instance's interrupt flag at loop back edges and function entries
     * (the same sites the tiering profiler instruments), raising the
     * clean-unwind traps `interrupted`/`deadline_exceeded`. This is what
     * makes requests killable — deadlines, Service::stop(), and waking
     * parked memory.atomic.wait all depend on it — so it defaults on;
     * LNB_EPOCH_CHECKS=0/1 overrides (strict parse), and
     * LNB_EPOCH_INTERVAL tunes the interpreter poll divisor.
     */
    bool epochChecks = true;
};

/**
 * Resolve the LNB_* environment overrides into @p config, exactly as
 * Engine::compile does before compiling (tier knobs, opt kill-switches,
 * shared-memory/epoch forcing, the tiered+LNB_TIER_DISABLED fallback).
 * Cache keys must fingerprint the *resolved* config: two processes with
 * different environments would otherwise produce differently-shaped code
 * under one key, and a persisted artifact could be loaded into a process
 * whose env demands different codegen.
 */
EngineConfig resolveEngineConfig(EngineConfig config);

/**
 * Post-`start` instance state captured once per module and restored
 * wholesale into every later instance (DESIGN.md §14): the initialized
 * linear memory as a CoW template, plus value copies of the mutable
 * globals and the funcref table. Immutable after publication.
 */
struct SnapshotState
{
    std::shared_ptr<mem::MemorySnapshot> memory;
    std::vector<wasm::Value> globals;
    std::vector<exec::TableEntry> table;
};

/** Wall-clock cost of each compilation stage (micro_pipeline bench). */
struct CompileStats
{
    double decodeSeconds = 0;
    double validateSeconds = 0;
    double lowerSeconds = 0;
    double optSeconds = 0;
    double codegenSeconds = 0;
    size_t codeBytes = 0;
};

/**
 * A compiled module. Shareable across threads; every Instance holds a
 * shared_ptr to one. Logically immutable — the lowered IR, config and any
 * AOT code never change — except for the per-function code table, whose
 * entries advance monotonically (interp -> jit) under the publication
 * protocol in DESIGN.md §10; tier state is therefore shared by every
 * instance and tenant running the module.
 */
class CompiledModule
{
  public:
    CompiledModule();
    ~CompiledModule(); ///< stops the background tier-up compiler first

    CompiledModule(const CompiledModule&) = delete;
    CompiledModule& operator=(const CompiledModule&) = delete;

    const wasm::LoweredModule& lowered() const { return lowered_; }
    const EngineConfig& config() const { return config_; }
    const jit::CompiledCode* jitCode() const { return jitCode_.get(); }
    const CompileStats& stats() const { return stats_; }
    /** What the lowered-IR optimization pass did (zeros when skipped). */
    const wasm::OptStats& optStats() const { return optStats_; }

    /** The per-function code table, module-wide index space (imports
     * included). One slot per function; see exec::FuncCode. */
    exec::FuncCode* funcCode() const { return funcCode_.get(); }
    /** Slots in funcCode(): imports + defined functions. */
    uint32_t numFuncs() const { return numFuncs_; }
    /** Current tier of one function. */
    exec::Tier funcTier(uint32_t func_idx) const
    {
        return exec::Tier(
            funcCode_[func_idx].tier.load(std::memory_order_relaxed));
    }

    /** Null unless compiled with config.tiered (and tier-up enabled). */
    TierController* tierController() const
    {
        return tierController_.get();
    }
    /** Tiering statistics; zeros for fixed-tier modules. */
    TierStats tierStats() const
    {
        return tierController_ != nullptr ? tierController_->stats()
                                          : TierStats{};
    }
    /** Block until every tier-up requested so far is compiled
     * (tests/bench determinism aid). No-op for fixed-tier modules. */
    void drainTierQueue() const
    {
        if (tierController_ != nullptr)
            tierController_->drain();
    }

    // ----- instance snapshot slot (DESIGN.md §14) -----
    /**
     * The module's start function performs no host calls (directly or
     * transitively) and no indirect calls that could reach one, so its
     * effects are fully described by the memory/global/table state it
     * leaves behind — the precondition for snapshot capture. Modules
     * with an impure start never snapshot: replaying the template would
     * skip the host side effects.
     */
    bool startIsPure() const { return startIsPure_; }
    /** Published snapshot, or null while none has been captured. Stable
     * once non-null; owned by this module. */
    const SnapshotState* snapshot() const
    {
        return snapshot_.load(std::memory_order_acquire);
    }
    /** Publish a captured snapshot; first caller wins, later copies are
     * discarded (capture races are benign — any post-start state is
     * equivalent for a deterministic start). */
    void publishSnapshot(std::unique_ptr<const SnapshotState> snap) const
    {
        std::lock_guard<std::mutex> lock(snapMutex_);
        if (snapshot_.load(std::memory_order_relaxed) == nullptr) {
            snapshotStorage_ = std::move(snap);
            snapshot_.store(snapshotStorage_.get(),
                            std::memory_order_release);
        }
    }
    /** Capture failed structurally (shared memory, uffd-emu arena, no
     * memory, impure start) — stop re-trying on every instance. */
    bool snapshotRefused() const
    {
        return snapshotRefused_.load(std::memory_order_relaxed);
    }
    void markSnapshotRefused() const
    {
        snapshotRefused_.store(true, std::memory_order_relaxed);
    }

  private:
    friend class Engine;
    friend Result<std::shared_ptr<const CompiledModule>>
    deserializeCompiledModule(const uint8_t* data, size_t size);
    wasm::LoweredModule lowered_;
    EngineConfig config_;
    std::unique_ptr<jit::CompiledCode> jitCode_;
    /** One slot per function, shared across instances (mutable tier
     * state inside an otherwise-immutable artifact). */
    mutable std::unique_ptr<exec::FuncCode[]> funcCode_;
    uint32_t numFuncs_ = 0;
    std::unique_ptr<TierController> tierController_;
    CompileStats stats_;
    wasm::OptStats optStats_;
    bool startIsPure_ = false;
    mutable std::mutex snapMutex_;
    mutable std::atomic<const SnapshotState*> snapshot_{nullptr};
    mutable std::unique_ptr<const SnapshotState> snapshotStorage_;
    mutable std::atomic<bool> snapshotRefused_{false};
};

/**
 * Serialize a compiled module for the persistent code cache: the
 * resolved config, pipeline stats, the full lowered IR, and (for JIT
 * kinds) the relocatable code artifact. The inverse rebuilds the module
 * in any later process of the same build without recompiling — the
 * caller (svc/module_cache.*) guards the payload with a fingerprinted
 * header and rejects stale or corrupt bytes before calling deserialize.
 */
std::vector<uint8_t> serializeCompiledModule(const CompiledModule& cm);

Result<std::shared_ptr<const CompiledModule>>
deserializeCompiledModule(const uint8_t* data, size_t size);

/** A compilation pipeline for one engine configuration. */
class Engine
{
  public:
    explicit Engine(const EngineConfig& config);

    const EngineConfig& config() const { return config_; }

    /** Validate, lower, and (for JIT kinds) generate code. */
    Result<std::shared_ptr<const CompiledModule>>
    compile(wasm::Module module) const;

    /** Decode a binary module, then compile it. */
    Result<std::shared_ptr<const CompiledModule>>
    compileBytes(const std::vector<uint8_t>& bytes) const;

  private:
    EngineConfig config_;
};

} // namespace lnb::rt

#endif // LNB_RUNTIME_ENGINE_H
