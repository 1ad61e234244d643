#include "runtime/engine.h"

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/clock.h"
#include "support/env.h"
#include "wasm/decoder.h"
#include "wasm/validator.h"

namespace lnb::rt {

const char*
engineKindName(EngineKind kind)
{
    switch (kind) {
      case EngineKind::interp_switch: return "interp-switch";
      case EngineKind::interp_threaded: return "interp-threaded";
      case EngineKind::jit_base: return "jit-base";
      case EngineKind::jit_opt: return "jit-opt";
    }
    return "?";
}

bool
engineKindFromName(const std::string& name, EngineKind& out)
{
    for (int i = 0; i < kNumEngineKinds; i++) {
        if (name == engineKindName(EngineKind(i))) {
            out = EngineKind(i);
            return true;
        }
    }
    return false;
}

namespace {

/**
 * True if the start function (when present) cannot perform host calls:
 * no call_host and no calli anywhere in its transitive direct-call
 * graph. Indirect calls are conservatively impure — a funcref table can
 * reach an import thunk. Pure starts are exactly the ones whose effect
 * is replayable by restoring memory/globals/table, so this gates
 * snapshot capture.
 */
bool
computeStartIsPure(const wasm::LoweredModule& lm)
{
    if (!lm.module.start.has_value())
        return true;
    uint32_t start = *lm.module.start;
    if (lm.module.isImportedFunc(start))
        return false;
    std::vector<bool> seen(lm.funcs.size(), false);
    std::vector<uint32_t> work{start};
    while (!work.empty()) {
        uint32_t func_idx = work.back();
        work.pop_back();
        uint32_t defined = func_idx - lm.module.numImportedFuncs();
        if (seen[defined])
            continue;
        seen[defined] = true;
        for (const wasm::LInst& inst : lm.funcs[defined].code) {
            if (inst.isWasmOp())
                continue;
            switch (inst.lop()) {
              case wasm::LOp::call_host:
              case wasm::LOp::calli:
                return false;
              case wasm::LOp::callf:
                if (lm.module.isImportedFunc(inst.a))
                    return false;
                work.push_back(inst.a);
                break;
              default:
                break;
            }
        }
    }
    return true;
}

} // namespace

EngineConfig
resolveEngineConfig(EngineConfig config)
{
    config.tierThreshold = uint32_t(
        envInt("LNB_TIER_THRESHOLD", config.tierThreshold, 1, 1u << 30));
    config.tierCompileThreads = uint32_t(envInt(
        "LNB_TIER_COMPILE_THREADS", config.tierCompileThreads, 1, 256));
    // Flag convention: any value but "" or "0" turns the pass off.
    if (envFlag("LNB_OPT_DISABLED"))
        config.optimizeLoweredIR = false;
    // Tri-state opt kill-switches: unset keeps the config value, 0/1
    // forces; anything else warns (strict parsing) and keeps the config.
    config.optVersioning =
        envInt("LNB_OPT_VERSIONING", config.optVersioning ? 1 : 0, 0, 1) !=
        0;
    config.countRetiredChecks =
        envInt("LNB_COUNT_CHECKS", config.countRetiredChecks ? 1 : 0, 0,
               1) != 0;
    config.sharedMemory =
        envInt("LNB_SHARED_MEM", config.sharedMemory ? 1 : 0, 0, 1) != 0;
    config.epochChecks =
        envInt("LNB_EPOCH_CHECKS", config.epochChecks ? 1 : 0, 0, 1) != 0;
    if (config.tiered &&
        (envFlag("LNB_TIER_DISABLED") || !jit::jitSupported())) {
        // Kill switch: the module stays in the base tier, not whatever
        // fixed kind the config happened to carry.
        config.tiered = false;
        config.kind = EngineKind::interp_threaded;
    }
    return config;
}

CompiledModule::CompiledModule() = default;

CompiledModule::~CompiledModule()
{
    // The controller's workers publish into funcCode_ and read lowered_;
    // join them before any member is torn down.
    tierController_.reset();
}

Engine::Engine(const EngineConfig& config) : config_(config) {}

Result<std::shared_ptr<const CompiledModule>>
Engine::compile(wasm::Module module) const
{
    LNB_TRACE_SCOPE("rt.compile");
    static const obs::Counter c_compiled =
        obs::registerCounter("rt.modules_compiled");
    c_compiled.add();
    auto cm = std::make_shared<CompiledModule>();
    cm->config_ = config_;

    // Resolve the effective configuration (env knobs win) and record it
    // in the published config so caches, instances and reports all see
    // what actually ran.
    EngineConfig& config = cm->config_;
    config = resolveEngineConfig(config);
    const bool tiered = config.tiered;

    {
        ScopedTimer timer(cm->stats_.validateSeconds);
        LNB_RETURN_IF_ERROR(wasm::validateModule(module));
    }
    {
        ScopedTimer timer(cm->stats_.lowerSeconds);
        LNB_ASSIGN_OR_RETURN(cm->lowered_,
                             wasm::lowerModule(std::move(module)));
    }

    // A module that declares a shared memory (limits flag 0x03) is
    // compiled shared regardless of the config/env resolution above.
    for (const wasm::Limits& mem_limits : cm->lowered_.module.memories) {
        if (mem_limits.shared)
            config.sharedMemory = true;
    }
    // Loop versioning on a shared memory is only kept for grow-free
    // modules: the versioned fast path elides checks against a size
    // guard, and while growth is monotone, the conservative contract
    // (ISSUE: versioner rejects shared-memory loops unless grow-free)
    // keeps concurrent-grow reasoning out of the versioner entirely.
    bool grow_free = true;
    if (config.sharedMemory) {
        for (const wasm::LoweredFunc& f : cm->lowered_.funcs) {
            for (const wasm::LInst& inst : f.code) {
                if (inst.isWasmOp() &&
                    inst.wasmOp() == wasm::Op::memory_grow) {
                    grow_free = false;
                }
            }
        }
    }

    if (config.optimizeLoweredIR) {
        // Strategy-aware transform selection: interpreters get
        // superinstruction fusion; the optimizing JIT under the trap
        // strategy gets check analysis + versioning (guard-page and clamp
        // codegen has nothing to elide — clamp must still redirect).
        // Tiered modules share one IR between both tiers, so they skip
        // fusion (the JIT has no fused-op patterns) but keep the check
        // analysis their jit_opt top tier consumes; the interpreter
        // runs the versioned loops' guards and clones like any code.
        wasm::OptOptions opt;
        opt.fuse = !tiered && !engineIsJit(config.kind);
        bool top_is_opt_jit =
            tiered || config.kind == EngineKind::jit_opt;
        opt.analyzeChecks = top_is_opt_jit &&
                            config.strategy == mem::BoundsStrategy::trap;
        opt.versionLoops =
            opt.analyzeChecks && config.optVersioning && grow_free;
        if (opt.fuse || opt.analyzeChecks) {
            LNB_TRACE_SCOPE("rt.opt");
            ScopedTimer timer(cm->stats_.optSeconds);
            cm->optStats_ = wasm::optimizeLoweredModule(cm->lowered_, opt);
        }
    }

    // The per-function code table: one slot per function in the
    // module-wide index space. Allocated before codegen so the JIT can
    // bake slot addresses into table-indirect call sequences.
    const wasm::Module& m = cm->lowered_.module;
    cm->numFuncs_ = m.numImportedFuncs() +
                    uint32_t(cm->lowered_.funcs.size());
    cm->funcCode_.reset(new exec::FuncCode[cm->numFuncs_]);
    for (uint32_t i = 0; i < m.numImportedFuncs(); i++) {
        cm->funcCode_[i].entry.store(&exec::lnbJitHostCall,
                                     std::memory_order_relaxed);
        cm->funcCode_[i].tier.store(uint8_t(exec::Tier::host),
                                    std::memory_order_relaxed);
    }

    if (!tiered && engineIsJit(config.kind)) {
        if (!jit::jitSupported())
            return errUnsupported("this CPU lacks the JIT's ISA baseline");
        jit::JitOptions options;
        options.strategy = config.strategy;
        options.optimize = config.kind == EngineKind::jit_opt;
        options.stackChecks = config.stackChecks;
        options.countChecks = config.countRetiredChecks;
        options.sharedMemory = config.sharedMemory;
        options.epochChecks = config.epochChecks;
        if (!config.directJitCalls)
            options.codeTable = cm->funcCode_.get();
        ScopedTimer timer(cm->stats_.codegenSeconds);
        LNB_ASSIGN_OR_RETURN(cm->jitCode_,
                             jit::compileModule(cm->lowered_, options));
        cm->stats_.codeBytes = cm->jitCode_->codeBytes();
        for (uint32_t i = m.numImportedFuncs(); i < cm->numFuncs_; i++) {
            cm->funcCode_[i].entry.store(cm->jitCode_->entry(i),
                                         std::memory_order_relaxed);
            cm->funcCode_[i].tier.store(uint8_t(exec::Tier::jit),
                                        std::memory_order_relaxed);
        }
    } else {
        // Interpreter base tier: fixed interp kinds use their dispatch
        // technique unprofiled; tiered modules start every function in
        // the profiled threaded interpreter.
        exec::DispatchKind dispatch =
            !tiered && config.kind == EngineKind::interp_switch
                ? exec::DispatchKind::switch_loop
                : exec::DispatchKind::threaded;
        exec::EntryFn entry = exec::interpFuncEntry(
            dispatch, exec::checkModeFor(config.strategy), tiered);
        for (uint32_t i = m.numImportedFuncs(); i < cm->numFuncs_; i++)
            cm->funcCode_[i].entry.store(entry,
                                         std::memory_order_relaxed);
        if (tiered) {
            jit::JitOptions options;
            options.strategy = config.strategy;
            options.optimize = true;
            options.stackChecks = config.stackChecks;
            options.countChecks = config.countRetiredChecks;
            options.sharedMemory = config.sharedMemory;
            options.epochChecks = config.epochChecks;
            options.codeTable = cm->funcCode_.get();
            cm->tierController_ = std::make_unique<TierController>(
                &cm->lowered_, cm->funcCode_.get(), options,
                config.tierCompileThreads);
        }
    }
    cm->startIsPure_ = computeStartIsPure(cm->lowered_);
    return std::shared_ptr<const CompiledModule>(std::move(cm));
}

Result<std::shared_ptr<const CompiledModule>>
Engine::compileBytes(const std::vector<uint8_t>& bytes) const
{
    double decode_seconds = 0;
    wasm::Module module;
    {
        ScopedTimer timer(decode_seconds);
        LNB_ASSIGN_OR_RETURN(module, wasm::decodeModule(bytes));
    }
    LNB_ASSIGN_OR_RETURN(auto cm, compile(std::move(module)));
    // CompiledModule is immutable through the shared_ptr; record the decode
    // time before publishing.
    const_cast<CompiledModule*>(cm.get())->stats_.decodeSeconds =
        decode_seconds;
    return cm;
}

// ---------------------------------------------------------------------
// Persistent-cache serialization (DESIGN.md §14)
// ---------------------------------------------------------------------

namespace {

void
writeConfig(const EngineConfig& c, wasm::ByteWriter& w)
{
    w.u8(uint8_t(c.kind));
    w.u8(uint8_t(c.strategy));
    w.boolean(c.forceUffdEmulation);
    w.boolean(c.stackChecks);
    w.u32(c.valueStackCells);
    w.u32(c.maxCallDepth);
    w.boolean(c.optimizeLoweredIR);
    w.boolean(c.optVersioning);
    w.boolean(c.countRetiredChecks);
    w.boolean(c.tiered);
    w.u32(c.tierThreshold);
    w.u32(c.tierCompileThreads);
    w.boolean(c.directJitCalls);
    w.boolean(c.sharedMemory);
    w.boolean(c.epochChecks);
}

EngineConfig
readConfig(wasm::ByteReader& r)
{
    EngineConfig c;
    c.kind = EngineKind(r.u8());
    c.strategy = mem::BoundsStrategy(r.u8());
    c.forceUffdEmulation = r.boolean();
    c.stackChecks = r.boolean();
    c.valueStackCells = r.u32();
    c.maxCallDepth = r.u32();
    c.optimizeLoweredIR = r.boolean();
    c.optVersioning = r.boolean();
    c.countRetiredChecks = r.boolean();
    c.tiered = r.boolean();
    c.tierThreshold = r.u32();
    c.tierCompileThreads = r.u32();
    c.directJitCalls = r.boolean();
    c.sharedMemory = r.boolean();
    c.epochChecks = r.boolean();
    return c;
}

} // namespace

std::vector<uint8_t>
serializeCompiledModule(const CompiledModule& cm)
{
    wasm::ByteWriter w;
    writeConfig(cm.config(), w);
    w.pod(cm.stats());
    w.pod(cm.optStats());
    // Derived at compile time from the start function's lowered body;
    // persisted so a reload needn't re-analyze (or even retain) it.
    w.boolean(cm.startIsPure());
    // Tiered modules carry no AOT blob: their code lives in per-function
    // tier-up artifacts owned by the TierController. A reloaded tiered
    // module starts fully interpreted and re-accumulates hotness.
    const bool has_jit = cm.jitCode() != nullptr;
    // When every entry point is AOT JIT code the lowered instruction
    // streams are dead at runtime (the interpreter never runs, and only
    // a tiered reload recompiles from them) — drop them and keep just
    // the frame metadata. Interp and tiered artifacts keep the full IR.
    const bool lean_ir = has_jit && !cm.config().tiered;
    wasm::serializeLoweredModule(cm.lowered(), w, !lean_ir);
    w.boolean(has_jit);
    if (has_jit)
        jit::serializeCode(*cm.jitCode(), w);
    return w.take();
}

Result<std::shared_ptr<const CompiledModule>>
deserializeCompiledModule(const uint8_t* data, size_t size)
{
    wasm::ByteReader r(data, size);
    auto cm = std::make_shared<CompiledModule>();
    cm->config_ = readConfig(r);
    cm->stats_ = r.pod<CompileStats>();
    cm->optStats_ = r.pod<wasm::OptStats>();
    cm->startIsPure_ = r.boolean();
    if (!r.ok() || !wasm::deserializeLoweredModule(r, cm->lowered_))
        return errInvalid("truncated serialized module payload");

    const EngineConfig& config = cm->config_;
    const bool tiered = config.tiered;
    const wasm::Module& m = cm->lowered_.module;
    cm->numFuncs_ = m.numImportedFuncs() +
                    uint32_t(cm->lowered_.funcs.size());
    cm->funcCode_.reset(new exec::FuncCode[cm->numFuncs_]);
    for (uint32_t i = 0; i < m.numImportedFuncs(); i++) {
        cm->funcCode_[i].entry.store(&exec::lnbJitHostCall,
                                     std::memory_order_relaxed);
        cm->funcCode_[i].tier.store(uint8_t(exec::Tier::host),
                                    std::memory_order_relaxed);
    }

    bool has_jit = r.boolean();
    if (has_jit) {
        // Same machine, same build — but a cache dir shared across
        // heterogeneous hosts could reach a CPU without the JIT's ISA
        // baseline; fail so the caller recompiles (to an interp config
        // or a clean error).
        if (!jit::jitSupported())
            return errUnsupported("this CPU lacks the JIT's ISA baseline");
        exec::FuncCode* table =
            config.directJitCalls ? nullptr : cm->funcCode_.get();
        LNB_ASSIGN_OR_RETURN(cm->jitCode_, jit::deserializeCode(r, table));
        cm->stats_.codeBytes = cm->jitCode_->codeBytes();
        for (uint32_t i = m.numImportedFuncs(); i < cm->numFuncs_; i++) {
            cm->funcCode_[i].entry.store(cm->jitCode_->entry(i),
                                         std::memory_order_relaxed);
            cm->funcCode_[i].tier.store(uint8_t(exec::Tier::jit),
                                        std::memory_order_relaxed);
        }
    } else {
        exec::DispatchKind dispatch =
            !tiered && config.kind == EngineKind::interp_switch
                ? exec::DispatchKind::switch_loop
                : exec::DispatchKind::threaded;
        exec::EntryFn entry = exec::interpFuncEntry(
            dispatch, exec::checkModeFor(config.strategy), tiered);
        for (uint32_t i = m.numImportedFuncs(); i < cm->numFuncs_; i++)
            cm->funcCode_[i].entry.store(entry,
                                         std::memory_order_relaxed);
        if (tiered) {
            jit::JitOptions options;
            options.strategy = config.strategy;
            options.optimize = true;
            options.stackChecks = config.stackChecks;
            options.countChecks = config.countRetiredChecks;
            options.sharedMemory = config.sharedMemory;
            options.epochChecks = config.epochChecks;
            options.codeTable = cm->funcCode_.get();
            cm->tierController_ = std::make_unique<TierController>(
                &cm->lowered_, cm->funcCode_.get(), options,
                config.tierCompileThreads);
        }
    }
    if (!r.ok())
        return errInvalid("truncated serialized module payload");
    return std::shared_ptr<const CompiledModule>(std::move(cm));
}

} // namespace lnb::rt
