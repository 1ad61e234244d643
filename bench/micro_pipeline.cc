/**
 * @file
 * Compilation-pipeline microbenchmarks (google-benchmark): decode,
 * validate, lower and JIT-compile throughput on a representative module
 * (gemm). The paper's runtimes trade compile speed for run speed
 * (§2.2 interpreters vs JIT vs AOT); these numbers quantify our tiers.
 */
#include <benchmark/benchmark.h>

#include "jit/compiler.h"
#include "kernels/kernel.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "wasm/builder.h"
#include "wasm/decoder.h"
#include "wasm/encoder.h"
#include "wasm/lower.h"
#include "wasm/opt.h"
#include "wasm/validator.h"

namespace {

using namespace lnb;

const std::vector<uint8_t>&
gemmBytes()
{
    static const std::vector<uint8_t> bytes = [] {
        const kernels::Kernel* kernel = kernels::findKernel("gemm");
        return wasm::encodeModule(kernel->buildModule(1));
    }();
    return bytes;
}

void
BM_Decode(benchmark::State& state)
{
    for (auto _ : state) {
        auto module = wasm::decodeModule(gemmBytes());
        benchmark::DoNotOptimize(module.isOk());
    }
    state.SetBytesProcessed(int64_t(state.iterations()) *
                            int64_t(gemmBytes().size()));
}
BENCHMARK(BM_Decode);

void
BM_Validate(benchmark::State& state)
{
    auto module = wasm::decodeModule(gemmBytes()).takeValue();
    for (auto _ : state) {
        Status status = wasm::validateModule(module);
        benchmark::DoNotOptimize(status.isOk());
    }
}
BENCHMARK(BM_Validate);

void
BM_Lower(benchmark::State& state)
{
    auto module = wasm::decodeModule(gemmBytes()).takeValue();
    for (auto _ : state) {
        wasm::Module copy = module;
        auto lowered = wasm::lowerModule(std::move(copy));
        benchmark::DoNotOptimize(lowered.isOk());
    }
}
BENCHMARK(BM_Lower);

/**
 * The lowered-IR optimization pass (wasm/opt.*), in the two configurations
 * the engine uses: superinstruction fusion (interpreter tiers) and bounds-
 * check analysis (jit-opt under the trap strategy). Counters report what
 * the pass found in the kernel, so per-kernel fusion/elision coverage is
 * visible alongside the stage's throughput.
 */
void
BM_OptPass(benchmark::State& state)
{
    auto module = wasm::decodeModule(gemmBytes()).takeValue();
    auto lowered = wasm::lowerModule(std::move(module)).takeValue();
    wasm::OptOptions options;
    options.fuse = state.range(0) == 0;
    options.analyzeChecks = !options.fuse;
    wasm::OptStats stats;
    for (auto _ : state) {
        wasm::LoweredModule copy = lowered;
        stats = wasm::optimizeLoweredModule(copy, options);
        benchmark::DoNotOptimize(copy.funcs.data());
    }
    state.SetLabel(options.fuse ? "fuse" : "check-analysis");
    state.counters["insts_fused"] = double(stats.instsFused);
    state.counters["checks_elided"] = double(stats.checksElided);
}
BENCHMARK(BM_OptPass)->Arg(0)->Arg(1);

void
BM_JitCompile(benchmark::State& state)
{
    auto module = wasm::decodeModule(gemmBytes()).takeValue();
    auto lowered = wasm::lowerModule(std::move(module)).takeValue();
    jit::JitOptions options;
    options.optimize = state.range(0) != 0;
    size_t code_bytes = 0;
    for (auto _ : state) {
        auto code = jit::compileModule(lowered, options);
        if (code.isOk())
            code_bytes = code.value()->codeBytes();
        benchmark::DoNotOptimize(code.isOk());
    }
    state.SetLabel(options.optimize ? "jit-opt" : "jit-base");
    state.counters["code_bytes"] = double(code_bytes);
}
BENCHMARK(BM_JitCompile)->Arg(0)->Arg(1);

/**
 * Cost of the per-function code table (the tiered-execution calling
 * convention) on a call-saturated workload: run(n) makes 2n calls — one
 * direct, one indirect through the funcref table — to a trivial callee,
 * so nearly all time is call dispatch. Arg(0) is the pre-table
 * monolithic JIT (direct rel32 calls, TableEntry::code); Arg(1) calls
 * through FuncCode slots with the function index in edx. The delta is
 * what every fixed-tier JIT configuration pays for making mid-run
 * tier-up possible.
 */
void
BM_TierDispatch(benchmark::State& state)
{
    wasm::ModuleBuilder mb;
    mb.addTable(1);
    uint32_t unary = mb.addType({wasm::ValType::i32}, {wasm::ValType::i32});
    auto& add1 = mb.addFunction(unary);
    add1.localGet(0);
    add1.i32Const(1);
    add1.emit(wasm::Op::i32_add);
    uint32_t add1_idx = add1.finish();
    mb.addElem(0, {add1_idx});

    auto& run = mb.addFunction(
        mb.addType({wasm::ValType::i32}, {wasm::ValType::i32}));
    uint32_t i = run.addLocal(wasm::ValType::i32);
    uint32_t s = run.addLocal(wasm::ValType::i32);
    auto exit = run.block();
    run.localGet(0);
    run.emit(wasm::Op::i32_eqz);
    run.brIf(exit);
    auto head = run.loop();
    run.localGet(s);
    run.call(add1_idx);
    run.i32Const(0);
    run.callIndirect(unary);
    run.localSet(s);
    run.localGet(i);
    run.i32Const(1);
    run.emit(wasm::Op::i32_add);
    run.localSet(i);
    run.localGet(i);
    run.localGet(0);
    run.emit(wasm::Op::i32_lt_u);
    run.brIf(head);
    run.end();
    run.end();
    run.localGet(s);
    mb.exportFunc("run", run.finish());

    rt::EngineConfig config;
    config.kind = rt::EngineKind::jit_base;
    config.strategy = mem::BoundsStrategy::none;
    config.directJitCalls = state.range(0) == 0;
    auto compiled = rt::Engine(config).compile(mb.build());
    if (!compiled.isOk()) {
        state.SkipWithError(compiled.status().toString().c_str());
        return;
    }
    auto instance = rt::Instance::create(compiled.takeValue());
    if (!instance.isOk()) {
        state.SkipWithError(instance.status().toString().c_str());
        return;
    }

    constexpr int32_t kLoops = 65536;
    std::vector<wasm::Value> args = {wasm::Value::fromI32(kLoops)};
    for (auto _ : state) {
        rt::CallOutcome out = instance.value()->callExport("run", args);
        if (!out.ok()) {
            state.SkipWithError("run trapped");
            return;
        }
        benchmark::DoNotOptimize(out.results[0].i32);
    }
    state.SetItemsProcessed(int64_t(state.iterations()) * kLoops * 2);
    state.SetLabel(config.directJitCalls ? "direct-call" : "code-table");
}
BENCHMARK(BM_TierDispatch)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();
