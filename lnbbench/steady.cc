/**
 * @file
 * Pipeline phase (compile_us, load_us and the wasm/jit stage split) and
 * steady phase (slowdown.* from interleaved rounds of warm cells).
 */
#include <algorithm>
#include <cstring>
#include <cmath>
#include <filesystem>
#include <limits>

#include "bench.h"
#include "jit/compiler.h"
#include "svc/module_cache.h"
#include "wasm/decoder.h"
#include "wasm/lower.h"
#include "wasm/opt.h"
#include "wasm/validator.h"

namespace lnbbench {

namespace {

/**
 * none, mprotect and uffd run identical jit_opt code (DESIGN.md §3), so
 * their slowdowns must agree within this share; kernels that do not are
 * listed, never dropped. It is tighter than the 25 % bound of slowdown.*
 * in BENCHMARK.json, which covers drift between runs: these three cells
 * share every round of one run.
 */
constexpr double kIdenticalCodeBound = 0.10;

template <typename T>
void
shuffle(std::vector<T>& v, Rng& rng)
{
    for (size_t i = v.size(); i > 1; i--)
        std::swap(v[i - 1], v[rng.nextBelow(i)]);
}

/**
 * The jit_opt × trap pipeline driven stage by stage through the public
 * layer functions, one span per stage, mirroring Engine::compile. Returns
 * false on any stage error.
 */
bool
tracedCompile(Run& run, const KernelInput& in, uint64_t req,
              wasm::OptStats& stats)
{
    Tracer& tr = run.tracer;
    SpanScope root(tr, "pipeline.compile", req);
    wasm::Module module;
    {
        SpanScope s(tr, "wasm.decode", req);
        auto decoded = wasm::decodeModule(in.bytes);
        if (!decoded.isOk())
            return false;
        module = decoded.takeValue();
    }
    {
        SpanScope s(tr, "wasm.validate", req);
        if (!wasm::validateModule(module).isOk())
            return false;
    }
    wasm::LoweredModule lowered;
    {
        SpanScope s(tr, "wasm.lower", req);
        auto low = wasm::lowerModule(std::move(module));
        if (!low.isOk())
            return false;
        lowered = low.takeValue();
    }
    {
        wasm::OptOptions opt;
        opt.analyzeChecks = true;
        opt.hoistChecks = true;
        opt.versionLoops = true;
        opt.ipoSummaries = true;
        SpanScope s(tr, "wasm.opt", req);
        stats = wasm::optimizeLoweredModule(lowered, opt);
    }
    size_t num_funcs =
        lowered.module.numImportedFuncs() + lowered.funcs.size();
    std::unique_ptr<exec::FuncCode[]> table(new exec::FuncCode[num_funcs]);
    jit::JitOptions options;
    options.strategy = mem::BoundsStrategy::trap;
    options.optimize = true;
    options.codeTable = table.get();
    SpanScope s(tr, "jit.codegen", req);
    return jit::compileModule(lowered, options).isOk();
}

/**
 * Steady ratios take the lower quartile of the per-round ratios, not the
 * median: on a shared host a core can run JIT code 1.5-2x slower (native
 * code ~1.1x) for seconds at a time, so the ratio itself depends on the
 * host, and the median flips with the share of slow rounds in a run.
 */
constexpr double kRatioQuantile = 0.25;

/** Geomean over kernels of each kernel's median; kernels without samples
 * are skipped. */
double
geomeanOfMedians(const std::vector<std::vector<double>>& per_kernel,
                 size_t& samples)
{
    std::vector<double> medians;
    samples = 0;
    for (const auto& v : per_kernel) {
        if (v.empty())
            continue;
        medians.push_back(median(v));
        samples += v.size();
    }
    return geomean(medians);
}

} // namespace

PipelinePhase::PipelinePhase(Run& run, const std::vector<KernelInput>& inputs)
    : run_(run), inputs_(inputs), dir_(run.workDir + "/codecache"),
      rng_(run.seed * 0x9e3779b97f4a7c15ull + 1)
{
    const size_t n = inputs.size();
    payloads_.resize(n);
    usable_.assign(n, false);
    verified_.assign(n, false);
    optSeen_.assign(n, false);
    compileUs_.resize(n);
    tracedCompileUs_.resize(n);
    loadUs_.resize(n);
    optStats_.resize(n);
    // Pre-populate the persist dir (write-through on compile) and keep a
    // serialized payload for the deserialize stage of the traced run.
    std::filesystem::create_directories(dir_);
    svc::ModuleCache writer(2 * n + 1, dir_.c_str());
    for (size_t i = 0; i < n; i++) {
        run_.attempt();
        auto cm = writer.getOrCompile(inputs[i].bytes, config());
        if (!cm.isOk()) {
            run_.fail("compile");
            continue;
        }
        usable_[i] = true;
        if (run_.trace)
            payloads_[i] = rt::serializeCompiledModule(*cm.value());
    }
}

rt::EngineConfig
PipelinePhase::config()
{
    return engineConfig(rt::EngineKind::jit_opt, mem::BoundsStrategy::trap);
}

void
PipelinePhase::runFor(double seconds)
{
    const uint64_t deadline = nowNs() + uint64_t(seconds * 1e9);
    std::vector<size_t> order(inputs_.size());
    for (size_t i = 0; i < order.size(); i++)
        order[i] = i;
    do {
        // Traced runs alternate traced and untraced rounds so the span
        // cost shows as the difference between the two.
        const bool traced = run_.trace && rounds_ % 2 == 0;
        rounds_++;
        shuffle(order, rng_);
        for (size_t i : order) {
            if (usable_[i])
                runKernel(i, traced);
        }
    } while (nowNs() < deadline);
}

void
PipelinePhase::runKernel(size_t i, bool traced)
{
    const KernelInput& in = inputs_[i];
    {
        run_.attempt();
        rt::Engine engine(config());
        uint64_t t0 = nowNs();
        bool ok;
        {
            SpanScope s(run_.tracer, "rt.compileBytes", i, traced);
            ok = engine.compileBytes(in.bytes).isOk();
        }
        double us = double(nowNs() - t0) * 1e-3;
        if (!ok)
            run_.fail("compile");
        else
            (traced ? tracedCompileUs_ : compileUs_)[i].push_back(us);
    }
    {
        run_.attempt();
        svc::ModuleCache cache(4, dir_.c_str());
        uint64_t t0 = nowNs();
        auto cm = cache.getOrCompile(in.bytes, config());
        double us = double(nowNs() - t0) * 1e-3;
        svc::ModuleCacheStats st = cache.stats();
        // A load is a persist hit: no compile, nothing rejected.
        if (!cm.isOk() || st.persistHits != 1 || st.persistMisses != 0 ||
            st.persistRejects != 0) {
            run_.fail("load");
            return;
        }
        if (!traced)
            loadUs_[i].push_back(us);
        if (!verified_[i]) {
            // The loaded artifact must run and agree, once per kernel.
            verified_[i] = true;
            run_.attempt();
            auto inst = rt::Instance::create(cm.value());
            if (!inst.isOk()) {
                run_.fail("instantiate");
            } else {
                rt::CallOutcome out = inst.value()->callExport("run", {});
                if (!out.ok())
                    run_.fail("trap");
                else
                    run_.check(out.results[0].f64, in.checksum,
                               in.kernel->name + "/load");
            }
        }
    }
    if (!traced)
        return;
    wasm::OptStats st;
    run_.attempt();
    if (!tracedCompile(run_, in, i, st)) {
        run_.fail("compile");
    } else if (!optSeen_[i]) {
        optSeen_[i] = true;
        optStats_[i] = st;
    }
    run_.attempt();
    SpanScope s(run_.tracer, "runtime.deserialize", i);
    if (!rt::deserializeCompiledModule(payloads_[i].data(),
                                       payloads_[i].size())
             .isOk())
        run_.fail("load");
}

void
PipelinePhase::finish()
{
    const size_t n = inputs_.size();
    size_t samples = 0;
    double compile = geomeanOfMedians(compileUs_, samples);
    run_.metric(true, "compile_us", compile, "us", samples);
    double load = geomeanOfMedians(loadUs_, samples);
    run_.metric(true, "load_us", load, "us", samples);
    if (!run_.trace)
        return;

    // Per-stage self time, the same statistic as compile_us.
    static const char* const kStages[][2] = {
        {"wasm.decode", "wasm.decode_us"},
        {"wasm.validate", "wasm.validate_us"},
        {"wasm.lower", "wasm.lower_us"},
        {"wasm.opt", "wasm.opt_us"},
        {"jit.codegen", "jit.codegen_us"},
        {"runtime.deserialize", "runtime.deserialize_us"},
        {"pipeline.compile", "pipeline.unattributed_us"},
    };
    std::vector<uint64_t> self = run_.tracer.selfTimes();
    const auto& spans = run_.tracer.spans();
    for (const auto& stage : kStages) {
        std::vector<std::vector<double>> per_kernel(n);
        for (size_t s = 0; s < spans.size(); s++) {
            if (std::strcmp(spans[s].name, stage[0]) == 0)
                per_kernel[spans[s].request].push_back(double(self[s]) *
                                                       1e-3);
        }
        double v = geomeanOfMedians(per_kernel, samples);
        run_.metric(false, stage[1], v, "us", samples);
    }
    wasm::OptStats total;
    for (const wasm::OptStats& st : optStats_) {
        total.loopsVersioned += st.loopsVersioned;
        total.checksHoisted += st.checksHoisted;
        total.checksElided += st.checksElided;
    }
    run_.metric(false, "wasm.opt.loops_versioned",
                double(total.loopsVersioned), "count", n);
    run_.metric(false, "wasm.opt.checks_hoisted",
                double(total.checksHoisted), "count", n);
    run_.metric(false, "wasm.opt.checks_elided", double(total.checksElided),
                "count", n);

    double traced = geomeanOfMedians(tracedCompileUs_, samples);
    run_.metric(false, "trace.overhead_pct.compile_us",
                compile > 0 ? (traced / compile - 1) * 100 : 0, "%",
                samples);
    run_.note(fmt("trace overhead: compile_us %.2f traced vs %.2f untraced",
                  traced, compile));
}

SteadyPhase::SteadyPhase(Run& run, std::vector<SteadyCell>& cells)
    : run_(run), cells_(cells), rng_(run.seed * 0xbf58476d1ce4e5b9ull + 2)
{
    // One block per kernel: its native cell and its config cells. A round
    // visits the blocks in a seeded order and each block's cells in a
    // seeded order (ABAB interleaving, paper §3.5), so a kernel's cells
    // run close together in time and their per-round ratios pair up.
    std::map<const KernelInput*, std::vector<size_t>> block_of;
    for (size_t i = 0; i < cells.size(); i++)
        block_of[cells[i].input].push_back(i);
    for (auto& [in, idx] : block_of)
        blocks_.push_back(idx);
}

void
SteadyPhase::runFor(double seconds)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const uint64_t deadline = nowNs() + uint64_t(seconds * 1e9);
    do {
        const bool traced = run_.trace && rounds_ % 2 == 0;
        rounds_++;
        shuffle(blocks_, rng_);
        for (std::vector<size_t>& block : blocks_) {
            shuffle(block, rng_);
            for (size_t idx : block) {
                SteadyCell& cell = cells_[idx];
                const KernelInput& in = *cell.input;
                std::vector<double>& out_s =
                    traced ? cell.tracedSeconds : cell.seconds;
                run_.attempt();
                double got;
                uint64_t t0 = nowNs(), t1;
                if (cell.config < 0) {
                    SpanScope s(run_.tracer, "native.run", idx, traced);
                    got = in.kernel->native(in.scale);
                    t1 = nowNs();
                } else {
                    rt::CallOutcome out;
                    {
                        SpanScope s(run_.tracer, "runtime.callExport", idx,
                                    traced);
                        out = cell.instance->callExport("run", {});
                    }
                    t1 = nowNs();
                    if (!out.ok()) {
                        run_.fail("trap");
                        out_s.push_back(nan);
                        continue;
                    }
                    got = out.results[0].f64;
                }
                const char* cfg = cell.config < 0
                                      ? "native"
                                      : steadyConfigs()[cell.config].name;
                bool ok =
                    run_.check(got, in.checksum, in.kernel->name + "/" + cfg);
                out_s.push_back(ok ? double(t1 - t0) * 1e-9 : nan);
            }
        }
    } while (nowNs() < deadline);
}

void
SteadyPhase::finish()
{
    const size_t ncfg = steadyConfigs().size();
    // Per kernel and config: the lower quartile over rounds of the
    // same-round ratio to native; the suite metric is the geomean.
    auto pairedRatio = [](const std::vector<double>& cell,
                          const std::vector<double>& native) {
        std::vector<double> r;
        for (size_t i = 0; i < cell.size() && i < native.size(); i++) {
            if (std::isfinite(cell[i]) && std::isfinite(native[i]))
                r.push_back(cell[i] / native[i]);
        }
        return r;
    };
    std::map<const KernelInput*, std::vector<const SteadyCell*>> by_kernel;
    for (const SteadyCell& cell : cells_) {
        auto& row = by_kernel[cell.input];
        row.resize(ncfg + 1, nullptr);
        row[size_t(cell.config + 1)] = &cell;
    }
    std::vector<std::vector<double>> ratios(ncfg), traced_ratio(ncfg);
    std::vector<double> native_ms;
    size_t samples = 0;
    std::vector<std::string> disagree;
    for (const auto& [in, row] : by_kernel) {
        if (row[0] == nullptr)
            continue;
        std::vector<double> native;
        for (double t : row[0]->seconds)
            if (std::isfinite(t))
                native.push_back(t);
        if (native.empty())
            continue;
        native_ms.push_back(median(native) * 1e3);
        std::vector<double> kr(ncfg, 0);
        for (size_t c = 0; c < ncfg; c++) {
            const SteadyCell* cell = row[c + 1];
            if (cell == nullptr)
                continue;
            std::vector<double> r = pairedRatio(cell->seconds, row[0]->seconds);
            if (r.empty())
                continue;
            kr[c] = quantile(r, kRatioQuantile);
            ratios[c].push_back(kr[c]);
            samples += r.size();
            std::vector<double> tr =
                pairedRatio(cell->tracedSeconds, row[0]->tracedSeconds);
            if (!tr.empty())
                traced_ratio[c].push_back(quantile(tr, kRatioQuantile));
        }
        // Identical-code check: none (0), mprotect (3), uffd (4).
        double lo = std::min({kr[0], kr[3], kr[4]});
        double hi = std::max({kr[0], kr[3], kr[4]});
        if (lo > 0 && hi / lo - 1 > kIdenticalCodeBound)
            disagree.push_back(fmt("%s %.1f%% (none %.3f mprotect %.3f "
                                   "uffd %.3f)",
                                   in->kernel->name.c_str(),
                                   (hi / lo - 1) * 100, kr[0], kr[3], kr[4]));
    }
    std::vector<double> suite(ncfg, 0);
    for (size_t c = 0; c < ncfg; c++) {
        suite[c] = geomean(ratios[c]);
        run_.metric(true, std::string("slowdown.") + steadyConfigs()[c].name,
                   suite[c], "x", ratios[c].size());
    }
    run_.note(fmt("steady: %d interleaved rounds over %zu cells, %zu timed "
                 "wasm iterations; native geomean %.4f ms",
                 rounds_, cells_.size(), samples, geomean(native_ms)));
    double lo = std::min({suite[0], suite[3], suite[4]});
    double hi = std::max({suite[0], suite[3], suite[4]});
    run_.note(fmt("identical-code check (none/mprotect/uffd, bound %.0f%%): "
                 "suite gap %.1f%% -> %s; %zu of %zu kernels disagree",
                 kIdenticalCodeBound * 100, (hi / lo - 1) * 100,
                 hi / lo - 1 <= kIdenticalCodeBound ? "AGREE" : "DISAGREE",
                 disagree.size(), by_kernel.size()));
    for (const std::string& d : disagree)
        run_.note("  disagrees: " + d);

    if (!run_.trace)
        return;
    run_.metric(false, "native.iter_ms", geomean(native_ms), "ms",
               native_ms.size());
    double traced_trap = geomean(traced_ratio[2]);
    run_.metric(false, "trace.overhead_pct.slowdown_trap",
               suite[2] > 0 ? (traced_trap / suite[2] - 1) * 100 : 0, "%",
               traced_ratio[2].size());

    // Layer properties of the modules the cells_ ran: code size per
    // strategy, fused superinstructions in the interpreter IR.
    std::map<std::string, double> code_kb;
    uint64_t fused = 0;
    for (const SteadyCell& cell : cells_) {
        if (cell.config < 0)
            continue;
        const char* name = steadyConfigs()[cell.config].name;
        code_kb[name] += double(cell.module->stats().codeBytes) / 1024.0;
        if (steadyConfigs()[cell.config].kind ==
            rt::EngineKind::interp_threaded)
            fused += cell.module->optStats().instsFused;
    }
    for (const char* name : {"clamp", "trap", "mprotect", "jit_base"})
        run_.metric(false, std::string("jit.code_kb.") + name, code_kb[name],
                   "KiB", by_kernel.size());
    run_.metric(false, "wasm.opt.insts_fused", double(fused), "count",
               by_kernel.size());

    // Retired software checks per iteration (countRetiredChecks builds,
    // never timed), summed over the suite.
    for (mem::BoundsStrategy s :
         {mem::BoundsStrategy::clamp, mem::BoundsStrategy::trap}) {
        rt::EngineConfig config = engineConfig(rt::EngineKind::jit_opt, s);
        config.countRetiredChecks = true;
        rt::Engine engine(config);
        double total = 0;
        for (const auto& [in, row] : by_kernel) {
            run_.attempt();
            auto cm = engine.compileBytes(in->bytes);
            if (!cm.isOk()) {
                run_.fail("compile");
                continue;
            }
            run_.attempt();
            auto inst = rt::Instance::create(cm.value());
            if (!inst.isOk()) {
                run_.fail("instantiate");
                continue;
            }
            run_.attempt();
            uint64_t before = inst.value()->checksRetired();
            rt::CallOutcome out = inst.value()->callExport("run", {});
            if (!out.ok()) {
                run_.fail("trap");
                continue;
            }
            run_.check(out.results[0].f64, in->checksum,
                      in->kernel->name + "/count-checks");
            total += double(inst.value()->checksRetired() - before);
        }
        run_.metric(false,
                   std::string("exec.checks_retired.") +
                       mem::boundsStrategyName(s),
                   total, "count", by_kernel.size());
    }
}

} // namespace lnbbench
