/**
 * @file
 * Serving-path microbench for the svc subsystem: quantifies the two costs
 * the multi-tenant service is designed to remove from the request path.
 *
 *  1. Instance acquisition, cold vs warm, per bounds strategy. Cold =
 *     full Instance::create() (multi-GiB reservation + arena slot +
 *     value stack + segments); warm = pool reuse after
 *     Instance::recycle() (LinearMemory::restore, no mmap). The paper's
 *     per-task isolation scenario pays the cold cost once per request;
 *     the pool caps it at once per pooled instance. Expected: warm is
 *     >= 10x cheaper than cold under mprotect, where the reservation is
 *     an 8 GiB PROT_NONE mapping.
 *
 *  2. Module load through the content-addressed cache: first request
 *     compiles (miss), every subsequent identical (bytes, config) pair is
 *     an O(lookup) hash-map hit.
 *
 * Each lease runs the kernel before release, so warm acquires are
 * measured against genuinely dirtied memory — the recycle cost of
 * zapping touched pages is inside the loop, not hidden.
 *
 * JSON reports (LNB_JSON_DIR) use the standard lnb.bench_result.v1
 * schema; svc.* counters/histograms ride in the metrics snapshot.
 */
#include "bench/bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <future>

#include "obs/metrics.h"
#include "support/clock.h"
#include "svc/instance_pool.h"
#include "svc/module_cache.h"
#include "svc/service.h"
#include "wasm/builder.h"
#include "wasm/encoder.h"

using namespace lnb;
using namespace lnb::bench;

namespace {

struct AcquireCosts
{
    bool ok = false;
    double coldMeanSeconds = 0;
    double warmMeanSeconds = 0;
    std::vector<double> warmSeconds;
};

AcquireCosts
measureAcquire(const std::shared_ptr<const rt::CompiledModule>& module,
               int iterations)
{
    AcquireCosts out;

    // Cold: max_idle = 0 discards every release, so each acquire pays
    // the full instantiation.
    svc::InstancePool cold_pool(module, rt::ImportMap{}, 0);
    double cold_total = 0;
    for (int i = 0; i < iterations; i++) {
        uint64_t start = monotonicNanos();
        auto lease = cold_pool.acquire();
        cold_total += double(monotonicNanos() - start) * 1e-9;
        if (!lease.isOk())
            return out;
        auto instance = lease.takeValue();
        if (!instance->callExport("run", {}).ok())
            return out;
    }
    out.coldMeanSeconds = cold_total / iterations;

    // Warm: one parked instance, recycled on every release. Prime it,
    // then measure steady-state acquires against dirtied memory.
    svc::InstancePool warm_pool(module, rt::ImportMap{}, 1);
    {
        auto prime = warm_pool.acquire();
        if (!prime.isOk())
            return out;
        auto instance = prime.takeValue();
        if (!instance->callExport("run", {}).ok())
            return out;
    }
    double warm_total = 0;
    for (int i = 0; i < iterations; i++) {
        uint64_t start = monotonicNanos();
        auto lease = warm_pool.acquire();
        double seconds = double(monotonicNanos() - start) * 1e-9;
        if (!lease.isOk())
            return out;
        auto instance = lease.takeValue();
        if (!instance.warm())
            return out; // pool failed to recycle; warm numbers bogus
        warm_total += seconds;
        out.warmSeconds.push_back(seconds);
        if (!instance->callExport("run", {}).ok())
            return out;
    }
    out.warmMeanSeconds = warm_total / iterations;
    out.ok = true;
    return out;
}

/** run() spins for @p iterations with a store per round (the adversary's
 * worker-hogging payload and the victim's quick request, sized apart). */
wasm::Module
spinModule(int32_t iterations)
{
    wasm::ModuleBuilder mb;
    mb.addMemory(1, 1);
    auto& f = mb.addFunction(mb.addType({}, {wasm::ValType::i32}));
    uint32_t i = f.addLocal(wasm::ValType::i32);
    auto loop = f.loop();
    f.i32Const(0);
    f.localGet(i);
    f.memOp(wasm::Op::i32_store);
    f.localGet(i);
    f.i32Const(1);
    f.emit(wasm::Op::i32_add);
    f.localSet(i);
    f.localGet(i);
    f.i32Const(iterations);
    f.emit(wasm::Op::i32_lt_s);
    f.brIf(loop);
    f.end();
    f.localGet(i);
    mb.exportFunc("run", f.finish());
    return mb.build();
}

struct AblationRun
{
    bool ok = false;
    double victimP99Seconds = 0;
    uint64_t killed = 0;
};

/**
 * One adversarial-tenant run: 2 workers, an adversary submitting slow
 * spins interleaved 1:3 with a victim's quick spins. Returns the victim
 * p99 and the deadline-kill count. The victim tenant is exempt from the
 * deadline, so the comparison isolates queue/worker contention.
 */
AblationRun
runDeadlineAblation(uint64_t deadline_ms, int requests)
{
    AblationRun out;
    svc::SvcConfig config;
    config.workers = 2;
    config.queueDepth = size_t(requests) + 1;
    config.pinWorkers = false;
    config.deadlineMillis = deadline_ms;
    config.tenantDeadlineMillis["victim"] = 0;
    svc::ExecutionService service(config);

    rt::EngineConfig engine_config;
    engine_config.kind = EngineKind::jit_base;
    engine_config.strategy = BoundsStrategy::trap;
    auto adversary = service.loadModule(
        wasm::encodeModule(spinModule(40'000'000)), engine_config);
    auto victim = service.loadModule(
        wasm::encodeModule(spinModule(100'000)), engine_config);
    if (!adversary.isOk() || !victim.isOk())
        return out;

    std::vector<std::future<svc::Response>> futures;
    std::vector<bool> is_victim;
    for (int i = 0; i < requests; i++) {
        bool victim_req = i % 4 != 0;
        svc::Request request;
        request.tenant = victim_req ? "victim" : "adversary";
        request.module = victim_req ? victim.value() : adversary.value();
        auto submitted = service.submit(std::move(request));
        if (!submitted.isOk())
            return out;
        futures.push_back(submitted.takeValue());
        is_victim.push_back(victim_req);
    }
    std::vector<double> victim_latency;
    for (size_t i = 0; i < futures.size(); i++) {
        svc::Response response = futures[i].get();
        if (response.outcome.trap == wasm::TrapKind::deadline_exceeded)
            out.killed++;
        else if (!response.outcome.ok())
            return out;
        if (is_victim[i])
            victim_latency.push_back(
                double(response.queueNanos + response.execNanos) * 1e-9);
    }
    std::sort(victim_latency.begin(), victim_latency.end());
    out.victimP99Seconds =
        victim_latency[size_t(0.99 * double(victim_latency.size() - 1))];
    out.ok = true;
    return out;
}

} // namespace

int
main()
{
    harness::printBanner(
        "svc_load: cold vs warm acquisition, cached compiles",
        "serving extension of the paper's per-task isolation scenario "
        "(DESIGN.md §9)");

    int scale = std::max(harness::benchScale(), 2);
    int iterations = harness::quickMode() ? 20 : 100;
    const Kernel* kernel = kernels::findKernel("atax");
    if (kernel == nullptr) {
        std::fprintf(stderr, "kernel registry missing atax\n");
        return 1;
    }
    std::vector<uint8_t> bytes =
        wasm::encodeModule(kernel->buildModule(scale));

    // --- 1. cold vs warm instance acquisition, per strategy -----------
    Table table({"strategy", "cold us", "warm us", "speedup"});
    bool mprotect_demonstrated = false;
    int failures = 0;
    for (BoundsStrategy strategy : allStrategies()) {
        rt::EngineConfig config;
        config.kind = EngineKind::jit_base;
        config.strategy = strategy;
        auto compiled = rt::Engine(config).compileBytes(bytes);
        if (!compiled.isOk()) {
            std::fprintf(stderr, "[%s] compile failed: %s\n",
                         mem::boundsStrategyName(strategy),
                         compiled.status().toString().c_str());
            failures++;
            continue;
        }
        auto module = compiled.takeValue();
        AcquireCosts costs = measureAcquire(module, iterations);
        if (!costs.ok) {
            std::fprintf(stderr, "[%s] acquire bench failed\n",
                         mem::boundsStrategyName(strategy));
            failures++;
            continue;
        }
        double speedup = costs.warmMeanSeconds > 0
                             ? costs.coldMeanSeconds /
                                   costs.warmMeanSeconds
                             : 0;
        table.addRow({mem::boundsStrategyName(strategy),
                      cell("%.2f", costs.coldMeanSeconds * 1e6),
                      cell("%.2f", costs.warmMeanSeconds * 1e6),
                      cell("%.1fx", speedup)});
        if (strategy == BoundsStrategy::mprotect && speedup >= 10)
            mprotect_demonstrated = true;

        BenchSpec spec;
        spec.kernel = kernel;
        spec.engineConfig = config;
        spec.scale = scale;
        BenchResult result;
        result.ok = true;
        result.medianIterationSeconds = costs.warmMeanSeconds;
        result.threads.emplace_back();
        result.threads.back().iterationSeconds =
            std::move(costs.warmSeconds);
        harness::maybeWriteJsonReport(spec, result, nullptr);
    }
    std::printf("[instance acquisition, %d iterations/strategy]\n",
                iterations);
    std::fputs(table.toString().c_str(), stdout);
    table.maybeWriteCsv("svc_load_acquire");

    // --- 2. compile miss vs cache hit ---------------------------------
    svc::ModuleCache cache(8);
    rt::EngineConfig config;
    config.kind = EngineKind::jit_base;
    config.strategy = BoundsStrategy::mprotect;

    uint64_t start = monotonicNanos();
    bool was_hit = true;
    auto first = cache.getOrCompile(bytes, config, &was_hit);
    double miss_seconds = double(monotonicNanos() - start) * 1e-9;
    if (!first.isOk() || was_hit) {
        std::fprintf(stderr, "cache miss path failed\n");
        return 1;
    }
    int lookups = iterations * 10;
    start = monotonicNanos();
    for (int i = 0; i < lookups; i++) {
        auto hit = cache.getOrCompile(bytes, config, &was_hit);
        if (!hit.isOk() || !was_hit ||
            hit.value().get() != first.value().get()) {
            std::fprintf(stderr, "cache hit path failed\n");
            return 1;
        }
    }
    double hit_seconds =
        double(monotonicNanos() - start) * 1e-9 / lookups;
    std::printf("\n[module cache] compile miss: %.1f us,"
                " hit: %.3f us (%.0fx), %llu hits / %llu misses\n",
                miss_seconds * 1e6, hit_seconds * 1e6,
                hit_seconds > 0 ? miss_seconds / hit_seconds : 0,
                (unsigned long long)cache.stats().hits,
                (unsigned long long)cache.stats().misses);

    // --- 3. tiered serving: time-to-peak-performance curve ------------
    // Reuses the harness driver so the JSON report carries the full
    // tier.* block and the per-iteration latency curve. A reused
    // instance accumulates the profile across iterations exactly like a
    // pooled serving instance between recycles.
    {
        Table tier_table({"engine", "strategy", "median us", "steady us",
                          "t-to-peak ms", "ups"});
        for (BoundsStrategy strategy :
             {BoundsStrategy::mprotect, BoundsStrategy::trap}) {
            for (int mode = 0; mode < 3; mode++) {
                BenchSpec spec;
                spec.kernel = kernel;
                spec.scale = scale;
                spec.iterations = harness::quickMode() ? 30 : 120;
                spec.warmupIterations = 0;
                spec.freshInstancePerIteration = false;
                spec.engineConfig.strategy = strategy;
                const char* label;
                if (mode == 0) {
                    spec.engineConfig.kind = EngineKind::interp_threaded;
                    label = "interp-threaded";
                } else if (mode == 1) {
                    spec.engineConfig.kind = EngineKind::jit_opt;
                    label = "jit-opt";
                } else {
                    spec.engineConfig.tiered = true;
                    spec.engineConfig.tierThreshold = 2048;
                    label = "tiered";
                }
                BenchResult result = harness::runBenchmark(spec);
                if (!result.ok) {
                    std::fprintf(stderr, "[%s/%s] bench failed: %s\n",
                                 label,
                                 mem::boundsStrategyName(strategy),
                                 result.error.c_str());
                    failures++;
                    continue;
                }
                harness::TierCurve curve = result.tier;
                if (!curve.tiered) {
                    // Fixed tiers get the same settle statistics for
                    // the comparison columns.
                    if (!result.threads.empty())
                        curve.curveSeconds =
                            result.threads[0].iterationSeconds;
                    harness::computeTimeToPeak(curve);
                }
                tier_table.addRow(
                    {label, mem::boundsStrategyName(strategy),
                     cell("%.2f", result.medianIterationSeconds * 1e6),
                     cell("%.2f", curve.steadySeconds * 1e6),
                     cell("%.3f", curve.timeToPeakSeconds * 1e3),
                     cell("%llu", (unsigned long long)curve.ups)});
            }
        }
        std::printf("\n[tiered time-to-peak, reused instance]\n");
        std::fputs(tier_table.toString().c_str(), stdout);
        tier_table.maybeWriteCsv("svc_load_tier");
    }

    // --- 4. adversarial tenant: deadlines restore the victim p99 ------
    // The unbounded-request hole in one table: without deadlines every
    // adversary spin holds a worker to completion and the victim queues
    // behind it; with a short deadline the reaper reclaims the worker
    // and the victim p99 collapses back to its own service time.
    {
        int requests = harness::quickMode() ? 32 : 96;
        AblationRun off = runDeadlineAblation(0, requests);
        AblationRun on = runDeadlineAblation(10, requests);
        if (!off.ok || !on.ok) {
            std::fprintf(stderr, "deadline ablation run failed\n");
            failures++;
        } else {
            Table dl_table({"deadline", "victim p99 ms", "killed"});
            dl_table.addRow({"off", cell("%.2f",
                                         off.victimP99Seconds * 1e3),
                             cell("%llu",
                                  (unsigned long long)off.killed)});
            dl_table.addRow({"10 ms", cell("%.2f",
                                           on.victimP99Seconds * 1e3),
                             cell("%llu",
                                  (unsigned long long)on.killed)});
            std::printf("\n[adversarial tenant, deadline ablation, "
                        "%d requests]\n",
                        requests);
            std::fputs(dl_table.toString().c_str(), stdout);
            dl_table.maybeWriteCsv("svc_load_deadline");
            if (on.killed == 0) {
                std::fprintf(stderr, "FAIL: deadline run killed "
                                     "nothing\n");
                failures++;
            }
        }
    }

    // --- 5. cold-start anatomy: compile vs disk-warm vs restore -------
    // The three ways a request can come to own runnable code+state,
    // slowest to fastest: a cold compile (full pipeline), a disk-warm
    // load (fresh process, persisted artifact under LNB_CODE_CACHE_DIR),
    // and a snapshot-restore acquire (pooled instance remapped onto the
    // post-start memory template). The restore column must be >= 10x
    // cheaper than cold Instance::create on a flat arena (trap), the
    // guard arena (mprotect) and the userfaultfd arena (uffd). The uffd
    // emulation never captures a template, so only real uffd must show
    // template restores.
    {
        char dir_template[] = "/tmp/lnb_svc_load_cache_XXXXXX";
        const char* cache_dir = mkdtemp(dir_template);
        if (cache_dir == nullptr) {
            std::fprintf(stderr, "mkdtemp failed for cache dir\n");
            failures++;
        }
        int load_samples = harness::quickMode() ? 5 : 20;
        Table cs_table({"strategy", "compile us", "disk load us",
                        "cold create us", "restore us", "restore speedup"});
        for (BoundsStrategy strategy :
             {BoundsStrategy::trap, BoundsStrategy::mprotect,
              BoundsStrategy::uffd}) {
            const char* name = mem::boundsStrategyName(strategy);
            rt::EngineConfig config;
            config.kind = EngineKind::jit_base;
            config.strategy = strategy;

            // Cold compile: nothing cached anywhere.
            uint64_t start = monotonicNanos();
            auto compiled = rt::Engine(config).compileBytes(bytes);
            double compile_us =
                double(monotonicNanos() - start) * 1e-3;
            if (!compiled.isOk()) {
                std::fprintf(stderr, "[%s] compile failed: %s\n", name,
                             compiled.status().toString().c_str());
                failures++;
                continue;
            }
            auto module = compiled.takeValue();

            // Disk-warm: each iteration stands in for a new process — a
            // fresh ModuleCache whose only help is the persisted file.
            double disk_us = 0;
            bool disk_ok = cache_dir != nullptr;
            if (disk_ok) {
                svc::ModuleCache seed(8, cache_dir);
                disk_ok = seed.getOrCompile(bytes, config).isOk();
            }
            if (disk_ok) {
                for (int i = 0; i < load_samples && disk_ok; i++) {
                    svc::ModuleCache fresh(8, cache_dir);
                    start = monotonicNanos();
                    auto ld = fresh.getOrCompile(bytes, config);
                    disk_us += double(monotonicNanos() - start) * 1e-3;
                    disk_ok = ld.isOk() &&
                              fresh.stats().persistHits == 1;
                }
                disk_us /= load_samples;
            }
            if (!disk_ok) {
                std::fprintf(stderr,
                             "[%s] disk-warm cache load failed\n", name);
                failures++;
            }

            // Cold create vs snapshot-restore acquire: same pools as
            // section 1; the rt.snapshot_restores delta proves the warm
            // acquires went through template restore, not legacy
            // re-initialization.
            obs::MetricsSnapshot before = obs::snapshotMetrics();
            AcquireCosts costs = measureAcquire(module, iterations);
            obs::MetricsSnapshot after = obs::snapshotMetrics();
            uint64_t restores = after.counter("rt.snapshot_restores") -
                                before.counter("rt.snapshot_restores");
            if (!costs.ok) {
                std::fprintf(stderr, "[%s] acquire bench failed\n",
                             name);
                failures++;
                continue;
            }
            double speedup =
                costs.warmMeanSeconds > 0
                    ? costs.coldMeanSeconds / costs.warmMeanSeconds
                    : 0;
            cs_table.addRow({name, cell("%.1f", compile_us),
                             cell("%.1f", disk_us),
                             cell("%.2f", costs.coldMeanSeconds * 1e6),
                             cell("%.2f", costs.warmMeanSeconds * 1e6),
                             cell("%.1fx", speedup)});
            bool templated = strategy != BoundsStrategy::uffd ||
                             mem::realUffdAvailable();
            if (templated && restores == 0) {
                std::fprintf(stderr,
                             "FAIL: [%s] warm acquires did not use the "
                             "snapshot-restore path\n",
                             name);
                failures++;
            }
            if (speedup < 10) {
                std::fprintf(stderr,
                             "FAIL: [%s] snapshot-restore acquire was "
                             "only %.1fx cheaper than cold create "
                             "(need >= 10x)\n",
                             name, speedup);
                failures++;
            }
        }
        std::printf("\n[cold-start anatomy, %d create pairs/strategy]\n",
                    iterations);
        std::fputs(cs_table.toString().c_str(), stdout);
        cs_table.maybeWriteCsv("svc_load_coldstart");
        if (cache_dir != nullptr) {
            std::string cleanup = "rm -rf ";
            cleanup += cache_dir;
            if (std::system(cleanup.c_str()) != 0)
                std::fprintf(stderr, "warning: failed to clean %s\n",
                             cache_dir);
        }
    }

    if (!mprotect_demonstrated) {
        std::fprintf(stderr, "FAIL: warm acquire under mprotect was not"
                             " >= 10x cheaper than cold\n");
        return 1;
    }
    std::printf("PASS: warm acquire >= 10x cheaper than cold under"
                " mprotect; cache hits are O(lookup)\n");
    return failures == 0 ? 0 : 1;
}
