/**
 * @file
 * Shared pieces of the repository benchmark binary (lnbbench): the
 * workload table, the benchmark's own clock and span recorder, small
 * order statistics, and the per-run bookkeeping that becomes the final
 * JSON line. The benchmark calls each runtime layer only through its public
 * functions and times those calls itself; it reads no obs counter.
 */
#ifndef LNBBENCH_BENCH_H
#define LNBBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kernels/kernel.h"
#include "runtime/engine.h"
#include "runtime/instance.h"
#include "support/rng.h"
#include "wasm/opt.h"

namespace lnbbench {

using namespace lnb;

inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/** Median of @p v (copied; empty input gives 0). */
double median(std::vector<double> v);
/** Linear-interpolated quantile q in [0,1] of @p v (empty gives 0). */
double quantile(std::vector<double> v, double q);
/** Geometric mean of positive values (empty gives 0). */
double geomean(const std::vector<double>& v);

/**
 * Benchmark-side span recorder: one span per call into a layer, with its
 * parent and request id, kept in memory and written out at the end. Only
 * the thread that owns the recorder opens spans (the steady phase and the
 * serve replay are single-threaded). Disabled recorders cost one branch.
 */
class Tracer
{
  public:
    struct Span
    {
        const char* name;
        uint64_t start;
        uint64_t end;
        int32_t parent;
        uint64_t request;
    };

    explicit Tracer(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    int32_t open(const char* name, uint64_t request);
    void close(int32_t idx);
    const std::vector<Span>& spans() const { return spans_; }

    /** Self time of every span: duration minus the union of its
     * children's intervals (children of one parent never overlap). */
    std::vector<uint64_t> selfTimes() const;
    bool writeJson(const std::string& path) const;

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int32_t> stack_;
};

/** RAII span; no-op when the recorder is disabled. */
class SpanScope
{
  public:
    /** @p active = false makes this span a no-op too (the untraced
     * rounds of a traced run). */
    SpanScope(Tracer& tracer, const char* name, uint64_t request = 0,
              bool active = true)
        : tracer_(tracer),
          idx_(active && tracer.enabled() ? tracer.open(name, request) : -1)
    {}
    ~SpanScope() { end(); }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    void end()
    {
        if (idx_ >= 0)
            tracer_.close(idx_);
        idx_ = -1;
    }

  private:
    Tracer& tracer_;
    int32_t idx_;
};

/** One reported metric: value, unit and the samples it summarizes. */
struct Metric
{
    double value = 0;
    std::string unit;
    size_t samples = 0;
};

/** A kernel as the benchmark drives it: encoded bytes + native checksum. */
struct KernelInput
{
    const kernels::Kernel* kernel = nullptr;
    int scale = 1;
    std::vector<uint8_t> bytes;
    double checksum = 0;
};

/** One engine configuration measured in the steady phase. */
struct CellConfig
{
    const char* name; ///< metric suffix: none, clamp, ..., jit_base, interp
    rt::EngineKind kind;
    mem::BoundsStrategy strategy;
};

/** jit_opt × {none, clamp, trap, mprotect, uffd}, jit_base × mprotect,
 * interp_threaded × trap. */
const std::vector<CellConfig>& steadyConfigs();

/** The serving strategies (paper §7: short-lived tasks). */
const std::vector<mem::BoundsStrategy>& serveStrategies();

/** A workload: one suite, one dataset scale for every config and native,
 * and the kernel and rate of its serve phase. */
struct Workload
{
    std::string name;
    /** Kernels of the pipeline and steady phases. */
    std::vector<const kernels::Kernel*> kernels;
    int scale = 1;
    /** The kernel the serve phase runs. */
    const kernels::Kernel* serveKernel = nullptr;
    /** Open-loop arrival rate, requests per second, all strategies. */
    double serveRate = 0;
};

/** Look up a workload by name (tiny = the smoke-test sizes). */
bool findWorkload(const std::string& name, bool tiny, Workload& out);

/** Everything one run accumulates. */
struct Run
{
    Workload workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string workDir; ///< scratch directory inside the checkout

    Tracer tracer{false};
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t mismatches = 0;
    std::map<std::string, uint64_t> failuresByKind;

    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /** Human-readable report lines, printed before the JSON line. */
    std::vector<std::string> notes;

    void attempt() { attempted++; }
    void fail(const std::string& kind)
    {
        failed++;
        failuresByKind[kind]++;
    }
    /** Count one checked result; a wrong checksum fails the run. */
    bool check(double got, double want, const std::string& what);
    void note(const std::string& line) { notes.push_back(line); }
    void metric(bool e2e, const std::string& name, double value,
                const char* unit, size_t samples)
    {
        (e2e ? endToEnd : perLayer)[name] = {value, unit, samples};
    }
};

/** One (kernel, config) cell of the steady phase: a warm instance
 * reused for every iteration, or the native baseline (config < 0). */
struct SteadyCell
{
    const KernelInput* input = nullptr;
    int config = -1; ///< index into steadyConfigs(); -1 = native
    std::shared_ptr<const rt::CompiledModule> module;
    std::unique_ptr<rt::Instance> instance;
    std::vector<double> seconds; ///< one entry per untraced iteration
    std::vector<double> tracedSeconds; ///< traced rounds (--trace 1)
};

/** What set-up builds: inputs for both phases and the warm cells. */
struct Prepared
{
    std::vector<KernelInput> steady;
    KernelInput serve;
    std::vector<SteadyCell> cells;
};

rt::EngineConfig engineConfig(rt::EngineKind kind,
                              mem::BoundsStrategy strategy);

/**
 * The three phases. A run interleaves them in short epochs (each epoch
 * gives every phase its share of time, and the serve phase every
 * strategy its slice), so every metric samples the whole run rather than
 * one stretch of it: on a shared host, cores slow down for seconds at a
 * time.
 */

/** Compile and load time (compile_us, load_us; wasm/jit stage split). */
class PipelinePhase
{
  public:
    PipelinePhase(Run& run, const std::vector<KernelInput>& inputs);
    /** Whole rounds (every kernel once, seeded order) for @p seconds. */
    void runFor(double seconds);
    void finish();

  private:
    static rt::EngineConfig config();
    void runKernel(size_t i, bool traced);

    Run& run_;
    const std::vector<KernelInput>& inputs_;
    std::string dir_;
    Rng rng_;
    int rounds_ = 0;
    std::vector<std::vector<uint8_t>> payloads_;
    std::vector<bool> usable_, verified_, optSeen_;
    std::vector<std::vector<double>> compileUs_, tracedCompileUs_, loadUs_;
    std::vector<wasm::OptStats> optStats_;
};

/** Interleaved steady-state slowdowns against native (slowdown.*). */
class SteadyPhase
{
  public:
    SteadyPhase(Run& run, std::vector<SteadyCell>& cells);
    /** Whole rounds over every cell for @p seconds. */
    void runFor(double seconds);
    void finish();

  private:
    Run& run_;
    std::vector<SteadyCell>& cells_;
    /** Cell indices per kernel: native first, then its configs. */
    std::vector<std::vector<size_t>> blocks_;
    Rng rng_;
    int rounds_ = 0;
};

struct ServeState;

/** Open-loop serving latency per strategy (p50_ms.*). */
class ServePhase
{
  public:
    ServePhase(Run& run, const KernelInput& input);
    ~ServePhase();
    ServePhase(const ServePhase&) = delete;
    ServePhase& operator=(const ServePhase&) = delete;
    /** Warm each service's pool (set-up ends before this). */
    void warm();
    /** Closed-loop throughput per strategy, @p seconds in total. */
    void capacity(double seconds);
    /** One slice per strategy, in rotated order, @p seconds in total. */
    void runSlices(double seconds);
    void finish();
    /** Traced replay of each strategy's schedule head (--trace 1). */
    void replay(double seconds);

  private:
    Run& run_;
    const KernelInput& input_;
    Rng rng_;
    int slices_ = 0;
    std::vector<std::unique_ptr<ServeState>> states_;
};

/** Pin the calling thread to core @p i modulo the online cores. */
void pinToCore(int i);

std::string fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace lnbbench

#endif // LNBBENCH_BENCH_H
