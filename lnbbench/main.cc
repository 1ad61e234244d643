/**
 * @file
 * lnbbench — the repository benchmark (see README.md beside this file).
 *
 *   lnbbench --workload polybench|specproxy --seed N --seconds S
 *            --trace 0|1 --work-dir DIR [--spawn-ns NS] [--tiny]
 *            [--setup-only | --capacity]
 *
 * A run sets up (encodes every kernel module, runs the native baseline
 * for its checksum, compiles and instantiates every steady cell, fills
 * the code cache, starts the services), warms the instances, then spends
 * --seconds in epochs that interleave three phases: pipeline
 * (compile/load time), steady (interleaved slowdowns vs native) and serve
 * (open-loop ExecutionService latency). setup_s is timed from process
 * start (--spawn-ns, the parent's clock reading at spawn) and sampled
 * again in child processes run with --setup-only. --capacity measures
 * each serving strategy's closed-loop throughput instead of a run.
 * The last stdout line is one JSON object: end-to-end metrics untraced,
 * per-layer metrics traced.
 */
#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <spawn.h>
#include <sstream>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "support/sysinfo.h"
#include "wasm/encoder.h"

namespace lnbbench {

double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    double pos = q * double(v.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, v.size() - 1);
    double frac = pos - double(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double log_sum = 0;
    for (double x : v)
        log_sum += std::log(x);
    return std::exp(log_sum / double(v.size()));
}

std::string
fmt(const char* format, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, format);
    vsnprintf(buf, sizeof(buf), format, ap);
    va_end(ap);
    return buf;
}

int32_t
Tracer::open(const char* name, uint64_t request)
{
    int32_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, nowNs(), 0, parent, request});
    int32_t idx = int32_t(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
}

void
Tracer::close(int32_t idx)
{
    spans_[size_t(idx)].end = nowNs();
    if (!stack_.empty() && stack_.back() == idx)
        stack_.pop_back();
}

std::vector<uint64_t>
Tracer::selfTimes() const
{
    std::vector<uint64_t> covered(spans_.size(), 0);
    for (const Span& span : spans_) {
        if (span.parent >= 0)
            covered[size_t(span.parent)] += span.end - span.start;
    }
    std::vector<uint64_t> out(spans_.size());
    for (size_t i = 0; i < spans_.size(); i++) {
        uint64_t dur = spans_[i].end - spans_[i].start;
        out[i] = dur > covered[i] ? dur - covered[i] : 0;
    }
    return out;
}

bool
Tracer::writeJson(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::vector<uint64_t> self = selfTimes();
    out << "[\n";
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start
            << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
            << ",\"request\":" << s.request << ",\"self_ns\":" << self[i]
            << "}" << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return bool(out);
}

const std::vector<CellConfig>&
steadyConfigs()
{
    using K = rt::EngineKind;
    using S = mem::BoundsStrategy;
    static const std::vector<CellConfig> configs = {
        {"none", K::jit_opt, S::none},
        {"clamp", K::jit_opt, S::clamp},
        {"trap", K::jit_opt, S::trap},
        {"mprotect", K::jit_opt, S::mprotect},
        {"uffd", K::jit_opt, S::uffd},
        {"jit_base", K::jit_base, S::mprotect},
        {"interp", K::interp_threaded, S::trap},
    };
    return configs;
}

const std::vector<mem::BoundsStrategy>&
serveStrategies()
{
    static const std::vector<mem::BoundsStrategy> strategies = {
        mem::BoundsStrategy::trap, mem::BoundsStrategy::mprotect,
        mem::BoundsStrategy::uffd};
    return strategies;
}

void
pinToCore(int i)
{
    int n = std::max(1, onlineCpuCount());
    pinThreadToCpu(((i % n) + n) % n);
}

rt::EngineConfig
engineConfig(rt::EngineKind kind, mem::BoundsStrategy strategy)
{
    rt::EngineConfig config;
    config.kind = kind;
    config.strategy = strategy;
    return config;
}

bool
findWorkload(const std::string& name, bool tiny, Workload& out)
{
    if (name != "polybench" && name != "specproxy")
        return false;
    // The serve phase runs one representative kernel of the suite (a mix
    // puts the median between kernels) at about a quarter of uffd's
    // 2-worker closed-loop capacity at scale 4 (--capacity; README.md
    // records the measurement and why not half). Tiny sizes divide every
    // dimension by 4 more; the smoke test uses them.
    const bool poly = name == "polybench";
    out = Workload{};
    out.name = name;
    out.kernels = kernels::suiteKernels(name);
    out.scale = tiny ? 16 : 4;
    out.serveKernel = kernels::findKernel(poly ? "atax" : "mcf_proxy");
    out.serveRate = poly ? 1200 : 275;
    return true;
}

bool
Run::check(double got, double want, const std::string& what)
{
    // Bit-exact: every engine × strategy computes the native checksum.
    if (std::memcmp(&got, &want, sizeof(double)) == 0)
        return true;
    mismatches++;
    fail("checksum");
    if (mismatches <= 5)
        note(fmt("CHECKSUM MISMATCH %s: got %.17g want %.17g", what.c_str(),
                 got, want));
    return false;
}

namespace {

std::vector<KernelInput>
prepareInputs(const std::vector<const kernels::Kernel*>& ks, int scale)
{
    std::vector<KernelInput> out;
    for (const kernels::Kernel* k : ks) {
        KernelInput in;
        in.kernel = k;
        in.scale = scale;
        in.bytes = wasm::encodeModule(k->buildModule(scale));
        in.checksum = k->native(scale);
        out.push_back(std::move(in));
    }
    return out;
}

/** Set-up: inputs, then one compiled and instantiated instance per
 * (kernel, config), plus a native cell per kernel. No module runs yet. */
void
prepare(Run& run, Prepared& p)
{
    const Workload& w = run.workload;
    p.steady = prepareInputs(w.kernels, w.scale);
    p.serve = std::move(prepareInputs({w.serveKernel}, w.scale)[0]);
    for (const KernelInput& in : p.steady) {
        SteadyCell native;
        native.input = &in;
        p.cells.push_back(std::move(native));
        for (size_t c = 0; c < steadyConfigs().size(); c++) {
            const CellConfig& cfg = steadyConfigs()[c];
            std::string what = in.kernel->name + "/" + cfg.name;
            run.attempt();
            rt::Engine engine(engineConfig(cfg.kind, cfg.strategy));
            auto cm = engine.compileBytes(in.bytes);
            if (!cm.isOk()) {
                run.fail("compile");
                run.note("compile failed " + what + ": " +
                         cm.status().toString());
                continue;
            }
            run.attempt();
            auto inst = rt::Instance::create(cm.value());
            if (!inst.isOk()) {
                run.fail("instantiate");
                run.note("instantiate failed " + what + ": " +
                         inst.status().toString());
                continue;
            }
            SteadyCell cell;
            cell.input = &in;
            cell.config = int(c);
            cell.module = cm.takeValue();
            cell.instance = inst.takeValue();
            p.cells.push_back(std::move(cell));
        }
    }
}

/** First call of every wasm cell, checked; cells that fail are dropped.
 * It warms the instances' pages, so it is execution, not set-up. */
void
warmCells(Run& run, std::vector<SteadyCell>& cells)
{
    std::vector<SteadyCell> kept;
    for (SteadyCell& cell : cells) {
        if (cell.config >= 0) {
            const KernelInput& in = *cell.input;
            run.attempt();
            rt::CallOutcome out = cell.instance->callExport("run", {});
            if (!out.ok()) {
                run.fail("trap");
                continue;
            }
            if (!run.check(out.results[0].f64, in.checksum,
                           in.kernel->name + "/" +
                               steadyConfigs()[cell.config].name))
                continue;
        }
        kept.push_back(std::move(cell));
    }
    cells = std::move(kept);
}

/**
 * One more set-up in a fresh process: this binary with --setup-only,
 * timed from just before the spawn to the point where it would start
 * measuring. Returns the seconds, or a negative value if it failed.
 */
double
spawnSetUp(const Run& run, bool tiny, int k)
{
    const std::string dir = run.workDir + fmt("/setup-%d", k);
    const uint64_t t0 = nowNs();
    std::vector<std::string> args = {
        "lnbbench", "--workload", run.workload.name, "--seed",
        std::to_string(run.seed + uint64_t(k)), "--seconds", "1",
        "--trace", "0", "--work-dir", dir, "--spawn-ns",
        std::to_string(t0), "--setup-only"};
    if (tiny)
        args.push_back("--tiny");
    std::vector<char*> argv;
    for (std::string& a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    int fds[2];
    if (pipe(fds) != 0)
        return -1;
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&actions, fds[0]);
    posix_spawn_file_actions_addclose(&actions, fds[1]);
    pid_t pid;
    int err = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                          argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    close(fds[1]);
    std::string out;
    char buf[256];
    ssize_t n;
    while (err == 0 && (n = read(fds[0], buf, sizeof(buf))) != 0) {
        if (n > 0)
            out.append(buf, size_t(n));
        else if (errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    if (err == 0) {
        while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
    }
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    double seconds = -1;
    if (err == 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0)
        std::sscanf(out.c_str(), "setup_s %lf", &seconds);
    return seconds;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return double(readOwnRssBytes()) / (1024.0 * 1024.0);
}

void
printResult(const Run& run)
{
    const auto& metrics = run.trace ? run.perLayer : run.endToEnd;
    for (const std::string& line : run.notes)
        std::printf("# %s\n", line.c_str());
    std::printf("# %-34s %14s %-6s %8s\n", "metric", "value", "unit",
                "samples");
    for (const auto& [name, m] : metrics)
        std::printf("# %-34s %14.6g %-6s %8zu\n", name.c_str(), m.value,
                    m.unit.c_str(), m.samples);
    for (const auto& [kind, n] : run.failuresByKind)
        std::printf("# failed %-10s %llu\n", kind.c_str(),
                    (unsigned long long)n);
    std::printf("# operations: %llu attempted, %llu failed, %llu checksum "
                "mismatches\n",
                (unsigned long long)run.attempted,
                (unsigned long long)run.failed,
                (unsigned long long)run.mismatches);

    std::ostringstream json;
    json.precision(17);
    json << "{\"correct\": " << (run.mismatches == 0 ? "true" : "false")
         << ", \"attempted\": " << run.attempted
         << ", \"failed\": " << run.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics) {
        json << (first ? "" : ", ") << "\"" << name
             << "\": {\"value\": " << m.value << ", \"unit\": \"" << m.unit
             << "\"}";
        first = false;
    }
    json << "}}";
    std::printf("%s\n", json.str().c_str());
    std::fflush(stdout);
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: lnbbench --workload polybench|specproxy "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--spawn-ns NS] [--tiny] [--setup-only | --capacity]\n");
    return 2;
}

} // namespace
} // namespace lnbbench

int
main(int argc, char** argv)
{
    using namespace lnbbench;
    uint64_t spawn_ns = nowNs();
    Run run;
    std::string workload;
    bool tiny = false, setup_only = false, capacity = false;
    for (int i = 1; i < argc; i++) {
        std::string arg = argv[i];
        const char* val = i + 1 < argc ? argv[i + 1] : nullptr;
        if (arg == "--tiny" || arg == "--setup-only" || arg == "--capacity") {
            (arg == "--tiny" ? tiny
                             : arg == "--capacity" ? capacity : setup_only) =
                true;
            continue;
        }
        if (val == nullptr)
            return usage();
        if (arg == "--workload")
            workload = val;
        else if (arg == "--seed")
            run.seed = std::strtoull(val, nullptr, 10);
        else if (arg == "--seconds")
            run.seconds = std::strtod(val, nullptr);
        else if (arg == "--trace")
            run.trace = std::strcmp(val, "0") != 0;
        else if (arg == "--work-dir")
            run.workDir = val;
        else if (arg == "--spawn-ns")
            spawn_ns = std::strtoull(val, nullptr, 10);
        else
            return usage();
        i++;
    }
    if (!findWorkload(workload, tiny, run.workload) || run.seconds <= 0 ||
        run.workDir.empty())
        return usage();
    run.tracer = Tracer(run.trace);
    const Workload& w = run.workload;

    // Set-up runs from process start (the moment the parent spawned this
    // process, --spawn-ns) until the first timed operation could start:
    // inputs, every module compiled, every instance and service created.
    // First calls are execution and come after it.
    pinToCore(int(run.seed));
    Prepared prepared;
    prepare(run, prepared);
    PipelinePhase pipeline(run, prepared.steady);
    ServePhase serve(run, prepared.serve);
    const double setup_s = double(nowNs() - spawn_ns) * 1e-9;
    if (setup_only) {
        for (const std::string& line : run.notes)
            std::fprintf(stderr, "lnbbench set-up: %s\n", line.c_str());
        std::printf("setup_s %.9f\n", setup_s);
        return run.failed == 0 ? 0 : 1;
    }
    warmCells(run, prepared.cells);
    serve.warm();
    if (capacity) {
        serve.capacity(run.seconds);
        printResult(run);
        return 0;
    }
    run.note(fmt("workload %s seed %llu seconds %.0f trace %d: %zu kernels "
                 "at scale %d, serve %s at %.0f req/s, uffd %s",
                 w.name.c_str(), (unsigned long long)run.seed, run.seconds,
                 int(run.trace), w.kernels.size(), w.scale,
                 w.serveKernel->name.c_str(), w.serveRate,
                 mem::realUffdAvailable() ? "kernel" : "emulated"));

    // setup_s is the median of this process's set-up and kSetUpChildren
    // more, each in a fresh process spawned between epochs (untraced runs
    // only), so it samples the whole run like the other metrics.
    constexpr int kSetUpChildren = 10;
    std::vector<double> setups = {setup_s};
    auto setUpOnce = [&](int k) {
        run.attempt();
        double s = spawnSetUp(run, tiny, k);
        if (s < 0)
            run.fail("setup");
        else
            setups.push_back(s);
    };
    {
        SteadyPhase steady(run, prepared.cells);
        // Epochs of about three seconds, split 10/50/40 between the
        // phases; traced runs keep a fifth of the time for the replay.
        const double measured = run.trace ? run.seconds * 0.8 : run.seconds;
        const int epochs = std::max(1, int(std::lround(measured / 3.0)));
        const double epoch_s = measured / epochs;
        int spawned = 0;
        for (int e = 0; e < epochs; e++) {
            if (!run.trace && e * kSetUpChildren >= spawned * epochs)
                setUpOnce(++spawned);
            // Single-threaded phases rotate over the cores, so no one
            // core's slow stretch decides a metric.
            pinToCore(int(run.seed) + e);
            pipeline.runFor(epoch_s * 0.10);
            steady.runFor(epoch_s * 0.50);
            serve.runSlices(epoch_s * 0.40);
        }
        while (!run.trace && spawned < kSetUpChildren)
            setUpOnce(++spawned);
        pipeline.finish();
        steady.finish();
        serve.finish();
        if (run.trace)
            serve.replay(run.seconds - measured);
    }
    if (!run.trace)
        run.metric(true, "setup_s", median(setups), "s", setups.size());

    run.metric(true, "rss_peak_mb", peakRssMb(), "MB", 1);
    if (run.trace) {
        std::string path = run.workDir + "/spans.json";
        if (run.tracer.writeJson(path))
            run.note(fmt("%zu spans written", run.tracer.spans().size()));
        else
            run.note("could not write " + path);
    }
    printResult(run);
    return 0;
}
