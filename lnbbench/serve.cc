/**
 * @file
 * Serve phase: open-loop ExecutionService load with seeded Poisson
 * arrivals, latency timed from each request's scheduled send time. One
 * service per strategy lives for the whole run (idle ones only park
 * threads); the run gives each one short slices in rotated order. Traced runs then replay the head of each
 * strategy's schedule through InstancePool and Instance directly, one
 * span per layer call, to split a request into acquire, call after
 * recycle, warm call and recycle.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <mutex>
#include <sys/prctl.h>
#include <thread>
#include <time.h>

#include "bench.h"
#include "support/sysinfo.h"
#include "svc/instance_pool.h"
#include "svc/service.h"

namespace lnbbench {

namespace {

/** One scheduled request. */
struct Arrival
{
    uint64_t dueNs; ///< offset from the schedule start
    uint32_t tenant;
};

/** Poisson arrivals at @p rate for @p seconds, tenants drawn uniformly. */
std::vector<Arrival>
makeSchedule(Rng& rng, double rate, double seconds)
{
    std::vector<Arrival> out;
    double t = 0;
    for (;;) {
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        if (t >= seconds)
            break;
        out.push_back({uint64_t(t * 1e9), uint32_t(rng.nextBelow(2))});
    }
    return out;
}

void
sleepUntil(uint64_t target_ns)
{
    timespec ts;
    ts.tv_sec = time_t(target_ns / 1000000000ull);
    ts.tv_nsec = long(target_ns % 1000000000ull);
    while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
           EINTR) {
    }
}

const char* const kTenants[2] = {"tenant-a", "tenant-b"};
constexpr int kWorkers = 2;
/** Workers take cores 0 and 1 (SvcConfig::pinWorkers). The generator and
 * the collector share core 2, so a host stall of that core delays both
 * at once rather than adding a fourth core's stalls to the latencies; the
 * services' reaper threads sleep on core 3. */
constexpr int kGeneratorCpu = 2;
constexpr int kHelperCpu = 3;

/** Outcome of one request of a timed slice. */
struct Completion
{
    bool ok = false;      ///< ran and matched the native checksum
    bool trapped = false; ///< ran and trapped
    double latencyMs = 0; ///< scheduled send -> response observed
    uint64_t queueNs = 0; ///< program-reported (Response.queueNanos)
    uint64_t execNs = 0;  ///< program-reported (Response.execNanos)
    bool warm = false;
};

} // namespace

/** One strategy's service and everything its slices accumulated. */
struct ServeState
{
    mem::BoundsStrategy strategy;
    std::unique_ptr<svc::ExecutionService> service;
    std::shared_ptr<const rt::CompiledModule> module;
    double rssMb = 0; ///< resident memory the warmed service added
    std::vector<double> latencyMs, queueUs, execUs, lateUs;
    /** Each slice's p50 and p75 latency. */
    std::vector<double> sliceP50, sliceP75;
    size_t attempted = 0, warm = 0;
    double busySeconds = 0;    ///< first due time to last response, summed
    double offeredSeconds = 0; ///< slice lengths, summed
    int slices = 0, backlogSlices = 0;
    /** Every slice's arrivals on one timeline, for the replay. */
    std::vector<Arrival> timeline;
    uint64_t timelineEnd = 0;
};

namespace {

/**
 * Send @p schedule open-loop from this thread (pinned to the generator
 * core) while a collector thread waits for the responses in send order
 * and timestamps each as it is observed.
 */
void
serveSlice(Run& run, const KernelInput& in, ServeState& st,
           const std::vector<Arrival>& schedule)
{
    const char* sname = mem::boundsStrategyName(st.strategy);
    const size_t n = schedule.size();
    std::vector<Completion> done(n);
    std::vector<uint64_t> sendAt(n, 0);
    std::vector<size_t> outstanding(n, 0);
    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<size_t, std::future<svc::Response>>> inflight;
    bool closed = false;
    std::atomic<size_t> completed{0};

    pinToCore(kGeneratorCpu); // the collector inherits this core
    const uint64_t base = nowNs() + 2000000; // first send 2 ms from now
    std::thread collector([&] {
        for (;;) {
            std::pair<size_t, std::future<svc::Response>> item;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return closed || !inflight.empty(); });
                if (inflight.empty())
                    return;
                item = std::move(inflight.front());
                inflight.pop_front();
            }
            svc::Response r = item.second.get();
            uint64_t t = nowNs();
            Completion& c = done[item.first];
            c.latencyMs = double(t - (base + schedule[item.first].dueNs)) *
                          1e-6;
            c.queueNs = r.queueNanos;
            c.execNs = r.execNanos;
            c.warm = r.warmInstance;
            c.trapped = !r.outcome.ok();
            if (!c.trapped) {
                std::lock_guard<std::mutex> lock(mu); // Run bookkeeping
                c.ok = run.check(r.outcome.results[0].f64, in.checksum,
                                 in.kernel->name + "/serve-" + sname);
            }
            completed.fetch_add(1, std::memory_order_relaxed);
        }
    });

    for (size_t i = 0; i < n; i++) {
        const Arrival& a = schedule[i];
        sleepUntil(base + a.dueNs);
        sendAt[i] = nowNs();
        outstanding[i] = i - completed.load(std::memory_order_relaxed);
        svc::Request req;
        req.tenant = kTenants[a.tenant];
        req.module = st.module;
        auto f = st.service->submit(std::move(req));
        std::lock_guard<std::mutex> lock(mu);
        run.attempt();
        if (!f.isOk()) {
            run.fail("rejected");
            continue;
        }
        inflight.emplace_back(i, f.takeValue());
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mu);
        closed = true;
    }
    cv.notify_one();
    collector.join();

    uint64_t last_done = base;
    std::vector<double> slice_ms;
    for (size_t i = 0; i < n; i++) {
        st.lateUs.push_back(double(sendAt[i] - (base + schedule[i].dueNs)) *
                            1e-3);
        const Completion& c = done[i];
        st.attempted++;
        if (c.trapped)
            run.fail("trap");
        if (!c.ok)
            continue;
        st.latencyMs.push_back(c.latencyMs);
        slice_ms.push_back(c.latencyMs);
        st.queueUs.push_back(double(c.queueNs) * 1e-3);
        st.execUs.push_back(double(c.execNs) * 1e-3);
        st.warm += c.warm ? 1 : 0;
        last_done = std::max(last_done, base + schedule[i].dueNs +
                                            uint64_t(c.latencyMs * 1e6));
    }
    if (!slice_ms.empty()) {
        st.sliceP50.push_back(quantile(slice_ms, 0.50));
        st.sliceP75.push_back(quantile(slice_ms, 0.75));
    }
    st.busySeconds += double(last_done - base) * 1e-9;
    st.slices++;
    // A growing backlog means the rate saturates this strategy: its
    // latencies then measure the queue, not the request.
    if (n >= 8) {
        double first = 0, last = 0;
        size_t q = n / 4;
        for (size_t i = 0; i < q; i++) {
            first += double(outstanding[i]);
            last += double(outstanding[n - 1 - i]);
        }
        if (last > 2 * first + 2 * double(q))
            st.backlogSlices++;
    }
}

} // namespace

ServePhase::ServePhase(Run& run, const KernelInput& input)
    : run_(run), input_(input), rng_(run.seed * 0x94d049bb133111ebull + 3)
{
    // The generator wakes without the default 50 us timer slack.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    // Service threads inherit the helper core; workers re-pin themselves.
    pinToCore(kHelperCpu);
    for (mem::BoundsStrategy s : serveStrategies()) {
        auto st = std::make_unique<ServeState>();
        st->strategy = s;
        double rss0 = double(readOwnRssBytes());
        svc::SvcConfig sc;
        sc.workers = kWorkers;
        sc.queueDepth = 256;
        sc.poolMaxIdle = 8;
        sc.pinWorkers = true;
        st->service = std::make_unique<svc::ExecutionService>(sc);
        run_.attempt();
        auto cm = st->service->loadModule(
            input.bytes, engineConfig(rt::EngineKind::jit_opt, s));
        if (!cm.isOk())
            run_.fail("compile");
        else
            st->module = cm.takeValue();
        st->rssMb = (double(readOwnRssBytes()) - rss0) / (1024.0 * 1024.0);
        states_.push_back(std::move(st));
    }
}

void
ServePhase::warm()
{
    for (const auto& stp : states_) {
        ServeState& st = *stp;
        if (st.module == nullptr)
            continue;
        double rss0 = double(readOwnRssBytes());
        // Warm the pool with one instance per worker, twice.
        for (int round = 0; round < 2; round++) {
            std::vector<std::future<svc::Response>> wait;
            for (int w = 0; w < kWorkers; w++) {
                run_.attempt();
                svc::Request req;
                req.tenant = kTenants[w % 2];
                req.module = st.module;
                auto f = st.service->submit(std::move(req));
                if (!f.isOk())
                    run_.fail("rejected");
                else
                    wait.push_back(f.takeValue());
            }
            for (auto& f : wait) {
                svc::Response r = f.get();
                if (!r.outcome.ok())
                    run_.fail("trap");
                else
                    run_.check(r.outcome.results[0].f64, input_.checksum,
                               input_.kernel->name + "/serve-warmup");
            }
        }
        st.rssMb += (double(readOwnRssBytes()) - rss0) / (1024.0 * 1024.0);
    }
}

void
ServePhase::capacity(double seconds)
{
    // Closed loop: keep four requests per worker outstanding, so the
    // workers never wait for work, and count completions.
    const double per = seconds / double(states_.size());
    for (const auto& stp : states_) {
        ServeState& st = *stp;
        if (st.module == nullptr)
            continue;
        std::deque<std::future<svc::Response>> inflight;
        size_t done = 0, sent = 0;
        const uint64_t t0 = nowNs();
        const uint64_t stop = t0 + uint64_t(per * 1e9);
        while (nowNs() < stop || !inflight.empty()) {
            while (nowNs() < stop && inflight.size() < 4 * kWorkers) {
                run_.attempt();
                svc::Request req;
                req.tenant = kTenants[sent++ % 2];
                req.module = st.module;
                auto f = st.service->submit(std::move(req));
                if (!f.isOk()) {
                    run_.fail("rejected");
                    break;
                }
                inflight.push_back(f.takeValue());
            }
            if (inflight.empty())
                break;
            svc::Response r = inflight.front().get();
            inflight.pop_front();
            if (!r.outcome.ok())
                run_.fail("trap");
            else if (run_.check(r.outcome.results[0].f64, input_.checksum,
                                input_.kernel->name + "/capacity"))
                done++;
        }
        double wall = double(nowNs() - t0) * 1e-9;
        run_.note(fmt("capacity %-8s %s at scale %d, %d workers: %zu "
                      "requests in %.2f s = %.0f req/s closed-loop",
                      mem::boundsStrategyName(st.strategy),
                      input_.kernel->name.c_str(), input_.scale, kWorkers,
                      done, wall, double(done) / wall));
    }
}

ServePhase::~ServePhase() = default;

void
ServePhase::runSlices(double seconds)
{
    const Workload& w = run_.workload;
    const size_t ns = states_.size();
    const double per = seconds / double(ns);
    const size_t rotate = size_t(run_.seed) + size_t(slices_);
    for (size_t j = 0; j < ns; j++) {
        ServeState& st = *states_[(j + rotate) % ns];
        std::vector<Arrival> schedule = makeSchedule(rng_, w.serveRate, per);
        if (st.module == nullptr)
            continue;
        serveSlice(run_, input_, st, schedule);
        for (Arrival a : schedule) {
            a.dueNs += st.timelineEnd;
            st.timeline.push_back(a);
        }
        st.timelineEnd += uint64_t(per * 1e9);
        st.offeredSeconds += per;
    }
    slices_++;
}

void
ServePhase::finish()
{
    const Workload& w = run_.workload;
    std::vector<double> all_late;
    for (const auto& stp : states_) {
        const ServeState& st = *stp;
        const char* sname = mem::boundsStrategyName(st.strategy);
        all_late.insert(all_late.end(), st.lateUs.begin(), st.lateUs.end());
        // The p50 metric is the lower quartile over the slices of each
        // slice's median, so a host slow stretch that covers up to three
        // quarters of the slices does not move it (the steady ratios use
        // the same statistic). Only p50 is a metric: no higher percentile
        // repeated across seeds within its bound (README.md,
        // "Statistics"); the slice-median p50 and p75 and the pooled tail
        // are printed for reading.
        double p50 = quantile(st.sliceP50, 0.25);
        double p50_mid = median(st.sliceP50);
        double p75 = median(st.sliceP75);
        double p90 = quantile(st.latencyMs, 0.90);
        double p99 = quantile(st.latencyMs, 0.99);
        run_.metric(true, std::string("p50_ms.") + sname, p50, "ms",
                    st.latencyMs.size());
        // Offered = what the seeded schedule actually sent (Poisson counts
        // vary around the nominal rate); achieved = completions over the
        // time from first due send to last response.
        double offered = st.offeredSeconds > 0
                             ? double(st.attempted) / st.offeredSeconds
                             : 0;
        double achieved = st.busySeconds > 0
                              ? double(st.latencyMs.size()) / st.busySeconds
                              : 0;
        // One slice's backlog can come from a host stall of a few ms; a
        // saturated strategy grows it in many slices.
        bool saturated = st.backlogSlices * 4 > st.slices ||
                         achieved < 0.9 * offered;
        run_.note(fmt("serve %-8s %zu requests in %d slices, %.0f req/s "
                      "nominal, %.1f offered, %.1f achieved: p50 %.3f ms, "
                      "slice-median p50 %.3f ms p75 %.3f ms, pooled p90 "
                      "%.3f ms p99 %.3f ms, warm %zu/%zu, "
                      "generator late p50 %.1f us p99 %.1f us, backlog grew "
                      "in %d slices%s",
                      sname, st.attempted, st.slices, w.serveRate, offered,
                      achieved,
                      p50, p50_mid, p75, p90, p99, st.warm,
                      st.attempted, quantile(st.lateUs, 0.5),
                      quantile(st.lateUs, 0.99), st.backlogSlices,
                      saturated ? " -- SATURATED: latency measures the queue"
                                : ""));
        if (!run_.trace)
            continue;
        // Program-reported: the service's own Response timings.
        run_.metric(false, std::string("svc.queue_us.") + sname,
                    quantile(st.queueUs, 0.99), "us", st.queueUs.size());
        run_.metric(false, std::string("svc.exec_us.") + sname,
                    median(st.execUs), "us", st.execUs.size());
        run_.metric(false, std::string("svc.warm_share.") + sname,
                    st.attempted ? double(st.warm) / double(st.attempted) : 0,
                    "ratio", st.attempted);
        run_.metric(false, std::string("mem.rss_mb.") + sname, st.rssMb,
                    "MB", 1);
    }
    if (run_.trace)
        run_.metric(false, "serve.gen_late_us", quantile(all_late, 0.99),
                    "us", all_late.size());
}

void
ServePhase::replay(double seconds)
{
    Tracer& tr = run_.tracer;
    std::vector<double> traced_total, plain_total;
    const double per = seconds / double(states_.size());
    for (const auto& stp : states_) {
        const ServeState& st = *stp;
        const char* sname = mem::boundsStrategyName(st.strategy);
        const KernelInput& in = input_;
        rt::Engine engine(engineConfig(rt::EngineKind::jit_opt, st.strategy));
        run_.attempt();
        auto cm = engine.compileBytes(in.bytes);
        if (!cm.isOk()) {
            run_.fail("compile");
            continue;
        }
        svc::InstancePool pool(cm.takeValue(), rt::ImportMap{}, 2);
        {
            run_.attempt();
            auto lease = pool.acquire(); // cold, then parked
            if (!lease.isOk())
                run_.fail("instantiate");
        }
        // Cold instantiation, timed directly.
        std::vector<double> create_us;
        for (int i = 0; i < 5; i++) {
            run_.attempt();
            uint64_t t0 = nowNs();
            auto inst = rt::Instance::create(pool.module());
            create_us.push_back(double(nowNs() - t0) * 1e-3);
            if (!inst.isOk())
                run_.fail("instantiate");
        }

        // Per request: acquire -> call (after recycle) -> warm call ->
        // direct recycle, one span each under a request span.
        // Odd requests run the same calls untraced, for the overhead.
        const size_t first_span = tr.spans().size();
        const uint64_t base = nowNs() + 2000000;
        const uint64_t stop = base + uint64_t(per * 1e9);
        for (size_t i = 0; i < st.timeline.size(); i++) {
            const Arrival& a = st.timeline[i];
            if (base + a.dueNs >= stop)
                break;
            sleepUntil(base + a.dueNs);
            const bool traced = i % 2 == 0;
            run_.attempt();
            Result<svc::PooledInstance> lease = errInternal("unset");
            uint64_t t0 = nowNs();
            {
                SpanScope req(tr, "serve.request", i, traced);
                {
                    SpanScope s(tr, "svc.acquire", i, traced);
                    lease = pool.acquire();
                }
                if (!lease.isOk()) {
                    run_.fail("instantiate");
                    continue;
                }
                svc::PooledInstance& inst = lease.value();
                for (const char* name :
                     {"runtime.call", "runtime.call_warm"}) {
                    run_.attempt();
                    rt::CallOutcome out;
                    {
                        SpanScope s(tr, name, i, traced);
                        out = inst->callExport("run", {});
                    }
                    if (!out.ok())
                        run_.fail("trap");
                    else
                        run_.check(out.results[0].f64, in.checksum,
                                   in.kernel->name + "/replay-" + sname);
                }
                SpanScope s(tr, "runtime.recycle", i, traced);
                run_.attempt();
                if (!inst->recycle().isOk())
                    run_.fail("recycle");
            }
            (traced ? traced_total : plain_total)
                .push_back(double(nowNs() - t0) * 1e-3);
            // The lease goes back untimed, after the request span: the
            // pool recycles the instance a second time on release, which
            // a served request does not do.
        }

        // Self time of this strategy's spans (they follow first_span).
        std::vector<uint64_t> self = tr.selfTimes();
        auto selfMedianUs = [&](const char* name, size_t& count) {
            std::vector<double> v;
            for (size_t k = first_span; k < tr.spans().size(); k++) {
                if (std::strcmp(tr.spans()[k].name, name) == 0)
                    v.push_back(double(self[k]) * 1e-3);
            }
            count = v.size();
            return median(v);
        };
        const std::string suffix = std::string(".") + sname;
        size_t count = 0;
        double acquire = selfMedianUs("svc.acquire", count);
        run_.metric(false, "svc.acquire_us" + suffix, acquire, "us", count);
        double recycle = selfMedianUs("runtime.recycle", count);
        run_.metric(false, "runtime.recycle_us" + suffix, recycle, "us",
                    count);
        double cold = selfMedianUs("runtime.call", count) * 1e-3;
        run_.metric(false, "runtime.call_after_recycle_ms" + suffix, cold,
                    "ms", count);
        double warm = selfMedianUs("runtime.call_warm", count) * 1e-3;
        run_.metric(false, "runtime.call_warm_ms" + suffix, warm, "ms",
                    count);
        run_.metric(false, "mem.refault_ms" + suffix, cold - warm, "ms",
                    count);
        run_.metric(false, "runtime.create_us" + suffix, median(create_us),
                    "us", create_us.size());
        double glue = selfMedianUs("serve.request", count);
        run_.note(fmt("replay %-8s %zu traced requests: acquire %.1f us, "
                      "call after recycle %.3f ms, warm call %.3f ms, "
                      "recycle %.1f us, unattributed %.1f us",
                      sname, count, acquire, cold, warm, recycle, glue));
    }
    double traced = median(traced_total), plain = median(plain_total);
    run_.metric(false, "trace.overhead_pct.serve_request",
                plain > 0 ? (traced / plain - 1) * 100 : 0, "%",
                traced_total.size() + plain_total.size());
    run_.note(fmt("trace overhead: replayed request %.1f us traced vs %.1f "
                  "us untraced",
                  traced, plain));
}

} // namespace lnbbench
