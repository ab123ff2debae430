#include "measure.h"

#include <chrono>

#include <sys/resource.h>

#include "common/rng.h"
#include "core/pade_attention.h"
#include "core/simd/qk_dispatch.h"
#include "quant/bitplane.h"
#include "runtime/thread_pool.h"

namespace servebench {

namespace {

/** Median over five batches of @p body's seconds per call, each
 *  batch calling it until ~@p batch_s has passed. */
template <typename Body>
double
medianSecondsPerCall(double batch_s, Body &&body)
{
    std::vector<double> per_call;
    for (int b = 0; b < 5; b++) {
        int64_t calls = 0;
        const auto t0 = Clock::now();
        double elapsed = 0.0;
        do {
            body();
            calls++;
            elapsed = secondsSince(t0);
        } while (elapsed < batch_s);
        per_call.push_back(elapsed / static_cast<double>(calls));
    }
    return median(per_call);
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

ServeResult
serve(const Workload &w, const Geometry &g, uint64_t seed, int rep,
      int threads, const std::string &trace_file)
{
    ServeResult r;
    const auto t0 = Clock::now();
    r.trace = makeTrace(w, seed, rep);
    pade::BatcherOptions opt = batcherOptions(w, g, threads);
    opt.trace_file = trace_file;
    const pade::ContinuousBatcher batcher(opt);
    r.setup_s = secondsSince(t0);

    const auto t1 = Clock::now();
    r.report = batcher.run(r.trace);
    r.wall_s = secondsSince(t1);

    uint64_t want_prefill = 0;
    r.sent = static_cast<int>(r.trace.size());
    r.outcomes.resize(r.trace.size());
    for (std::size_t i = 0; i < r.trace.size(); i++) {
        const pade::ServingRequest &req = r.trace[i];
        want_prefill += static_cast<uint64_t>(req.prompt_len);
        r.want_decode += static_cast<uint64_t>(req.decode_steps);
        const pade::SessionStats *st = i < r.report.sessions.size()
            ? &r.report.sessions[i]
            : nullptr;
        RequestOutcome &o = r.outcomes[i];
        // A request is served only if it was admitted and finished
        // with exactly its trace's prompt and decode token counts.
        o.completed = st && st->admit_seq >= 0 &&
            st->prompt_len == req.prompt_len &&
            st->decode_steps == req.decode_steps &&
            st->first_token_ms >= st->admit_ms &&
            st->finish_ms >= st->first_token_ms;
        if (!o.completed) {
            r.failed++;
            continue;
        }
        o.ttft_ms = st->first_token_ms - st->arrival_ms;
        r.ttft_ms.push_back(o.ttft_ms);
        if (req.decode_steps >= 2) {
            o.tpot_ms = (st->finish_ms - st->first_token_ms) /
                (req.decode_steps - 1);
            r.tpot_ms.push_back(o.tpot_ms);
        }
        r.queue_wait_ms.push_back(st->admit_ms - st->arrival_ms);
    }
    r.want_tokens = want_prefill + r.want_decode;
    r.totals_ok = r.report.tokens_prefilled == want_prefill &&
        r.report.tokens_decoded == r.want_decode;
    return r;
}

SloLimits
applicableLimits(const Workload &w, const SloLimits &limits)
{
    SloLimits out = limits;
    if (!w.open_loop)
        out.ttft_ms = 0.0; // closed loop: TTFT is queue position
    return out;
}

EndToEnd
endToEnd(const ServeResult &r, const SloLimits &limits, int min_beyond)
{
    EndToEnd e;
    e.setup_s = r.setup_s;
    e.wall_s = r.wall_s;
    e.tokens_per_s = static_cast<double>(r.want_tokens) / r.wall_s;
    e.decode_tokens_per_s =
        static_cast<double>(r.want_decode) / r.wall_s;
    e.ttft_p50_ms = percentile(r.ttft_ms, 0.5, min_beyond);
    e.ttft_p90_ms = percentile(r.ttft_ms, 0.9, min_beyond);
    e.tpot_p50_ms = percentile(r.tpot_ms, 0.5, min_beyond);
    e.tpot_p90_ms = percentile(r.tpot_ms, 0.9, min_beyond);
    e.slo_attainment = sloAttainment(r.outcomes, limits);
    e.completed_frac = r.sent > 0
        ? static_cast<double>(r.sent - r.failed) / r.sent
        : 0.0;
    e.peak_kv_mb =
        static_cast<double>(r.report.peak_cache_bytes) / (1024.0 * 1024.0);
    return e;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
buildType()
{
    return SERVEBENCH_BUILD_TYPE;
}

double
qkNsPerPair(const Geometry &g)
{
    constexpr int kKeys = 256;
    pade::Rng rng(0x716b);
    pade::MatrixI8 keys(kKeys, g.head_dim);
    std::vector<int8_t> q(static_cast<std::size_t>(g.head_dim));
    for (int r = 0; r < kKeys; r++)
        for (int8_t &x : keys.row(r))
            x = static_cast<int8_t>(rng.range(-128, 127));
    for (int8_t &x : q)
        x = static_cast<int8_t>(rng.range(-128, 127));
    const pade::BitPlaneSet planes(keys, g.bits);
    const pade::QueryPlanes qp(q, g.bits);

    const pade::QkKernel kernel =
        pade::resolveQkKernel(pade::PadeConfig{}.qk_kernel);
    volatile int64_t sink = 0;
    const double s = medianSecondsPerCall(0.02, [&] {
        int64_t acc = 0;
        for (int r = 0; r < kKeys; r++) {
            switch (kernel) {
            case pade::QkKernel::kSimd:
                acc += pade::exactDotSimd(qp, planes, r);
                break;
            case pade::QkKernel::kPopcount:
                acc += pade::exactDot(qp, planes, r);
                break;
            case pade::QkKernel::kScalar:
                acc += pade::exactDotScalar(q, planes, r);
                break;
            }
        }
        sink = sink + acc;
    });
    return s * 1e9 / kKeys;
}

double
forkJoinUs(int threads)
{
    pade::ThreadPool pool(threads);
    const auto empty = [](int) {};
    return medianSecondsPerCall(
               0.02, [&] { pade::parallelFor(pool, threads, empty); }) *
        1e6;
}

} // namespace servebench
