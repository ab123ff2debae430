/**
 * @file
 * servebench: serves one named workload through ContinuousBatcher and
 * reports either its end-to-end metrics (--trace 0) or its per-layer
 * attribution (--trace 1).
 *
 *   servebench --workload <name> --seed <n> --seconds <s> --trace 0|1
 *              [--tpot-limit-ms X] [--ttft-limit-ms Y]
 *              [--trace-dir DIR] [--smoke 1]
 *
 * --trace 0 warms up, then serves seeded traces (a new one per rep)
 * for --seconds at min(nproc, 4) workers with tracing off and reports
 * each end-to-end metric as the median over reps. Outside the timed
 * reps it re-serves rep 0's trace on 1 worker: decode and prefill
 * checksums must match. --trace 1 serves rep 0's trace at 1, 2 and N
 * workers, traced and untraced, replays it serially through each
 * layer's API (replay.h), and prints the attribution table and the
 * per-layer metrics. Spans of the replays are written as a Chrome
 * trace to --trace-dir.
 *
 * The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}};
 * the line before it is the provenance record. Exit status is 0 only
 * when every check passed; 2 on bad arguments; 3 when PADE_QK_KERNEL
 * is set (the run would silently measure another kernel).
 */

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/pade_attention.h"
#include "core/simd/qk_dispatch.h"
#include "measure.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "replay.h"
#include "runtime/thread_pool.h"
#include "stats.h"
#include "workloads.h"

using namespace servebench;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool smoke = false;
    SloLimits limits;
    std::string trace_dir = ".";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "servebench: %s\nusage: servebench --workload NAME "
                 "--seed N --seconds S --trace 0|1 [--tpot-limit-ms X] "
                 "[--ttft-limit-ms Y] [--trace-dir DIR] [--smoke 1]\n",
                 why);
    std::exit(2);
}

double
number(const char *flag, const char *text)
{
    char *end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        usage((std::string("bad value for ") + flag).c_str());
    return v;
}

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; i += 2) {
        if (i + 1 >= argc)
            usage("flag without a value");
        const std::string f = argv[i];
        const char *v = argv[i + 1];
        if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = static_cast<uint64_t>(number("--seed", v));
        else if (f == "--seconds")
            a.seconds = number("--seconds", v);
        else if (f == "--trace")
            a.trace = static_cast<int>(number("--trace", v));
        else if (f == "--smoke")
            a.smoke = number("--smoke", v) != 0.0;
        else if (f == "--tpot-limit-ms")
            a.limits.tpot_ms = number("--tpot-limit-ms", v);
        else if (f == "--ttft-limit-ms")
            a.limits.ttft_ms = number("--ttft-limit-ms", v);
        else if (f == "--trace-dir")
            a.trace_dir = v;
        else
            usage(("unknown flag " + f).c_str());
    }
    if (a.workload.empty() || a.seconds <= 0.0 ||
        (a.trace != 0 && a.trace != 1))
        usage("--workload, --seconds > 0 and --trace 0|1 are required");
    return a;
}

/** One named metric of the result record. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** What a mode hands back to main() for the result record. */
struct Outcome
{
    bool ok = true;
    int attempted = 0; //!< requests served across every checked serve
    int failed = 0;
    std::vector<Metric> metrics;

    /** Folds one serve's completion check into the outcome. */
    void
    check(const ServeResult &r, const char *what)
    {
        attempted += r.sent;
        failed += r.failed;
        if (r.failed == 0 && r.totals_ok)
            return;
        ok = false;
        std::fprintf(stderr,
                     "servebench: %s: %d of %d requests incomplete, "
                     "token totals %s\n",
                     what, r.failed, r.sent,
                     r.totals_ok ? "ok" : "WRONG");
    }
    void
    same(const char *what, uint64_t checksum, uint64_t prefill,
         const pade::ServingReport &ref)
    {
        if (checksum == ref.checksum && prefill == ref.prefill_checksum)
            return;
        ok = false;
        std::fprintf(
            stderr,
            "servebench: %s: checksums %016llx/%016llx differ from "
            "the served run's %016llx/%016llx\n",
            what, static_cast<unsigned long long>(checksum),
            static_cast<unsigned long long>(prefill),
            static_cast<unsigned long long>(ref.checksum),
            static_cast<unsigned long long>(ref.prefill_checksum));
    }
};

void
printResult(bool correct, int attempted, int failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); i++)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit.c_str());
    std::printf("}}\n");
}

void
printProvenance(const Args &a, const Workload &w, const Geometry &g,
                int threads)
{
    const pade::QkKernel kernel =
        pade::resolveQkKernel(pade::PadeConfig{}.qk_kernel);
    std::printf(
        "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
        "\"trace\": %d, \"smoke\": %s, \"nproc\": %u, "
        "\"hardware_threads\": %d, \"threads\": %d, "
        "\"qk_kernel\": \"%s\", \"build_type\": \"%s\", "
        "\"telemetry\": %s, \"geometry\": {\"layers\": %d, "
        "\"heads\": %d, \"kv_heads\": %d, \"head_dim\": %d, "
        "\"bits\": %d}, \"requests_per_rep\": %d, \"slots\": %d, "
        "\"tpot_limit_ms\": %.17g, \"ttft_limit_ms\": %.17g}}\n",
        w.name.c_str(), static_cast<unsigned long long>(a.seed), a.trace,
        a.smoke ? "true" : "false", std::thread::hardware_concurrency(),
        pade::ThreadPool::hardwareThreads(), threads,
        pade::qkKernelName(kernel), buildType(),
        pade::obs::kTelemetryEnabled ? "true" : "false", g.layers, g.heads,
        g.kv_heads, g.head_dim, g.bits, w.requests, w.slots,
        a.limits.tpot_ms, a.limits.ttft_ms);
}

/** --trace 0: the end-to-end metrics. */
Outcome
runEndToEnd(const Args &a, const Workload &w, const Geometry &g,
            int threads)
{
    Outcome out;
    const SloLimits limits = applicableLimits(w, a.limits);
    const int min_beyond = a.smoke ? 1 : 10;
    out.check(serve(w, g, a.seed, 0, threads), "warm-up");

    std::vector<EndToEnd> reps;
    pade::ServingReport rep0;
    const auto t0 = Clock::now();
    constexpr int kMinReps = 3;
    constexpr int kMaxReps = 400;
    for (int rep = 0; rep < kMaxReps; rep++) {
        if (rep >= kMinReps && secondsSince(t0) >= a.seconds)
            break;
        ServeResult r = serve(w, g, a.seed, rep, threads);
        out.check(r, "timed rep");
        reps.push_back(endToEnd(r, limits, min_beyond));
        std::printf("rep %d: wall %.4f s, %d rounds, tpot p50 %.3f ms, "
                    "ttft p90 %.3f ms\n",
                    rep, r.wall_s, r.report.rounds,
                    reps.back().tpot_p50_ms.value_or(0.0),
                    reps.back().ttft_p90_ms.value_or(0.0));
        if (rep == 0)
            rep0 = std::move(r.report);
    }
    const double rss_mb = peakRssMb();

    // Outside the timed reps: rep 0's trace on one worker must give
    // the same tokens.
    const ServeResult one = serve(w, g, a.seed, 0, 1);
    out.check(one, "1-worker check");
    out.same("1-worker check", one.report.checksum,
             one.report.prefill_checksum, rep0);

    const auto med = [&](auto field) {
        std::vector<double> v;
        for (const EndToEnd &e : reps)
            v.push_back(field(e));
        return median(v);
    };
    // Peak KV moves in page-sized steps, so a median over reps jumps
    // between steps; the mean is smooth.
    double kv_mean = 0.0;
    for (const EndToEnd &e : reps)
        kv_mean += e.peak_kv_mb / static_cast<double>(reps.size());
    // A percentile that lacks its tail samples fails the run.
    bool tails_ok = true;
    const auto medOpt = [&](auto field) {
        std::vector<double> v;
        for (const EndToEnd &e : reps) {
            const std::optional<double> x = field(e);
            if (!x)
                tails_ok = false;
            else
                v.push_back(*x);
        }
        return median(v);
    };
    out.metrics = {
        {"setup_s", med([](const EndToEnd &e) { return e.setup_s; }), "s"},
        {"wall_s", med([](const EndToEnd &e) { return e.wall_s; }), "s"},
        {"tokens_per_s",
         med([](const EndToEnd &e) { return e.tokens_per_s; }), "tok/s"},
        {"decode_tokens_per_s",
         med([](const EndToEnd &e) { return e.decode_tokens_per_s; }),
         "tok/s"},
        {"ttft_p50_ms",
         medOpt([](const EndToEnd &e) { return e.ttft_p50_ms; }), "ms"},
        {"ttft_p90_ms",
         medOpt([](const EndToEnd &e) { return e.ttft_p90_ms; }), "ms"},
        {"tpot_p50_ms",
         medOpt([](const EndToEnd &e) { return e.tpot_p50_ms; }), "ms"},
        {"tpot_p90_ms",
         medOpt([](const EndToEnd &e) { return e.tpot_p90_ms; }), "ms"},
        {"slo_attainment",
         med([](const EndToEnd &e) { return e.slo_attainment; }), "frac"},
        {"completed_frac",
         med([](const EndToEnd &e) { return e.completed_frac; }), "frac"},
        {"peak_kv_mb", kv_mean, "MiB"},
        {"peak_rss_mb", rss_mb, "MiB"},
    };
    if (!tails_ok)
        std::fprintf(stderr, "servebench: a percentile lacked %d tail "
                             "samples beyond it\n",
                     min_beyond);
    out.ok = out.ok && tails_ok;

    std::printf("%s: %zu timed reps x %d requests at %d workers; "
                "rep 0's percentiles from %lld TTFT / %lld TPOT "
                "samples\n",
                w.name.c_str(), reps.size(), w.requests, threads,
                static_cast<long long>(rep0.ttft_ms.count),
                static_cast<long long>(rep0.tpot_ms.count));
    for (const Metric &m : out.metrics)
        std::printf("  %-22s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    return out;
}

void
printAttribution(const char *label, const std::vector<AttributionRow> &rows,
                 double wall_s)
{
    std::printf("attribution at %s (wall %.4f s)\n", label, wall_s);
    double sum = 0.0;
    for (const AttributionRow &r : rows) {
        std::printf("  %-22s %10.4f s  %6.1f%%\n", r.name.c_str(),
                    r.seconds, 100.0 * r.seconds / wall_s);
        sum += r.seconds;
    }
    std::printf("  %-22s %10.4f s\n", "sum", sum);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/**
 * Serial seconds per layer from the three replays; each layer's time
 * is its level's time minus the level below it (README.md,
 * "Attribution").
 */
struct LayerTimes
{
    double stage_s, model_s, model_self_s, layer_s, layer_self_s;
    double append_s, dec_s, qk_est_s, prefix_s, workload_s;

    LayerTimes(const std::array<ReplayResult, 3> &r, const Geometry &g,
               double qk_ns)
    {
        const auto &[A, B, C] = r;
        stage_s = A.seconds("workload.stage");
        model_s = A.seconds("model_engine.prefill") +
            A.seconds("model_engine.decode");
        layer_s = B.seconds("layer_engine.prefill") +
            B.seconds("layer_engine.decode");
        append_s = C.seconds("kv_cache.append");
        dec_s = C.seconds("decode_engine.prefill") +
            C.seconds("decode_engine.decode");
        qk_est_s = static_cast<double>(C.planes) * qk_ns / g.bits * 1e-9;
        prefix_s = A.seconds("prefix_index.acquire") +
            A.seconds("prefix_index.publish") +
            A.seconds("prefix_index.release");
        workload_s = A.seconds("workload.materialize") + stage_s;
        // Engine spans' self time is their duration minus staging.
        model_self_s = A.selfSeconds("model_engine.prefill") +
            A.selfSeconds("model_engine.decode") +
            A.seconds("model_engine.setup") - layer_s;
        layer_self_s = layer_s - append_s - dec_s;
    }

    std::vector<AttributionRow>
    rows() const
    {
        return {
            {"workload", workload_s},
            {"prefix_index", prefix_s},
            {"model_engine", model_self_s},
            {"layer_engine", layer_self_s},
            {"kv_cache", append_s},
            {"decode_engine", dec_s - qk_est_s},
            {"qk_kernel_est", qk_est_s},
        };
    }
};

std::vector<int>
prefixHits(const pade::ServingReport &r)
{
    std::vector<int> hits;
    for (const pade::SessionStats &s : r.sessions)
        hits.push_back(s.prefix_hit_tokens);
    return hits;
}

/** --trace 1: the per-layer metrics and attribution. */
Outcome
runTraced(const Args &a, const Workload &w, const Geometry &g,
          int threads)
{
    Outcome out;
    const std::string stem = a.trace_dir + "/servebench-" + w.name +
        "-seed" + std::to_string(a.seed);
    out.check(serve(w, g, a.seed, 0, threads), "warm-up");

    const ServeResult one = serve(w, g, a.seed, 0, 1);
    const ServeResult two = serve(w, g, a.seed, 0, std::min(2, threads));
    const pade::obs::MetricsSnapshot before =
        pade::obs::Registry::instance().snapshot();
    const ServeResult full = serve(w, g, a.seed, 0, threads);
    const pade::obs::MetricsSnapshot delta =
        pade::obs::MetricsSnapshot::delta(
            before, pade::obs::Registry::instance().snapshot());
    out.check(one, "1 worker");
    out.check(two, "2 workers");
    out.check(full, "N workers");
    const pade::ServingReport &ref = full.report;
    out.same("1 worker", one.report.checksum,
             one.report.prefill_checksum, ref);
    out.same("2 workers", two.report.checksum,
             two.report.prefill_checksum, ref);

    // Span overhead: library spans on vs off, batcher-clocked, two
    // interleaved pairs.
    pade::obs::setTraceCapacity(std::size_t{1} << 17);
    std::vector<double> on_ms;
    std::vector<double> off_ms = {ref.wall_ms};
    for (int k = 0; k < 2; k++) {
        pade::obs::clearTrace();
        const ServeResult traced = serve(w, g, a.seed, 0, threads,
                                         stem + ".batcher.trace.json");
        out.check(traced, "traced");
        on_ms.push_back(traced.report.wall_ms);
        if (k == 0)
            off_ms.push_back(
                serve(w, g, a.seed, 0, threads).report.wall_ms);
    }
    const double span_overhead = median(on_ms) / median(off_ms) - 1.0;

    // Serial replays through each layer's API, spans recorded.
    const std::vector<int> hits = prefixHits(ref);
    pade::obs::clearTrace();
    pade::obs::setTraceEnabled(true);
    const std::array<ReplayResult, 3> replays =
        replayAll(w, g, full.trace, hits);
    pade::obs::setTraceEnabled(false);
    const std::string replay_trace = stem + ".replay.trace.json";
    if (!pade::obs::writeChromeTrace(replay_trace)) {
        std::fprintf(stderr, "servebench: cannot write %s\n",
                     replay_trace.c_str());
        out.ok = false;
    }
    const auto &[A, B, C] = replays;
    out.same("model replay", A.checksum, A.prefill_checksum, ref);
    out.same("layer replay", B.checksum, B.prefill_checksum, ref);
    out.same("decode replay", C.checksum, C.prefill_checksum, ref);

    const double qk_ns = qkNsPerPair(g);
    const double fork_join_us = forkJoinUs(threads);
    const LayerTimes t(replays, g, qk_ns);

    // Open-loop timing moves prefix hits between worker counts; the
    // 1-worker table then replays the 1-worker run's own adoptions.
    const std::vector<int> hits_one = prefixHits(one.report);
    const LayerTimes t_one = hits_one == hits
        ? t
        : LayerTimes(replayAll(w, g, full.trace, hits_one), g, qk_ns);
    const std::vector<AttributionRow> at1 =
        attribute(t_one.rows(), 1, one.wall_s);
    const std::vector<AttributionRow> atn =
        attribute(t.rows(), threads, full.wall_s);
    printAttribution("1 worker", at1, one.wall_s);
    const std::string label = std::to_string(threads) + " workers";
    printAttribution(label.c_str(), atn, full.wall_s);
    std::printf("chrome traces: %s.replay.trace.json, "
                "%s.batcher.trace.json (chrome://tracing or "
                "ui.perfetto.dev)\n",
                stem.c_str(), stem.c_str());

    const double positions = static_cast<double>(A.prefill_positions);
    const double decodes = static_cast<double>(A.decode_tokens);
    const double layers = g.layers;
    const double keys = static_cast<double>(C.keys);
    const uint64_t rounds = delta.counter("model.rounds");
    out.metrics = {
        {"qk_kernel.ns_per_pair", qk_ns, "ns"},
        {"qk_kernel.est_share", ratio(t.qk_est_s, t.dec_s), "frac"},
        {"decode_engine.ns_per_key", ratio(t.dec_s * 1e9, keys), "ns"},
        {"decode_engine.keep_rate",
         ratio(static_cast<double>(C.retained), keys), "frac"},
        {"decode_engine.planes_per_key",
         ratio(static_cast<double>(C.planes), keys), "count"},
        {"kv_cache.append_us_per_token",
         ratio(t.append_s * 1e6, positions + decodes), "us"},
        {"kv_cache.bytes_per_token", ref.kv_bytes_per_token, "B"},
        {"layer_engine.prefill_us_per_position",
         ratio(B.seconds("layer_engine.prefill") * 1e6, positions * layers),
         "us"},
        {"layer_engine.decode_us_per_token",
         ratio(B.seconds("layer_engine.decode") * 1e6, decodes * layers),
         "us"},
        {"layer_engine.self_frac", ratio(t.layer_self_s, t.layer_s), "frac"},
        {"model_engine.prefill_us_per_token",
         ratio(A.seconds("model_engine.prefill") * 1e6, positions), "us"},
        {"model_engine.decode_us_per_token",
         ratio(A.seconds("model_engine.decode") * 1e6, decodes), "us"},
        {"model_engine.units_per_round",
         ratio(static_cast<double>(delta.counter("model.units")),
               static_cast<double>(rounds)),
         "count"},
        {"model_engine.self_frac",
         ratio(t.model_self_s, t.model_s + A.seconds("model_engine.setup")),
         "frac"},
        {"prefix_index.hit_token_frac",
         ratio(static_cast<double>(ref.tokens_prefix_hit),
               static_cast<double>(ref.tokens_prefilled)),
         "frac"},
        {"prefix_index.acquire_us",
         ratio(A.seconds("prefix_index.acquire") * 1e6,
               static_cast<double>(A.count("prefix_index.acquire"))),
         "us"},
        {"prefix_index.evictions",
         static_cast<double>(ref.prefix.evictions), "count"},
        {"workload.stage_us_per_token",
         ratio(t.stage_s * 1e6, positions + decodes), "us"},
        {"thread_pool.fork_join_us", fork_join_us, "us"},
        {"thread_pool.speedup_2v1", ratio(one.wall_s, two.wall_s), "x"},
        {"thread_pool.speedup_4v1", ratio(one.wall_s, full.wall_s), "x"},
        {"batcher.rounds", static_cast<double>(ref.rounds), "count"},
        {"batcher.round_ms", ratio(ref.wall_ms, ref.rounds), "ms"},
        {"batcher.queue_wait_p50_ms", median(full.queue_wait_ms), "ms"},
        {"batcher.bubble_ratio", ref.pipeline_bubble_ratio, "frac"},
        {"batcher.residual_frac",
         ratio(atn.back().seconds, full.wall_s), "frac"},
        {"batcher.unclocked_ms", full.wall_s * 1e3 - ref.wall_ms, "ms"},
        {"obs.span_overhead_frac", span_overhead, "frac"},
    };
    for (const AttributionRow &r : atn)
        out.metrics.push_back({"attr." + r.name + "_s", r.seconds, "s"});

    std::printf("%s: per-layer metrics (serial replays of rep 0's "
                "%d requests; %d workers)\n",
                w.name.c_str(), w.requests, threads);
    for (const Metric &m : out.metrics)
        std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parse(argc, argv);
    if (std::getenv(pade::kQkKernelEnv) != nullptr) {
        std::fprintf(stderr,
                     "servebench: %s is set; refusing to run, the "
                     "result would measure another kernel than the "
                     "one the library selects\n",
                     pade::kQkKernelEnv);
        return 3;
    }
    const Workload *base = findWorkload(a.workload);
    if (!base)
        usage(("unknown workload " + a.workload).c_str());
    const Workload w = a.smoke ? smokeSize(*base) : *base;
    if (!a.smoke && a.limits.tpot_ms <= 0.0)
        usage("--tpot-limit-ms is required");
    if (!a.smoke && w.open_loop && a.limits.ttft_ms <= 0.0)
        usage("--ttft-limit-ms is required for open-loop workloads");
    const Geometry g;
    const int threads = std::clamp(
        static_cast<int>(std::thread::hardware_concurrency()), 1, 4);

    const Outcome out = a.trace == 0 ? runEndToEnd(a, w, g, threads)
                                     : runTraced(a, w, g, threads);
    printProvenance(a, w, g, threads);
    printResult(out.ok, out.attempted, out.failed, out.metrics);
    return out.ok ? 0 : 1;
}
