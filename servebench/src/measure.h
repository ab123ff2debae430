/**
 * @file
 * One served trace, measured and checked: setup, the timed
 * ContinuousBatcher::run() call, and the per-request outcome check
 * every end-to-end metric is computed from.
 */

#ifndef SERVEBENCH_MEASURE_H
#define SERVEBENCH_MEASURE_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serving/continuous_batcher.h"
#include "stats.h"
#include "workloads.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

/** One serve of one trace. */
struct ServeResult
{
    std::vector<pade::ServingRequest> trace;
    pade::ServingReport report;
    double setup_s = 0.0; //!< trace generation + batcher construction
    double wall_s = 0.0;  //!< run() as the benchmark times it
    int sent = 0;
    int failed = 0; //!< requests short of any prompt or decode token
    bool totals_ok = false; //!< report token totals match the trace
    uint64_t want_tokens = 0; //!< prompt + decode tokens of the trace
    uint64_t want_decode = 0;
    std::vector<RequestOutcome> outcomes; //!< index-aligned with trace
    /** Request latencies of completed requests (ms). */
    std::vector<double> ttft_ms;
    std::vector<double> tpot_ms;
    std::vector<double> queue_wait_ms;
};

/**
 * Generates rep @p rep's trace of @p w for @p seed, builds the
 * batcher, and serves it on @p threads workers; @p trace_file non-empty
 * turns the library's span recording on for the run.
 */
ServeResult serve(const Workload &w, const Geometry &g, uint64_t seed,
                  int rep, int threads,
                  const std::string &trace_file = "");

/** The SLO limits that apply to @p w (closed loops: TPOT only). */
SloLimits applicableLimits(const Workload &w, const SloLimits &limits);

/** The twelve end-to-end values of one serve. */
struct EndToEnd
{
    double setup_s = 0.0;
    double wall_s = 0.0;
    double tokens_per_s = 0.0;
    double decode_tokens_per_s = 0.0;
    std::optional<double> ttft_p50_ms, ttft_p90_ms;
    std::optional<double> tpot_p50_ms, tpot_p90_ms;
    double slo_attainment = 0.0;
    double completed_frac = 0.0;
    double peak_kv_mb = 0.0;
};

/** @p min_beyond: tail samples a percentile needs (see percentile()). */
EndToEnd endToEnd(const ServeResult &r, const SloLimits &limits,
                  int min_beyond = 10);

/** Peak resident set of this process so far, MiB. */
double peakRssMb();

/** CMAKE_BUILD_TYPE the library and benchmark were compiled with. */
const char *buildType();

/**
 * exactDot cost per (query, key) pair — all @p g.bits planes — on
 * the kernel resolveQkKernel() selects, at @p g's head_dim; median of
 * five ~20 ms batches.
 */
double qkNsPerPair(const Geometry &g);

/** One parallelFor of @p threads empty tasks on a @p threads-worker
 *  pool, microseconds; median of five batches. */
double forkJoinUs(int threads);

} // namespace servebench

#endif // SERVEBENCH_MEASURE_H
