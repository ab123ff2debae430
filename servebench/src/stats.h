/**
 * @file
 * The benchmark's arithmetic, kept free of serving types so the
 * tests can pin it on synthetic inputs: nearest-rank percentiles that
 * refuse thin tails, SLO attainment over requests *sent*, medians and
 * quartiles, and the self-time / attribution bookkeeping of the
 * traced run's span tree.
 */

#ifndef SERVEBENCH_STATS_H
#define SERVEBENCH_STATS_H

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace servebench {

/**
 * Nearest-rank percentile @p p (0 < p < 1) of @p samples: the
 * ceil(p * n)-th smallest. Returns nullopt unless at least
 * @p min_beyond samples lie strictly beyond the selected rank, so a
 * p90 is only reported from >= 10 * min_beyond samples' worth of tail.
 */
std::optional<double> percentile(std::span<const double> samples,
                                 double p, int min_beyond = 10);

/** Median (mean of the middle two for even counts); 0 when empty. */
double median(std::span<const double> samples);

/** Outcome of one request as the SLO check sees it. */
struct RequestOutcome
{
    bool completed = false; //!< every prompt and decode token done
    double ttft_ms = 0.0;
    double tpot_ms = 0.0;
};

/** Latency limits of a workload; a limit <= 0 does not apply. */
struct SloLimits
{
    double ttft_ms = 0.0;
    double tpot_ms = 0.0;
};

/**
 * Share of requests *sent* that completed within every applicable
 * limit. A failed request is a miss, never dropped from the
 * denominator.
 */
double sloAttainment(std::span<const RequestOutcome> sent,
                     const SloLimits &limits);

/**
 * An in-memory span tree. Spans nest by a parent index; each span may
 * also carry *leaf* time — fine-grained calls summed into their
 * enclosing span without a record each (kernel-sized units would
 * otherwise swamp both memory and the Chrome trace). Self time of a
 * span is its duration minus its child spans and leaves.
 */
class SpanTree
{
  public:
    struct Span
    {
        std::string name;
        int64_t request = -1;
        int parent = -1;     //!< index into spans(); -1 = root
        int64_t dur_ns = 0;
        int64_t child_ns = 0; //!< child spans + leaves
    };

    /** Adds a finished span; returns its index. */
    int add(std::string name, int parent, int64_t dur_ns,
            int64_t request = -1);

    /** Opens a span now and makes it the current parent. */
    int open(std::string name, int64_t request);

    /** Closes the innermost open span, which must be @p id. */
    void close(int id, int64_t dur_ns);

    /** Innermost open span, -1 when none. */
    int current() const { return stack_.empty() ? -1 : stack_.back(); }

    /** Adds @p ns of leaf @p name under span @p parent. */
    void leaf(const std::string &name, int parent, int64_t ns);

    struct Totals
    {
        int64_t total_ns = 0; //!< summed durations
        int64_t self_ns = 0;  //!< total minus children
        int64_t count = 0;
    };

    /** Per-name totals over spans and leaves. */
    std::map<std::string, Totals> totals() const;

    const std::vector<Span> &spans() const { return spans_; }

  private:
    /** Sets a span's duration and moves its parent's child time. */
    void setDuration(int id, int64_t dur_ns);

    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, Totals> leaves_;
};

/** One row of an attribution table. */
struct AttributionRow
{
    std::string name;
    double seconds = 0.0;
};

/**
 * Rows of serial replayed work spread over @p workers, plus the
 * residual that makes them sum to @p wall_s: wall minus serial work
 * divided by workers — the fork-join, wake-up, queueing and
 * imbalance term no layer accounts for. The residual row is last and
 * named "residual".
 */
std::vector<AttributionRow>
attribute(const std::vector<AttributionRow> &serial, int workers,
          double wall_s);

} // namespace servebench

#endif // SERVEBENCH_STATS_H
