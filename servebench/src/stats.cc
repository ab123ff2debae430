#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace servebench {

std::optional<double>
percentile(std::span<const double> samples, double p, int min_beyond)
{
    const auto n = static_cast<int64_t>(samples.size());
    if (n == 0 || p <= 0.0 || p >= 1.0)
        return std::nullopt;
    const auto rank = static_cast<int64_t>(
        std::ceil(p * static_cast<double>(n) - 1e-9));
    if (n - rank < min_beyond)
        return std::nullopt;
    std::vector<double> sorted(samples.begin(), samples.end());
    std::nth_element(sorted.begin(), sorted.begin() + (rank - 1),
                     sorted.end());
    return sorted[static_cast<std::size_t>(rank - 1)];
}

double
median(std::span<const double> samples)
{
    if (samples.empty())
        return 0.0;
    std::vector<double> sorted(samples.begin(), samples.end());
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();
    return n % 2 == 1 ? sorted[n / 2]
                      : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
}

double
sloAttainment(std::span<const RequestOutcome> sent,
              const SloLimits &limits)
{
    if (sent.empty())
        return 0.0;
    std::size_t met = 0;
    for (const RequestOutcome &r : sent) {
        if (!r.completed)
            continue;
        if (limits.ttft_ms > 0.0 && r.ttft_ms > limits.ttft_ms)
            continue;
        if (limits.tpot_ms > 0.0 && r.tpot_ms > limits.tpot_ms)
            continue;
        met++;
    }
    return static_cast<double>(met) / static_cast<double>(sent.size());
}

int
SpanTree::add(std::string name, int parent, int64_t dur_ns,
              int64_t request)
{
    if (parent >= static_cast<int>(spans_.size()))
        throw std::out_of_range("SpanTree::add: unknown parent");
    spans_.push_back(Span{std::move(name), request, parent, 0, 0});
    const int id = static_cast<int>(spans_.size()) - 1;
    setDuration(id, dur_ns);
    return id;
}

int
SpanTree::open(std::string name, int64_t request)
{
    const int id = add(std::move(name), current(), 0, request);
    stack_.push_back(id);
    return id;
}

void
SpanTree::close(int id, int64_t dur_ns)
{
    if (stack_.empty() || stack_.back() != id)
        throw std::logic_error("SpanTree::close: not the innermost span");
    stack_.pop_back();
    setDuration(id, dur_ns);
}

void
SpanTree::setDuration(int id, int64_t dur_ns)
{
    Span &s = spans_.at(static_cast<std::size_t>(id));
    if (s.parent >= 0)
        spans_[static_cast<std::size_t>(s.parent)].child_ns +=
            dur_ns - s.dur_ns;
    s.dur_ns = dur_ns;
}

void
SpanTree::leaf(const std::string &name, int parent, int64_t ns)
{
    if (parent >= 0)
        spans_.at(static_cast<std::size_t>(parent)).child_ns += ns;
    Totals &t = leaves_[name];
    t.total_ns += ns;
    t.self_ns += ns;
    t.count++;
}

std::map<std::string, SpanTree::Totals>
SpanTree::totals() const
{
    std::map<std::string, Totals> out = leaves_;
    for (const Span &s : spans_) {
        Totals &t = out[s.name];
        t.total_ns += s.dur_ns;
        t.self_ns += s.dur_ns - s.child_ns;
        t.count++;
    }
    return out;
}

std::vector<AttributionRow>
attribute(const std::vector<AttributionRow> &serial, int workers,
          double wall_s)
{
    if (workers < 1)
        throw std::invalid_argument("attribute: workers < 1");
    std::vector<AttributionRow> rows;
    double sum = 0.0;
    for (const AttributionRow &r : serial) {
        rows.push_back({r.name, r.seconds / workers});
        sum += rows.back().seconds;
    }
    rows.push_back({"residual", wall_s - sum});
    return rows;
}

} // namespace servebench
