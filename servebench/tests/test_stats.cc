// The benchmark's arithmetic on synthetic inputs, plus a smoke-size
// serve of every workload. Built with -DSERVEBENCH_TESTS=ON
// (`python3 servebench/run.py --selftest`).

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "measure.h"
#include "stats.h"
#include "workloads.h"

namespace servebench {
namespace {

std::vector<double>
oneToN(int n)
{
    std::vector<double> v(static_cast<std::size_t>(n));
    std::iota(v.begin(), v.end(), 1.0);
    return v;
}

TEST(Percentile, NearestRankOnShuffledInput)
{
    std::vector<double> v = oneToN(100);
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(percentile(v, 0.5).value(), 50.0);
    EXPECT_EQ(percentile(v, 0.9).value(), 90.0);
}

TEST(Percentile, RefusesFewerThanTenSamplesBeyond)
{
    // p90 of 100 samples leaves exactly 10 beyond; of 99 only 9.
    EXPECT_TRUE(percentile(oneToN(100), 0.9).has_value());
    EXPECT_FALSE(percentile(oneToN(99), 0.9).has_value());
    EXPECT_FALSE(percentile({}, 0.5).has_value());
    EXPECT_EQ(percentile(oneToN(99), 0.9, 9).value(), 90.0);
}

TEST(Median, OddEvenAndEmpty)
{
    EXPECT_EQ(median(std::vector<double>{3, 1, 2}), 2.0);
    EXPECT_EQ(median(std::vector<double>{4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median(std::vector<double>{}), 0.0);
}

TEST(SloAttainment, FailedRequestsAreMisses)
{
    const SloLimits limits{100.0, 10.0};
    std::vector<RequestOutcome> sent = {
        {true, 50.0, 5.0},   // meets both
        {true, 150.0, 5.0},  // TTFT miss
        {true, 50.0, 20.0},  // TPOT miss
        {false, 0.0, 0.0},   // failed: zero latencies, still a miss
    };
    EXPECT_DOUBLE_EQ(sloAttainment(sent, limits), 0.25);
    // Closed loops apply TPOT only.
    EXPECT_DOUBLE_EQ(sloAttainment(sent, SloLimits{0.0, 10.0}), 0.5);
    EXPECT_DOUBLE_EQ(sloAttainment({}, limits), 0.0);
}

TEST(SpanTree, SelfTimeIsSpanMinusChildrenAndLeaves)
{
    // session(100) -> chunk(60) -> leaves stage 10 + kernel 30
    //              -> chunk(25) -> leaf stage 5
    SpanTree t;
    const int session = t.add("session", -1, 100);
    const int c1 = t.add("chunk", session, 60);
    t.leaf("stage", c1, 10);
    t.leaf("kernel", c1, 30);
    const int c2 = t.add("chunk", session, 25);
    t.leaf("stage", c2, 5);

    const auto totals = t.totals();
    EXPECT_EQ(totals.at("session").total_ns, 100);
    EXPECT_EQ(totals.at("session").self_ns, 15);
    EXPECT_EQ(totals.at("chunk").total_ns, 85);
    EXPECT_EQ(totals.at("chunk").self_ns, 40);
    EXPECT_EQ(totals.at("chunk").count, 2);
    EXPECT_EQ(totals.at("stage").total_ns, 15);
    EXPECT_EQ(totals.at("kernel").self_ns, 30);

    int64_t self_sum = 0;
    for (const auto &[name, tot] : totals)
        self_sum += tot.self_ns;
    EXPECT_EQ(self_sum, 100); // self times partition the root
}

TEST(SpanTree, OpenCloseNestsThroughTheStack)
{
    SpanTree t;
    const int outer = t.open("outer", 7);
    const int inner = t.open("inner", 7);
    EXPECT_EQ(t.current(), inner);
    t.leaf("leaf", t.current(), 4);
    t.close(inner, 10);
    EXPECT_THROW(t.close(inner, 1), std::logic_error);
    t.close(outer, 30);
    EXPECT_EQ(t.current(), -1);
    EXPECT_EQ(t.spans()[static_cast<std::size_t>(inner)].parent, outer);
    EXPECT_EQ(t.totals().at("outer").self_ns, 20);
    EXPECT_EQ(t.totals().at("inner").self_ns, 6);
}

TEST(Attribution, RowsPlusResidualSumToWall)
{
    const std::vector<AttributionRow> serial = {{"a", 6.0}, {"b", 2.0}};
    const auto at1 = attribute(serial, 1, 9.0);
    ASSERT_EQ(at1.size(), 3u);
    EXPECT_EQ(at1.back().name, "residual");
    EXPECT_DOUBLE_EQ(at1.back().seconds, 1.0);

    const auto at4 = attribute(serial, 4, 3.0);
    EXPECT_DOUBLE_EQ(at4[0].seconds, 1.5);
    EXPECT_DOUBLE_EQ(at4.back().seconds, 1.0); // 3 - 8 / 4
    double sum = 0.0;
    for (const AttributionRow &r : at4)
        sum += r.seconds;
    EXPECT_DOUBLE_EQ(sum, 3.0);
    EXPECT_THROW(attribute(serial, 0, 1.0), std::invalid_argument);
}

TEST(Trace, SeededAndStratified)
{
    const Workload &w = *findWorkload("prefill_shared");
    const auto a = makeTrace(w, 7, 0);
    const auto b = makeTrace(w, 7, 0);
    const auto c = makeTrace(w, 1009, 0);
    ASSERT_EQ(a.size(), static_cast<std::size_t>(w.requests));
    long total_a = 0;
    long total_c = 0;
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); i++) {
        EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].arrival_ms, 0.0); // closed loop
        EXPECT_EQ(a[i].prefix_len, w.prefix_tokens);
        differs = differs || a[i].prompt_len != c[i].prompt_len;
        total_a += a[i].prompt_len;
        total_c += c[i].prompt_len;
    }
    EXPECT_TRUE(differs);
    // Stratified lengths: two seeds' total work agrees within 3%.
    EXPECT_NEAR(static_cast<double>(total_a) / total_c, 1.0, 0.03);
}

TEST(Trace, OpenLoopOffersTheNominalRate)
{
    const Workload &w = *findWorkload("mixed_open_loop");
    const auto t = makeTrace(w, 7, 0);
    const double span_ms = t.back().arrival_ms;
    EXPECT_NEAR(span_ms, 1000.0 * w.requests / w.rate_per_s, 1e-6);
    for (std::size_t i = 1; i < t.size(); i++)
        EXPECT_LE(t[i - 1].arrival_ms, t[i].arrival_ms);
}

class Smoke : public ::testing::TestWithParam<const char *>
{
};

TEST_P(Smoke, EveryRequestCompletesIdenticallyOnOneAndTwoWorkers)
{
    const Workload w = smokeSize(*findWorkload(GetParam()));
    const Geometry g;
    const ServeResult one = serve(w, g, 3, 0, 1);
    const ServeResult two = serve(w, g, 3, 0, 2);
    EXPECT_EQ(one.failed, 0);
    EXPECT_TRUE(one.totals_ok);
    EXPECT_EQ(two.failed, 0);
    EXPECT_EQ(one.report.checksum, two.report.checksum);
    EXPECT_EQ(one.report.prefill_checksum, two.report.prefill_checksum);
    const EndToEnd e = endToEnd(two, SloLimits{0.0, 1e9}, 1);
    EXPECT_GT(e.tokens_per_s, 0.0);
    EXPECT_DOUBLE_EQ(e.slo_attainment, 1.0);
    EXPECT_DOUBLE_EQ(e.completed_frac, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::Values("prefill_shared",
                                           "decode_stream",
                                           "mixed_open_loop"));

} // namespace
} // namespace servebench
