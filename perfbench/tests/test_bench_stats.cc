/**
 * @file
 * The benchmark's own arithmetic: quartiles (checked against
 * values Python's statistics.quantiles(values, n=4) returns), tail
 * percentiles, ratio bases, span self time, seed derivation and
 * argument parsing, and the JSON number format of the result line.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <set>

#include "bench_stats.hh"

namespace
{

using namespace perfbench;

TEST(BenchStats, QuartilesMatchPythonExclusiveMethod)
{
    // Expected values: statistics.quantiles(values, n=4).
    Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.median, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);

    q = quartiles({1, 2});
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.median, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);

    q = quartiles({3, 1, 2});
    EXPECT_DOUBLE_EQ(q.q1, 1.0);
    EXPECT_DOUBLE_EQ(q.median, 2.0);
    EXPECT_DOUBLE_EQ(q.q3, 3.0);

    q = quartiles({0.5, 0.25, 4.0, 1.0, 2.0});
    EXPECT_DOUBLE_EQ(q.q1, 0.375);
    EXPECT_DOUBLE_EQ(q.median, 1.0);
    EXPECT_DOUBLE_EQ(q.q3, 3.0);
}

TEST(BenchStats, QuartilesOfOneOrNoSample)
{
    Quartiles one = quartiles({4.5});
    EXPECT_EQ(one.q1, 4.5);
    EXPECT_EQ(one.median, 4.5);
    EXPECT_EQ(one.q3, 4.5);
    Quartiles none = quartiles({});
    EXPECT_EQ(none.median, 0.0);
}

TEST(BenchStats, MedianOddEvenEmpty)
{
    EXPECT_EQ(median({3, 1, 2}), 2.0);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0.0);
    // The quartile midpoint is the median.
    std::vector<double> v = {9, 2, 7, 4, 4, 1};
    EXPECT_DOUBLE_EQ(quartiles(v).median, median(v));
}

TEST(BenchStats, TailPercentileNeedsTenSamplesBeyond)
{
    std::vector<double> v;
    for (int i = 1; i <= 19; ++i)
        v.push_back(i);
    EXPECT_EQ(tailPercentile(v).pct, 0.0);

    v.push_back(20);
    TailPercentile t = tailPercentile(v);
    EXPECT_EQ(t.pct, 50.0);
    EXPECT_EQ(t.value, 10.0);
    EXPECT_EQ(t.beyond, 10u);

    v.clear();
    for (int i = 100; i >= 1; --i) // order must not matter
        v.push_back(i);
    t = tailPercentile(v);
    EXPECT_EQ(t.pct, 90.0);
    EXPECT_EQ(t.value, 90.0);
    EXPECT_EQ(t.beyond, 10u);

    v.clear();
    for (int i = 1; i <= 1000; ++i)
        v.push_back(i);
    t = tailPercentile(v);
    EXPECT_EQ(t.pct, 99.0);
    EXPECT_EQ(t.beyond, 10u);
}

TEST(BenchStats, RatioKeepsItsBase)
{
    Ratio r{3, 12};
    EXPECT_DOUBLE_EQ(r.value(), 0.25);
    EXPECT_EQ(r.base, 12.0);
    EXPECT_EQ((Ratio{5, 0}).value(), 0.0);
}

TEST(BenchStats, SelfTimeSubtractsCoveredChildTime)
{
    SpanLog log;
    size_t parent = log.open("parent", 0);
    size_t a = log.open("a", 10);
    log.close(a, 30);
    size_t b = log.open("b", 20); // overlaps a: 20..30 counted once
    size_t grandchild = log.open("g", 25);
    log.close(grandchild, 45);
    log.close(b, 50);
    log.close(parent, 100);

    EXPECT_EQ(log.spans()[a].parent, long(parent));
    EXPECT_EQ(log.spans()[grandchild].parent, long(b));
    EXPECT_EQ(log.selfNs(parent), 100 - 40);
    EXPECT_EQ(log.selfNs(b), 30 - 20);
    EXPECT_EQ(log.selfNs(grandchild), 20);

    auto summary = log.summarize();
    EXPECT_EQ(summary["parent"].count, 1u);
    EXPECT_DOUBLE_EQ(summary["parent"].totalMs, 100e-6);
    EXPECT_DOUBLE_EQ(summary["parent"].selfMs, 60e-6);
}

TEST(BenchStats, SelfTimeClipsChildrenToParent)
{
    SpanLog log;
    size_t parent = log.open("p", 100);
    size_t child = log.open("c", 150);
    log.close(child, 250); // closes after the parent's recorded end
    log.close(parent, 200);
    EXPECT_EQ(log.selfNs(parent), 50);
}

TEST(BenchStats, ScopedSpansNestAndRepeat)
{
    SpanLog log;
    {
        ScopedSpan outer(&log, "outer");
        for (int i = 0; i < 3; ++i)
            ScopedSpan inner(&log, "inner");
    }
    ScopedSpan disabled(nullptr, "ignored");
    ASSERT_EQ(log.spans().size(), 4u);
    EXPECT_EQ(log.durationsMs("inner").size(), 3u);
    for (size_t i = 1; i < 4; ++i)
        EXPECT_EQ(log.spans()[i].parent, 0);
    EXPECT_GE(log.selfNs(0), 0);
}

TEST(BenchStats, DerivedSeedsAreStableAndDistinct)
{
    EXPECT_EQ(deriveSeed(1, 0), deriveSeed(1, 0));
    std::set<uint64_t> seen;
    for (uint64_t seed = 0; seed < 16; ++seed) {
        for (uint64_t stream = 0; stream < 4; ++stream)
            seen.insert(deriveSeed(seed, stream));
    }
    EXPECT_EQ(seen.size(), 64u);
}

TEST(BenchStats, ParsesTheCommandLine)
{
    Options opt;
    EXPECT_EQ(parseOptions({"--workload", "conv_mac", "--seed", "42",
                            "--seconds", "10", "--trace", "1"},
                           opt),
              "");
    EXPECT_EQ(opt.workload, "conv_mac");
    EXPECT_EQ(opt.seed, 42u);
    EXPECT_EQ(opt.seconds, 10.0);
    EXPECT_TRUE(opt.trace);

    Options defaults;
    EXPECT_EQ(parseOptions({"--workload", "w", "--seed",
                            "18446744073709551615", "--seconds", "0.5"},
                           defaults),
              "");
    EXPECT_EQ(defaults.seed, std::numeric_limits<uint64_t>::max());
    EXPECT_FALSE(defaults.trace);
}

TEST(BenchStats, RejectsBadArguments)
{
    const std::vector<std::vector<std::string>> bad = {
        {"--seed", "1", "--seconds", "1"},
        {"--workload", "w", "--seconds", "1"},
        {"--workload", "w", "--seed", "1"},
        {"--workload", "w", "--seed", "-1", "--seconds", "1"},
        {"--workload", "w", "--seed", "1x", "--seconds", "1"},
        {"--workload", "w", "--seed", "18446744073709551616",
         "--seconds", "1"},
        {"--workload", "w", "--seed", "1", "--seconds", "0"},
        {"--workload", "w", "--seed", "1", "--seconds", "abc"},
        {"--workload", "w", "--seed", "1", "--seconds", "1", "--trace",
         "2"},
        {"--workload", "w", "--seed", "1", "--seconds", "1", "--bogus",
         "1"},
        {"--workload", "w", "--seed"},
    };
    for (const auto &args : bad) {
        Options opt;
        EXPECT_NE(parseOptions(args, opt), "") << args.back();
    }
}

TEST(BenchStats, JsonNumbersRoundTrip)
{
    for (double v : {0.1, 1.0 / 3.0, 2.7590000000000001, 123456789.0,
                     1e-9}) {
        EXPECT_EQ(std::strtod(jsonNumber(v).c_str(), nullptr), v);
    }
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(jsonString("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

} // namespace
