/**
 * @file
 * The benchmark's own arithmetic, kept free of simulator headers so
 * tests/test_bench_stats.cc can check it in isolation: command-line
 * and seed handling, quartiles and tail percentiles of host-time
 * samples, ratios with their base, span self time, and the number
 * format of the result line.
 */

#ifndef PERFBENCH_BENCH_STATS_HH
#define PERFBENCH_BENCH_STATS_HH

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Parsed command line: --workload W --seed N --seconds S --trace 0|1. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/** Strict unsigned decimal parse; false on sign, junk or overflow. */
inline bool
parseUnsigned(const std::string &text, uint64_t &out)
{
    if (text.empty() || text.size() > 20
        || text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (errno == ERANGE || *end != '\0')
        return false;
    out = v;
    return true;
}

/**
 * Parse the benchmark's arguments. Returns an empty string on
 * success, else a message naming the first problem. Every flag is required
 * except --trace (default 0).
 */
inline std::string
parseOptions(const std::vector<std::string> &args, Options &opt)
{
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (size_t i = 0; i < args.size(); i += 2) {
        const std::string &flag = args[i];
        if (i + 1 >= args.size())
            return "missing value for " + flag;
        const std::string &value = args[i + 1];
        if (flag == "--workload") {
            opt.workload = value;
            have_workload = !value.empty();
        } else if (flag == "--seed") {
            if (!parseUnsigned(value, opt.seed))
                return "--seed wants an unsigned integer, got '" + value
                     + "'";
            have_seed = true;
        } else if (flag == "--seconds") {
            char *end = nullptr;
            opt.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(opt.seconds > 0.0)
                || opt.seconds > 3600.0)
                return "--seconds wants a number in (0, 3600], got '"
                     + value + "'";
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return "--trace wants 0 or 1, got '" + value + "'";
            opt.trace = value == "1";
        } else {
            return "unknown argument '" + flag + "'";
        }
    }
    if (!have_workload)
        return "--workload is required";
    if (!have_seed)
        return "--seed is required";
    if (!have_seconds)
        return "--seconds is required";
    return "";
}

/**
 * Independent sub-seed for one input stream (weights, input tensor,
 * arrivals) of a workload seed: a splitmix64 finalizer over the
 * pair, so streams never share a generator state and the same
 * (seed, stream) always gives the same value.
 */
inline uint64_t
deriveSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/** Median of @p values (mean of the middle pair); 0 when empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/** First quartile, median, third quartile. */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles computed exactly as Python's
 * statistics.quantiles(values, n=4) does with its default
 * "exclusive" method, so the spread this benchmark reports matches
 * the one an outside checker computes from the same samples. One sample
 * gives that sample for all three; none gives zeros.
 */
inline Quartiles
quartiles(std::vector<double> values)
{
    Quartiles q;
    if (values.empty())
        return q;
    std::sort(values.begin(), values.end());
    const long ld = long(values.size());
    if (ld == 1) {
        q.q1 = q.median = q.q3 = values[0];
        return q;
    }
    const long n = 4, m = ld + 1;
    std::array<double, 3> cut{};
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * n;
        cut[size_t(i - 1)] = (values[size_t(j - 1)] * double(n - delta)
                              + values[size_t(j)] * double(delta))
                           / double(n);
    }
    q.q1 = cut[0];
    q.median = cut[1];
    q.q3 = cut[2];
    return q;
}

/** A nearest-rank percentile and the samples that lie above it. */
struct TailPercentile
{
    /** Percentile (e.g. 90); 0 when no ladder step qualifies. */
    double pct = 0.0;
    double value = 0.0;
    /** Samples strictly beyond the percentile's rank. */
    size_t beyond = 0;
};

/**
 * The highest percentile of the ladder 99.9/99/95/90/75/50 that has
 * at least ten samples beyond it (nearest-rank: the p-th percentile
 * is the ceil(p/100 * n)-th smallest sample). Needs n >= 20.
 */
inline TailPercentile
tailPercentile(std::vector<double> values)
{
    TailPercentile tail;
    const size_t n = values.size();
    std::sort(values.begin(), values.end());
    for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        const size_t rank =
            std::max<size_t>(1, size_t(std::ceil(pct / 100.0 * double(n))));
        if (n >= rank && n - rank >= 10) {
            tail.pct = pct;
            tail.value = values[rank - 1];
            tail.beyond = n - rank;
            return tail;
        }
    }
    return tail;
}

/** A ratio kept together with its base, so reports can cite both. */
struct Ratio
{
    double part = 0.0;
    double base = 0.0;

    /** part / base; 0 for an empty base. */
    double
    value() const
    {
        return base > 0.0 ? part / base : 0.0;
    }
};

/**
 * In-memory span recorder: one span per call into a simulator
 * module, nested by call structure, summarized when the run ends.
 */
class SpanLog
{
  public:
    using Clock = std::chrono::steady_clock;

    struct Span
    {
        std::string name;
        /** Index of the enclosing span, -1 for a root. */
        long parent = -1;
        int64_t startNs = 0;
        int64_t endNs = 0;
    };

    /** Per-name totals over every closed span of that name. */
    struct Summary
    {
        size_t count = 0;
        double totalMs = 0.0;
        double selfMs = 0.0;
    };

    /** Open a span under the innermost open one; returns its index. */
    size_t
    begin(std::string name)
    {
        return open(std::move(name), nowNs());
    }

    /** Close the innermost open span (must be @p id). */
    void
    end(size_t id)
    {
        close(id, nowNs());
    }

    /** begin() with an explicit timestamp (tests). */
    size_t
    open(std::string name, int64_t start_ns)
    {
        Span span;
        span.name = std::move(name);
        span.parent = stack_.empty() ? -1 : long(stack_.back());
        span.startNs = start_ns;
        spans_.push_back(std::move(span));
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    /** end() with an explicit timestamp (tests). */
    void
    close(size_t id, int64_t end_ns)
    {
        if (stack_.empty() || stack_.back() != id) {
            std::fprintf(stderr, "perfbench: span '%s' closed out of "
                                 "order\n",
                         spans_.at(id).name.c_str());
            std::abort();
        }
        spans_[id].endNs = end_ns;
        stack_.pop_back();
    }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * A span's self time: its duration minus the part of its
     * interval that its direct children cover (children are clipped
     * to the parent and overlapping children counted once).
     */
    int64_t
    selfNs(size_t id) const
    {
        const Span &s = spans_.at(id);
        std::vector<std::pair<int64_t, int64_t>> covered;
        for (const Span &c : spans_) {
            if (c.parent != long(id))
                continue;
            const int64_t lo = std::max(c.startNs, s.startNs);
            const int64_t hi = std::min(c.endNs, s.endNs);
            if (hi > lo)
                covered.emplace_back(lo, hi);
        }
        std::sort(covered.begin(), covered.end());
        int64_t busy = 0, reach = s.startNs;
        for (const auto &[lo, hi] : covered) {
            const int64_t from = std::max(lo, reach);
            if (hi > from)
                busy += hi - from;
            reach = std::max(reach, hi);
        }
        return (s.endNs - s.startNs) - busy;
    }

    /** Totals per span name (closed spans only). */
    std::map<std::string, Summary>
    summarize() const
    {
        std::map<std::string, Summary> out;
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            if (s.endNs < s.startNs)
                continue;
            Summary &sum = out[s.name];
            ++sum.count;
            sum.totalMs += double(s.endNs - s.startNs) / 1e6;
            sum.selfMs += double(selfNs(i)) / 1e6;
        }
        return out;
    }

    /** Durations (ms) of every closed span named @p name, in order. */
    std::vector<double>
    durationsMs(const std::string &name) const
    {
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (s.name == name && s.endNs >= s.startNs)
                out.push_back(double(s.endNs - s.startNs) / 1e6);
        }
        return out;
    }

  private:
    static int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now().time_since_epoch())
            .count();
    }

    std::vector<Span> spans_;
    std::vector<size_t> stack_;
};

/** Opens a span for the lifetime of the scope (no-op without a log). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, std::string name) : log_(log)
    {
        if (log_ != nullptr)
            id_ = log_->begin(std::move(name));
    }
    ~ScopedSpan()
    {
        if (log_ != nullptr)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    size_t id_ = 0;
};

/**
 * A JSON number with every significant digit (round-trips the
 * double). Non-finite values have no JSON form: "null".
 */
inline std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** A JSON string literal (quotes, backslashes, control bytes escaped). */
inline std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", unsigned(c));
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_STATS_HH
