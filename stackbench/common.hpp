// common.hpp — measurement helpers shared by the three stackbench workloads:
// robust summaries over repetitions, the metric sheet each workload fills,
// and the process's peak RSS.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace stackbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `v` (mean of the middle two for an even count); 0 when empty.
[[nodiscard]] inline double median(std::vector<double> v) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Mean of `v`; 0 when empty.
[[nodiscard]] inline double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
}

/// One reported number: value, unit, and how many samples it summarizes
/// (operations timed, repetitions taken — see the metric's docs).
struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/// Everything one workload process reports. `attempted`/`failed` count the
/// workload's unit of work (map calls, transactions, requests); `checks`
/// lists every output-check violation (empty = correct).
struct Report {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> checks;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit,
             std::uint64_t samples) {
        metrics.push_back({std::move(name), value, std::move(unit), samples});
    }
    void check(bool ok, const std::string& what) {
        if (!ok) checks.push_back(what);
    }
};

/// Peak resident set of this process in MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// Ratio with a zero-safe denominator (0 when nothing was counted).
[[nodiscard]] inline double ratio(double num, double den) {
    return den > 0.0 ? num / den : 0.0;
}

}  // namespace stackbench
