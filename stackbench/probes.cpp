// probes.cpp — measurements every traced run shares: the ownership-table
// probe, per-layer self-time shares from the spans, and peak RSS.
#include <sys/resource.h>

#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "config/config.hpp"
#include "ownership/any_table.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace stackbench {

double peak_rss_mb() {
    // VmHWM, the peak resident set of this process's address space. Linux
    // carries ru_maxrss across execve, so getrusage would report the
    // launching process's peak (run.py's Python, ~15 MiB) whenever this
    // process stays below it.
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long kib = 0;
        bool found = false;
        while (!found && std::fgets(line, sizeof line, f) != nullptr) {
            found = std::sscanf(line, "VmHWM: %lu kB", &kib) == 1;
        }
        std::fclose(f);
        if (found) return static_cast<double>(kib) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void probe_acquire_release(std::uint64_t seed, Report& out) {
    constexpr std::uint64_t kSlots = 1u << 16;  // alias's counter array
    constexpr std::uint32_t kTxSize = 16;
    constexpr int kFootprints = 2000;
    constexpr int kRounds = 15;
    const auto table = tmb::ownership::make_table(
        tmb::config::Config::from_string("table=atomic_tagless entries=4096"));

    // Footprints as alias draws them: 16 uniform 8-byte slots, one 64-byte
    // block each. Blocks that share an entry are acquired once, as one
    // transaction holding the entry would.
    tmb::util::Xoshiro256 rng{seed ^ 0x6f776e6572ULL};
    std::vector<std::vector<std::uint64_t>> footprints(kFootprints);
    std::uint64_t pairs = 0;
    for (auto& fp : footprints) {
        std::set<std::uint64_t> entries;
        for (std::uint32_t i = 0; i < kTxSize; ++i) {
            const std::uint64_t block = rng.below(kSlots) * 8 / 64;
            if (entries.insert(table->index_of(block)).second) {
                fp.push_back(block);
            }
        }
        pairs += fp.size();
    }
    std::vector<double> ns;
    std::uint64_t failed = 0;
    for (int round = 0; round < kRounds; ++round) {
        const std::uint64_t t0 = now_ns();
        for (const auto& fp : footprints) {
            for (const std::uint64_t b : fp) {
                failed += table->acquire_write(0, b).ok ? 0 : 1;
            }
            for (const std::uint64_t b : fp) {
                table->release(0, b, tmb::ownership::Mode::kWrite);
            }
        }
        ns.push_back(static_cast<double>(now_ns() - t0) /
                     static_cast<double>(pairs));
    }
    out.check(failed == 0, "ownership probe: a lone transaction failed " +
                               std::to_string(failed) + " acquires");
    out.check(table->occupied_entries() == 0,
              "ownership probe: entries still held after release");
    out.add("ownership.acquire_release_ns", median(ns), "ns",
            pairs * kRounds);
}

void add_self_shares(Report& out) {
    std::map<std::string, SpanTotals> layers;
    double total = 0.0;
    for (const auto& [name, t] : Tracer::instance().summarize()) {
        SpanTotals& l = layers[layer_of(name)];
        l.count += t.count;
        l.self_ns += t.self_ns;
        total += t.self_ns;
    }
    for (const auto& [layer, l] : layers) {
        out.add(layer + ".self_share", ratio(l.self_ns, total), "share",
                l.count);
    }
}

}  // namespace stackbench
