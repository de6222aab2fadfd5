// workloads.hpp — the three stackbench workloads and the probes their
// traced runs share. Each workload builds its inputs from the seed, sets up
// once before and once more after every timed window, run or cycle (setup_s
// is the median), measures for the given number of seconds, checks its
// outputs and fills a Report. See README.md for what
// each metric means and which layer it belongs to.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>

#include "common.hpp"

namespace stackbench {

struct Options {
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

/// `kv-atomically`: 3 closed-loop threads on a THashMap, one
/// Stm::atomically per call.
[[nodiscard]] Report run_kv(const Options& opt);

/// `alias-executor`: ParallelRunner, 3 threads, counters tx_size=16 on a
/// 4096-entry atomic tagless table.
[[nodiscard]] Report run_alias(const Options& opt);

/// `svc-open`: run_service in an open loop at fixed offered rates.
[[nodiscard]] Report run_svc(const Options& opt);

/// Traced-run probe: ns per acquire+release pair of one alias-sized write
/// footprint through ownership::make_table (atomic_tagless, 4096 entries),
/// one thread. Adds `ownership.acquire_release_ns`.
void probe_acquire_release(std::uint64_t seed, Report& out);

/// Adds one `<layer>.self_share` per layer with spans: the layer's self
/// time over the self time of every span.
void add_self_shares(Report& out);

/// Length of the kv and alias timed phases. Their traced runs record a span
/// per operation (~1M spans/s, 32 bytes each), so a traced timed phase is
/// capped to keep the in-memory trace near 64 MiB.
[[nodiscard]] inline double timed_seconds(const Options& opt) {
    constexpr double kMaxTracedSeconds = 2.0;
    return opt.trace ? std::min(opt.seconds, kMaxTracedSeconds) : opt.seconds;
}

}  // namespace stackbench
