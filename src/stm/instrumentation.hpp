// instrumentation.hpp — the unified per-backend instrumentation block.
//
// Every STM backend (tl2 / table / atomic) reports into one `Instrumentation`
// struct owned by its `Stm` instance: commit/abort counts, the paper's
// true- vs false-conflict classification, and a per-transaction retry
// histogram (how many attempts each committed transaction needed — the
// user-visible cost of the false conflicts the paper models). All counters
// are relaxed atomics; `Stm::stats()` snapshots them into the value-type
// `StmStats` handed to callers.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/histogram.hpp"

namespace tmb::stm::detail {

struct Instrumentation {
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts{0};            ///< conflict-induced
    std::atomic<std::uint64_t> explicit_retries{0};  ///< Transaction::retry()
    /// Table backends classify each conflict by checking whether any
    /// conflicting transaction actually holds the same block: same block →
    /// true conflict; different blocks aliasing to one entry → false
    /// conflict (tagless only; tagged tables never report one).
    std::atomic<std::uint64_t> true_conflicts{0};
    std::atomic<std::uint64_t> false_conflicts{0};
    /// TL2 only: read-set entries recorded (post-dedup — one per *unique*
    /// stripe lock read) and lock words examined by commit-time validation
    /// plus read-version extension. With the dedup filter in place,
    /// validation work per commit equals the unique-stripe count, not the
    /// load count; tests assert exactly that. Backends accumulate these as
    /// plain counters in the TxContext and flush when the context retires
    /// (TxContext::flush_stats), so no hot path touches a shared counter;
    /// exact at quiescent points.
    std::atomic<std::uint64_t> tl2_read_set_entries{0};
    std::atomic<std::uint64_t> tl2_validation_checks{0};
    /// TL2 only: failed CAS iterations while advancing the global version
    /// clock (the gv5 conflict path and failed gv1-style publishes). The
    /// clock cache line is the hottest contended word in classic TL2; this
    /// counter is the adaptive layer's signal for gv5 vs gv1 selection.
    std::atomic<std::uint64_t> clock_cas_failures{0};
    /// Adaptive backend only: completed engine swaps (any strategy change)
    /// and the subset that changed the ownership-table entry count.
    std::atomic<std::uint64_t> policy_switches{0};
    std::atomic<std::uint64_t> table_resizes{0};

    /// Attempts-per-committed-transaction histogram: bucket i (1-based)
    /// counts transactions that committed on attempt i; the last bucket
    /// accumulates everything beyond kMaxTrackedAttempts.
    static constexpr std::uint32_t kMaxTrackedAttempts = 32;
    std::array<std::atomic<std::uint64_t>, kMaxTrackedAttempts + 1>
        attempt_buckets{};

    /// attempt_buckets index of a commit on attempt `attempts` (>= 1).
    [[nodiscard]] static std::uint32_t bucket_of(std::uint32_t attempts) noexcept {
        return attempts == 0                     ? 0
               : attempts > kMaxTrackedAttempts ? kMaxTrackedAttempts
                                                 : attempts - 1;
    }

    /// Records a commit that succeeded on attempt `attempts` (>= 1).
    void record_commit(std::uint32_t attempts) noexcept {
        commits.fetch_add(1, std::memory_order_relaxed);
        attempt_buckets[bucket_of(attempts)].fetch_add(1,
                                                       std::memory_order_relaxed);
    }

    /// Records an aborted attempt (conflict, or Transaction::retry()).
    void record_abort(bool user_requested) noexcept {
        (user_requested ? explicit_retries : aborts)
            .fetch_add(1, std::memory_order_relaxed);
    }

    /// Rebuilds the attempts histogram as a value type (overflow mass lands
    /// in the histogram's own overflow bucket).
    [[nodiscard]] util::Histogram attempts_histogram() const {
        util::Histogram h(kMaxTrackedAttempts);
        for (std::uint32_t i = 0; i < kMaxTrackedAttempts; ++i) {
            const std::uint64_t n =
                attempt_buckets[i].load(std::memory_order_relaxed);
            if (n) h.add(i + 1, n);
        }
        const std::uint64_t over =
            attempt_buckets[kMaxTrackedAttempts].load(std::memory_order_relaxed);
        if (over) h.add(kMaxTrackedAttempts + 1, over);
        return h;
    }
};

/// The attempt loop's counters for one context, as plain integers: what
/// Stm::atomically records per call, so no call touches a counter shared by
/// all threads. The runtime folds a tally into the instance block when
/// Stm::stats() visits the idle context and before the context is
/// destroyed.
struct RunTally {
    std::uint64_t commits = 0;
    std::uint64_t aborts = 0;
    std::uint64_t explicit_retries = 0;
    std::array<std::uint64_t, Instrumentation::kMaxTrackedAttempts + 1>
        attempt_buckets{};

    void record_commit(std::uint32_t attempts) noexcept {
        ++commits;
        ++attempt_buckets[Instrumentation::bucket_of(attempts)];
    }

    void record_abort(bool user_requested) noexcept {
        ++(user_requested ? explicit_retries : aborts);
    }

    /// Adds the tally to `into` and zeroes it.
    void fold_into(Instrumentation& into) noexcept {
        if (commits == 0 && aborts == 0 && explicit_retries == 0) return;
        into.commits.fetch_add(commits, std::memory_order_relaxed);
        into.aborts.fetch_add(aborts, std::memory_order_relaxed);
        into.explicit_retries.fetch_add(explicit_retries,
                                        std::memory_order_relaxed);
        for (std::size_t i = 0; i < attempt_buckets.size(); ++i) {
            if (attempt_buckets[i] != 0) {
                into.attempt_buckets[i].fetch_add(attempt_buckets[i],
                                                  std::memory_order_relaxed);
            }
        }
        *this = RunTally{};
    }
};

}  // namespace tmb::stm::detail
