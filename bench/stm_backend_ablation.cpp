// stm_backend_ablation — google-benchmark comparison of the STM backends on
// live multithreaded workloads (ablation A1 in DESIGN.md).
//
// The paper's argument made operational: with disjoint per-thread data, the
// tagless backend's throughput degrades as the table shrinks (false
// conflicts), while the tagged backend holds steady. TL2 is the classic
// word-STM baseline.
//
// Backends are constructed *by name* through the config registry
// (stm::Stm::create), and the contended-workload benchmarks are registered
// dynamically for every organization the registry knows — registering a new
// organization automatically adds it to this ablation.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "config/config.hpp"
#include "ownership/any_table.hpp"
#include "stm/stm.hpp"
#include "util/rng.hpp"

namespace {

using tmb::stm::Stm;
using tmb::stm::Transaction;
using tmb::stm::TVar;

/// Builds a runtime from an inline spec, e.g. "table=tagless entries=4096".
std::unique_ptr<Stm> make_tm(const std::string& spec) {
    return Stm::create(tmb::config::Config::from_string(spec));
}

/// One cache block per variable: threads then touch fully disjoint blocks,
/// so aliasing is the only possible source of conflicts.
struct alignas(64) PaddedVar {
    TVar<long> value;
};

/// Each of 4 threads increments counters in its own disjoint region —
/// aliasing is the only possible source of conflicts. `spec` is a backend
/// spec (works for table organizations and for tl2 alike); benchmark arg 0,
/// when nonzero, is the ownership-table entry count.
void run_disjoint_workload(benchmark::State& state, const std::string& spec) {
    constexpr int kThreads = 4;
    constexpr int kVarsPerThread = 64;
    constexpr int kTxPerThread = 400;
    std::string full_spec = spec + " contention=yield";
    if (state.range(0) > 0) {
        full_spec += " entries=" + std::to_string(state.range(0));
    }

    for (auto _ : state) {
        const auto tm_owner = make_tm(full_spec);
        Stm& tm = *tm_owner;
        std::vector<PaddedVar> vars(kThreads * kVarsPerThread);
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                tmb::util::Xoshiro256 rng{static_cast<std::uint64_t>(t) + 99};
                for (int i = 0; i < kTxPerThread; ++i) {
                    const std::size_t base =
                        static_cast<std::size_t>(t) * kVarsPerThread;
                    const auto a = base + rng.below(kVarsPerThread);
                    const auto b = base + rng.below(kVarsPerThread);
                    tm.atomically([&](Transaction& tx) {
                        vars[a].value.write(tx, vars[a].value.read(tx) + 1);
                        // Yield mid-transaction so transactions overlap even
                        // on a single hardware thread (otherwise the OS
                        // serializes these short bodies and no conflicts can
                        // ever materialize).
                        std::this_thread::yield();
                        vars[b].value.write(tx, vars[b].value.read(tx) - 1);
                    });
                }
            });
        }
        for (auto& th : threads) th.join();

        const auto stats = tm.stats();
        state.counters["aborts"] = static_cast<double>(stats.aborts);
        state.counters["false_conflicts"] =
            static_cast<double>(stats.false_conflicts);
        state.counters["true_conflicts"] =
            static_cast<double>(stats.true_conflicts);
        state.counters["abort_rate"] = stats.abort_rate();
        state.counters["mean_attempts"] = stats.mean_attempts();
        state.counters["clock_cas_failures"] =
            static_cast<double>(stats.clock_cas_failures);
        state.counters["policy_switches"] =
            static_cast<double>(stats.policy_switches);
        state.counters["table_resizes"] =
            static_cast<double>(stats.table_resizes);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            kThreads * kTxPerThread);
}

/// TL2 on the same workload (no ownership table; versioned locks).
void BM_Tl2_DisjointThreads(benchmark::State& state) {
    run_disjoint_workload(state, "backend=tl2");
}

BENCHMARK(BM_Tl2_DisjointThreads)->ArgName("entries")->Arg(0)->UseRealTime();

/// The adaptive runtime on the same workload, starting from the small
/// tagless table the entries arg names: the auto policy reads the false-
/// conflict rate and grows (or re-tags) the table online, so the shrinking-
/// table degradation the static tagless rows show should flatten out here.
void BM_Adaptive_DisjointThreads(benchmark::State& state) {
    run_disjoint_workload(state,
                          "backend=adaptive engine=table table=tagless "
                          "policy=auto epoch=128 max_entries=65536");
}

BENCHMARK(BM_Adaptive_DisjointThreads)
    ->ArgName("entries")
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime();

/// Single-thread transaction overhead: the raw cost of the metadata
/// organization with no contention at all. `spec` selects the backend by
/// registry name; the lazy variants isolate commit-time locking cost. Each
/// bench has an Executor twin running the same body through one
/// make_executor(); the difference is what Stm::atomically adds per call
/// (context checkout and return).
template <bool kViaExecutor>
void run_single_thread(benchmark::State& state, const std::string& spec) {
    const auto tm_owner = make_tm(spec);
    Stm& tm = *tm_owner;
    const auto exec = kViaExecutor ? tm.make_executor() : nullptr;
    std::vector<TVar<long>> vars(256);
    tmb::util::Xoshiro256 rng{3};
    const auto one = [&](auto& via) {
        const auto a = rng.below(256);
        const auto b = rng.below(256);
        via.atomically([&](Transaction& tx) {
            vars[a].write(tx, vars[a].read(tx) + 1);
            vars[b].write(tx, vars[b].read(tx) + 1);
        });
    };
    for (auto _ : state) {
        if constexpr (kViaExecutor) {
            one(*exec);
        } else {
            one(tm);
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    if constexpr (kViaExecutor) {
        // atomically ns/tx over Executor ns/tx, from rounds that alternate
        // the two paths on this runtime: both halves of a round see the
        // same host state, so the median round ratio holds up on a shared
        // runner where the two rows' absolute ns/tx do not.
        // tools/bench_snapshot gates it.
        constexpr int kRounds = 9;
        constexpr int kPerRound = 1000;
        std::vector<double> ratios;
        for (int round = 0; round < kRounds; ++round) {
            const auto t0 = std::chrono::steady_clock::now();
            for (int i = 0; i < kPerRound; ++i) one(tm);
            const auto t1 = std::chrono::steady_clock::now();
            for (int i = 0; i < kPerRound; ++i) one(*exec);
            const auto t2 = std::chrono::steady_clock::now();
            ratios.push_back(std::chrono::duration<double>(t1 - t0).count() /
                             std::chrono::duration<double>(t2 - t1).count());
        }
        std::nth_element(ratios.begin(), ratios.begin() + kRounds / 2,
                         ratios.end());
        state.counters["atomically_ratio"] = ratios[kRounds / 2];
    }
}

/// Registers BM_<name>_SingleThread and its BM_<name>_SingleThreadExecutor
/// twin.
#define SINGLE_THREAD_BENCH(name, spec)                                 \
    void BM_##name##_SingleThread(benchmark::State& state) {            \
        run_single_thread<false>(state, spec);                          \
    }                                                                   \
    void BM_##name##_SingleThreadExecutor(benchmark::State& state) {    \
        run_single_thread<true>(state, spec);                           \
    }                                                                   \
    BENCHMARK(BM_##name##_SingleThread);                                \
    BENCHMARK(BM_##name##_SingleThreadExecutor)

SINGLE_THREAD_BENCH(Tagless, "table=tagless entries=64k");
SINGLE_THREAD_BENCH(Tagged, "table=tagged entries=64k");
SINGLE_THREAD_BENCH(Atomic, "backend=atomic entries=64k");
SINGLE_THREAD_BENCH(Tl2, "backend=tl2");
SINGLE_THREAD_BENCH(TaglessLazy, "table=tagless entries=64k commit_time_locks=1");
SINGLE_THREAD_BENCH(TaggedLazy, "table=tagged entries=64k commit_time_locks=1");
/// Forwarding cost of the adaptive wrapper with the policy disabled: the
/// delta against BM_Tagless_SingleThread is the per-access price of the
/// epoch layer (one indirection + in-flight bookkeeping).
SINGLE_THREAD_BENCH(AdaptiveOff,
                    "backend=adaptive engine=table table=tagless "
                    "entries=64k policy=off");

}  // namespace

int main(int argc, char** argv) {
    // The contended ablation covers every registered organization the STM
    // engine can mount (external AnyTable registrations are simulator-only:
    // the table backends are compiled against the built-in organizations,
    // so anything stm_config_from cannot map is skipped here).
    for (const std::string& org : tmb::ownership::table_names()) {
        try {
            (void)tmb::stm::stm_config_from(
                tmb::config::Config::from_string("table=" + org));
        } catch (const std::invalid_argument&) {
            continue;
        }
        auto* b = benchmark::RegisterBenchmark(
            ("BM_DisjointThreads/table=" + org).c_str(),
            [org](benchmark::State& state) {
                run_disjoint_workload(state, "table=" + org);
            });
        b->ArgName("entries")->Arg(256)->Arg(4096)->Arg(65536)->UseRealTime();
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
