// Tests for the contention-adaptive runtime (src/adapt/): the decision
// function's transition rules (pure, so each rule is provable in
// isolation), the birthday-model resize arithmetic, the cycle rotation,
// and — through the sched harness — mid-run engine switches under explored
// interleavings with the serializability oracle watching, plus the
// quiesce-and-swap protocol on the real-thread production path.
#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "adapt/policy.hpp"
#include "config/config.hpp"
#include "sched/harness.hpp"
#include "sched/schedule.hpp"
#include "stm/stm.hpp"

// ---------------------------------------------------------------------------
// Live heap bytes, for tests that check when an engine's table is freed.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::int64_t> g_live_bytes{0};

void* tracked_alloc(std::size_t size) {
    void* p = std::malloc(size ? size : 1);
    if (p == nullptr) throw std::bad_alloc{};
    g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    return p;
}

void tracked_free(void* p) noexcept {
    if (p == nullptr) return;
    g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                           std::memory_order_relaxed);
    std::free(p);
}

[[nodiscard]] std::int64_t live_heap_bytes() {
    return g_live_bytes.load(std::memory_order_relaxed);
}
}  // namespace

// Over-aligned allocations keep the library's operators (not tracked).
void* operator new(std::size_t size) { return tracked_alloc(size); }
void* operator new[](std::size_t size) { return tracked_alloc(size); }
void operator delete(void* p) noexcept { tracked_free(p); }
void operator delete[](void* p) noexcept { tracked_free(p); }
void operator delete(void* p, std::size_t) noexcept { tracked_free(p); }
void operator delete[](void* p, std::size_t) noexcept { tracked_free(p); }

namespace tmb::adapt {
namespace {

using stm::BackendKind;
using stm::StmConfig;

StmConfig tagless(std::uint64_t entries, bool lazy = false) {
    StmConfig cfg;
    cfg.backend = BackendKind::kTaglessTable;
    cfg.table.entries = entries;
    cfg.commit_time_locks = lazy;
    return cfg;
}

/// A healthy-sized epoch sample (past the min_commits gate) with no
/// distress signals; tests switch individual signals on.
EpochSample calm_sample() {
    EpochSample s;
    s.commits = 100;
    s.aborts = 1;
    s.accesses = 800;  // footprint W = 4 blocks
    s.concurrency = 8;
    return s;
}

// ---------------------------------------------------------------------------
// Birthday-model arithmetic
// ---------------------------------------------------------------------------

TEST(BirthdayModel, PredictedFalseMatchesClosedForm) {
    // (C-1)·W²/(2N) with C=8, W=4, N=64 → 7·16/128 = 0.875.
    EXPECT_DOUBLE_EQ(predicted_false_per_commit(8, 4.0, 64), 0.875);
    EXPECT_DOUBLE_EQ(predicted_false_per_commit(1, 4.0, 64), 0.0);
    EXPECT_DOUBLE_EQ(predicted_false_per_commit(8, 4.0, 0), 0.0);
}

TEST(BirthdayModel, EntriesForTargetInvertsTheModel) {
    // Smallest power-of-two N with 7·16/(2N) < 0.01 → N > 5600 → 8192.
    EXPECT_EQ(entries_for_target(8, 4.0, 0.01, 2, 1u << 20), 8192u);
    // Cap below the required size: no table qualifies.
    EXPECT_EQ(entries_for_target(8, 4.0, 0.01, 2, 4096), 0u);
    // at_least is respected even when smaller tables would qualify.
    EXPECT_EQ(entries_for_target(2, 1.0, 0.5, 1024, 1u << 20), 1024u);
}

// ---------------------------------------------------------------------------
// decide(): auto-policy transition rules
// ---------------------------------------------------------------------------

TEST(AutoPolicy, OffAndThinSamplesNeverSwitch) {
    PolicyConfig off;
    off.kind = PolicyConfig::Kind::kOff;
    EpochSample storm = calm_sample();
    storm.aborts = 1000;
    storm.false_conflicts = 500;
    EXPECT_EQ(decide(off, tagless(16), tagless(16), storm), std::nullopt);

    PolicyConfig policy;  // auto
    EpochSample thin = storm;
    thin.commits = 4;
    thin.aborts = 8;  // attempts below min_commits
    EXPECT_EQ(decide(policy, tagless(16), tagless(16), thin), std::nullopt);
}

TEST(AutoPolicy, GrowsTaglessTableWhenMeasuredMatchesModel) {
    PolicyConfig policy;
    EpochSample s = calm_sample();
    // Measured false rate ≈ the model's prediction for N=64 (0.875/commit):
    // growth helps, so the policy resizes rather than bailing to tagged.
    s.false_conflicts = 88;
    s.aborts = 90;
    const auto next = decide(policy, tagless(64), tagless(64), s);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->backend, BackendKind::kTaglessTable);
    // Grown to where the model predicts < false_hi/4 = 0.005:
    // 7·16/(2N) < 0.005 → N > 11200 → 16384.
    EXPECT_EQ(next->table.entries, 16384u);
}

TEST(AutoPolicy, BailsToTaggedOnHotSpot) {
    PolicyConfig policy;
    EpochSample s = calm_sample();
    // Model says 0.875/commit at N=64; measuring far beyond it means hot
    // entries, which growth cannot fix — the tagged organization can.
    s.false_conflicts = 500;
    s.aborts = 500;
    const auto next = decide(policy, tagless(64), tagless(64), s);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->backend, BackendKind::kTaggedTable);
}

TEST(AutoPolicy, BailsToTaggedWhenGrowthCapExhausted) {
    PolicyConfig policy;
    policy.max_entries = 128;  // no table under the cap can help
    EpochSample s = calm_sample();
    s.false_conflicts = 88;
    s.aborts = 90;
    const auto next = decide(policy, tagless(64), tagless(64), s);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->backend, BackendKind::kTaggedTable);
}

TEST(AutoPolicy, NeverInitiatesLazyAcquisition) {
    // An abort storm of pure true conflicts under eager locking: the old
    // eager→lazy rule would fire here, and the table engines' sole-reader
    // upgrade rule would then livelock every read-modify-write. The auto
    // policy must sit still.
    PolicyConfig policy;
    EpochSample s = calm_sample();
    s.aborts = 900;
    s.true_conflicts = 900;
    EXPECT_EQ(decide(policy, tagless(1024), tagless(1024), s), std::nullopt);
}

TEST(AutoPolicy, LeavesLazyWhenCalmAndWhenStarving) {
    PolicyConfig policy;
    EpochSample calm = calm_sample();  // abort rate ~0.01 < abort_lo
    auto next = decide(policy, tagless(1024, true), tagless(1024, true), calm);
    ASSERT_TRUE(next.has_value());
    EXPECT_FALSE(next->commit_time_locks);

    EpochSample starving = calm_sample();  // upgrade livelock signature
    starving.commits = 1;
    starving.aborts = 400;
    next = decide(policy, tagless(1024, true), tagless(1024, true), starving);
    ASSERT_TRUE(next.has_value());
    EXPECT_FALSE(next->commit_time_locks);

    EpochSample midband = calm_sample();  // working but contended: keep lazy
    midband.aborts = 30;
    EXPECT_EQ(decide(policy, tagless(1024, true), tagless(1024, true), midband),
              std::nullopt);
}

TEST(AutoPolicy, Tl2FallsBackToGv1UnderClockContention) {
    PolicyConfig policy;
    StmConfig tl2;
    tl2.backend = BackendKind::kTl2;
    tl2.tl2_clock = stm::Tl2Clock::kGv5;
    EpochSample s = calm_sample();
    s.clock_cas_failures = 20;  // 0.2/commit > clock_hi
    auto next = decide(policy, tl2, tl2, s);
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->tl2_clock, stm::Tl2Clock::kGv1);

    // And returns to gv5 once quiet.
    tl2.tl2_clock = stm::Tl2Clock::kGv1;
    next = decide(policy, tl2, tl2, calm_sample());
    ASSERT_TRUE(next.has_value());
    EXPECT_EQ(next->tl2_clock, stm::Tl2Clock::kGv5);
}

TEST(CyclePolicy, RotationVisitsEveryShapeAndReturnsHome) {
    PolicyConfig policy;
    policy.kind = PolicyConfig::Kind::kCycle;
    const StmConfig home = tagless(16);
    const EpochSample s = calm_sample();

    const auto stage1 = decide(policy, home, home, s);
    ASSERT_TRUE(stage1.has_value());
    EXPECT_EQ(stage1->backend, BackendKind::kTaggedTable);

    const auto stage2 = decide(policy, *stage1, home, s);
    ASSERT_TRUE(stage2.has_value());
    EXPECT_EQ(stage2->backend, BackendKind::kTaglessTable);
    EXPECT_TRUE(stage2->commit_time_locks);

    const auto stage3 = decide(policy, *stage2, home, s);
    ASSERT_TRUE(stage3.has_value());
    EXPECT_FALSE(stage3->commit_time_locks);
    EXPECT_EQ(stage3->table.entries, 32u);

    const auto stage4 = decide(policy, *stage3, home, s);
    ASSERT_TRUE(stage4.has_value());
    EXPECT_EQ(stage4->backend, home.backend);
    EXPECT_EQ(stage4->table.entries, home.table.entries);
    EXPECT_FALSE(stage4->commit_time_locks);
}

// ---------------------------------------------------------------------------
// Scheduled interleavings: switches mid-run under the oracle
// ---------------------------------------------------------------------------

sched::HarnessConfig adaptive_config(const std::string& policy,
                                     std::uint64_t epoch) {
    sched::HarnessConfig cfg;
    cfg.backend = "adaptive";
    cfg.engine = "table";
    cfg.table = "tagless";
    cfg.entries = 4;  // < slots: aliasing (false conflicts) guaranteed
    cfg.policy = policy;
    cfg.epoch = epoch;
    cfg.max_entries = 64;
    cfg.threads = 3;
    cfg.txs_per_thread = 4;
    cfg.ops_per_tx = 3;
    cfg.slots = 8;
    cfg.write_fraction = 0.7;
    cfg.read_only_fraction = 0.2;
    cfg.workload_seed = 11;
    return cfg;
}

TEST(AdaptiveSched, CycleSwitchesStaySerializableUnderRandomSchedules) {
    const auto cfg = adaptive_config("cycle", 2);
    const auto result = sched::explore(
        cfg, config::Config::from_string("sched=random"), 150, 23);
    EXPECT_EQ(result.runs, 150u);
    EXPECT_TRUE(result.violations.empty())
        << result.violations.front().message;
    // epoch=2 over 12 commits per run: switches fire in (nearly) every run.
    EXPECT_GT(result.stats.policy_switches, 150u);
    // The rotation's resize stage runs too.
    EXPECT_GT(result.stats.table_resizes, 0u);
}

TEST(AdaptiveSched, CycleSwitchesStaySerializableUnderPct) {
    const auto cfg = adaptive_config("cycle", 2);
    const auto result = sched::explore(
        cfg, config::Config::from_string("sched=pct depth=3 steps=400"), 150,
        29);
    EXPECT_EQ(result.runs, 150u);
    EXPECT_TRUE(result.violations.empty())
        << result.violations.front().message;
    EXPECT_GT(result.stats.policy_switches, 0u);
}

TEST(AdaptiveSched, AutoPolicyResizesUnderAliasingPressure) {
    // Tiny table, write-heavy, epoch large enough to clear the policy's
    // min-attempts gate: the measured false-conflict rate forces a birthday
    // resize (or tagged bail-out) and the run must stay serializable.
    sched::HarnessConfig cfg = adaptive_config("auto", 32);
    cfg.threads = 4;
    cfg.txs_per_thread = 24;
    cfg.ops_per_tx = 4;
    cfg.write_fraction = 1.0;
    cfg.read_only_fraction = 0.0;
    const auto programs = sched::generate_programs(cfg);
    auto schedule =
        sched::make_schedule(config::Config::from_string("sched=random"), 31);
    const auto run = sched::run_schedule(cfg, programs, *schedule);
    EXPECT_EQ(sched::check_serializable(cfg, programs, run), std::nullopt);
    EXPECT_GT(run.stats.policy_switches, 0u);
}

TEST(AdaptiveSched, EngineStatePersistsAcrossRunsOnOneStm) {
    // The caller-owned-Stm overload: a cycle engine keeps rotating across
    // runs instead of starting from home each time, and instance counters
    // accumulate.
    const auto cfg = adaptive_config("cycle", 2);
    const auto programs = sched::generate_programs(cfg);
    const auto tm = stm::Stm::create(sched::stm_spec(cfg));
    std::uint64_t last_switches = 0;
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        auto schedule = sched::make_schedule(
            config::Config::from_string("sched=random"), seed);
        const auto run = sched::run_schedule(cfg, programs, *schedule, *tm);
        EXPECT_EQ(sched::check_serializable(cfg, programs, run), std::nullopt);
        EXPECT_GT(run.stats.policy_switches, last_switches);
        last_switches = run.stats.policy_switches;
    }
}

// ---------------------------------------------------------------------------
// Production path (real threads through stm::Stm)
// ---------------------------------------------------------------------------

TEST(AdaptiveStmProd, CycleRotatesAndPreservesValues) {
    const auto tm = stm::Stm::create(config::Config::from_string(
        "backend=adaptive engine=table table=tagless entries=16 "
        "policy=cycle epoch=1 max_entries=64"));
    stm::TVar<std::uint64_t> counter{0};
    for (int i = 0; i < 12; ++i) {
        tm->atomically([&](stm::Transaction& tx) {
            counter.write(tx, counter.read(tx) + 1);
        });
    }
    EXPECT_EQ(tm->atomically([&](stm::Transaction& tx) {
        return counter.read(tx);
    }), 12u);
    const auto stats = tm->stats();
    // epoch=1: every commit stages a switch, applied at the next begin.
    EXPECT_GE(stats.policy_switches, 8u);
    EXPECT_GT(stats.table_resizes, 0u);
    EXPECT_EQ(stats.commits, 13u);
    // The live engine description names the adaptive wrapper and its
    // mounted shape.
    EXPECT_NE(tm->backend_description().find("adaptive("), std::string::npos);
}

TEST(AdaptiveStmProd, ConcurrencyCountsCheckedOutContextsNotPooledOnes) {
    // The birthday model's C is the number of checked-out contexts. Build
    // and pool 16 contexts first (16 threads inside atomically at once),
    // then generate false conflicts with exactly 2 checked-out Executors
    // on a 1-entry tagless table (every block aliases). The resize must be
    // sized for C=2, not for the 18 contexts ever built.
    const auto tm = stm::Stm::create(config::Config::from_string(
        "backend=adaptive engine=table table=tagless entries=1 policy=auto "
        "epoch=32 max_attempts=1 contention=none"));
    constexpr int kPooled = 16;
    std::atomic<int> waiting{kPooled};
    std::vector<std::thread> threads;
    for (int t = 0; t < kPooled; ++t) {
        threads.emplace_back([&] {
            tm->atomically([&](stm::Transaction&) {
                // No access: nothing is held while waiting.
                waiting.fetch_sub(1);
                while (waiting.load() > 0) std::this_thread::yield();
            });
        });
    }
    for (auto& th : threads) th.join();

    struct alignas(64) PaddedVar {
        stm::TVar<long> value;
    };
    PaddedVar a;
    PaddedVar b;
    const auto outer = tm->make_executor();
    const auto inner = tm->make_executor();
    for (int i = 0; i < 64 && tm->stats().policy_switches == 0; ++i) {
        outer->atomically([&](stm::Transaction& tx) {
            a.value.write(tx, i);
            try {
                // Aliases the block `outer` holds: a false conflict, and
                // max_attempts=1 turns it into TooMuchContention.
                inner->atomically(
                    [&](stm::Transaction& itx) { b.value.write(itx, i); });
            } catch (const stm::TooMuchContention&) {
            }
        });
    }
    // The staged switch is applied at the next begin.
    tm->atomically([](stm::Transaction&) {});
    ASSERT_EQ(tm->stats().policy_switches, 1u);
    // One store per committed outer transaction: W = 1 block.
    const double target = PolicyConfig{}.false_hi / 4;
    const std::uint64_t for_two = entries_for_target(2, 1.0, target, 2,
                                                     PolicyConfig{}.max_entries);
    ASSERT_NE(for_two, entries_for_target(kPooled + 2, 1.0, target, 2,
                                          PolicyConfig{}.max_entries));
    EXPECT_NE(tm->backend_description().find(
                  "entries=" + std::to_string(for_two) + " "),
              std::string::npos)
        << tm->backend_description();
}

TEST(AdaptiveStmProd, PooledContextsDoNotKeepSwappedOutEnginesAlive) {
    // The atomic family's cycle toggles the table between N and 2N entries
    // on every commit (epoch=1), and the next begin swaps. A swapped-out
    // engine must die as soon as no *checked-out* context uses it: a
    // pooled context, idle across the swap or returned after it, must
    // not keep the old engine and its table alive.
    constexpr std::uint64_t kEntries = std::uint64_t{1} << 18;
    const std::int64_t before_create = live_heap_bytes();
    const auto tm = stm::Stm::create(config::Config::from_string(
        "backend=adaptive engine=atomic entries=" + std::to_string(kEntries) +
        " policy=cycle epoch=1 max_entries=" + std::to_string(2 * kEntries)));
    // What one N-entry engine costs (its table dominates).
    const std::int64_t engine_bytes = live_heap_bytes() - before_create;
    ASSERT_GE(engine_bytes,
              static_cast<std::int64_t>(kEntries * sizeof(std::uint64_t)));
    stm::TVar<long> x{0};
    auto bump = [&](stm::Transaction& tx) { x.write(tx, x.read(tx) + 1); };

    // Idle across the swap: `idle`'s context is pooled while N is live;
    // `other`, checked out throughout (so it cannot take that context),
    // swaps N for 2N.
    auto idle = tm->make_executor();
    auto other = tm->make_executor();
    idle->atomically(bump);
    idle.reset();
    std::int64_t mark = live_heap_bytes();
    other->atomically(bump);  // N -> 2N
    // Freed N, built 2N: net +N. Keeping N alive would make it +2N.
    EXPECT_LT(live_heap_bytes() - mark, engine_bytes * 3 / 2)
        << "an idle pooled context kept the swapped-out engine alive";

    // Returned after the swap: `other` stays bound to 2N while another
    // context swaps 2N for N; returning `other` must release 2N.
    tm->atomically(bump);  // 2N -> N
    mark = live_heap_bytes();
    other.reset();
    EXPECT_GE(mark - live_heap_bytes(), engine_bytes)
        << "a context returned after a swap kept the old engine alive";
    EXPECT_EQ(x.unsafe_read(), 3);
}

TEST(AdaptiveStmProd, RejectsUnknownPolicyAndNestedEngine) {
    EXPECT_THROW((void)stm::Stm::create(config::Config::from_string(
                     "backend=adaptive policy=sometimes")),
                 std::invalid_argument);
    EXPECT_THROW((void)stm::Stm::create(config::Config::from_string(
                     "backend=adaptive engine=adaptive")),
                 std::invalid_argument);
}

}  // namespace
}  // namespace tmb::adapt
