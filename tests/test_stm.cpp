// Tests for src/stm: the transactional-memory runtime across all three
// backends (tagless table, tagged table, TL2). Covers single-thread
// semantics, failure atomicity, multithreaded serializability smoke tests,
// and the paper-relevant property that only the tagless backend reports
// false conflicts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "stm/stm.hpp"
#include "util/rng.hpp"

namespace tmb::stm {
namespace {

StmConfig config_for(BackendKind kind) {
    StmConfig c;
    c.backend = kind;
    c.table.entries = 1u << 16;
    c.contention.policy = ContentionPolicy::kYield;
    return c;
}

/// A TVar alone on its 64-byte block.
struct alignas(64) PaddedVar {
    TVar<long> v{0};
};

class StmAllBackends : public ::testing::TestWithParam<BackendKind> {};

INSTANTIATE_TEST_SUITE_P(Backends, StmAllBackends,
                         ::testing::Values(BackendKind::kTaglessTable,
                                           BackendKind::kTaglessAtomic,
                                           BackendKind::kTaggedTable,
                                           BackendKind::kTl2),
                         [](const auto& suite_info) {
                             switch (suite_info.param) {
                                 case BackendKind::kTaglessTable: return "Tagless";
                                 case BackendKind::kTaglessAtomic: return "TaglessAtomic";
                                 case BackendKind::kTaggedTable: return "Tagged";
                                 case BackendKind::kTl2: return "Tl2";
                             }
                             return "Unknown";
                         });

TEST_P(StmAllBackends, ReadYourOwnWrite) {
    Stm tm(config_for(GetParam()));
    TVar<int> x{1};
    tm.atomically([&](Transaction& tx) {
        x.write(tx, 42);
        EXPECT_EQ(x.read(tx), 42);
    });
    EXPECT_EQ(x.unsafe_read(), 42);
}

TEST_P(StmAllBackends, CommitPublishesMultipleVars) {
    Stm tm(config_for(GetParam()));
    TVar<long> a{10}, b{20}, c{30};
    tm.atomically([&](Transaction& tx) {
        a.write(tx, a.read(tx) + 1);
        b.write(tx, b.read(tx) + 2);
        c.write(tx, c.read(tx) + 3);
    });
    EXPECT_EQ(a.unsafe_read(), 11);
    EXPECT_EQ(b.unsafe_read(), 22);
    EXPECT_EQ(c.unsafe_read(), 33);
}

TEST_P(StmAllBackends, ReturnsValueFromBody) {
    Stm tm(config_for(GetParam()));
    TVar<int> x{5};
    const int doubled = tm.atomically([&](Transaction& tx) { return 2 * x.read(tx); });
    EXPECT_EQ(doubled, 10);
}

TEST_P(StmAllBackends, UserExceptionRollsBack) {
    Stm tm(config_for(GetParam()));
    TVar<int> x{7};
    struct Boom {};
    EXPECT_THROW(tm.atomically([&](Transaction& tx) {
        x.write(tx, 99);
        throw Boom{};
    }),
                 Boom);
    EXPECT_EQ(x.unsafe_read(), 7) << "failure atomicity: writes must roll back";
    EXPECT_EQ(tm.stats().commits, 0u);
}

TEST_P(StmAllBackends, StatsCountCommits) {
    Stm tm(config_for(GetParam()));
    TVar<int> x{0};
    for (int i = 0; i < 5; ++i) {
        tm.atomically([&](Transaction& tx) { x.write(tx, x.read(tx) + 1); });
    }
    EXPECT_EQ(tm.stats().commits, 5u);
    EXPECT_EQ(x.unsafe_read(), 5);
}

TEST_P(StmAllBackends, TVarSupportsSmallTypes) {
    Stm tm(config_for(GetParam()));
    TVar<double> d{1.5};
    TVar<char> ch{'a'};
    TVar<bool> flag{false};
    tm.atomically([&](Transaction& tx) {
        d.write(tx, d.read(tx) * 2);
        ch.write(tx, 'z');
        flag.write(tx, true);
    });
    EXPECT_DOUBLE_EQ(d.unsafe_read(), 3.0);
    EXPECT_EQ(ch.unsafe_read(), 'z');
    EXPECT_TRUE(flag.unsafe_read());
}

TEST_P(StmAllBackends, RawWordArrayAccess) {
    Stm tm(config_for(GetParam()));
    alignas(8) std::uint64_t words[16] = {};
    tm.atomically([&](Transaction& tx) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            tx.store(&words[i], i * i);
        }
    });
    tm.atomically([&](Transaction& tx) {
        for (std::uint64_t i = 0; i < 16; ++i) {
            EXPECT_EQ(tx.load(&words[i]), i * i);
        }
    });
}

TEST_P(StmAllBackends, BankTransferInvariantUnderContention) {
    // The classic serializability smoke test: concurrent random transfers
    // preserve the total balance.
    Stm tm(config_for(GetParam()));
    constexpr int kAccounts = 32;
    constexpr long kInitial = 1000;
    std::vector<TVar<long>> accounts(kAccounts);
    for (auto& a : accounts) {
        tm.atomically([&](Transaction& tx) { a.write(tx, kInitial); });
    }

    constexpr int kThreads = 4;
    constexpr int kTransfersPerThread = 300;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            util::Xoshiro256 rng{static_cast<std::uint64_t>(t) + 1};
            for (int i = 0; i < kTransfersPerThread; ++i) {
                const auto from = static_cast<std::size_t>(rng.below(kAccounts));
                auto to = static_cast<std::size_t>(rng.below(kAccounts));
                if (to == from) to = (to + 1) % kAccounts;
                const long amount = static_cast<long>(rng.below(50));
                tm.atomically([&](Transaction& tx) {
                    accounts[from].write(tx, accounts[from].read(tx) - amount);
                    accounts[to].write(tx, accounts[to].read(tx) + amount);
                });
            }
        });
    }
    for (auto& th : threads) th.join();

    const long total = tm.atomically([&](Transaction& tx) {
        long sum = 0;
        for (auto& a : accounts) sum += a.read(tx);
        return sum;
    });
    EXPECT_EQ(total, kAccounts * kInitial);
    const auto stats = tm.stats();
    EXPECT_EQ(stats.commits,
              static_cast<std::uint64_t>(kThreads) * kTransfersPerThread + kAccounts + 1);
}

TEST_P(StmAllBackends, ConcurrentCountersDontLoseUpdates) {
    Stm tm(config_for(GetParam()));
    TVar<long> counter{0};
    constexpr int kThreads = 4;
    constexpr int kIncrements = 500;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIncrements; ++i) {
                tm.atomically(
                    [&](Transaction& tx) { counter.write(tx, counter.read(tx) + 1); });
            }
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(counter.unsafe_read(), kThreads * kIncrements);
}

TEST_P(StmAllBackends, ConcurrentAtomicallyCallsAreCountedExactly) {
    // Each atomically() call counts into its own context; Stm::stats()
    // folds the idle pooled contexts. Four threads fit in the pool (a
    // shard holds four), so every count must come back through that fold.
    Stm tm(config_for(GetParam()));
    TVar<long> counter{0};
    constexpr int kThreads = 4;
    constexpr int kCalls = 400;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kCalls; ++i) {
                tm.atomically(
                    [&](Transaction& tx) { counter.write(tx, counter.read(tx) + 1); });
            }
        });
    }
    for (auto& th : threads) th.join();
    const StmStats stats = tm.stats();
    EXPECT_EQ(stats.commits, std::uint64_t{kThreads} * kCalls);
    EXPECT_EQ(stats.attempts_per_commit.total(), stats.commits);
    // Folding zeroes the tallies: a second read counts nothing twice.
    EXPECT_EQ(tm.stats().commits, stats.commits);
    EXPECT_EQ(tm.stats().aborts, stats.aborts);
}

TEST_P(StmAllBackends, MaxAttemptsThrowsTooMuchContention) {
    auto cfg = config_for(GetParam());
    cfg.max_attempts = 3;
    Stm tm(cfg);
    TVar<int> x{0};

    // A body that can never succeed: every attempt requests a retry.
    bool threw = false;
    try {
        tm.atomically([&](Transaction& tx) {
            (void)x.read(tx);
            tx.retry();
        });
    } catch (const TooMuchContention&) {
        threw = true;
    }
    EXPECT_TRUE(threw);
    EXPECT_EQ(tm.stats().explicit_retries, 3u);
    EXPECT_EQ(tm.stats().commits, 0u);
    EXPECT_EQ(x.unsafe_read(), 0);
}

TEST_P(StmAllBackends, HistoryChainIsSerializable) {
    // Read-modify-write history check on a single variable: each committed
    // transaction reads x and writes a unique new value. Serializability
    // requires the (read, written) pairs to form one chain from the initial
    // value: every read value is either the initial value or exactly one
    // other transaction's written value, with no duplicates.
    Stm tm(config_for(GetParam()));
    TVar<long> x{0};
    constexpr int kThreads = 4;
    constexpr int kTxPerThread = 200;

    std::vector<std::pair<long, long>> history(
        static_cast<std::size_t>(kThreads * kTxPerThread));
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kTxPerThread; ++i) {
                // Unique value per (thread, i): thread in low bits.
                const long next = (static_cast<long>(i) + 1) * kThreads + t + 1;
                const long seen = tm.atomically([&](Transaction& tx) {
                    const long v = x.read(tx);
                    x.write(tx, next);
                    return v;
                });
                history[static_cast<std::size_t>(t * kTxPerThread + i)] = {seen,
                                                                           next};
            }
        });
    }
    for (auto& th : threads) th.join();

    // Chain verification.
    std::set<long> reads, writes;
    for (const auto& [r, w] : history) {
        EXPECT_TRUE(reads.insert(r).second) << "duplicate read of " << r
                                            << ": lost update / non-serializable";
        EXPECT_TRUE(writes.insert(w).second);
    }
    // Every read is the initial value or some transaction's write.
    int initial_reads = 0;
    for (const auto& [r, w] : history) {
        (void)w;
        if (r == 0) {
            ++initial_reads;
        } else {
            EXPECT_TRUE(writes.contains(r)) << "read of never-written " << r;
        }
    }
    EXPECT_EQ(initial_reads, 1) << "exactly one transaction sees the initial value";
    // The final memory value is some write that nobody read (the chain tail).
    EXPECT_FALSE(reads.contains(x.unsafe_read()));
    EXPECT_TRUE(writes.contains(x.unsafe_read()));
}

TEST_P(StmAllBackends, OversubscribedSlotsStillComplete) {
    // More concurrent atomically() calls than transaction slots (64, or 62
    // for the atomic backend): the pool must block and recycle, never
    // corrupt. Keep thread count moderate but above the limit.
    Stm tm(config_for(GetParam()));
    TVar<long> counter{0};
    constexpr int kThreads = 70;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            tm.atomically(
                [&](Transaction& tx) { counter.write(tx, counter.read(tx) + 1); });
        });
    }
    for (auto& th : threads) th.join();
    EXPECT_EQ(counter.unsafe_read(), kThreads);
    EXPECT_EQ(tm.stats().commits, static_cast<std::uint64_t>(kThreads));
}

TEST(StmTagless, ReportsFalseConflictsUnderAliasing) {
    // Two threads writing DISJOINT variables that alias in a tiny tagless
    // table must suffer false conflicts — the paper's pathology live.
    StmConfig cfg = config_for(BackendKind::kTaglessTable);
    cfg.table.entries = 2;  // everything aliases
    Stm tm(cfg);
    // Separate 64-byte blocks (adjacent stack TVars can share one, which
    // would make cross-thread conflicts true, not false); they still alias
    // in the 2-entry table.
    struct alignas(64) Padded { TVar<long> var{0}; };
    Padded pa, pb;
    TVar<long>& a = pa.var;
    TVar<long>& b = pb.var;

    std::thread t1([&] {
        for (int i = 0; i < 400; ++i) {
            tm.atomically([&](Transaction& tx) { a.write(tx, a.read(tx) + 1); });
        }
    });
    std::thread t2([&] {
        for (int i = 0; i < 400; ++i) {
            tm.atomically([&](Transaction& tx) { b.write(tx, b.read(tx) + 1); });
        }
    });
    t1.join();
    t2.join();

    EXPECT_EQ(a.unsafe_read(), 400);
    EXPECT_EQ(b.unsafe_read(), 400);
    const auto stats = tm.stats();
    // With only 2 entries, a and b very likely collide; if they happen to
    // land on distinct entries there are zero conflicts — accept either but
    // require classification sanity: no true conflicts are possible.
    EXPECT_EQ(stats.true_conflicts, 0u)
        << "threads touch disjoint data; every conflict must be false";
}

TEST(StmTagged, NoFalseConflictsEver) {
    StmConfig cfg = config_for(BackendKind::kTaggedTable);
    cfg.table.entries = 2;  // heavy aliasing, but tags disambiguate
    Stm tm(cfg);
    // Separate 64-byte blocks (adjacent stack TVars can share one, which
    // would make cross-thread conflicts true, not false); they still alias
    // in the 2-entry table.
    struct alignas(64) Padded { TVar<long> var{0}; };
    Padded pa, pb;
    TVar<long>& a = pa.var;
    TVar<long>& b = pb.var;

    std::thread t1([&] {
        for (int i = 0; i < 400; ++i) {
            tm.atomically([&](Transaction& tx) { a.write(tx, a.read(tx) + 1); });
        }
    });
    std::thread t2([&] {
        for (int i = 0; i < 400; ++i) {
            tm.atomically([&](Transaction& tx) { b.write(tx, b.read(tx) + 1); });
        }
    });
    t1.join();
    t2.join();

    EXPECT_EQ(a.unsafe_read(), 400);
    EXPECT_EQ(b.unsafe_read(), 400);
    EXPECT_EQ(tm.stats().false_conflicts, 0u);
    EXPECT_EQ(tm.stats().true_conflicts, 0u)
        << "disjoint blocks never truly conflict in a tagged table";
}

TEST(StmTagless, FalseConflictRateExceedsTagged) {
    // Same workload, same small table size: the tagless organization must
    // abort at least as much as the tagged one (and in practice much more).
    auto run = [](BackendKind kind) {
        StmConfig cfg;
        cfg.backend = kind;
        cfg.table.entries = 64;
        cfg.contention.policy = ContentionPolicy::kYield;
        Stm tm(cfg);
        // Each quarter (64 vars) spans whole blocks, so aligning the first
        // one to block_bytes aligns them all. The vector's own alignment
        // (16 bytes) would let neighbouring quarters share a block.
        const std::size_t per_block = cfg.block_bytes / sizeof(TVar<long>);
        std::vector<TVar<long>> storage(256 + per_block);
        const std::uintptr_t misalign =
            reinterpret_cast<std::uintptr_t>(storage.data()) % cfg.block_bytes;
        TVar<long>* vars =
            storage.data() +
            (misalign == 0 ? 0
                           : (cfg.block_bytes - misalign) / sizeof(TVar<long>));
        std::vector<std::thread> threads;
        for (int t = 0; t < 4; ++t) {
            threads.emplace_back([&, t] {
                util::Xoshiro256 rng{static_cast<std::uint64_t>(t) * 7 + 1};
                for (int i = 0; i < 250; ++i) {
                    // Each thread works on its own quarter: disjoint blocks.
                    const std::size_t base = static_cast<std::size_t>(t) * 64;
                    const auto idx = base + static_cast<std::size_t>(rng.below(64));
                    tm.atomically([&](Transaction& tx) {
                        vars[idx].write(tx, vars[idx].read(tx) + 1);
                    });
                }
            });
        }
        for (auto& th : threads) th.join();
        return tm.stats();
    };

    const auto tagless = run(BackendKind::kTaglessTable);
    const auto tagged = run(BackendKind::kTaggedTable);
    EXPECT_EQ(tagged.false_conflicts, 0u);
    EXPECT_GE(tagless.false_conflicts, tagged.false_conflicts);
    EXPECT_EQ(tagless.true_conflicts, 0u);
    EXPECT_EQ(tagged.true_conflicts, 0u);
}

TEST(StmRuntime, ToStringNames) {
    EXPECT_EQ(to_string(BackendKind::kTaglessTable), "tagless-table");
    EXPECT_EQ(to_string(BackendKind::kTaggedTable), "tagged-table");
    EXPECT_EQ(to_string(BackendKind::kTl2), "tl2");
}

TEST(StmRuntime, AbortRateHelper) {
    StmStats s;
    EXPECT_EQ(s.abort_rate(), 0.0);
    s.commits = 3;
    s.aborts = 1;
    EXPECT_DOUBLE_EQ(s.abort_rate(), 0.25);
}

TEST(StmRuntime, SequentialTransactionsReuseSlots) {
    // More sequential atomically() calls than the 64-slot capacity: slots
    // must recycle without blocking.
    Stm tm(config_for(BackendKind::kTaggedTable));
    TVar<int> x{0};
    for (int i = 0; i < 200; ++i) {
        tm.atomically([&](Transaction& tx) { x.write(tx, x.read(tx) + 1); });
    }
    EXPECT_EQ(x.unsafe_read(), 200);
}

/// One config per engine: the three table organizations, the lazy table,
/// tl2, and the adaptive wrapper over the table and atomic engines.
std::vector<StmConfig> every_engine() {
    std::vector<StmConfig> configs;
    for (const BackendKind kind :
         {BackendKind::kTaglessTable, BackendKind::kTaggedTable,
          BackendKind::kTaglessAtomic, BackendKind::kTl2}) {
        configs.push_back(config_for(kind));
    }
    configs.push_back(config_for(BackendKind::kTaglessTable));
    configs.back().commit_time_locks = true;
    for (const BackendKind engine :
         {BackendKind::kTaglessTable, BackendKind::kTaglessAtomic}) {
        configs.push_back(config_for(BackendKind::kAdaptive));
        configs.back().adapt.engine = engine;
    }
    return configs;
}

TEST(StmRuntime, FullContextPoolCannotStarveExecutors) {
    // Idle pooled contexts keep their TxIds, and give them back when a
    // checkout finds none free and before an Executor is built. Fill the
    // pool from more threads than there are TxIds (each thread's first
    // call waits until max_live_executors() of them are checked out at
    // once, so that many contexts get built and pooled), then hold
    // max_live_executors() Executors at once, each with a transaction run.
    // If a kept TxId were never given back, either step would block
    // forever; a bounded wait turns that into a failure.
    constexpr int kThreads = 72;
    for (const StmConfig& cfg : every_engine()) {
        const std::string name(to_string(cfg.backend));
        Stm tm(cfg);
        const std::uint32_t cap =
            std::min<std::uint32_t>(tm.max_live_executors(), kThreads);
        std::vector<PaddedVar> vars(kThreads);
        const auto fill_then_build = [&] {
            std::atomic<std::uint32_t> arrived{0};
            std::atomic<std::uint32_t> waiting{cap};
            std::vector<std::thread> threads;
            for (int t = 0; t < kThreads; ++t) {
                threads.emplace_back([&, t] {
                    bool first = true;
                    for (int i = 0; i < 4; ++i) {
                        tm.atomically([&](Transaction& tx) {
                            if (first && arrived.fetch_add(1) < cap) {
                                // Nothing is acquired yet: wait for `cap`
                                // checked-out contexts in total.
                                waiting.fetch_sub(1);
                                while (waiting.load() != 0) {
                                    std::this_thread::yield();
                                }
                            }
                            first = false;
                            auto& var = vars[static_cast<std::size_t>(t)].v;
                            var.write(tx, var.read(tx) + 1);
                        });
                    }
                });
            }
            for (auto& th : threads) th.join();
            std::vector<std::unique_ptr<Executor>> executors;
            for (std::uint32_t i = 0; i < cap; ++i) {
                executors.push_back(tm.make_executor());
                auto& var = vars[i % vars.size()].v;
                executors.back()->atomically(
                    [&](Transaction& tx) { var.write(tx, var.read(tx) + 1); });
            }
        };
        auto finished = std::async(std::launch::async, fill_then_build);
        if (finished.wait_for(std::chrono::seconds(60)) !=
            std::future_status::ready) {
            // The stuck threads cannot be unblocked or joined: fail loudly.
            std::fprintf(stderr,
                         "FAILED: %s: the context pool starved %u "
                         "concurrent transactions of TxIds\n",
                         name.c_str(), cap);
            std::abort();
        }
        finished.get();
        long total = 0;
        for (const auto& var : vars) total += var.v.unsafe_read();
        EXPECT_EQ(total, kThreads * 4 + static_cast<long>(cap)) << name;
        EXPECT_EQ(tm.occupied_metadata_entries(), 0u) << name;
    }
}

/// `threads` threads each finish one atomically() call; the first `held`
/// of them are checked out at once, so every TxId they hold is parked in
/// an idle pooled context when they return (or released, for a context the
/// pool has no room for).
void park_txids_in_idle_contexts(Stm& tm, int threads, std::uint32_t held) {
    std::vector<PaddedVar> vars(static_cast<std::size_t>(threads));
    std::atomic<std::uint32_t> arrived{0};
    std::atomic<std::uint32_t> waiting{held};
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            bool first = true;
            tm.atomically([&](Transaction& tx) {
                if (first && arrived.fetch_add(1) < held) {
                    waiting.fetch_sub(1);
                    while (waiting.load() != 0) std::this_thread::yield();
                }
                first = false;
                auto& var = vars[static_cast<std::size_t>(t)].v;
                var.write(tx, var.read(tx) + 1);
            });
        });
    }
    for (auto& th : workers) th.join();
}

TEST(StmRuntime, TxIdsKeptByIdleContextsCannotStarveACheckout) {
    // Every TxId ends up kept by an idle context or an Executor. Then one
    // Executor is destroyed: its context parks in this thread's shard with
    // its TxId, the only one not held by a live Executor. Fresh threads'
    // atomically() calls (at least one of them in another shard) can run
    // only if the checkout that finds no TxId free has idle contexts give
    // theirs back; a bounded wait turns a stall into a failure.
    constexpr int kThreads = 64;
    constexpr int kFresh = 4;
    for (const StmConfig& cfg : every_engine()) {
        const std::string name(to_string(cfg.backend));
        Stm tm(cfg);
        const std::uint32_t cap =
            std::min<std::uint32_t>(tm.max_live_executors(), kThreads);
        park_txids_in_idle_contexts(tm, kThreads, cap);

        PaddedVar var;
        std::vector<std::unique_ptr<Executor>> executors;
        for (std::uint32_t i = 0; i < cap; ++i) {
            executors.push_back(tm.make_executor());
            executors.back()->atomically(
                [&](Transaction& tx) { var.v.write(tx, var.v.read(tx) + 1); });
        }
        executors.pop_back();

        std::atomic<int> done{0};
        std::vector<std::thread> fresh;
        for (int t = 0; t < kFresh; ++t) {
            fresh.emplace_back([&] {
                tm.atomically([&](Transaction& tx) {
                    var.v.write(tx, var.v.read(tx) + 1);
                });
                done.fetch_add(1);
            });
        }
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (done.load() != kFresh &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        EXPECT_EQ(done.load(), kFresh)
            << name << ": a checkout stalled while an idle context kept the "
                       "only free TxId";
        executors.clear();  // frees TxIds, so stalled threads can finish
        for (auto& th : fresh) th.join();
        EXPECT_EQ(var.v.unsafe_read(), static_cast<long>(cap) + kFresh)
            << name;
        EXPECT_EQ(tm.occupied_metadata_entries(), 0u) << name;
    }
}

TEST(StmRuntime, ExecutorsBuiltInSequenceBindTxIdsFromZero) {
    // The determinism contract of the schedule harness and the service:
    // Executors made one after another bind TxIds 0..n-1, also after other
    // threads' atomically() calls left TxIds kept by idle contexts.
    constexpr int kThreads = 16;
    constexpr std::uint32_t kExecutors = 8;
    for (const StmConfig& cfg : every_engine()) {
        const std::string name(to_string(cfg.backend));
        Stm tm(cfg);
        park_txids_in_idle_contexts(tm, kThreads, kThreads);
        PaddedVar var;
        std::vector<std::unique_ptr<Executor>> executors;
        for (std::uint32_t i = 0; i < kExecutors; ++i) {
            executors.push_back(tm.make_executor());
            executors.back()->atomically(
                [&](Transaction& tx) { var.v.write(tx, var.v.read(tx) + 1); });
            const std::optional<std::uint32_t> id = executors.back()->tx_id();
            if (cfg.backend == BackendKind::kTl2) {
                EXPECT_FALSE(id.has_value()) << name;
            } else {
                EXPECT_EQ(id, std::optional<std::uint32_t>{i})
                    << name << ": executor " << i;
            }
        }
    }
}

TEST(StmRuntime, ContextsThePoolCannotTakeFoldTheirCounts) {
    // Nested atomically() calls on one thread check out one context per
    // level. A thread's pool shard parks four, so on return the outer
    // levels' contexts are destroyed; their counts must survive that.
    Stm tm(config_for(BackendKind::kTaggedTable));
    constexpr int kDepth = 6;
    std::vector<PaddedVar> vars(kDepth);
    const auto nest = [&](auto& self, int depth) -> void {
        tm.atomically([&](Transaction& tx) {
            vars[depth].v.write(tx, vars[depth].v.read(tx) + 1);
            if (depth + 1 < kDepth) self(self, depth + 1);
        });
    };
    nest(nest, 0);
    EXPECT_EQ(tm.stats().commits, std::uint64_t{kDepth});
    nest(nest, 0);  // now four levels reuse pooled contexts
    EXPECT_EQ(tm.stats().commits, std::uint64_t{2 * kDepth});
    for (const auto& var : vars) EXPECT_EQ(var.v.unsafe_read(), 2);
}

/// Both tagless tables under the eager ownership engine: the mutex table
/// (exact classification) and the atomic one (best-effort, exact here:
/// the holder does not move while probed). Lazy locking stays out: a lazy
/// holder owns its blocks only for reading until commit, so a read probe
/// cannot conflict with it.
class StmFootprint : public ::testing::TestWithParam<BackendKind> {};

INSTANTIATE_TEST_SUITE_P(TaglessTables, StmFootprint,
                         ::testing::Values(BackendKind::kTaglessTable,
                                           BackendKind::kTaglessAtomic),
                         [](const auto& suite_info) {
                             return suite_info.param == BackendKind::kTaglessTable
                                        ? "Tagless"
                                        : "TaglessAtomic";
                         });

TEST_P(StmFootprint, ClassifiesConflictsAgainstTheHoldersFootprint) {
    // One transaction holds more blocks than its footprint log keeps
    // inline (32), so the last ones are recorded in the spill. Each probe
    // by a second transaction (one attempt, no retry) fails on an entry
    // the holder owns; the holder's footprint decides true vs false.
    constexpr std::uint64_t kEntries = 64;
    constexpr std::uint64_t kHeld = 40;
    StmConfig cfg = config_for(GetParam());
    cfg.table = {.entries = kEntries, .hash = util::HashKind::kShiftMask};
    cfg.max_attempts = 1;
    cfg.contention.policy = ContentionPolicy::kNone;
    Stm tm(cfg);
    // Line i is block base+i; lines i and i+kEntries alias one entry.
    std::vector<PaddedVar> lines(2 * kEntries);
    const auto holder = tm.make_executor();
    const auto prober = tm.make_executor();
    const auto probe = [&](std::uint64_t line) {
        EXPECT_THROW(prober->atomically([&](Transaction& tx) {
                         (void)lines[line].v.read(tx);
                     }),
                     TooMuchContention)
            << "line " << line;
        const StmStats s = tm.stats();
        return std::pair{s.true_conflicts, s.false_conflicts};
    };
    using Counts = std::pair<std::uint64_t, std::uint64_t>;

    holder->atomically([&](Transaction& tx) {
        for (std::uint64_t i = 0; i < kHeld; ++i) {
            lines[i].v.write(tx, lines[i].v.read(tx) + 1);  // read→write
        }
        EXPECT_EQ(probe(0), (Counts{1, 0})) << "same block, inline log";
        EXPECT_EQ(probe(kEntries + 1), (Counts{1, 1})) << "aliasing block";
        EXPECT_EQ(probe(kHeld - 1), (Counts{2, 1})) << "same block, spill";
    });
    // The commit emptied the footprint, spill included: the same entries
    // held through other blocks make the old blocks false conflicts.
    holder->atomically([&](Transaction& tx) {
        for (std::uint64_t i = 0; i < kHeld; ++i) {
            lines[kEntries + i].v.write(tx, 1);
        }
        EXPECT_EQ(probe(kHeld - 1), (Counts{2, 2})) << "stale spill";
        EXPECT_EQ(probe(kEntries + kHeld - 1), (Counts{3, 2}));
    });
    EXPECT_EQ(tm.occupied_metadata_entries(), 0u);
}

TEST(StmRuntime, IndependentInstancesDoNotInterfere) {
    Stm tm1(config_for(BackendKind::kTl2));
    Stm tm2(config_for(BackendKind::kTaggedTable));
    TVar<int> x{0}, y{0};
    tm1.atomically([&](Transaction& tx) { x.write(tx, 1); });
    tm2.atomically([&](Transaction& tx) { y.write(tx, 2); });
    EXPECT_EQ(x.unsafe_read(), 1);
    EXPECT_EQ(y.unsafe_read(), 2);
    EXPECT_EQ(tm1.stats().commits, 1u);
    EXPECT_EQ(tm2.stats().commits, 1u);
}

TEST(Contention, ManagerPolicesAttempts) {
    const ContentionConfig cfg{.policy = ContentionPolicy::kNone};
    ContentionManager cm(cfg, 1);
    EXPECT_EQ(cm.attempts(), 0u);
    cm.on_abort();
    cm.on_abort();
    EXPECT_EQ(cm.attempts(), 2u);
    cm.reset();
    EXPECT_EQ(cm.attempts(), 0u);
}

}  // namespace
}  // namespace tmb::stm
