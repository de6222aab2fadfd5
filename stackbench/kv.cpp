// kv.cpp — `kv-atomically`: 3 closed-loop threads call THashMap<long,long>
// get/put/erase in an 80/10/10 mix on uniform keys (64k keys, 64k buckets,
// map prefilled half full). Every call is one Stm::atomically on the
// `atomic` backend with its default 64k-entry table, so this is the
// workload that exercises the convenience path: a context built and bound
// per call, and tx_alloc/tx_free churning map nodes.
#include <atomic>
#include <exception>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "config/config.hpp"
#include "stm/stm.hpp"
#include "stm/thashmap.hpp"
#include "trace.hpp"
#include "util/latency_histogram.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace stackbench {

namespace {

using Map = tmb::stm::THashMap<long, long>;
using tmb::util::LatencyHistogram;

constexpr std::uint64_t kKeys = 1u << 16;
constexpr std::size_t kBuckets = 1u << 16;
constexpr std::uint32_t kThreads = 3;
constexpr double kWindowSeconds = 0.5;
constexpr std::size_t kProbeOps = 4000;
constexpr int kProbeRounds = 15;
constexpr const char* kStmConfig = "backend=atomic";

/// Every value ever stored for `key`; a get that returns anything else is
/// an output violation.
[[nodiscard]] long value_of(long key) { return key * 2 + 1; }

enum class Op { kGet, kPut, kErase };

[[nodiscard]] Op draw_op(tmb::util::Xoshiro256& rng) {
    const std::uint64_t dice = rng.below(100);
    return dice < 80 ? Op::kGet : dice < 90 ? Op::kPut : Op::kErase;
}

struct Names {
    std::uint32_t setup, create, map_ctor, prefill, phase, thread, call,
        probe, drain;
};

Names intern_names() {
    Tracer& t = Tracer::instance();
    return {t.intern("gen.setup"),   t.intern("stm.create"),
            t.intern("stm.map_ctor"), t.intern("stm.prefill"),
            t.intern("gen.phase"),   t.intern("gen.thread"),
            t.intern("stm.call"),    t.intern("gen.atomically_probe"),
            t.intern("txalloc.reclaim_drain")};
}

/// One set-up instance: the runtime and the prefilled map (declared so the
/// map is destroyed before the runtime it lives in).
struct Instance {
    std::unique_ptr<tmb::stm::Stm> tm;
    std::unique_ptr<Map> map;
    std::uint64_t prefilled = 0;
};

/// The prefill: half of the key space, chosen by a seeded shuffle.
std::vector<long> prefill_keys(std::uint64_t seed) {
    std::vector<long> keys(kKeys);
    std::iota(keys.begin(), keys.end(), 0L);
    tmb::util::Xoshiro256 rng{seed ^ 0x6b76'7072'6566'696cULL};
    for (std::size_t i = keys.size() - 1; i > 0; --i) {
        std::swap(keys[i], keys[rng.below(i + 1)]);
    }
    keys.resize(kKeys / 2);
    return keys;
}

Instance set_up(const std::vector<long>& keys, const Names& n) {
    Instance in;
    Scope setup(n.setup);
    {
        Scope s(n.create);
        in.tm = tmb::stm::Stm::create(
            tmb::config::Config::from_string(kStmConfig));
    }
    {
        Scope s(n.map_ctor);
        in.map = std::make_unique<Map>(*in.tm, kBuckets);
    }
    Scope s(n.prefill);
    for (const long key : keys) {
        in.prefilled += in.map->put(key, value_of(key)) ? 1 : 0;
    }
    return in;
}

struct ThreadOut {
    std::vector<LatencyHistogram> hist;  ///< per window, ns per call
    std::vector<std::uint64_t> ops;      ///< per window, calls ending in it
    std::uint64_t calls = 0;
    std::uint64_t inserted = 0;
    std::uint64_t erased = 0;
    std::uint64_t contention = 0;     ///< TooMuchContention
    std::uint64_t bad_gets = 0;
};

/// Runs one call; returns false if it threw TooMuchContention.
bool do_call(Map& map, Op op, long key, ThreadOut& out) {
    try {
        switch (op) {
            case Op::kGet: {
                const std::optional<long> v = map.get(key);
                if (v && *v != value_of(key)) ++out.bad_gets;
                break;
            }
            case Op::kPut:
                out.inserted += map.put(key, value_of(key)) ? 1 : 0;
                break;
            case Op::kErase:
                out.erased += map.erase(key) ? 1 : 0;
                break;
        }
        return true;
    } catch (const tmb::stm::TooMuchContention&) {
        ++out.contention;
        return false;
    }
}

/// stm.atomically_overhead_ns: the same op sequence, alternately through
/// Stm::atomically (THashMap get/put/erase) and through one Executor
/// (get_in/put_in/erase_in); median over rounds of the per-op difference.
double probe_atomically_overhead(Instance& in, std::uint64_t seed,
                                 ThreadOut& acc) {
    tmb::util::Xoshiro256 rng{seed ^ 0x7072'6f62'65ULL};
    std::vector<std::pair<Op, long>> seq(kProbeOps);
    for (auto& [op, key] : seq) {
        op = draw_op(rng);
        key = static_cast<long>(rng.below(kKeys));
    }
    Map& map = *in.map;
    auto exec = in.tm->make_executor();
    std::vector<double> diffs;
    for (int round = 0; round < kProbeRounds; ++round) {
        const std::uint64_t a0 = now_ns();
        for (const auto& [op, key] : seq) do_call(map, op, key, acc);
        const std::uint64_t a1 = now_ns();
        for (const auto& [op, key] : seq) {
            // The body may re-run, so its effects are counted from the
            // committed attempt's result only.
            struct Result {
                std::optional<long> got;
                bool changed = false;
            };
            const Result r = exec->atomically([&](tmb::stm::Transaction& tx) {
                Result res;
                switch (op) {
                    case Op::kGet:
                        res.got = map.get_in(tx, key);
                        break;
                    case Op::kPut:
                        res.changed = map.put_in(tx, key, value_of(key));
                        break;
                    case Op::kErase:
                        res.changed = map.erase_in(tx, key);
                        break;
                }
                return res;
            });
            if (r.got && *r.got != value_of(key)) ++acc.bad_gets;
            if (r.changed) ++(op == Op::kPut ? acc.inserted : acc.erased);
        }
        const std::uint64_t b1 = now_ns();
        diffs.push_back(static_cast<double>((a1 - a0) - (b1 - a1)) /
                        static_cast<double>(seq.size()));
    }
    return median(diffs);
}

}  // namespace

Report run_kv(const Options& opt) {
    const Names n = intern_names();
    Report rep;

    // --- set-up: the first instance is the one measured; a fresh one is
    // set up (and dropped) after every timed window, so setup_s samples the
    // same stretch of host time as the timed metrics ---------------------
    const std::vector<long> keys = prefill_keys(opt.seed);
    std::vector<double> setup_s;
    std::uint32_t run_id = 0;
    const auto timed_set_up = [&] {
        Tracer::instance().set_run(run_id++);
        const auto t0 = Clock::now();
        Instance fresh = set_up(keys, n);
        setup_s.push_back(seconds_since(t0));
        return fresh;
    };
    Instance in = timed_set_up();

    // --- timed phase: windows of kWindowSeconds, threads started afresh
    // for each ------------------------------------------------------------
    const auto windows = static_cast<std::size_t>(
        std::max(1.0, timed_seconds(opt) / kWindowSeconds));
    const auto window_ns = static_cast<std::uint64_t>(kWindowSeconds * 1e9);
    std::vector<ThreadOut> out(kThreads);
    for (auto& o : out) {
        o.hist.resize(windows);
        o.ops.assign(windows, 0);
    }
    std::vector<tmb::util::Xoshiro256> rngs;
    tmb::util::Xoshiro256 substream{opt.seed};
    for (std::uint32_t t = 0; t < kThreads; ++t) {
        substream.jump();
        rngs.push_back(substream);
    }
    const tmb::stm::StmStats stats0 = in.tm->stats();
    const tmb::stm::ReclaimStats alloc0 = in.tm->reclaim_stats();
    {
        Scope phase(n.phase);
        for (std::size_t w = 0; w < windows; ++w) {
            if (w > 0) (void)timed_set_up();
            Tracer::instance().set_run(run_id++);
            std::atomic<bool> go{false};
            std::uint64_t end = 0;  // published by the release store to go
            std::vector<std::exception_ptr> errors(kThreads);
            std::vector<std::thread> threads;
            for (std::uint32_t t = 0; t < kThreads; ++t) {
                threads.emplace_back([&, t] {
                    while (!go.load(std::memory_order_acquire)) {
                        std::this_thread::yield();
                    }
                    Scope thread_span(n.thread, phase.id());
                    ThreadOut& o = out[t];
                    tmb::util::Xoshiro256& rng = rngs[t];
                    try {
                        for (;;) {
                            const Op op = draw_op(rng);
                            const auto key =
                                static_cast<long>(rng.below(kKeys));
                            const std::uint64_t t0 = now_ns();
                            {
                                Scope call(n.call);
                                do_call(*in.map, op, key, o);
                            }
                            const std::uint64_t t1 = now_ns();
                            ++o.calls;
                            if (t1 >= end) break;
                            o.hist[w].record(t1 - t0);
                            ++o.ops[w];
                        }
                    } catch (...) {
                        errors[t] = std::current_exception();
                    }
                });
            }
            end = now_ns() + window_ns;
            go.store(true, std::memory_order_release);
            for (auto& th : threads) th.join();
            for (const auto& e : errors) {
                if (e) std::rethrow_exception(e);
            }
        }
    }
    const tmb::stm::StmStats stats1 = in.tm->stats();
    const tmb::stm::ReclaimStats alloc1 = in.tm->reclaim_stats();

    // --- end-to-end metrics ----------------------------------------------
    std::vector<double> rate, p50, p99;
    LatencyHistogram all;
    std::uint64_t timed_calls = 0;
    for (std::size_t w = 0; w < windows; ++w) {
        LatencyHistogram h;
        std::uint64_t ops = 0;
        for (const auto& o : out) {
            h.merge(o.hist[w]);
            ops += o.ops[w];
        }
        all.merge(h);
        timed_calls += ops;
        rate.push_back(static_cast<double>(ops) / kWindowSeconds);
        p50.push_back(static_cast<double>(h.percentile(0.50)) / 1e3);
        p99.push_back(static_cast<double>(h.percentile(0.99)) / 1e3);
    }
    ThreadOut total;
    for (const auto& o : out) {
        total.calls += o.calls;
        total.inserted += o.inserted;
        total.erased += o.erased;
        total.contention += o.contention;
        total.bad_gets += o.bad_gets;
    }
    rep.attempted = total.calls;
    rep.failed = total.contention;
    rep.add("setup_s", median(setup_s), "s", setup_s.size());
    rep.add("ops_per_s", median(rate), "1/s", rate.size());
    rep.add("p50_us", median(p50), "us", timed_calls);
    rep.add("p99_us", median(p99), "us", timed_calls);

    // --- per-layer metrics (traced run) -----------------------------------
    if (opt.trace) {
        const auto commits =
            static_cast<double>(stats1.commits - stats0.commits);
        const auto aborts = static_cast<double>(stats1.aborts - stats0.aborts);
        rep.add("stm.op_ns.p50", static_cast<double>(all.percentile(0.50)),
                "ns", all.count());
        rep.add("stm.op_ns.p99", static_cast<double>(all.percentile(0.99)),
                "ns", all.count());
        rep.add("stm.abort_ratio", ratio(aborts, commits + aborts), "share",
                stats1.commits - stats0.commits);
        rep.add("stm.mean_attempts", ratio(commits + aborts, commits),
                "count", stats1.commits - stats0.commits);
        rep.add("ownership.false_conflicts_per_kcommit",
                1e3 * ratio(static_cast<double>(stats1.false_conflicts -
                                                stats0.false_conflicts),
                            commits),
                "count", stats1.commits - stats0.commits);
        rep.add("ownership.true_conflicts_per_kcommit",
                1e3 * ratio(static_cast<double>(stats1.true_conflicts -
                                                stats0.true_conflicts),
                            commits),
                "count", stats1.commits - stats0.commits);
        const auto hits = static_cast<double>(alloc1.alloc_cache_hits -
                                              alloc0.alloc_cache_hits);
        const auto misses = static_cast<double>(alloc1.alloc_cache_misses -
                                                alloc0.alloc_cache_misses);
        rep.add("txalloc.cache_hit_ratio", ratio(hits, hits + misses), "share",
                alloc1.tx_allocs - alloc0.tx_allocs);
        rep.add("txalloc.domain_mutex_per_commit",
                ratio(static_cast<double>(alloc1.domain_mutex_acquires -
                                          alloc0.domain_mutex_acquires),
                      commits),
                "count", stats1.commits - stats0.commits);
        rep.add("txalloc.unreclaimed_blocks",
                static_cast<double>(alloc1.pending_blocks()), "count", 1);
        Scope probe(n.probe);
        rep.add("stm.atomically_overhead_ns",
                probe_atomically_overhead(in, opt.seed, total), "ns",
                kProbeRounds);
    }

    // --- output checks ----------------------------------------------------
    {
        Scope drain(n.drain);
        in.tm->reclaim_drain();
    }
    const std::uint64_t expected =
        in.prefilled + total.inserted - total.erased;
    const std::size_t size = in.map->size();
    rep.check(size == expected,
              "kv: size() " + std::to_string(size) +
                  " != prefill + inserted - erased = " +
                  std::to_string(expected));
    rep.check(total.bad_gets == 0,
              "kv: " + std::to_string(total.bad_gets) +
                  " gets returned a value never stored for their key");
    const std::uint64_t held = in.tm->occupied_metadata_entries();
    rep.check(held == 0, "kv: " + std::to_string(held) +
                             " ownership entries still held at quiescence");
    const tmb::stm::ReclaimStats alloc2 = in.tm->reclaim_stats();
    rep.check(alloc2.pending_blocks() == 0,
              "kv: " + std::to_string(alloc2.pending_blocks()) +
                  " retired blocks pending after reclaim_drain");
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    return rep;
}

}  // namespace stackbench
