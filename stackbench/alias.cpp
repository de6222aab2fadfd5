// alias.cpp — `alias-executor`: exec::ParallelRunner with 3 threads running
// `workload=counters tx_size=16` on the `atomic` backend with a 4096-entry
// tagless table. Every operation is a 16-word read-modify-write on the
// thread's own Executor; the small tagless table turns unrelated blocks
// into false conflicts (the paper's setting). It never calls
// Stm::atomically or tx_alloc.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "core/conflict_model.hpp"
#include "exec/parallel_runner.hpp"
#include "exec/workload.hpp"
#include "stm/stm.hpp"
#include "trace.hpp"
#include "util/latency_histogram.hpp"
#include "workloads.hpp"

namespace stackbench {

namespace {

using tmb::util::LatencyHistogram;

constexpr std::uint32_t kThreads = 3;
constexpr std::uint32_t kTxSize = 16;
constexpr std::uint64_t kEntries = 4096;
constexpr std::uint32_t kRunMs = 500;

/// Forwards to the registry-built workload and times each operation into
/// a histogram private to the calling engine thread. In the traced run it
/// also records one span per operation under the current run() span.
class TimedWorkload final : public tmb::exec::Workload {
public:
    TimedWorkload(std::unique_ptr<tmb::exec::Workload> inner,
                  std::uint32_t op_span)
        : inner_(std::move(inner)), op_span_(op_span) {}

    std::string_view name() const noexcept override { return inner_->name(); }
    void prepare(tmb::stm::Stm& stm) override { inner_->prepare(stm); }
    void verify(std::uint64_t committed_ops) const override {
        inner_->verify(committed_ops);
    }
    std::uint64_t state_hash() const override { return inner_->state_hash(); }

    void op(tmb::stm::Executor& exec, tmb::util::Xoshiro256& rng) override {
        LatencyHistogram& hist = local();
        const std::uint64_t t0 = now_ns();
        {
            Scope span(op_span_, parent_.load(std::memory_order_relaxed));
            inner_->op(exec, rng);
        }
        hist.record(now_ns() - t0);
    }

    void set_parent(std::uint64_t span) {
        parent_.store(span, std::memory_order_relaxed);
    }

    /// Merges and clears the per-thread histograms. Quiescent points only
    /// (after run() joined its threads).
    LatencyHistogram harvest() {
        std::lock_guard<std::mutex> lock(mu_);
        LatencyHistogram out;
        for (const auto& h : hists_) out.merge(*h);
        hists_.clear();
        return out;
    }

private:
    LatencyHistogram& local() {
        // ParallelRunner starts fresh engine threads for every run() and
        // joins them before harvest(), so a thread registers its histogram
        // on its first op and never sees one harvest() freed.
        thread_local LatencyHistogram* hist = nullptr;
        if (hist == nullptr) {
            std::lock_guard<std::mutex> lock(mu_);
            hists_.push_back(std::make_unique<LatencyHistogram>());
            hist = hists_.back().get();
        }
        return *hist;
    }

    std::unique_ptr<tmb::exec::Workload> inner_;
    std::uint32_t op_span_;
    std::atomic<std::uint64_t> parent_{Tracer::kNone};
    std::mutex mu_;  ///< guards hists_
    std::vector<std::unique_ptr<LatencyHistogram>> hists_;
};

struct Instance {
    std::unique_ptr<tmb::exec::ParallelRunner> runner;
    TimedWorkload* workload = nullptr;
};

}  // namespace

Report run_alias(const Options& opt) {
    Tracer& tracer = Tracer::instance();
    const std::uint32_t n_setup = tracer.intern("gen.setup");
    const std::uint32_t n_create = tracer.intern("stm.create");
    const std::uint32_t n_workload = tracer.intern("exec.make_workload");
    const std::uint32_t n_ctor = tracer.intern("exec.runner_ctor");
    const std::uint32_t n_phase = tracer.intern("gen.phase");
    const std::uint32_t n_run = tracer.intern("exec.run");
    const std::uint32_t n_op = tracer.intern("stm.op");

    const tmb::config::Config cfg = tmb::config::Config::from_string(
        "backend=atomic entries=" + std::to_string(kEntries) +
        " workload=counters tx_size=" + std::to_string(kTxSize) +
        " threads=" + std::to_string(kThreads) +
        " duration_ms=" + std::to_string(kRunMs) +
        " seed=" + std::to_string(opt.seed));
    Report rep;

    // --- set-up: the first instance is the one measured; a fresh one is
    // set up (and dropped) after every timed run, so setup_s samples the
    // same stretch of host time as the timed metrics ---------------------
    std::vector<double> setup_s, prepare_s;
    const auto set_up = [&](std::uint32_t run_id) {
        tracer.set_run(run_id);
        Instance out;
        const auto t0 = Clock::now();
        Scope setup(n_setup);
        std::unique_ptr<tmb::stm::Stm> tm;
        {
            Scope s(n_create);
            tm = tmb::stm::Stm::create(cfg);
        }
        // The exec layer's part: building the workload and the runner.
        const auto e0 = Clock::now();
        std::unique_ptr<TimedWorkload> wl;
        {
            Scope s(n_workload);
            wl = std::make_unique<TimedWorkload>(
                tmb::exec::make_workload(cfg), n_op);
        }
        out.workload = wl.get();
        {
            Scope s(n_ctor);
            out.runner = std::make_unique<tmb::exec::ParallelRunner>(
                tmb::exec::parallel_config_from(cfg), std::move(tm),
                std::move(wl));
        }
        prepare_s.push_back(seconds_since(e0));
        setup_s.push_back(seconds_since(t0));
        return out;
    };
    Instance in = set_up(0);

    // --- timed phase: back-to-back run() calls of kRunMs each -------------
    const auto runs = static_cast<std::size_t>(
        std::max(1.0, timed_seconds(opt) * 1000.0 / kRunMs));
    std::vector<double> rate, p50, p99, imbalance;
    LatencyHistogram all;
    tmb::stm::StmStats stats;
    std::uint64_t ops = 0;
    {
        Scope phase(n_phase);
        for (std::size_t i = 0; i < runs; ++i) {
            // Run ids: set-ups even, timed runs odd.
            if (i > 0) (void)set_up(static_cast<std::uint32_t>(2 * i));
            tracer.set_run(static_cast<std::uint32_t>(2 * i + 1));
            Scope run(n_run);
            in.workload->set_parent(run.id());
            tmb::exec::ParallelResult res;
            try {
                res = in.runner->run();
            } catch (const tmb::stm::TooMuchContention&) {
                ++rep.failed;
                (void)in.workload->harvest();
                continue;
            } catch (const std::exception& e) {
                rep.check(false, std::string("alias: run() failed its "
                                             "output check: ") + e.what());
                break;
            }
            const LatencyHistogram h = in.workload->harvest();
            all.merge(h);
            ops += res.ops;
            stats.merge(res.stats);
            rate.push_back(res.commits_per_second());
            p50.push_back(static_cast<double>(h.percentile(0.50)) / 1e3);
            p99.push_back(static_cast<double>(h.percentile(0.99)) / 1e3);
            std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
            for (const auto& t : res.per_thread) {
                lo = std::min(lo, t.commits);
                hi = std::max(hi, t.commits);
            }
            imbalance.push_back(ratio(static_cast<double>(hi),
                                      static_cast<double>(lo)));
        }
    }
    rep.attempted = ops + rep.failed;
    const std::uint64_t held = in.runner->stm().occupied_metadata_entries();
    rep.check(held == 0, "alias: " + std::to_string(held) +
                             " ownership entries still held at quiescence");

    rep.add("setup_s", median(setup_s), "s", setup_s.size());
    rep.add("ops_per_s", median(rate), "1/s", rate.size());
    rep.add("p50_us", median(p50), "us", all.count());
    rep.add("p99_us", median(p99), "us", all.count());

    const auto commits = static_cast<double>(stats.commits);
    const auto aborts = static_cast<double>(stats.aborts);
    const auto conflicts =
        static_cast<double>(stats.true_conflicts + stats.false_conflicts);
    // Paper check, report only: Eq. 8 at C=3, W=16, α=0, N=4096 beside the
    // measured conflicts per attempt.
    const double eq8 = tmb::core::conflict_likelihood(
        tmb::core::ModelParams{.alpha = 0.0, .table_entries = kEntries},
        kThreads, kTxSize);
    const double measured = ratio(conflicts, commits + aborts);
    std::printf(
        "paper check (report only): Eq. 8 predicts %.4f conflicts per "
        "transaction (C=%u, W=%u, alpha=0, N=%llu); measured %.4f per "
        "attempt (%.1f%% of them false)\n",
        eq8, kThreads, kTxSize, static_cast<unsigned long long>(kEntries),
        measured,
        100.0 * ratio(static_cast<double>(stats.false_conflicts), conflicts));

    if (opt.trace) {
        rep.add("ownership.conflicts_per_attempt", measured, "share",
                stats.commits + stats.aborts);
        rep.add("stm.op_ns.p50", static_cast<double>(all.percentile(0.50)),
                "ns", all.count());
        rep.add("stm.op_ns.p99", static_cast<double>(all.percentile(0.99)),
                "ns", all.count());
        rep.add("stm.abort_ratio", ratio(aborts, commits + aborts), "share",
                stats.commits);
        rep.add("stm.mean_attempts", stats.mean_attempts(), "count",
                stats.commits);
        rep.add("ownership.false_conflicts_per_kcommit",
                1e3 * ratio(static_cast<double>(stats.false_conflicts),
                            commits),
                "count", stats.commits);
        rep.add("ownership.true_conflicts_per_kcommit",
                1e3 * ratio(static_cast<double>(stats.true_conflicts),
                            commits),
                "count", stats.commits);
        rep.add("txalloc.domain_mutex_per_commit",
                ratio(static_cast<double>(stats.domain_mutex_acquires),
                      commits),
                "count", stats.commits);
        rep.add("exec.prepare_s", median(prepare_s), "s", prepare_s.size());
        rep.add("exec.thread_imbalance", median(imbalance), "ratio",
                imbalance.size());
    }
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    return rep;
}

}  // namespace stackbench
