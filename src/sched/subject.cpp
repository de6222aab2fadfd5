#include "sched/subject.hpp"

#include <atomic>
#include <bit>
#include <exception>
#include <semaphore>
#include <stdexcept>
#include <thread>

#include "stm/sched_hook.hpp"
#include "util/hash.hpp"

namespace tmb::sched {

namespace {

using stm::detail::YieldPoint;
using stm::detail::YieldSite;

// ---------------------------------------------------------------------------
// The turnstile
// ---------------------------------------------------------------------------
//
// The cooperative one-thread-at-a-time baton. Exactly one party — the
// scheduler or one worker — holds it at any moment. Semaphore handoff gives
// the happens-before edges that make the workers' plain accesses to shared
// run state race-free (and TSan-clean) despite no further locking. Workers
// park inside a SchedulerHook yield; the scheduler runs one worker per
// grant(), from its parked yield point to its next one (or to completion).
//
// Cancellation protocol: cancel() sets a flag, then the scheduler grants
// every still-runnable worker exactly one wake-up; each throws Cancelled out
// of its next yield and unwinds. A yield reached while *unwinding* (cancel
// already set on entry) throws immediately without parking, so no worker
// can ever park with nobody left to grant it.

/// Thrown into a virtual thread at its next yield point when the run is
/// cancelled. Never escapes drive_schedule.
struct Cancelled {};

class Turnstile {
public:
    struct Worker {
        std::binary_semaphore go{0};
        YieldPoint last_point = YieldPoint::kTxBegin;
        YieldSite last_site = YieldSite::kRunBegin;
        bool finished = false;
        std::exception_ptr error;
    };

    explicit Turnstile(std::uint32_t n) : workers(n) {}

    // --- worker side -----------------------------------------------------

    /// Parks the worker and wakes the scheduler. Throws Cancelled when the
    /// run was cancelled while parked — or already cancelled on entry.
    void worker_yield(std::uint32_t id, YieldPoint point, YieldSite site) {
        if (cancel_.load(std::memory_order_relaxed)) throw Cancelled{};
        workers[id].last_point = point;
        workers[id].last_site = site;
        scheduler_go_.release();
        workers[id].go.acquire();
        if (cancel_.load(std::memory_order_relaxed)) throw Cancelled{};
    }

    /// Marks a worker done (normally or with `error`) and wakes the
    /// scheduler one last time.
    void worker_finish(std::uint32_t id, std::exception_ptr error) {
        workers[id].error = std::move(error);
        workers[id].finished = true;
        scheduler_go_.release();
    }

    // --- scheduler side --------------------------------------------------

    /// Waits until all n workers have reached their first yield point (each
    /// release is one worker parking — or finishing instantly).
    void await_parked(std::uint32_t n) {
        for (std::uint32_t i = 0; i < n; ++i) scheduler_go_.acquire();
    }

    /// Runs worker `id` for one step: from its parked yield point to its
    /// next one (or to completion).
    void grant(std::uint32_t id) {
        workers[id].go.release();
        scheduler_go_.acquire();
    }

    /// Cancels the run: every runnable worker gets one wake-up and unwinds.
    void cancel(std::uint64_t runnable) {
        cancel_.store(true, std::memory_order_relaxed);
        for (std::uint64_t m = runnable; m != 0; m &= m - 1) {
            grant(static_cast<std::uint32_t>(std::countr_zero(m)));
        }
    }

    /// Read by the scheduler only between grants (the semaphore handoff
    /// orders every worker write before it).
    std::vector<Worker> workers;

private:
    /// Counting, not binary: during startup all N workers release once
    /// each (racing freely to their first yield point) before await_parked
    /// drains them — a binary semaphore's max would be exceeded (UB).
    std::counting_semaphore<64> scheduler_go_{0};
    std::atomic<bool> cancel_{false};
};

/// The per-worker SchedulerHook: forwards every runtime yield point into
/// the turnstile.
class WorkerHook final : public stm::detail::SchedulerHook {
public:
    WorkerHook(Turnstile& ts, std::uint32_t id) : ts_(ts), id_(id) {}

    void yield(YieldPoint point, YieldSite site) override {
        ts_.worker_yield(id_, point, site);
    }

private:
    Turnstile& ts_;
    std::uint32_t id_;
};

[[nodiscard]] std::uint64_t run_seed(std::uint64_t base, std::uint64_t n) {
    return util::mix64(base + n * 0x9e3779b97f4a7c15ULL + 1);
}

}  // namespace

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

CoverageAccumulator drive_schedule(
    std::uint32_t threads, Schedule& schedule, std::uint64_t step_limit,
    const std::function<void(std::uint32_t)>& body,
    const std::function<std::size_t()>& commits, Trace& trace) {
    if (threads == 0 || threads > kMaxScheduleThreads) {
        throw std::invalid_argument("sched: threads must be in [1, " +
                                    std::to_string(kMaxScheduleThreads) + "]");
    }
    Turnstile ts(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
        workers.emplace_back([&, t] {
            WorkerHook hook(ts, t);
            stm::detail::SchedulerHook* previous =
                stm::detail::install_scheduler_hook(&hook);
            std::exception_ptr error;
            try {
                body(t);
            } catch (const Cancelled&) {
                // Step budget exhausted (or killed): unwind quietly; the
                // subject's oracle audits what remains.
            } catch (...) {
                error = std::current_exception();
            }
            stm::detail::install_scheduler_hook(previous);
            ts.worker_finish(t, std::move(error));
        });
    }

    // Workers race freely only up to their first yield point (which every
    // one reaches before touching shared state); from here on the turnstile
    // admits exactly one at a time.
    ts.await_parked(threads);

    std::uint64_t runnable = 0;
    for (std::uint32_t t = 0; t < threads; ++t) {
        if (!ts.workers[t].finished) runnable |= std::uint64_t{1} << t;
    }

    CoverageAccumulator coverage;
    while (runnable != 0) {
        const std::uint32_t pick = schedule.pick(runnable, trace.steps);
        if (pick >= 64 || ((runnable >> pick) & 1) == 0) {
            ts.cancel(runnable);
            for (auto& w : workers) w.join();
            throw std::logic_error(
                "sched: schedule picked a non-runnable thread " +
                std::to_string(pick));
        }
        trace.schedule.push_back(thread_to_char(pick));
        const std::size_t commits_before = commits();
        // Tick before the grant: during step N every worker reading the
        // counter sees N, so "timed out at step N" means the grant that was
        // step N.
        ++trace.steps;
        ts.grant(pick);

        const Turnstile::Worker& w = ts.workers[pick];
        if (w.finished) {
            runnable &= ~(std::uint64_t{1} << pick);
            schedule.observe(pick, Event::kThreadDone);
            coverage.finish(pick);
        } else {
            coverage.step(pick, w.last_point, w.last_site);
            trace.sites_seen |= std::uint32_t{1}
                                << static_cast<std::uint32_t>(w.last_site);
            if (w.last_point == YieldPoint::kRetry) {
                schedule.observe(pick, Event::kAbort);
            }
        }
        if (commits() > commits_before) {
            schedule.observe(pick, Event::kCommit);
        }

        if (trace.steps >= step_limit && runnable != 0) {
            trace.cancelled = true;
            ts.cancel(runnable);
            break;
        }
    }

    for (auto& w : workers) w.join();
    for (const Turnstile::Worker& w : ts.workers) {
        if (w.error) std::rethrow_exception(w.error);
    }
    return coverage;
}

// ---------------------------------------------------------------------------
// Algorithms over any subject
// ---------------------------------------------------------------------------

std::string repro_line(const std::string& flags, const std::string& schedule) {
    return "sched_explorer " + flags + " --schedule=" + schedule;
}

Violation violation(const Subject& subject, const std::string& schedule,
                    const std::string& error, std::uint64_t kill_step) {
    Violation v;
    v.schedule = schedule;
    v.repro = repro_line(subject.repro_flags(), schedule);
    v.message = error;
    if (kill_step != 0) {
        v.repro += " --kill_step=" + std::to_string(kill_step);
        v.message =
            "kill-point (step " + std::to_string(kill_step) + "): " + error;
    }
    v.message += "\n  repro: " + v.repro;
    return v;
}

std::optional<std::string> complete_verdict(const Outcome& run) {
    if (run.verdict || !run.trace.cancelled) return run.verdict;
    return "run cancelled after " + std::to_string(run.trace.steps) +
           " steps (step_limit exhausted — livelocked schedule or config "
           "mismatch)";
}

Outcome replay_schedule(const Subject& subject, const std::string& schedule,
                        std::uint64_t step_budget) {
    config::Config sc;
    sc.set("sched", "replay");
    sc.set("schedule", schedule);
    const auto sch = make_schedule(sc, 0);
    return subject.run(*sch, step_budget);
}

std::optional<std::string> check_kill_point(const Subject& subject,
                                            const std::string& schedule,
                                            std::uint64_t kill_step) {
    return replay_schedule(subject, schedule, kill_step).verdict;
}

ExploreResult explore(const Subject& subject, const config::Config& sched_cfg,
                      std::uint64_t count, std::uint64_t base_seed) {
    ExploreResult out;
    for (std::uint64_t n = 0; n < count; ++n) {
        const auto schedule = make_schedule(sched_cfg, run_seed(base_seed, n));
        const Outcome run = subject.run(*schedule, kNoStepBudget);
        ++out.runs;
        out.stats.merge(run.trace.stats);
        if (const auto error = complete_verdict(run)) {
            out.violations.push_back(
                violation(subject, run.trace.schedule, *error));
        }
    }
    return out;
}

std::string minimize_schedule(const Subject& subject, std::string schedule) {
    const auto fails = [&](const std::string& picks) {
        return complete_verdict(replay_schedule(subject, picks)).has_value();
    };
    return shrink_schedule(std::move(schedule), fails);
}

}  // namespace tmb::sched
