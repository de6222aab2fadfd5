// subject.hpp — the one schedule driver, and the interface every
// exploration algorithm runs against.
//
// A *subject* is anything whose virtual threads run under the turnstile:
// generated transaction programs (sched::ProgramSubject, harness.hpp) or the
// service front-end (svc::ServiceSubject, svc/sched_service.hpp).
// drive_schedule owns what a scheduled run needs whatever the subject; a
// subject passes in each thread's body and a commit counter, and judges the
// run with its own oracle. explore, the kill-point check, minimization, the
// guided fuzzer (corpus.hpp) and every sched_explorer mode are written once,
// against Subject.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "sched/coverage.hpp"
#include "sched/schedule.hpp"
#include "stm/stm.hpp"

namespace tmb::sched {

/// What every scheduled run records, whatever the subject.
struct Trace {
    std::string schedule;  ///< recorded picks (replayable)
    std::uint64_t steps = 0;
    bool cancelled = false;  ///< step budget exhausted; state is partial
    stm::StmStats stats;
    /// The run's 64-bit behavior signature (sched/coverage.hpp): AFL-style
    /// bucketed per-thread yield-event edges + quantized stats. A pure
    /// function of the replayed execution on a fresh engine, so identical
    /// runs carry identical signatures.
    std::uint64_t signature = 0;
    /// Bitmask of YieldSite values the run parked at (bit s set ⇔ some
    /// granted step yielded from site s). Coarser than the signature, but
    /// directly answers "did this campaign ever reach site X" — the
    /// reachability assertion the decision-point sites exist for.
    std::uint32_t sites_seen = 0;
};

/// Runs `threads` virtual threads under `schedule` until all finish or
/// `step_limit` steps were granted (then the rest are cancelled). Thread t
/// runs body(t) with the turnstile hook installed; `commits()`, read between
/// grants, feeds Event::kCommit. trace.steps is incremented *before* each
/// grant, so a worker reading it during step N sees N (the service's virtual
/// clock). Fills trace's schedule, steps, cancelled and sites_seen; the
/// caller seals trace.signature with the returned coverage once it has the
/// stats. Rethrows the first worker error.
[[nodiscard]] CoverageAccumulator drive_schedule(
    std::uint32_t threads, Schedule& schedule, std::uint64_t step_limit,
    const std::function<void(std::uint32_t)>& body,
    const std::function<std::size_t()>& commits, Trace& trace);

/// One run as the exploration algorithms see it.
struct Outcome {
    Trace trace;
    /// The subject's oracle; nullopt when consistent. A cancelled run is
    /// judged by the subject's prefix oracle: whatever committed before the
    /// cut must form a consistent history.
    std::optional<std::string> verdict;
};

/// Step budget meaning "only the subject's own step_limit applies".
inline constexpr std::uint64_t kNoStepBudget = ~std::uint64_t{0};

/// An exploration subject (see header comment).
class Subject {
public:
    virtual ~Subject() = default;

    [[nodiscard]] virtual std::uint32_t threads() const = 0;

    /// `--key=value` flags rebuilding this subject on the sched_explorer
    /// command line (everything except the schedule string).
    [[nodiscard]] virtual std::string repro_flags() const = 0;

    /// Runs `schedule` over a fresh engine, cancelled after
    /// min(own step_limit, step_budget) steps, and judges it.
    [[nodiscard]] virtual Outcome run(Schedule& schedule,
                                      std::uint64_t step_budget) const = 0;
};

/// Full repro command for one run of the subject with `flags`.
[[nodiscard]] std::string repro_line(const std::string& flags,
                                     const std::string& schedule);

/// A failing schedule plus everything needed to reproduce it.
struct Violation {
    std::string message;   ///< oracle description + repro line
    std::string schedule;  ///< recorded pick string
    std::string repro;     ///< copy-pasteable sched_explorer command
};

/// The violation `error` found on `schedule`; a nonzero `kill_step` marks a
/// kill-point verdict (message prefix and --kill_step in the repro).
[[nodiscard]] Violation violation(const Subject& subject,
                                  const std::string& schedule,
                                  const std::string& error,
                                  std::uint64_t kill_step = 0);

/// The verdict for a run that was meant to finish: the subject's verdict,
/// and a cancelled run is itself a violation (step budget exhausted —
/// livelocked schedule or config mismatch).
[[nodiscard]] std::optional<std::string> complete_verdict(const Outcome& run);

/// Replays a recorded pick string.
[[nodiscard]] Outcome replay_schedule(
    const Subject& subject, const std::string& schedule,
    std::uint64_t step_budget = kNoStepBudget);

/// Kill-point oracle: replays `schedule` with the step budget cut to
/// `kill_step` (the "crash") and returns the subject's verdict on whatever
/// survived — the prefix oracle when the kill fired, the full oracle when
/// the schedule finished first.
[[nodiscard]] std::optional<std::string> check_kill_point(
    const Subject& subject, const std::string& schedule,
    std::uint64_t kill_step);

/// Aggregate of an exploration batch.
struct ExploreResult {
    std::uint64_t runs = 0;
    std::vector<Violation> violations;
    stm::StmStats stats;  ///< merged over all runs
};

/// Explores `count` schedules built from `sched_cfg` (keys sched=, depth=,
/// steps=) with per-run seeds derived from `base_seed`, checking every run
/// with complete_verdict.
[[nodiscard]] ExploreResult explore(const Subject& subject,
                                    const config::Config& sched_cfg,
                                    std::uint64_t count,
                                    std::uint64_t base_seed);

/// Greedily shrinks a failing schedule string (ddmin-style chunk removal)
/// while complete_verdict still reports a violation. Returns the input
/// unchanged when it does not fail.
[[nodiscard]] std::string minimize_schedule(const Subject& subject,
                                            std::string schedule);

}  // namespace tmb::sched
