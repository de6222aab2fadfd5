// sched_service.hpp — the service as a sched::Subject: the same Service
// object that serves real threads (svc/service.hpp) runs on virtual threads
// under sched::drive_schedule, the one driver every subject shares.
//
// Clients 0..C-1 and dispatchers C..C+D-1 advance only when a
// sched::Schedule grants them a step, the clock is the driver's step
// counter itself (deadline_steps fire at exact steps — test-assertable), and
// every committed batch is recorded for serial replay. Cancelling the run at
// step K *is* killing the service at K; the service oracle then checks
//
//   * conservation — submitted == completed + rejected + timed-out +
//     in-flight-at-kill, with in-flight bounded by ring capacity +
//     dispatcher batches + submissions in progress (never unbounded);
//   * prefix consistency — the recorded commit log replayed serially
//     reproduces every recorded read/write and the rolled-back final
//     memory, i.e. a kill never tears a batch or loses a committed one.
//
// ServiceSubject wraps run + oracle, so explore, the kill-point check,
// minimization and the guided fuzzer (sched/subject.hpp, sched/corpus.hpp)
// treat the service exactly like the generated-programs subject.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "sched/harness.hpp"
#include "sched/schedule.hpp"
#include "sched/subject.hpp"
#include "svc/service.hpp"

namespace tmb::svc {

/// Largest service-arena size under the turnstile (its own static arena,
/// independent of the sched harness's — the model-validation sweep wants
/// slot counts matching real table sizes).
inline constexpr std::uint32_t kSvcMaxSlots = 2048;

/// One deterministic service shape: STM selection + service config.
/// Arrival is always closed (virtual time has no Poisson process), and
/// svc.deadline_us is measured in scheduler *steps*.
struct SvcHarnessConfig : sched::StmSelection {
    /// STM-internal attempts before TooMuchContention surfaces to the
    /// dispatcher's retry/backoff layer. Small by default so schedules can
    /// actually reach the service-level retry paths.
    std::uint32_t max_attempts = 4;
    SvcConfig svc = [] {
        SvcConfig s;
        s.clients = 2;
        s.dispatchers = 1;
        s.shards = 1;
        s.queue_depth = 2;
        s.batch = 2;
        s.requests_per_client = 3;
        s.ops_per_request = 2;
        s.slots = 8;
        s.rmw = true;
        return s;
    }();
    std::uint64_t step_limit = std::uint64_t{1} << 20;

    [[nodiscard]] std::uint32_t threads() const {
        return svc.clients + svc.dispatchers;
    }
};

/// Parses sched_explorer-style keys: the sched::StmSelection keys plus
/// max_attempts, step_limit, and the service shape (clients, dispatchers,
/// shards, queue_depth, batch, requests, ops, slots, rmw, wseed,
/// deadline_steps, retry=none|backoff:<n>, svc_fault).
[[nodiscard]] SvcHarnessConfig svc_harness_config_from(
    const config::Config& cfg);

/// Outcome of one scheduled service run: the shared sched::Trace
/// (cancelled = killed at step_limit) plus what the service oracle needs.
struct ServiceRunResult : sched::Trace {
    SvcCounters counters;
    std::vector<SvcCommit> commit_log;  ///< commit order
    std::vector<std::uint64_t> final_state;
    std::uint64_t state_hash = 0;
    bool ledger_ok = false;
    std::string ledger_note;
};

/// Runs the service under `schedule`. Deterministic: identical inputs give
/// identical results (virtual threads bind TxIds in index order, the clock
/// is the step counter, and request contents derive from svc.seed).
[[nodiscard]] ServiceRunResult run_service_schedule(
    const SvcHarnessConfig& cfg, sched::Schedule& schedule);

/// The service oracle: conservation ledger + commit-log/counter agreement +
/// at-most-once execution per request + serial replay of the commit log
/// reproducing every recorded read/write and the final memory. Handles
/// killed runs (run.cancelled) with the relaxed in-flight ledger; complete
/// runs must balance exactly. nullopt = consistent.
[[nodiscard]] std::optional<std::string> check_service_consistent(
    const SvcHarnessConfig& cfg, const ServiceRunResult& run);

/// The service subject: a fresh engine + Service per run, judged by
/// check_service_consistent (which handles killed runs itself).
class ServiceSubject final : public sched::Subject {
public:
    explicit ServiceSubject(SvcHarnessConfig cfg) : cfg_(std::move(cfg)) {}

    [[nodiscard]] std::uint32_t threads() const override {
        return cfg_.threads();
    }
    [[nodiscard]] std::string repro_flags() const override;
    [[nodiscard]] sched::Outcome run(sched::Schedule& schedule,
                                     std::uint64_t step_budget) const override;

private:
    SvcHarnessConfig cfg_;
};

}  // namespace tmb::svc
