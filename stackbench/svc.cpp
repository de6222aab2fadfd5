// svc.cpp — `svc-open`: svc::run_service in an open loop, 1 client and 2
// dispatchers, backend `adaptive` with its default table engine, default
// queue_depth/batch/slots. The run cycles through offered rates of 125k,
// 500k and 1M requests/s; each gives the client a whole-microsecond
// send interval (Service::client_loop truncates the interval to whole µs,
// so other rates would be sent faster than nominal).
//
// The whole process runs on one CPU (see pin_to_one_cpu). The end-to-end
// ops_per_s is the completion rate at the 1M step, the knee of the pinned
// service: its capacity. p50_us/p99_us are the latencies at the 125k step,
// far below the knee, where they measure the service's own path (ring
// hand-off, dispatcher wake-up, batching) rather than queueing.
//
// The result line counts every submitted request as attempted and a
// request the service admitted but could not execute (retry-rejected or
// timed out) as failed, as kv and alias count TooMuchContention. A refusal
// at a full ring is the service's admission-control answer; how many there
// are depends on thread timing, so they are reported as metrics
// (svc.<step>.refused_share, svc.failed_share) and not as failures.
//
// Latency caveat: run_service stamps a request when the pacer actually
// submits it, not when it was due, and its histogram holds responded
// requests only. The latencies therefore exclude pacer lateness (reported
// separately as gen.<step>.lag_ms) and refused requests (counted against
// svc.max_ok_rate_per_s).
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "config/config.hpp"
#include "stm/stm.hpp"
#include "svc/service.hpp"
#include "trace.hpp"
#include "util/hash.hpp"
#include "util/latency_histogram.hpp"
#include "workloads.hpp"

namespace stackbench {

namespace {

using tmb::util::LatencyHistogram;

struct Step {
    const char* name;
    double rate;    ///< offered requests/s
    bool sub_knee;  ///< feeds svc.failed_share
};
constexpr Step kSteps[] = {
    {"r125k", 125000.0, true},
    {"r500k", 500000.0, true},
    {"r1m", 1000000.0, false},
};
/// End-to-end sources: capacity at the 1M step, which is at the knee of the
/// pinned service, and latency at the 125k step. Near the knee a 1.5% swing
/// in capacity moved the 1M step's p50 by 40%; across runs the 500k step's
/// p50 spread wider than the 125k step's.
constexpr std::size_t kCapacityStep = 2;
constexpr std::size_t kLatencyStep = 0;
constexpr double kStepSeconds = 0.25;
constexpr double kP99LimitUs = 200.0;
constexpr double kMinCompletion = 0.98;
constexpr double kRateTolerance = 0.01;
constexpr const char* kBaseConfig =
    "backend=adaptive clients=1 dispatchers=2";

/// Pins the calling thread, and so every thread run_service starts from it,
/// to the last CPU this process may use. Spread over several vCPUs, the
/// service's dispatcher wake-ups and ring-mutex hand-offs go through the
/// hypervisor, and its capacity swung between 0.4M and 0.97M req/s with the
/// host's load; on one CPU they are plain context switches.
void pin_to_one_cpu() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) last = cpu;
    }
    if (last < 0) return;
    CPU_ZERO(&set);
    CPU_SET(last, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
}

/// p99 over every submitted request, with refused, rejected and timed-out
/// requests counted as slower than any response (+inf when they exceed
/// 1% of the submissions).
double tail_inclusive_p99(const tmb::svc::ServiceReport& r) {
    const auto& c = r.counters;
    if (c.submitted == 0 || r.latency.count() == 0) {
        return std::numeric_limits<double>::infinity();
    }
    const double rank = 0.99 * static_cast<double>(c.submitted);
    if (rank > static_cast<double>(r.latency.count())) {
        return std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(
        r.latency.percentile(rank / static_cast<double>(r.latency.count())));
}

/// The Service's set-up without running it: construction needs an
/// environment but calls only now().
class SetupOnlyEnv final : public tmb::svc::SvcEnv {
public:
    std::uint64_t now() override { return 0; }
    void backoff(std::uint32_t) override {}
    void idle() override {}
    void pace_until(std::uint64_t) override {}
    void stall(std::uint32_t) override {}
};

struct StepRecord {
    std::vector<double> p50, p99, tail_p99, completion, offered, lag_ms,
        batch_mean, first_try, refused, completed_per_s;
    std::uint64_t reps = 0, responded = 0, rate_misses = 0;
};

}  // namespace

Report run_svc(const Options& opt) {
    Tracer& tracer = Tracer::instance();
    const std::uint32_t n_setup = tracer.intern("gen.setup");
    // Stm::create builds the adaptive backend: the adapt layer's set-up.
    const std::uint32_t n_create = tracer.intern("adapt.create");
    const std::uint32_t n_ctor = tracer.intern("svc.service_ctor");
    const std::uint32_t n_phase = tracer.intern("gen.phase");
    const std::uint32_t n_step = tracer.intern("svc.run_service");
    Report rep;
    pin_to_one_cpu();

    // --- set-up: what run_service does before its threads start. It is
    // timed once before every cycle, so setup_s samples the same stretch
    // of host time as the timed metrics.
    std::vector<double> setup_s;
    const tmb::config::Config setup_cfg = tmb::config::Config::from_string(
        std::string(kBaseConfig) + " arrival=open:125000 seed=" +
        std::to_string(opt.seed));
    const tmb::svc::SvcConfig setup_sc = tmb::svc::svc_config_from(setup_cfg);
    const auto set_up = [&] {
        const auto t0 = Clock::now();
        Scope setup(n_setup);
        std::unique_ptr<tmb::stm::Stm> tm;
        {
            Scope s(n_create);
            tm = tmb::stm::Stm::create(setup_cfg);
        }
        std::vector<std::uint64_t> storage(
            std::size_t{setup_sc.slots} * 8 + 8, 0);
        auto base = reinterpret_cast<std::uintptr_t>(storage.data());
        base = (base + 63) & ~std::uintptr_t{63};
        SetupOnlyEnv env;
        Scope s(n_ctor);
        const tmb::svc::Service svc(setup_sc, *tm, env,
                                    reinterpret_cast<std::uint64_t*>(base));
        setup_s.push_back(seconds_since(t0));
    };

    // --- timed phase: cycles over the rate steps --------------------------
    constexpr std::size_t kNumSteps = std::size(kSteps);
    std::vector<StepRecord> rec(kNumSteps);
    tmb::stm::StmStats stats;
    std::uint64_t calls = 0;
    std::uint64_t sub_knee_submitted = 0, sub_knee_unsuccessful = 0;
    const auto phase_start = Clock::now();
    {
        Scope phase(n_phase);
        for (std::uint32_t cycle = 0;
             cycle == 0 || seconds_since(phase_start) < opt.seconds; ++cycle) {
            tracer.set_run(cycle);
            set_up();
            for (std::size_t s = 0; s < kNumSteps; ++s) {
                const Step& step = kSteps[s];
                const auto requests =
                    static_cast<std::uint64_t>(step.rate * kStepSeconds);
                const std::uint64_t seed = tmb::util::mix64(
                    opt.seed ^ (std::uint64_t{cycle} << 8 | s));
                const tmb::config::Config cfg =
                    tmb::config::Config::from_string(
                        std::string(kBaseConfig) + " arrival=open:" +
                        std::to_string(static_cast<std::uint64_t>(step.rate)) +
                        " requests=" + std::to_string(requests) +
                        " seed=" + std::to_string(seed));
                tmb::svc::ServiceReport r;
                {
                    Scope span(n_step);
                    r = tmb::svc::run_service(cfg);
                }
                ++calls;
                const auto& c = r.counters;
                rep.check(r.ledger_ok, std::string("svc: ledger violated at ") +
                                           step.name + ": " + r.ledger_note);
                stats.merge(r.stm);
                const auto submitted = static_cast<double>(c.submitted);
                const double planned = submitted / step.rate;
                const double offered = ratio(submitted, r.elapsed_seconds);
                const std::uint64_t unsuccessful =
                    c.rejected_queue + c.rejected_retry + c.timed_out;
                StepRecord& sr = rec[s];
                ++sr.reps;
                sr.responded += r.latency.count();
                sr.p50.push_back(
                    static_cast<double>(r.latency.percentile(0.50)));
                sr.p99.push_back(
                    static_cast<double>(r.latency.percentile(0.99)));
                sr.tail_p99.push_back(tail_inclusive_p99(r));
                sr.completion.push_back(
                    ratio(static_cast<double>(c.completed), submitted));
                sr.offered.push_back(offered);
                sr.lag_ms.push_back((r.elapsed_seconds - planned) * 1e3);
                sr.batch_mean.push_back(ratio(static_cast<double>(c.completed),
                                              static_cast<double>(c.batches)));
                sr.first_try.push_back(
                    ratio(static_cast<double>(c.first_try_conflicts),
                          static_cast<double>(c.batches)));
                sr.refused.push_back(
                    ratio(static_cast<double>(unsuccessful), submitted));
                sr.completed_per_s.push_back(ratio(
                    static_cast<double>(c.completed), r.elapsed_seconds));
                if (std::abs(offered / step.rate - 1.0) > kRateTolerance) {
                    ++sr.rate_misses;
                }
                rep.attempted += c.submitted;
                rep.failed += c.rejected_retry + c.timed_out;
                if (step.sub_knee) {
                    sub_knee_submitted += c.submitted;
                    sub_knee_unsuccessful += unsuccessful;
                }
            }
        }
    }

    const StepRecord& capacity = rec[kCapacityStep];
    const StepRecord& latency = rec[kLatencyStep];
    rep.add("setup_s", median(setup_s), "s", setup_s.size());
    rep.add("ops_per_s", median(capacity.completed_per_s), "1/s",
            capacity.reps);
    // A call's p50 is bimodal (6 or 8-10 us at 125k, as the client's and
    // dispatchers' sleep timers happen to line up), so the median over calls
    // flips between the modes; the mean over calls follows their mix.
    rep.add("p50_us", mean(latency.p50), "us", latency.responded);
    rep.add("p99_us", median(latency.p99), "us", latency.responded);

    if (opt.trace) {
        double max_ok = 0.0;
        for (std::size_t s = 0; s < kNumSteps; ++s) {
            const Step& step = kSteps[s];
            const StepRecord& sr = rec[s];
            const std::string svc = std::string("svc.") + step.name + ".";
            const std::string gen = std::string("gen.") + step.name + ".";
            // A step whose achieved rate is off nominal by more than 1% in
            // most repetitions did not offer the load it names.
            const bool rate_ok = 2 * sr.rate_misses <= sr.reps;
            if (rate_ok && median(sr.tail_p99) <= kP99LimitUs &&
                median(sr.completion) >= kMinCompletion) {
                max_ok = std::max(max_ok, step.rate);
            }
            rep.add(svc + "p50_us", mean(sr.p50), "us", sr.responded);
            rep.add(svc + "p99_us", median(sr.p99), "us", sr.responded);
            rep.add(svc + "batch_mean", median(sr.batch_mean), "count",
                    sr.reps);
            rep.add(svc + "first_try_conflict_ratio", median(sr.first_try),
                    "share", sr.reps);
            rep.add(svc + "refused_share", median(sr.refused), "share",
                    sr.reps);
            rep.add(svc + "completed_per_s", median(sr.completed_per_s),
                    "1/s", sr.reps);
            rep.add(gen + "offered_per_s", median(sr.offered), "1/s",
                    sr.reps);
            rep.add(gen + "lag_ms", median(sr.lag_ms), "ms", sr.reps);
            rep.add(gen + "rate_ok", rate_ok ? 1.0 : 0.0, "bool", sr.reps);
        }
        rep.add("svc.max_ok_rate_per_s", max_ok, "1/s", calls);
        rep.add("svc.failed_share",
                ratio(static_cast<double>(sub_knee_unsuccessful),
                      static_cast<double>(sub_knee_submitted)),
                "share", sub_knee_submitted);
        const auto commits = static_cast<double>(stats.commits);
        const auto aborts = static_cast<double>(stats.aborts);
        rep.add("adapt.policy_switches",
                ratio(static_cast<double>(stats.policy_switches),
                      static_cast<double>(calls)),
                "count", calls);
        rep.add("adapt.table_resizes",
                ratio(static_cast<double>(stats.table_resizes),
                      static_cast<double>(calls)),
                "count", calls);
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
    }
    rep.add("peak_rss_mb", peak_rss_mb(), "MiB", 1);
    return rep;
}

}  // namespace stackbench
