// sched_explorer — deterministic schedule exploration over the STM
// backends, with a serializability oracle and a differential oracle.
//
// Explore (default): run N schedules per backend×table pair, oracle-check
// every run, and print a copy-pasteable repro line for every failure.
//
//   sched_explorer --schedules=100000 --seed=7
//   sched_explorer --backend=table --table=tagless --schedules=5000
//   sched_explorer --sched=pct --depth=3 --schedules=2000
//
// Replay: re-run one recorded schedule string and report its signature —
// the line a failing CI run prints is directly runnable:
//
//   sched_explorer --backend=tl2 --threads=3 ... --schedule=0120211
//   sched_explorer ... --schedule=0120211 --minimize
//
// Differential: replay the same schedule seeds across every pair and
// require identical final state (commutative workload) plus the paper's
// false-conflict direction (tagged = 0 ≤ tagless):
//
//   sched_explorer --diff --schedules=200
//
// Fuzz: coverage-guided exploration (sched/corpus.hpp) — mutate recorded
// pick strings, keep mutants that reach new behavior signatures, spend the
// whole budget where the coverage gradient points:
//
//   sched_explorer --fuzz --schedules=200000 --seed=7
//   sched_explorer --fuzz --corpus=corpus.d --jobs=4 --kill_every=64
//
// --corpus=<dir> persists the corpus (and shares it between --jobs=N
// forked workers via atomic file claims); --kill_every=N interleaves
// kill-point checks (cancel the run at a random step, assert the commit
// history is a per-thread prefix whose serial replay reproduces memory).
// With --jobs=1 a fuzz campaign is bit-reproducible from --seed; with
// more jobs the signature *set* is stable but claim races make corpus
// contents worker-dependent.
//
// Kill-point replay: --schedule=<picks> --kill_step=S replays one schedule
// cancelled at step S under the prefix-consistency oracle.
//
// Service subject: --svc=1 swaps the generated transaction programs for the
// live service front-end (svc/sched_service.hpp) — clients, queues,
// dispatchers — under the same driver. Every mode except --diff (which needs
// commutative programs) takes the same code path, pair sweep, --jobs fork
// and per-pair corpus directory; the oracle becomes request conservation +
// commit-log serial replay:
//
//   sched_explorer --svc=1 --schedules=2000 --seed=7
//   sched_explorer --svc=1 --fuzz --schedules=5000 --kill_every=32
//   sched_explorer --svc=1 --clients=2 --dispatchers=2 --retry=backoff:3 \
//                  --schedule=01232021 --kill_step=17
//
// Fault injection: --fault=<name> arms one of the deliberate test faults
// (ignore_acquire_conflicts | skip_tl2_validation | eager_reclaim |
// leaky_cache) for the whole process — CI uses this to assert the oracles
// still CATCH broken implementations (the run must exit 1 with repro
// lines; a clean exit means the oracle went blind).
//
// Exit codes: 0 = every run passed its oracle; 1 = violations (repro lines on
// stdout, also appended to --out=<file> when given — deduplicated, so
// replayed batches do not pile up duplicate lines); 2 = config error.
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "config/config.hpp"
#include "sched/corpus.hpp"
#include "sched/harness.hpp"
#include "sched/schedule.hpp"
#include "sched/subject.hpp"
#include "stm/sched_hook.hpp"
#include "svc/sched_service.hpp"

namespace {

using tmb::sched::BackendPair;
using tmb::sched::HarnessConfig;
using tmb::sched::Subject;

/// The pairs to sweep: the command line's own selection when it names a
/// backend or table, every built-in pair otherwise.
std::vector<BackendPair> selected_pairs(const tmb::config::Config& cli) {
    if (!cli.has("backend") && !cli.has("table")) {
        return tmb::sched::default_backend_pairs();
    }
    const auto sel = tmb::sched::stm_selection_from(cli);
    const bool tabled = sel.backend == "table" || sel.backend == "adaptive";
    return {{sel.backend, tabled ? sel.table : "", sel.commit_time_locks}};
}

/// Appends repro lines to --out=<file>, deduplicated by the full line:
/// the file is pre-read on open, so re-running a batch (or several batches
/// against one file) never piles up duplicate repro lines for the same
/// schedule string + config.
class ReproSink {
public:
    explicit ReproSink(const std::string& path) {
        if (path.empty()) return;
        std::ifstream existing(path);
        for (std::string line; std::getline(existing, line);) {
            seen_.insert(line);
        }
        file_.open(path, std::ios::app);
    }

    void write(const std::string& line) {
        if (!file_.is_open() || !seen_.insert(line).second) return;
        file_ << line << '\n';
        file_.flush();
    }

private:
    std::ofstream file_;
    std::unordered_set<std::string> seen_;
};

void report(std::ostream& os, const std::vector<tmb::sched::Violation>& found,
            ReproSink& sink) {
    for (const auto& v : found) {
        os << "VIOLATION: " << v.message << '\n';
        sink.write(v.repro);
    }
}

void print_minimized(const Subject& subject, const std::string& schedule) {
    const auto shrunk = tmb::sched::minimize_schedule(subject, schedule);
    std::cout << "  minimized " << schedule.size() << " -> " << shrunk.size()
              << " picks\n  repro: "
              << tmb::sched::repro_line(subject.repro_flags(), shrunk) << '\n';
}

int explorer_main(int argc, char** argv) {
    const auto cli = tmb::config::Config::from_args(argc, argv);

    const std::uint64_t schedules = cli.get_u64("schedules", 1000);
    const std::uint64_t seed = cli.get_u64("seed", 1);
    const bool diff = cli.get_bool("diff", false);
    const bool minimize = cli.get_bool("minimize", false);
    const std::string replay = cli.get("schedule", "");
    const std::string out_path = cli.get("out", "");
    const std::uint64_t kill_step = cli.get_u64("kill_step", 0);

    // Fuzz-mode knobs (sched/corpus.hpp).
    const bool fuzz = cli.get_bool("fuzz", false);
    const std::string corpus_path = cli.get("corpus", "");
    const std::uint64_t jobs = cli.get_u64("jobs", 1);
    tmb::sched::FuzzOptions fopts;
    fopts.budget = schedules;
    fopts.seed = seed;
    fopts.init = cli.get_u64("init", fopts.init);
    fopts.sync_every = cli.get_u64("sync_every", fopts.sync_every);
    fopts.shrink = cli.get_bool("shrink", fopts.shrink);
    fopts.shrink_probes = cli.get_u64("shrink_probes", fopts.shrink_probes);
    fopts.kill_every = cli.get_u64("kill_every", fopts.kill_every);

    // Schedule-policy keys consumed by make_schedule inside the harness.
    tmb::config::Config sched_cfg;
    sched_cfg.set("sched", cli.get("sched", "random"));
    sched_cfg.set("depth", std::to_string(cli.get_u64("depth", 3)));
    sched_cfg.set("steps", std::to_string(cli.get_u64("steps", 256)));

    // Fault injection: arm one deliberate fault for the whole process so
    // CI can assert the oracles catch it (expected exit code: 1).
    const std::string fault = cli.get("fault", "");
    if (!fault.empty()) {
        auto& faults = tmb::stm::detail::test_faults();
        if (fault == "ignore_acquire_conflicts") {
            faults.ignore_acquire_conflicts.store(true);
        } else if (fault == "skip_tl2_validation") {
            faults.skip_tl2_validation.store(true);
        } else if (fault == "eager_reclaim") {
            faults.eager_reclaim.store(true);
        } else if (fault == "leaky_cache") {
            faults.leaky_cache.store(true);
        } else {
            throw std::invalid_argument("unknown --fault=" + fault);
        }
    }

    // The subject: generated transaction programs, or (--svc=1) the
    // service front-end. subject_for(pair) builds it on one backend pair;
    // nullptr keeps the command line's own selection.
    const bool svc = cli.get_bool("svc", false);
    if (svc && diff) {
        throw std::invalid_argument(
            "--diff needs commutative transaction programs; it has no "
            "--svc=1 form");
    }
    if (jobs > 1 && !fuzz) {
        throw std::invalid_argument("--jobs forks fuzz workers; add --fuzz");
    }
    HarnessConfig base;
    tmb::svc::SvcHarnessConfig svc_base;
    if (svc) {
        svc_base = tmb::svc::svc_harness_config_from(cli);
    } else {
        base = tmb::sched::harness_config_from(cli);
        // Differential mode needs commutative writes.
        if (diff && !cli.has("mode")) base.commutative = true;
    }
    const std::vector<BackendPair> pairs = selected_pairs(cli);
    tmb::config::reject_unknown(cli);
    const auto subject_for =
        [&](const BackendPair* pair) -> std::unique_ptr<Subject> {
        if (svc) {
            tmb::svc::SvcHarnessConfig cfg = svc_base;
            if (pair) pair->apply(cfg);
            return std::make_unique<tmb::svc::ServiceSubject>(std::move(cfg));
        }
        HarnessConfig cfg = base;
        if (pair) pair->apply(cfg);
        return std::make_unique<tmb::sched::ProgramSubject>(std::move(cfg));
    };

    ReproSink sink(out_path);

    // --- replay mode ------------------------------------------------------
    if (!replay.empty()) {
        const auto subject = subject_for(nullptr);

        // Kill-point replay: cancel at --kill_step and demand a consistent
        // prefix.
        if (kill_step != 0) {
            const auto error =
                tmb::sched::check_kill_point(*subject, replay, kill_step);
            if (!error) {
                std::cout << "kill-point oracle (step " << kill_step
                          << "): consistent\n";
                return 0;
            }
            report(std::cout,
                   {tmb::sched::violation(*subject, replay, *error, kill_step)},
                   sink);
            return 1;
        }

        const auto run = tmb::sched::replay_schedule(*subject, replay);
        const tmb::sched::Trace& trace = run.trace;
        std::cout << "replayed " << trace.steps << " steps, "
                  << trace.stats.commits << " commits, "
                  << trace.stats.aborts << " aborts, "
                  << trace.stats.policy_switches << " policy switches, "
                  << trace.stats.clock_cas_failures
                  << " clock CAS failures, signature 0x" << std::hex
                  << trace.signature << std::dec << '\n';
        const auto error = tmb::sched::complete_verdict(run);
        if (!error) {
            std::cout << "oracle: consistent\n";
            return 0;
        }
        report(std::cout,
               {tmb::sched::violation(*subject, trace.schedule, *error)}, sink);
        if (minimize) print_minimized(*subject, replay);
        return 1;
    }

    // --- differential mode ------------------------------------------------
    if (diff) {
        std::size_t total_violations = 0;
        const auto programs = tmb::sched::generate_programs(base);
        for (std::uint64_t n = 0; n < schedules; ++n) {
            const std::uint64_t round_seed = seed + n;
            if (const auto error = tmb::sched::run_differential(
                    base, programs, pairs, sched_cfg, round_seed)) {
                ++total_violations;
                std::cout << "DIFF VIOLATION (round " << n << "): " << *error
                          << '\n';
                sink.write("# diff seed " + std::to_string(round_seed) + ": " +
                           *error);
            }
        }
        std::cout << "differential: " << schedules << " rounds x "
                  << pairs.size() << " pairs, " << total_violations
                  << " violations\n";
        return total_violations ? 1 : 0;
    }

    // --- explore / fuzz: one subject per backend pair ---------------------
    if (fuzz && !corpus_path.empty()) ::mkdir(corpus_path.c_str(), 0755);
    // One corpus subdirectory per backend pair: signatures are only
    // comparable within one engine shape.
    const auto pair_dir = [&](const BackendPair& pair) {
        if (corpus_path.empty()) return std::string();
        std::string label = pair.label();
        for (char& c : label) {
            if (c == '/') c = '-';
        }
        return corpus_path + "/" + label;
    };

    int exit_code = 0;
    for (const BackendPair& pair : pairs) {
        const auto subject = subject_for(&pair);
        if (!fuzz) {
            const auto result =
                tmb::sched::explore(*subject, sched_cfg, schedules, seed);
            if (!result.violations.empty()) exit_code = 1;
            std::cout << pair.label() << ": " << result.runs << " schedules, "
                      << result.stats.commits << " commits, "
                      << result.stats.aborts << " aborts, "
                      << result.stats.false_conflicts << " false conflicts, "
                      << result.stats.policy_switches << " policy switches, "
                      << result.stats.clock_cas_failures
                      << " clock CAS failures, " << result.violations.size()
                      << " violations\n";
            report(std::cout, result.violations, sink);
            for (const auto& v : result.violations) {
                if (minimize) print_minimized(*subject, v.schedule);
            }
            continue;
        }

        const auto run_worker = [&](std::uint64_t worker) {
            tmb::sched::FuzzOptions wopts = fopts;
            wopts.seed = fopts.seed + worker * 0x9e3779b97f4a7c15ULL;
            tmb::sched::Corpus corpus(pair_dir(pair));
            if (!corpus.dir().empty()) (void)corpus.sync();  // warm start
            const auto result =
                tmb::sched::fuzz_explore(*subject, wopts, corpus);
            std::cout << pair.label()
                      << (jobs > 1
                              ? " [worker " + std::to_string(worker) + "]"
                              : "")
                      << ": fuzz " << result.runs << " runs, "
                      << corpus.distinct_signatures() << " signatures, "
                      << corpus.size() << " corpus entries, "
                      << result.new_coverage_mutants
                      << " coverage mutants, " << result.kill_checks
                      << " kill checks, sites 0x" << std::hex
                      << result.sites_seen << std::dec << ", "
                      << result.violations.size() << " violations\n";
            report(std::cout, result.violations, sink);
            return result.violations.empty() ? 0 : 1;
        };
        if (jobs <= 1) {
            if (run_worker(0) != 0) exit_code = 1;
            continue;
        }
        // Forked workers share the pair's corpus directory; each runs
        // the full budget from its own seed stream. Fork happens before
        // any harness threads exist in the child.
        std::vector<pid_t> kids;
        for (std::uint64_t w = 0; w < jobs; ++w) {
            const pid_t pid = ::fork();
            if (pid == 0) {
                const int rc = run_worker(w);
                std::cout.flush();
                std::_Exit(rc);
            }
            if (pid > 0) {
                kids.push_back(pid);
            } else {
                std::cerr << "sched_explorer: fork failed\n";
                exit_code = 1;
            }
        }
        for (const pid_t pid : kids) {
            int status = 0;
            if (::waitpid(pid, &status, 0) < 0 || !WIFEXITED(status) ||
                WEXITSTATUS(status) != 0) {
                exit_code = 1;
            }
        }
    }
    std::cout << (exit_code == 0 ? "sched_explorer: clean\n"
                                 : "sched_explorer: VIOLATIONS above\n");
    return exit_code;
}

}  // namespace

int main(int argc, char** argv) {
    return tmb::config::guarded_main(explorer_main, argc, argv);
}
