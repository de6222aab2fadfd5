#include "sched/corpus.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string_view>

#include "util/hash.hpp"

namespace tmb::sched {

namespace {

[[nodiscard]] std::string hex16(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return std::string(buf, 16);
}

/// "sig-<16 hex>.sched" → the signature, or nullopt for any other name.
[[nodiscard]] std::optional<std::uint64_t> parse_claim(const std::string& name) {
    constexpr std::string_view prefix = "sig-";
    constexpr std::string_view suffix = ".sched";
    if (name.size() != prefix.size() + 16 + suffix.size()) return std::nullopt;
    if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
    if (name.compare(prefix.size() + 16, suffix.size(), suffix) != 0) {
        return std::nullopt;
    }
    const std::string hex = name.substr(prefix.size(), 16);
    char* end = nullptr;
    const std::uint64_t sig = std::strtoull(hex.c_str(), &end, 16);
    if (end != hex.c_str() + 16) return std::nullopt;
    return sig;
}

/// Base-36 pick strings only; anything else in a shared directory is
/// another tool's garbage and is skipped.
[[nodiscard]] bool plausible_schedule(const std::string& s) {
    if (s.empty() || s.size() > (std::size_t{1} << 20)) return false;
    return std::all_of(s.begin(), s.end(), [](char c) {
        return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z');
    });
}

}  // namespace

Corpus::Corpus(std::string dir) : dir_(std::move(dir)) {
    if (dir_.empty()) return;
    if (::mkdir(dir_.c_str(), 0755) != 0 && errno != EEXIST) {
        throw std::runtime_error("corpus: cannot create directory " + dir_);
    }
}

bool Corpus::observe(std::uint64_t signature) { return map_.insert(signature); }

bool Corpus::seen(std::uint64_t signature) const {
    return map_.contains(signature);
}

void Corpus::add(std::string schedule, std::uint64_t signature) {
    CorpusEntry e;
    e.schedule = std::move(schedule);
    e.signature = signature;
    entries_.push_back(std::move(e));
}

std::size_t Corpus::select(util::Xoshiro256& rng) const {
    if (entries_.empty()) {
        throw std::logic_error("corpus: select() on an empty corpus");
    }
    const auto weight = [](const CorpusEntry& e) {
        return 1 + std::min<std::uint64_t>(e.yield * 4, 63);
    };
    std::uint64_t total = 0;
    for (const CorpusEntry& e : entries_) total += weight(e);
    std::uint64_t r = rng.below(total);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        const std::uint64_t w = weight(entries_[i]);
        if (r < w) return i;
        r -= w;
    }
    return entries_.size() - 1;  // unreachable; float-free safety
}

std::size_t Corpus::sync() {
    if (dir_.empty()) return 0;

    // Publish: one O_CREAT|O_EXCL claim per not-yet-published entry. Losing
    // the claim race just means another worker already owns that signature.
    for (; published_ < entries_.size(); ++published_) {
        const CorpusEntry& e = entries_[published_];
        const std::string path = dir_ + "/sig-" + hex16(e.signature) + ".sched";
        const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
        if (fd < 0) continue;  // EEXIST: claimed elsewhere (or unwritable)
        const std::string line = e.schedule + "\n";
        (void)!::write(fd, line.data(), line.size());
        ::close(fd);
    }

    // Import, in sorted name order so single-job syncs stay deterministic.
    std::vector<std::string> names;
    if (DIR* d = ::opendir(dir_.c_str())) {
        while (const dirent* ent = ::readdir(d)) names.emplace_back(ent->d_name);
        ::closedir(d);
    }
    std::sort(names.begin(), names.end());

    std::size_t imported = 0;
    for (const std::string& name : names) {
        const auto sig = parse_claim(name);
        if (!sig || seen(*sig)) continue;
        std::ifstream in(dir_ + "/" + name);
        std::string schedule;
        if (!std::getline(in, schedule) || !plausible_schedule(schedule)) {
            continue;
        }
        (void)observe(*sig);
        add(std::move(schedule), *sig);
        ++published_;  // imported entries are on disk by definition
        ++imported;
        // Keep imports adjacent to published_'s tail: add() appended at the
        // back, which is exactly entries_[published_ - 1] here because
        // publish() above drained the unpublished range first.
    }
    return imported;
}

// ---------------------------------------------------------------------------
// The guided fuzz loop
// ---------------------------------------------------------------------------

FuzzResult fuzz_explore(const Subject& subject, const FuzzOptions& opts,
                        Corpus& corpus) {
    const std::uint64_t step_budget =
        opts.step_limit != 0 ? opts.step_limit : kNoStepBudget;
    FuzzResult out;
    util::Xoshiro256 rng(opts.seed);

    // Completed runs face the subject's full oracle; cancelled runs (step
    // cap hit — e.g. a livelocking mutant) its prefix oracle: whatever
    // committed before the cap must form a consistent history.
    const auto record = [&](const Outcome& run) {
        ++out.runs;
        out.stats.merge(run.trace.stats);
        out.sites_seen |= run.trace.sites_seen;
        if (run.verdict) {
            out.violations.push_back(
                violation(subject, run.trace.schedule, *run.verdict));
        }
    };

    // Retains run.schedule (the recorded, replayable pick string) for its
    // new signature, first ddmin-shrinking it to the shortest string that
    // still reproduces the signature. Shrink probes are full oracle-checked
    // runs and count against the budget; signatures they stumble into are
    // observed (they count as reached) but not retained. All probes
    // together take at most half the budget, so a short campaign still
    // mutates and kill-checks; past that, entries are retained unshrunk.
    const std::uint64_t shrink_budget = opts.budget / 2;
    std::uint64_t shrink_spent = 0;
    const auto retain = [&](const Trace& run) {
        std::string kept = run.schedule;
        if (opts.shrink && kept.size() > 1 && shrink_spent < shrink_budget &&
            out.runs < opts.budget) {
            std::uint64_t cap = std::min(shrink_budget - shrink_spent,
                                         opts.budget - out.runs);
            if (opts.shrink_probes != 0) cap = std::min(cap, opts.shrink_probes);
            const auto same_signature = [&](const std::string& cand) {
                const Outcome probe =
                    replay_schedule(subject, cand, step_budget);
                record(probe);
                ++shrink_spent;
                (void)corpus.observe(probe.trace.signature);
                return probe.trace.signature == run.signature;
            };
            kept = shrink_schedule(std::move(kept), same_signature, cap);
        }
        corpus.add(std::move(kept), run.signature);
    };

    // Seed phase: a few random schedules establish baseline coverage (and
    // give the mutators parents to work from).
    config::Config random_cfg;
    random_cfg.set("sched", "random");
    for (std::uint64_t i = 0; i < opts.init && out.runs < opts.budget; ++i) {
        const auto sch =
            make_schedule(random_cfg, util::mix64(opts.seed ^ (i + 1)));
        const Outcome run = subject.run(*sch, step_budget);
        record(run);
        if (opts.stop_at_first && !out.violations.empty()) return out;
        if (corpus.observe(run.trace.signature)) retain(run.trace);
    }

    constexpr std::size_t kNoBase = static_cast<std::size_t>(-1);
    std::uint64_t since_sync = 0;
    std::uint64_t since_kill = 0;
    while (out.runs < opts.budget &&
           !(opts.stop_at_first && !out.violations.empty())) {
        // Exploration mix: 1 round in 8 runs a fresh full-length random
        // schedule instead of a mutant. Pure corpus exploitation can
        // collapse into a low-diversity basin when signatures carry no
        // gradient toward a behavior; the mix keeps feeding the corpus
        // interleavings from the whole space, AFL-havoc style.
        std::size_t base_idx = kNoBase;
        Outcome outcome;
        if (corpus.empty() || rng.below(8) == 0) {
            const auto sch = make_schedule(random_cfg, rng());
            outcome = subject.run(*sch, step_budget);
        } else {
            base_idx = corpus.select(rng);
            ++corpus.entry(base_idx).trials;
            const std::string mutant =
                mutate_schedule(corpus.entry(base_idx).schedule,
                                corpus.entry(corpus.select(rng)).schedule,
                                subject.threads(), rng);
            outcome = replay_schedule(subject, mutant, step_budget);
        }
        const Trace& run = outcome.trace;
        ++since_sync;
        record(outcome);
        if (opts.stop_at_first && !out.violations.empty()) return out;
        if (corpus.observe(run.signature)) {
            ++out.new_coverage_mutants;
            if (base_idx != kNoBase) ++corpus.entry(base_idx).yield;
            retain(run);
        }

        // Kill-point cadence: replay the schedule we just ran, cancelled at
        // a random step, and demand a prefix-consistent commit history.
        // (Counter-based, not out.runs % N: shrink probes also advance
        // out.runs, so exact multiples would align only by luck.)
        ++since_kill;
        if (opts.kill_every != 0 && since_kill >= opts.kill_every &&
            run.steps > 0 && out.runs < opts.budget) {
            since_kill = 0;
            const std::uint64_t kill = 1 + rng.below(run.steps);
            ++out.runs;
            ++out.kill_checks;
            if (const auto error =
                    check_kill_point(subject, run.schedule, kill)) {
                out.violations.push_back(
                    violation(subject, run.schedule, *error, kill));
            }
        }

        if (!corpus.dir().empty() && opts.sync_every != 0 &&
            since_sync >= opts.sync_every) {
            since_sync = 0;
            (void)corpus.sync();
        }
    }
    if (!corpus.dir().empty()) (void)corpus.sync();
    return out;
}

}  // namespace tmb::sched
