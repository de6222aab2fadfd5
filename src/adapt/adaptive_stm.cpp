// adaptive_stm.cpp — the epoch-based quiesce-and-swap backend.
//
// Correctness hinges on three protocol rules (see also adaptive_stm.hpp):
//
//   * Swaps run only in the *begin* path. The commit path merely counts and
//     stages; sched_hook.hpp's guarantee that a commit executes as one
//     scheduler step — the basis of the commit-order serializability oracle
//     — is untouched.
//   * A beginner and the swapper race on (in_flight, pending) with seq_cst
//     on both sides (the classic Dekker pattern): either the beginner
//     observes the pending flag and stands back, or the swapper observes
//     the beginner's in_flight increment and retries. Hence in_flight == 0
//     at the swap means *no* transaction is between begin and
//     commit/abort on the old engine.
//   * A waiting beginner yields YieldPoint::kRetry, which the sched
//     harness maps to Event::kAbort — so PCT schedules demote it and the
//     in-flight holder it is waiting for eventually runs (no priority
//     livelock).
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "adapt/adaptive_stm.hpp"
#include "adapt/policy.hpp"
#include "stm/backend.hpp"
#include "stm/sched_hook.hpp"

namespace tmb::stm::detail {

namespace {

using Clock = std::chrono::steady_clock;

/// Builds the concrete engine for an epoch. Direct factory dispatch (not
/// the registry) keeps construction allocation-minimal and cannot recurse
/// into the adaptive entry.
[[nodiscard]] std::unique_ptr<Backend> build_engine(const StmConfig& cfg,
                                                    Instrumentation& stats,
                                                    ReclaimDomain& reclaim) {
    switch (cfg.backend) {
        case BackendKind::kTl2: return make_tl2_backend(cfg, stats, reclaim);
        case BackendKind::kTaglessAtomic:
        case BackendKind::kTaglessTable:
        case BackendKind::kTaggedTable:
            return make_ownership_backend(cfg, stats, reclaim);
        case BackendKind::kAdaptive: break;
    }
    throw std::logic_error("adaptive: inner engine must be concrete");
}

/// One generation of the wrapped engine plus its epoch counters. Checked-out
/// contexts keep their generation alive via shared_ptr, so transactions
/// that bound before a swap finish (and their contexts release engine
/// slots) against the engine they started on.
struct EngineEpoch {
    std::uint64_t seq = 0;
    StmConfig cfg;  ///< concrete (backend != kAdaptive)
    std::unique_ptr<Backend> engine;
    /// Epoch-local tallies (relaxed: folded into one sample at the boundary).
    std::atomic<std::uint64_t> commits{0};
    std::atomic<std::uint64_t> aborts{0};
    std::atomic<std::uint64_t> accesses{0};
    /// Shared-counter baselines at epoch start, for delta sampling.
    std::uint64_t base_true = 0;
    std::uint64_t base_false = 0;
    std::uint64_t base_clock_cas = 0;
    Clock::time_point started = Clock::now();
};

/// Context wrapper: the inner context plus the epoch it is bound to. The
/// inner context is attached to its engine, and holds its TxId, exactly
/// while this one is checked out: detach releases it too, so an idle
/// wrapper keeps no TxId and the runtime's release() has nothing to do.
/// Only a checked-out context holds its epoch (epoch_); an idle pooled one
/// merely observes it (bound_), so it never keeps a swapped-out engine and
/// its table alive. A released inner context depends on nothing of its
/// engine and may outlive it.
class AdaptCx final : public TxContext {
public:
    void flush_stats() noexcept override {
        if (inner_) inner_->flush_stats();
    }

    /// Drops the (detached) inner context and its epoch.
    void drop_inner() noexcept {
        inner_.reset();
        epoch_.reset();
        bound_.reset();
        epoch_seq_ = std::numeric_limits<std::uint64_t>::max();
    }

    std::shared_ptr<EngineEpoch> epoch_;
    std::weak_ptr<EngineEpoch> bound_;
    std::unique_ptr<TxContext> inner_;
    std::uint64_t epoch_seq_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t attempt_accesses_ = 0;
};

class AdaptiveBackend final : public Backend {
public:
    AdaptiveBackend(const StmConfig& config, Instrumentation& stats,
                    ReclaimDomain& reclaim)
        : outer_(config),
          policy_(adapt::policy_config_from(config.adapt)),
          stats_(stats),
          reclaim_(reclaim) {
        initial_ = config;
        initial_.backend = config.adapt.engine;
        auto first = std::make_shared<EngineEpoch>();
        first->cfg = initial_;
        first->engine = build_engine(initial_, stats_, reclaim_);
        capacity_ = first->engine->max_live_contexts();
        epoch_ = std::move(first);
        published_seq_.store(0, std::memory_order_release);
    }

    std::unique_ptr<TxContext> make_context() override {
        // Unbound: the inner context is built at first begin, against
        // whatever epoch is then live.
        return std::make_unique<AdaptCx>();
    }

    /// Takes the epoch back from a pooled context's weak reference; an
    /// inner context of the live epoch is re-attached, one of a swapped-out
    /// epoch is dropped here (begin rebinds). False, with the epoch let go
    /// again, when the engine has no TxId free.
    bool attach(TxContext& cx_base) noexcept override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        if (!cx.inner_) return true;
        cx.epoch_ = cx.bound_.lock();
        if (cx.epoch_ &&
            cx.epoch_seq_ == published_seq_.load(std::memory_order_acquire)) {
            if (cx.epoch_->engine->attach(*cx.inner_)) return true;
            cx.epoch_.reset();
            return false;
        }
        cx.drop_inner();
        return true;
    }

    /// Releases the inner context's TxId and lets go of its epoch; an
    /// inner context of a swapped-out epoch is dropped outright.
    void detach(TxContext& cx_base) noexcept override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        if (!cx.inner_) return;
        cx.epoch_->engine->detach(*cx.inner_);
        cx.epoch_->engine->release(*cx.inner_);
        if (cx.epoch_seq_ != published_seq_.load(std::memory_order_acquire)) {
            cx.drop_inner();
        } else {
            cx.epoch_.reset();
        }
    }

    std::optional<ownership::TxId> tx_id(
        const TxContext& cx_base) const noexcept override {
        const auto& cx = static_cast<const AdaptCx&>(cx_base);
        if (!cx.inner_ || !cx.epoch_) return std::nullopt;
        return cx.epoch_->engine->tx_id(*cx.inner_);
    }

    void begin(TxContext& cx_base) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        for (;;) {
            in_flight_.fetch_add(1, std::memory_order_seq_cst);
            if (!pending_.load(std::memory_order_seq_cst) && cx.inner_ &&
                cx.epoch_seq_ == published_seq_.load(std::memory_order_seq_cst)) {
                break;
            }
            // Either a switch is staged or this context is bound to a
            // retired epoch: stand back (no in_flight held across waiting,
            // or the drain could never complete) and rebind.
            in_flight_.fetch_sub(1, std::memory_order_seq_cst);
            wait_and_bind(cx);
        }
        cx.attempt_accesses_ = 0;
        cx.epoch_->engine->begin(*cx.inner_);
    }

    std::uint64_t load(TxContext& cx_base, const std::uint64_t* addr) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        ++cx.attempt_accesses_;
        return cx.epoch_->engine->load(*cx.inner_, addr);
    }

    void store(TxContext& cx_base, std::uint64_t* addr,
               std::uint64_t value) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        ++cx.attempt_accesses_;
        cx.epoch_->engine->store(*cx.inner_, addr, value);
    }

    bool commit(TxContext& cx_base) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        EngineEpoch& ep = *cx.epoch_;
        const bool ok = ep.engine->commit(*cx.inner_);
        std::uint64_t epoch_commits = 0;
        std::uint64_t epoch_aborts = 0;
        if (ok) {
            epoch_commits = ep.commits.fetch_add(1, std::memory_order_relaxed) + 1;
            ep.accesses.fetch_add(cx.attempt_accesses_,
                                  std::memory_order_relaxed);
        } else {
            epoch_aborts = ep.aborts.fetch_add(1, std::memory_order_relaxed) + 1;
        }
        in_flight_.fetch_sub(1, std::memory_order_seq_cst);
        // Boundary check after the in-flight release: staging only sets a
        // flag, so this path never blocks and never yields.
        if ((ok && at_epoch_boundary(ep, epoch_commits)) ||
            (!ok && at_abort_boundary(epoch_aborts))) {
            maybe_stage_switch(ep);
        }
        return ok;
    }

    void abort(TxContext& cx_base) override {
        auto& cx = static_cast<AdaptCx&>(cx_base);
        EngineEpoch& ep = *cx.epoch_;
        ep.engine->abort(*cx.inner_);
        const std::uint64_t epoch_aborts =
            ep.aborts.fetch_add(1, std::memory_order_relaxed) + 1;
        in_flight_.fetch_sub(1, std::memory_order_seq_cst);
        if (at_abort_boundary(epoch_aborts)) maybe_stage_switch(ep);
    }

    std::uint32_t max_live_contexts() const noexcept override {
        // The policy never leaves the initial engine's family, so the
        // capacity quoted at construction holds across every swap.
        return capacity_;
    }

    std::uint64_t occupied_metadata_entries() const noexcept override {
        const std::lock_guard<std::mutex> lock(mutex_);
        return epoch_->engine->occupied_metadata_entries();
    }

    std::string describe() const override {
        std::shared_ptr<EngineEpoch> ep;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ep = epoch_;
        }
        return "adaptive(" + adapt::engine_spec(ep->cfg) +
               " epoch=" + std::to_string(ep->seq) + ")";
    }

private:
    [[nodiscard]] bool at_epoch_boundary(const EngineEpoch& ep,
                                         std::uint64_t epoch_commits) const {
        if (policy_.kind == adapt::PolicyConfig::Kind::kOff) return false;
        if (epoch_commits % policy_.epoch_commits == 0) return true;
        // Wall-clock bound, checked sparsely to keep now() off the hot
        // path. Off by default (epoch_ms=0): a time trigger would make
        // scheduled runs irreproducible.
        if (policy_.epoch_ms != 0 && epoch_commits % 64 == 0) {
            return Clock::now() - ep.started >=
                   std::chrono::milliseconds(policy_.epoch_ms);
        }
        return false;
    }

    /// Abort-side epoch boundary. Epochs normally advance on commits, but a
    /// configuration that starves (e.g. lazy acquisition livelocking
    /// read-modify-write upgrades) commits *nothing* — a commit-only
    /// boundary would pin it forever. Aborts therefore also close an epoch,
    /// at a multiple of the commit period so the abort path stays cheap and
    /// healthy epochs still close on commits.
    [[nodiscard]] bool at_abort_boundary(std::uint64_t epoch_aborts) const {
        if (policy_.kind == adapt::PolicyConfig::Kind::kOff) return false;
        if (epoch_aborts == 0) return false;
        return epoch_aborts % (policy_.epoch_commits * 4) == 0;
    }

    /// Closes the epoch sample and stages a switch when the policy asks
    /// for one. Runs under the mutex; commit-path callers only ever stage —
    /// the swap itself happens in wait_and_bind.
    void maybe_stage_switch(EngineEpoch& ep) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (epoch_.get() != &ep) return;  // raced with a completed swap
        if (pending_.load(std::memory_order_seq_cst)) return;
        adapt::EpochSample sample;
        sample.commits = ep.commits.load(std::memory_order_relaxed);
        sample.aborts = ep.aborts.load(std::memory_order_relaxed);
        sample.accesses = ep.accesses.load(std::memory_order_relaxed);
        sample.true_conflicts =
            stats_.true_conflicts.load(std::memory_order_relaxed) -
            ep.base_true;
        sample.false_conflicts =
            stats_.false_conflicts.load(std::memory_order_relaxed) -
            ep.base_false;
        sample.clock_cas_failures =
            stats_.clock_cas_failures.load(std::memory_order_relaxed) -
            ep.base_clock_cas;
        // The model's C is the number of checked-out contexts. The epoch's
        // strong references are the backend's own plus one per checked-out
        // context bound to it (idle pooled contexts hold weak ones), so
        // they count exactly those that transact on this engine.
        const auto live = static_cast<std::uint32_t>(epoch_.use_count() - 1);
        sample.concurrency = live ? live : 1;
        auto next = adapt::decide(policy_, ep.cfg, initial_, sample);
        if (!next) {
            // No change: reset the epoch counters in place so the next
            // sample covers fresh commits only.
            ep.commits.store(0, std::memory_order_relaxed);
            ep.aborts.store(0, std::memory_order_relaxed);
            ep.accesses.store(0, std::memory_order_relaxed);
            ep.base_true += sample.true_conflicts;
            ep.base_false += sample.false_conflicts;
            ep.base_clock_cas += sample.clock_cas_failures;
            ep.started = Clock::now();
            return;
        }
        pending_cfg_ = *next;
        pending_.store(true, std::memory_order_seq_cst);
    }

    /// Slow begin path: drain/perform a staged swap, then bind the context
    /// to the live epoch. Called with no in_flight ticket held; may yield
    /// (and the harness may cancel the run by throwing through the yield).
    void wait_and_bind(AdaptCx& cx) {
        while (pending_.load(std::memory_order_seq_cst)) {
            if (try_swap()) break;
            // Someone is still in flight (or another thread owns the swap
            // lock): let them run. kRetry so PCT demotes this waiter.
            scheduler_yield(YieldPoint::kRetry, YieldSite::kAdaptDrain);
            std::this_thread::yield();
        }
        std::shared_ptr<EngineEpoch> ep;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            ep = epoch_;
        }
        if (cx.epoch_ != ep) {
            // Release the old engine's slot *before* acquiring on the new
            // engine — and outside the mutex: inner attach can block on
            // slot exhaustion, and a parked beginner must not hold the lock
            // the releasing side needs.
            if (cx.inner_) {
                cx.epoch_->engine->detach(*cx.inner_);
                cx.epoch_->engine->release(*cx.inner_);
                cx.drop_inner();
            }
            auto inner = ep->engine->make_context();
            while (!ep->engine->attach(*inner)) std::this_thread::yield();
            cx.inner_ = std::move(inner);
            cx.bound_ = ep;
            cx.epoch_seq_ = ep->seq;
            cx.epoch_ = std::move(ep);
        }
    }

    /// Attempts the staged swap. True when the pending flag is clear on
    /// return (this thread swapped, or another already had); false when the
    /// caller should back off and retry (drain incomplete / lock busy).
    bool try_swap() {
        std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
        if (!lock.owns_lock()) return false;
        if (!pending_.load(std::memory_order_seq_cst)) return true;
        if (in_flight_.load(std::memory_order_seq_cst) != 0) return false;
        // Drained. The swap is a scheduling event like any other: announce
        // it so the sched harness can interleave other virtual threads
        // here (they will stand back on the pending flag). Yield outside
        // the lock — a granted thread may need it to park/bind.
        // Which transition the staged config represents: table regrow vs
        // engine/tag/locks/clock flip. Read under the lock (pending_cfg_ is
        // mutex-guarded), announced as its own decision site below so the
        // fuzzer's coverage distinguishes interleavings around the two.
        const bool resize =
            pending_cfg_.table.entries != epoch_->cfg.table.entries;
        lock.unlock();
        scheduler_yield(YieldPoint::kPolicySwitch, YieldSite::kAdaptSwap);
        scheduler_yield(YieldPoint::kPolicySwitch,
                        resize ? YieldSite::kAdaptResize
                               : YieldSite::kAdaptEngineSwitch);
        lock.lock();
        if (!pending_.load(std::memory_order_seq_cst)) return true;
        if (in_flight_.load(std::memory_order_seq_cst) != 0) return false;
        perform_swap_locked();
        return true;
    }

    void perform_swap_locked() {
        EngineEpoch& old = *epoch_;
        // Quiescence is the protocol's hard invariant: zero transactions in
        // flight must mean zero metadata held. A violation here is a lost
        // release — fail loudly, exactly like the harness's end-of-run check.
        if (const std::uint64_t held = old.engine->occupied_metadata_entries()) {
            throw std::logic_error(
                "adaptive: engine swap with " + std::to_string(held) +
                " metadata entries still held (lost release?)");
        }
        // Quiescence also means no epoch pin is held (pins live strictly
        // between begin and commit/abort), so every retired block can be
        // released before the old engine goes away — a zombie reader that
        // observed a since-freed pointer through the old engine's metadata
        // no longer exists.
        reclaim_.drain_all();
        auto next = std::make_shared<EngineEpoch>();
        next->seq = old.seq + 1;
        next->cfg = pending_cfg_;
        next->engine = build_engine(pending_cfg_, stats_, reclaim_);
        next->base_true = stats_.true_conflicts.load(std::memory_order_relaxed);
        next->base_false =
            stats_.false_conflicts.load(std::memory_order_relaxed);
        next->base_clock_cas =
            stats_.clock_cas_failures.load(std::memory_order_relaxed);
        stats_.policy_switches.fetch_add(1, std::memory_order_relaxed);
        if (next->cfg.table.entries != old.cfg.table.entries) {
            stats_.table_resizes.fetch_add(1, std::memory_order_relaxed);
        }
        epoch_ = std::move(next);  // old epoch lives on via bound contexts
        published_seq_.store(epoch_->seq, std::memory_order_seq_cst);
        pending_.store(false, std::memory_order_seq_cst);
    }

    StmConfig outer_;
    StmConfig initial_;  ///< concrete home shape (outer_ with adapt.engine)
    adapt::PolicyConfig policy_;
    Instrumentation& stats_;
    ReclaimDomain& reclaim_;
    std::uint32_t capacity_ = 0;

    mutable std::mutex mutex_;
    std::shared_ptr<EngineEpoch> epoch_;     ///< guarded by mutex_
    StmConfig pending_cfg_;                  ///< guarded by mutex_
    std::atomic<std::uint64_t> published_seq_{0};
    std::atomic<bool> pending_{false};
    std::atomic<std::uint64_t> in_flight_{0};
};

}  // namespace

std::unique_ptr<Backend> make_adaptive_backend(const StmConfig& config,
                                               Instrumentation& stats,
                                               ReclaimDomain& reclaim) {
    return std::make_unique<AdaptiveBackend>(config, stats, reclaim);
}

}  // namespace tmb::stm::detail

namespace tmb::adapt {

AdaptiveStm::AdaptiveStm(const config::Config& cfg) {
    stm::StmConfig parsed = stm::stm_config_from(cfg);
    if (parsed.backend != stm::BackendKind::kAdaptive) {
        // By-type construction implies the adaptive layer; a concrete
        // backend= names the *wrapped* engine instead.
        parsed.adapt.engine = parsed.backend;
        parsed.backend = stm::BackendKind::kAdaptive;
    }
    stm_ = std::make_unique<stm::Stm>(parsed);
}

}  // namespace tmb::adapt
