// backend.hpp — internal backend interface of the STM runtime.
//
// A backend owns the conflict-detection metadata (ownership table or
// versioned locks) and implements the transactional load/store/commit
// protocol. A TxContext carries the per-transaction logs; contexts are
// backend-specific and reused across retries and across transactions.
//
// Context lifecycle: make_context() builds a context once; the runtime then
// checks it out (attach) for an Executor's lifetime or one atomically()
// call, and returns it (detach) to a pool of idle contexts. An ownership
// engine's context keeps its TxId (ownership-table slot) through
// detach, so a thread that keeps calling atomically() on its pooled
// context touches the shared slot pool only once. The runtime takes kept
// TxIds back (release) from idle contexts when an attach finds none free,
// before it builds an Executor, and before it destroys a context the pool
// has no room for; so idle contexts never starve a checkout of slots, and
// Executors built in sequence bind TxIds 0..n-1.
//
// Protocol per attempt (context attached):
//   begin(cx) → { load/store }* → commit(cx) → true
//                                            → false: validation failed, retry
//   any load/store may throw detail::ConflictAbort → abort(cx), retry
//
// Backends synchronize internally; the runtime calls them from arbitrary
// threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "stm/instrumentation.hpp"
#include "stm/stm.hpp"
#include "stm/txalloc.hpp"

namespace tmb::stm::detail {

/// Per-transaction state; concrete type owned by the backend.
class TxContext {
public:
    virtual ~TxContext();

    /// Folds any statistics accumulated locally in this context into the
    /// backend's shared Instrumentation block. Hot paths accumulate plain
    /// per-context counters; the runtime folds idle pooled contexts when
    /// stats are read, and destruction folds too, so per-access, per-commit
    /// and per-checkout paths never touch a shared counter. Counters routed
    /// this way are exact at quiescent points.
    virtual void flush_stats() noexcept {}

    /// Binds this context to the runtime's reclamation domain: registers
    /// an epoch pin slot, sizes the free-block cache, assigns a retirement
    /// shard, and enables tx_alloc/tx_free (txalloc.hpp). The runtime binds
    /// every context it builds, once; the binding survives pooling. The
    /// adaptive wrapper's *inner* contexts stay unbound (only the outer
    /// context is ever visible to the attempt loop).
    void bind_reclaim(ReclaimDomain& domain) {
        reclaim_domain = &domain;
        reclaim_slot = domain.register_slot();
        domain.bind_context(*this);
    }

    /// Transactional-allocation state (txalloc.hpp), applied by the
    /// runtime's attempt loop: rollback on abort, retire on commit,
    /// maintain between attempts.
    TxMemLog mem;
    ReclaimDomain* reclaim_domain = nullptr;
    ReclaimSlot* reclaim_slot = nullptr;
    /// Per-context free-block magazines: tx_alloc pops, rollback and
    /// same-transaction alloc+free pairs push — no shared state touched.
    BlockCache cache;
    /// Commit-deferred frees park here (no lock) until maintain() flushes
    /// a batch into `reclaim_shard`'s striped retirement shard.
    std::vector<RetiredBlock> retire_buffer;
    std::uint32_t reclaim_shard = 0;
    /// Commits since the last reclamation poll (maintain() cadence).
    std::uint32_t maintain_tick = 0;
    /// Contention-manager jitter seed, advanced per transaction; seeded
    /// once, when the runtime builds the context.
    std::uint64_t cm_seed = 0;
    /// Commits and aborts of the atomically() calls run on this context,
    /// folded into the instance block by the runtime (see RunTally).
    RunTally run_tally;
    /// The runtime pool slot this context parks in, reserved for it while
    /// an atomically() call has it out; null while it has none (new, or
    /// held by an Executor).
    std::atomic<TxContext*>* pool_slot = nullptr;
};

/// Metadata-organization-specific transactional engine.
class Backend {
public:
    virtual ~Backend() = default;

    /// Builds a detached context. The runtime calls this only when its pool
    /// of idle contexts has none to hand out, binds the result to the
    /// reclamation domain, and reuses it for many checkouts; a context must
    /// therefore hold no TxId or other per-checkout resource when built.
    [[nodiscard]] virtual std::unique_ptr<TxContext> make_context() = 0;

    /// Checks `cx` out: takes whatever the context needs while in use and
    /// does not already keep — a table backend's TxId. Never blocks: false
    /// means every TxId is held and nothing was taken; the runtime then
    /// has idle contexts release() theirs and retries, so it waits only on
    /// contexts in use. Called once per Executor (at construction) and once
    /// per atomically() call, never mid-transaction.
    [[nodiscard]] virtual bool attach(TxContext& /*cx*/) noexcept {
        return true;
    }

    /// Ends a checkout. Called between transactions only (no metadata
    /// held); the context then idles in the pool until the next attach, or
    /// is destroyed. Table backends keep the TxId here (release() gives it
    /// back); the adaptive wrapper keeps nothing.
    virtual void detach(TxContext& /*cx*/) noexcept {}

    /// Gives back what a detached context kept — its TxId. Called on idle
    /// contexts only, by whoever holds the pool slot (or sole ownership of)
    /// `cx`. A released context must not depend on its backend: the
    /// adaptive wrapper may destroy one after its engine.
    virtual void release(TxContext& /*cx*/) noexcept {}

    /// The TxId `cx` holds, or nullopt when it holds none (tl2 never does;
    /// an adaptive context binds one at its first transaction).
    [[nodiscard]] virtual std::optional<ownership::TxId> tx_id(
        const TxContext& /*cx*/) const noexcept {
        return std::nullopt;
    }

    /// Starts (or restarts) an attempt.
    virtual void begin(TxContext& cx) = 0;

    /// Transactional word read; throws ConflictAbort on conflict.
    [[nodiscard]] virtual std::uint64_t load(TxContext& cx,
                                             const std::uint64_t* addr) = 0;

    /// Transactional word write; throws ConflictAbort on conflict.
    virtual void store(TxContext& cx, std::uint64_t* addr,
                       std::uint64_t value) = 0;

    /// Attempts to commit; false means validation failed (retry).
    [[nodiscard]] virtual bool commit(TxContext& cx) = 0;

    /// Rolls back after ConflictAbort (or failed commit cleanup is internal).
    virtual void abort(TxContext& cx) = 0;

    /// Largest number of contexts that can be attached at once: the
    /// ownership engine's `table.max_tx()` (62 for the atomic table, 64
    /// for the mutex tables); unbounded for tl2, which holds no TxId. Past
    /// it attach() returns false until a context is released. The
    /// execution engine validates its thread count against this.
    [[nodiscard]] virtual std::uint32_t max_live_contexts() const noexcept = 0;

    /// Currently held conflict-metadata entries (ownership-table occupancy;
    /// 0 for backends without a table). Exact only at quiescent points; the
    /// engine's stress tests assert it returns to 0 after all transactions
    /// finish — a nonzero value there means a release was lost.
    [[nodiscard]] virtual std::uint64_t occupied_metadata_entries()
        const noexcept {
        return 0;
    }

    /// Human-readable description of the engine's current shape; "" means
    /// "nothing beyond StmConfig::backend" (the runtime substitutes the
    /// kind name). The adaptive backend overrides this with the live
    /// epoch's engine description.
    [[nodiscard]] virtual std::string describe() const { return ""; }
};

// Every factory receives the runtime's reclamation domain. The concrete
// engines ignore it (the attempt loop applies TxMemLogs centrally); the
// adaptive wrapper drains it before retiring a swapped-out engine.
[[nodiscard]] std::unique_ptr<Backend> make_tl2_backend(const StmConfig& config,
                                                        Instrumentation& stats,
                                                        ReclaimDomain& reclaim);
/// The ownership-table engine (ownership_backend.cpp) for the `table` and
/// `atomic` kinds: the table and the lock timing follow from `config`.
[[nodiscard]] std::unique_ptr<Backend> make_ownership_backend(
    const StmConfig& config, Instrumentation& stats, ReclaimDomain& reclaim);
/// The epoch-based policy layer (src/adapt/adaptive_stm.cpp); wraps one of
/// the engines above per StmConfig::adapt.
[[nodiscard]] std::unique_ptr<Backend> make_adaptive_backend(
    const StmConfig& config, Instrumentation& stats, ReclaimDomain& reclaim);

}  // namespace tmb::stm::detail
