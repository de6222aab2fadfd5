// ownership_backend.cpp — the ownership-table STM engine.
//
// This is the organization the paper analyzes: transactional accesses are
// tracked at cache-block granularity in a central ownership table under
// two-phase locking. A conflicting acquire aborts the acquiring transaction
// immediately (no waiting → no deadlock); it rolls back and retries.
//
// One engine, two compile-time parameters, so load/store carry no runtime
// branch on either:
//
//   * Table, and with it the synchronization. TaglessTable and TaggedTable
//     (the paper's Fig. 1 models) sit behind one std::mutex, which
//     serializes metadata operations only — data reads/writes happen
//     outside it, made safe by 2PL — and keeps the organization's
//     behaviour free of lock-splitting artifacts. AtomicTaglessTable is
//     lock-free (one CAS per acquire), so its lock is a no-op: the tagless
//     design an STM implementer would ship, with the same false-conflict
//     pathology, which is the paper's point.
//   * LockTiming. Eager: reads and writes acquire at encounter, writes go
//     in place with an undo log. Lazy: reads acquire at encounter, writes
//     go to a redo log and acquire write ownership only inside commit(),
//     one block at a time. Still strict 2PL (every lock is held at the
//     commit point), so serializability is unchanged; write-write
//     conflicts just surface later.
//
// Conflict classification: a failed acquire reports the bitmap of
// conflicting transactions; if none of them holds the *same block* (by its
// SlotFootprint), the conflict is alias-induced — a false conflict,
// possible only with a tagless organization. With a mutex table, record,
// reset and classify all run under the mutex, so the counts are exact. On
// the atomic table the holder's footprint is read while the holder runs:
// it may have committed, aborted or started over between the failed CAS
// and the inspection, so the counts are best-effort (exact in the common
// case).
//
// Locked instructions on the atomic access path (load, store, commit,
// abort): the table's entry CAS is the only one. The table's counter shard
// for a TxId and the slot's footprint both have one writer, the context
// holding that TxId, so they are written with plain atomic stores. A TxId
// passes to its next holder through the SlotPool's release/acquire pair,
// or, kept by an idle context, through the context pool slot's release
// store and acquire CAS (context_pool.hpp); both order the last holder's
// writes before the next one's. Only a footprint that overflows its inline
// log takes a mutex.
//
// Per-transaction state is allocation-free (stm/txlocal.hpp): the block →
// mode cache clears in O(1) and the logs keep their capacity across
// retries and transactions, so a steady-state transaction run through an
// Executor performs zero heap allocations.

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "ownership/atomic_tagless_table.hpp"
#include "ownership/tagged_table.hpp"
#include "ownership/tagless_table.hpp"
#include "stm/backend.hpp"
#include "stm/sched_hook.hpp"
#include "stm/slot_pool.hpp"
#include "stm/txlocal.hpp"
#include "util/bits.hpp"

namespace tmb::stm::detail {

namespace {

using ownership::AcquireResult;
using ownership::AtomicTaglessTable;
using ownership::Mode;
using ownership::TxId;

enum class LockTiming { kEager, kLazy };

/// The blocks a slot's current holder owns, for classifying the conflicts
/// others hit against it. Only the holder writes; any thread may read. The
/// first kInline blocks go to an array published by a release store of
/// `count_`; the rest spill into a mutex-guarded set, and `count_` then
/// reads kInline + 1. 64 slots x 32 words keep the zeroed array ≈16 KiB.
class alignas(64) SlotFootprint {
public:
    static constexpr std::uint32_t kInline = 32;

    /// Holder only; each block at most once per transaction.
    void record(std::uint64_t block) {
        const std::uint32_t n = count_.load(std::memory_order_relaxed);
        if (n < kInline) {
            blocks_[n].store(block, std::memory_order_relaxed);
            count_.store(n + 1, std::memory_order_release);
            return;
        }
        {
            const std::lock_guard<std::mutex> guard(spill_mutex_);
            spill_.insert(block);
        }
        if (n == kInline) count_.store(kInline + 1, std::memory_order_release);
    }

    /// Holder only, at commit/abort.
    void reset() {
        if (count_.load(std::memory_order_relaxed) > kInline) {
            const std::lock_guard<std::mutex> guard(spill_mutex_);
            spill_.clear();
        }
        count_.store(0, std::memory_order_release);
    }

    /// Any thread; best-effort while the holder runs.
    [[nodiscard]] bool contains(std::uint64_t block) {
        const std::uint32_t n = count_.load(std::memory_order_acquire);
        for (std::uint32_t i = 0; i < std::min(n, kInline); ++i) {
            if (blocks_[i].load(std::memory_order_relaxed) == block) return true;
        }
        if (n <= kInline) return false;
        const std::lock_guard<std::mutex> guard(spill_mutex_);
        return spill_.contains(block);
    }

private:
    std::atomic<std::uint32_t> count_{0};
    std::mutex spill_mutex_;
    SmallSet<std::uint64_t> spill_;
    std::array<std::atomic<std::uint64_t>, kInline> blocks_{};
};

/// The lock-free table's operations need no guard.
struct NoLock {
    void lock() noexcept {}
    void unlock() noexcept {}
};

struct UndoEntry {
    std::uint64_t* addr;
    std::uint64_t old_value;
};

template <typename Table, LockTiming kTiming>
class OwnershipBackend final : public Backend {
    static constexpr bool kAtomic = std::is_same_v<Table, AtomicTaglessTable>;
    static constexpr bool kLazy = kTiming == LockTiming::kLazy;
    using Lock = std::conditional_t<kAtomic, NoLock, std::mutex>;
    /// Encounter-time acquires keep the yield sites recorded in schedule
    /// corpora, coverage bitmaps and repro lines.
    static constexpr YieldSite kEncounterSite =
        kAtomic ? YieldSite::kAtomicAcquire
        : kLazy ? YieldSite::kTableLazyRead
                : YieldSite::kTableAcquire;

    class Context final : public TxContext {
    public:
        /// Kept from attach until release (SlotPool::kNone before).
        TxId slot_ = SlotPool::kNone;
        /// Owned blocks and their strongest mode: the local cache that
        /// saves table trips, and the release list.
        SmallMap<std::uint64_t, Mode> modes_;
        /// Eager: old values of in-place writes, undone newest-first.
        /// Lazy: the redo log, one entry per address in first-write order.
        std::conditional_t<kLazy, WriteLog, std::vector<UndoEntry>> log_;
    };

public:
    OwnershipBackend(const StmConfig& config, Instrumentation& stats)
        : stats_(stats),
          block_shift_(util::log2_pow2(util::next_pow2(config.block_bytes))),
          table_(config.table),
          slots_(table_.max_tx()) {}

    std::unique_ptr<TxContext> make_context() override {
        return std::make_unique<Context>();
    }

    bool attach(TxContext& cx) noexcept override {
        return slots_.keep(static_cast<Context&>(cx).slot_);
    }

    /// The slot's footprint is already empty: commit and abort clear it.
    void release(TxContext& cx) noexcept override {
        slots_.give_back(static_cast<Context&>(cx).slot_);
    }

    std::optional<TxId> tx_id(const TxContext& cx) const noexcept override {
        return SlotPool::held(static_cast<const Context&>(cx).slot_);
    }

    std::uint32_t max_live_contexts() const noexcept override {
        return table_.max_tx();
    }

    std::uint64_t occupied_metadata_entries() const noexcept override {
        const std::lock_guard<Lock> guard(lock_);
        return table_.occupied_entries();
    }

    void begin(TxContext& cx_base) override {
        auto& cx = static_cast<Context&>(cx_base);
        cx.modes_.clear();
        cx.log_.clear();
    }

    std::uint64_t load(TxContext& cx_base, const std::uint64_t* addr) override {
        auto& cx = static_cast<Context&>(cx_base);
        if constexpr (kLazy) {  // read-your-own-write
            if (const WriteLog::Entry* entry = cx.log_.find(addr)) {
                return entry->value;
            }
        }
        const std::uint64_t block = block_of(addr);
        if (!cx.modes_.contains(block)) encounter(cx, block, Mode::kRead);
        return *addr;  // safe: we hold >= read ownership (2PL)
    }

    void store(TxContext& cx_base, std::uint64_t* addr,
               std::uint64_t value) override {
        auto& cx = static_cast<Context&>(cx_base);
        if constexpr (kLazy) {  // ownership deferred to commit
            if (WriteLog::Entry* entry = cx.log_.find(addr)) {
                entry->value = value;
            } else {
                cx.log_.push(addr, value);
            }
        } else {
            const std::uint64_t block = block_of(addr);
            if (!holds_write(cx, block)) encounter(cx, block, Mode::kWrite);
            cx.log_.push_back({addr, *addr});
            *addr = value;  // in place, exclusive under write ownership
        }
    }

    bool commit(TxContext& cx_base) override {
        auto& cx = static_cast<Context&>(cx_base);
        if constexpr (kLazy) {
            // Each commit-time acquire is a scheduling point, so two lazy
            // commits may interleave here. Any two that both succeed have
            // compatible lock sets (a conflicting pair aborts one), so
            // commit-completion order stays a valid serialization order.
            for (const WriteLog::Entry& entry : cx.log_.entries()) {
                const std::uint64_t block = block_of(entry.addr);
                if (holds_write(cx, block)) continue;
                try {
                    scheduler_yield(YieldPoint::kAcquireWrite,
                                    YieldSite::kTableLazyCommit);
                } catch (...) {
                    release_all(cx);  // cancellation: clean exit
                    throw;
                }
                if (!acquire(cx, block, Mode::kWrite)) {
                    release_all(cx);
                    return false;  // retry
                }
            }
            // Write back under exclusive ownership (one entry per address,
            // each holding its final value).
            for (const WriteLog::Entry& entry : cx.log_.entries()) {
                *entry.addr = entry.value;
            }
        }
        release_all(cx);
        return true;  // 2PL: reaching here means the transaction is valid
    }

    void abort(TxContext& cx_base) override {
        auto& cx = static_cast<Context&>(cx_base);
        if constexpr (!kLazy) {
            // Roll back newest-first; we still hold exclusive write
            // ownership of every touched block, so plain stores are
            // race-free. (A lazy attempt published nothing.)
            for (auto it = cx.log_.rbegin(); it != cx.log_.rend(); ++it) {
                *it->addr = it->old_value;
            }
        }
        release_all(cx);
    }

private:
    [[nodiscard]] std::uint64_t block_of(const std::uint64_t* addr) const noexcept {
        return reinterpret_cast<std::uintptr_t>(addr) >> block_shift_;
    }

    [[nodiscard]] static bool holds_write(const Context& cx,
                                          std::uint64_t block) noexcept {
        const Mode* held = cx.modes_.find(block);
        return held != nullptr && *held == Mode::kWrite;
    }

    /// Encounter-time acquire: a scheduling point; a conflict aborts the
    /// attempt.
    void encounter(Context& cx, std::uint64_t block, Mode mode) {
        scheduler_yield(mode == Mode::kWrite ? YieldPoint::kAcquireWrite
                                             : YieldPoint::kAcquireRead,
                        kEncounterSite);
        if (!acquire(cx, block, mode)) throw ConflictAbort{};
    }

    /// Takes `mode` ownership of `block`; false means a conflict, already
    /// classified. The test-only ignore fault reports success without
    /// recording ownership — the access then races, which is the point.
    [[nodiscard]] bool acquire(Context& cx, std::uint64_t block, Mode mode) {
        const std::lock_guard<Lock> guard(lock_);
        const AcquireResult r = mode == Mode::kWrite
                                    ? table_.acquire_write(cx.slot_, block)
                                    : table_.acquire_read(cx.slot_, block);
        if (!r.ok) {
            if (test_faults().ignore_acquire_conflicts.load(
                    std::memory_order_relaxed)) {
                return true;
            }
            classify_conflict(block, r.conflicting);
            return false;
        }
        // A read→write upgrade keeps the block's footprint record.
        if (cx.modes_.put(block, mode)) footprints_[cx.slot_].record(block);
        return true;
    }

    /// Pre: lock_ held.
    void classify_conflict(std::uint64_t block, std::uint64_t conflicting) {
        bool same_block = false;
        while (conflicting != 0) {
            const auto slot = static_cast<std::uint32_t>(std::countr_zero(conflicting));
            conflicting &= conflicting - 1;
            if (footprints_[slot].contains(block)) {
                same_block = true;
                break;
            }
        }
        auto& counter = same_block ? stats_.true_conflicts : stats_.false_conflicts;
        counter.fetch_add(1, std::memory_order_relaxed);
    }

    void release_all(Context& cx) {
        const std::lock_guard<Lock> guard(lock_);
        cx.modes_.for_each([&](std::uint64_t block, Mode mode) {
            table_.release(cx.slot_, block, mode);
        });
        footprints_[cx.slot_].reset();
        cx.modes_.clear();
        cx.log_.clear();
    }

    Instrumentation& stats_;
    unsigned block_shift_;
    mutable Lock lock_;
    Table table_;
    std::array<SlotFootprint, ownership::kMaxTx> footprints_;
    SlotPool slots_;
};

}  // namespace

std::unique_ptr<Backend> make_ownership_backend(const StmConfig& config,
                                                Instrumentation& stats,
                                                ReclaimDomain& /*reclaim*/) {
    using ownership::TaggedTable;
    using ownership::TaglessTable;
    constexpr LockTiming kEager = LockTiming::kEager;
    constexpr LockTiming kLazy = LockTiming::kLazy;
    const bool lazy = config.commit_time_locks;
    switch (config.backend) {
        case BackendKind::kTaglessTable:
            if (lazy) {
                return std::make_unique<OwnershipBackend<TaglessTable, kLazy>>(
                    config, stats);
            }
            return std::make_unique<OwnershipBackend<TaglessTable, kEager>>(
                config, stats);
        case BackendKind::kTaggedTable:
            if (lazy) {
                return std::make_unique<OwnershipBackend<TaggedTable, kLazy>>(
                    config, stats);
            }
            return std::make_unique<OwnershipBackend<TaggedTable, kEager>>(
                config, stats);
        case BackendKind::kTaglessAtomic:  // commit_time_locks is ignored
            return std::make_unique<OwnershipBackend<AtomicTaglessTable, kEager>>(
                config, stats);
        case BackendKind::kTl2:
        case BackendKind::kAdaptive: break;
    }
    throw std::logic_error("ownership engine: backend has no ownership table");
}

}  // namespace tmb::stm::detail
