// table_backend.cpp — ownership-table STM backend (tagless or tagged).
//
// This is the organization the paper analyzes: transactional accesses are
// tracked at cache-block granularity in a central ownership table
// (encounter-time two-phase locking). Writes are performed in place under
// write ownership with an undo log; a conflicting acquire aborts the
// acquiring transaction immediately (no waiting → no deadlock), rolls back,
// and retries.
//
// Conflict classification: on a failed acquire the table reports the bitmap
// of conflicting transactions; under the same lock we check whether any of
// them holds the *same block*. If none does, the conflict is alias-induced —
// a false conflict (possible only with the tagless organization).
//
// Synchronization: one mutex guards the table and the per-slot held-block
// sets. This serializes metadata operations only — data reads/writes happen
// outside the lock, made safe by the two-phase-locking invariant. The
// single lock keeps the *organization's* behaviour (the object of study)
// free of lock-splitting artifacts.
//
// Per-transaction state is allocation-free (stm/txlocal.hpp): the block →
// mode cache and the per-slot held-block footprints are SmallMap/SmallSet
// (inline storage, O(1) epoch clear), and the undo/redo logs are vectors
// that keep their capacity across retries and transactions. A steady-state
// transaction run through an Executor performs zero heap allocations.

#include <array>
#include <mutex>
#include <vector>

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
using ownership::Mode;
using ownership::TxId;

struct UndoEntry {
    std::uint64_t* addr;
    std::uint64_t old_value;
};

/// Block → strongest-mode map of one transaction (the local cache avoiding
/// table trips) and the per-slot footprint sets share this shape.
using BlockModes = SmallMap<std::uint64_t, Mode>;
using BlockSet = SmallSet<std::uint64_t>;

class TableContext final : public TxContext {
public:
    /// Kept from attach until release (SlotPool::kNone before).
    TxId slot_ = SlotPool::kNone;
    BlockModes modes_;
    std::vector<UndoEntry> undo_;
};

template <typename Table>
class TableBackend final : public Backend {
public:
    TableBackend(const StmConfig& config, SharedStats& stats)
        : stats_(stats),
          block_shift_(util::log2_pow2(util::next_pow2(config.block_bytes))),
          table_(config.table) {}

    std::unique_ptr<TxContext> make_context() override {
        return std::make_unique<TableContext>();
    }

    bool attach(TxContext& cx) noexcept override {
        return slots_.keep(static_cast<TableContext&>(cx).slot_);
    }

    /// held_blocks_[slot] is already empty: every attempt ends in commit or
    /// abort, and both clear it.
    void release(TxContext& cx) noexcept override {
        slots_.give_back(static_cast<TableContext&>(cx).slot_);
    }

    std::optional<TxId> tx_id(const TxContext& cx) const noexcept override {
        return SlotPool::held(static_cast<const TableContext&>(cx).slot_);
    }

    void begin(TxContext& cx_base) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        cx.modes_.clear();
        cx.undo_.clear();
    }

    std::uint64_t load(TxContext& cx_base, const std::uint64_t* addr) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        const std::uint64_t block = block_of(addr);
        if (!cx.modes_.contains(block)) {
            acquire_block(cx, block, /*for_write=*/false);
        }
        return *addr;  // safe: we hold >= read ownership (2PL)
    }

    void store(TxContext& cx_base, std::uint64_t* addr,
               std::uint64_t value) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        const std::uint64_t block = block_of(addr);
        const Mode* held = cx.modes_.find(block);
        if (held == nullptr || *held != Mode::kWrite) {
            acquire_block(cx, block, /*for_write=*/true);
        }
        cx.undo_.push_back({addr, *addr});
        *addr = value;  // in place, exclusive under write ownership
    }

    bool commit(TxContext& cx_base) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        release_all(cx);
        return true;  // 2PL: reaching commit means the transaction is valid
    }

    void abort(TxContext& cx_base) override {
        auto& cx = static_cast<TableContext&>(cx_base);
        // Roll back newest-first; we still hold exclusive write ownership of
        // every touched block, so plain stores are race-free.
        for (auto it = cx.undo_.rbegin(); it != cx.undo_.rend(); ++it) {
            *it->addr = it->old_value;
        }
        release_all(cx);
    }

    std::uint64_t occupied_metadata_entries() const noexcept override {
        const std::lock_guard<std::mutex> guard(mutex_);
        return table_.occupied_entries();
    }

private:
    [[nodiscard]] std::uint64_t block_of(const std::uint64_t* addr) const noexcept {
        return reinterpret_cast<std::uintptr_t>(addr) >> block_shift_;
    }

    void acquire_block(TableContext& cx, std::uint64_t block,
                       bool for_write) {
        scheduler_yield(for_write ? YieldPoint::kAcquireWrite
                                  : YieldPoint::kAcquireRead,
                        YieldSite::kTableAcquire);
        const std::lock_guard<std::mutex> guard(mutex_);
        const AcquireResult r = for_write ? table_.acquire_write(cx.slot_, block)
                                          : table_.acquire_read(cx.slot_, block);
        if (!r.ok) {
            if (test_faults().ignore_acquire_conflicts.load(
                    std::memory_order_relaxed)) {
                return;  // test-only fault: proceed without ownership
            }
            classify_conflict(block, r.conflicting);
            throw ConflictAbort{};
        }
        held_blocks_[cx.slot_].insert(block);
        cx.modes_.put(block, for_write ? Mode::kWrite : Mode::kRead);
    }

    /// Pre: mutex_ held.
    void classify_conflict(std::uint64_t block, std::uint64_t conflicting) {
        bool same_block = false;
        while (conflicting != 0) {
            const auto slot = static_cast<std::uint32_t>(std::countr_zero(conflicting));
            conflicting &= conflicting - 1;
            if (held_blocks_[slot].contains(block)) {
                same_block = true;
                break;
            }
        }
        auto& counter = same_block ? stats_.true_conflicts : stats_.false_conflicts;
        counter.fetch_add(1, std::memory_order_relaxed);
    }

    void release_all(TableContext& cx) {
        const std::lock_guard<std::mutex> guard(mutex_);
        cx.modes_.for_each([&](std::uint64_t block, Mode mode) {
            table_.release(cx.slot_, block, mode);
        });
        held_blocks_[cx.slot_].clear();
        cx.modes_.clear();
        cx.undo_.clear();
    }

    SharedStats& stats_;
    unsigned block_shift_;
    mutable std::mutex mutex_;
    Table table_;
    std::array<BlockSet, ownership::kMaxTx> held_blocks_;
    SlotPool slots_;
};

// ---------------------------------------------------------------------------
// Lazy (commit-time-locking) variant: reads acquire ownership at encounter,
// writes go to a redo buffer and acquire ownership only inside commit().
// Still strict 2PL (all locks are held simultaneously at the commit point),
// so serializability is unchanged; write-write conflicts just surface later
// and write ownership is held only across the commit.
// ---------------------------------------------------------------------------

class LazyTableContext final : public TxContext {
public:
    TxId slot_ = SlotPool::kNone;  ///< as in TableContext
    BlockModes held_;  ///< blocks owned (reads + commit-time writes)
    /// Redo buffer: one entry per address in first-write order (rewrites
    /// update in place), with the shared scan-then-index lookup.
    WriteLog redo_;
};

template <typename Table>
class LazyTableBackend final : public Backend {
public:
    LazyTableBackend(const StmConfig& config, SharedStats& stats)
        : stats_(stats),
          block_shift_(util::log2_pow2(util::next_pow2(config.block_bytes))),
          table_(config.table) {}

    std::unique_ptr<TxContext> make_context() override {
        return std::make_unique<LazyTableContext>();
    }

    bool attach(TxContext& cx) noexcept override {
        return slots_.keep(static_cast<LazyTableContext&>(cx).slot_);
    }

    /// As in TableBackend::release: commit and abort leave held_blocks_
    /// empty.
    void release(TxContext& cx) noexcept override {
        slots_.give_back(static_cast<LazyTableContext&>(cx).slot_);
    }

    std::optional<TxId> tx_id(const TxContext& cx) const noexcept override {
        return SlotPool::held(static_cast<const LazyTableContext&>(cx).slot_);
    }

    void begin(TxContext& cx_base) override {
        auto& cx = static_cast<LazyTableContext&>(cx_base);
        cx.held_.clear();
        cx.redo_.clear();
    }

    std::uint64_t load(TxContext& cx_base, const std::uint64_t* addr) override {
        auto& cx = static_cast<LazyTableContext&>(cx_base);
        // Read-your-own-write from the redo buffer.
        if (const WriteLog::Entry* entry = cx.redo_.find(addr)) {
            return entry->value;
        }
        const std::uint64_t block = block_of(addr);
        if (!cx.held_.contains(block)) {
            scheduler_yield(YieldPoint::kAcquireRead,
                            YieldSite::kTableLazyRead);
            const std::lock_guard<std::mutex> guard(mutex_);
            const AcquireResult r = table_.acquire_read(cx.slot_, block);
            if (!r.ok) {
                if (test_faults().ignore_acquire_conflicts.load(
                        std::memory_order_relaxed)) {
                    return *addr;  // test-only fault: dirty read
                }
                classify_conflict(block, r.conflicting);
                throw ConflictAbort{};
            }
            held_blocks_[cx.slot_].insert(block);
            cx.held_.put(block, Mode::kRead);
        }
        return *addr;  // safe: >= read ownership until transaction end
    }

    void store(TxContext& cx_base, std::uint64_t* addr,
               std::uint64_t value) override {
        auto& cx = static_cast<LazyTableContext&>(cx_base);
        // Ownership deferred to commit.
        if (WriteLog::Entry* entry = cx.redo_.find(addr)) {
            entry->value = value;
            return;
        }
        cx.redo_.push(addr, value);
    }

    bool commit(TxContext& cx_base) override {
        auto& cx = static_cast<LazyTableContext&>(cx_base);
        if (tls_scheduler_hook == nullptr) {
            // Real engine: all commit-time acquires under one guard, as a
            // single metadata operation (no per-entry lock round-trips).
            const std::lock_guard<std::mutex> guard(mutex_);
            for (const WriteLog::Entry& entry : cx.redo_.entries()) {
                const std::uint64_t block = block_of(entry.addr);
                const Mode* held = cx.held_.find(block);
                if (held != nullptr && *held == Mode::kWrite) continue;
                if (!acquire_commit_block_locked(cx, block)) {
                    release_all_locked(cx);
                    return false;  // retry
                }
            }
        } else {
            // Harness: each commit-time acquire is a scheduling point, so
            // two lazy commits may interleave here. Any two that both
            // succeed have compatible lock sets (a conflicting pair aborts
            // one), so commit-completion order stays a valid serialization
            // order.
            for (const WriteLog::Entry& entry : cx.redo_.entries()) {
                const std::uint64_t block = block_of(entry.addr);
                {
                    const Mode* held = cx.held_.find(block);
                    if (held != nullptr && *held == Mode::kWrite) continue;
                }
                try {
                    scheduler_yield(YieldPoint::kAcquireWrite,
                                    YieldSite::kTableLazyCommit);
                } catch (...) {
                    const std::lock_guard<std::mutex> guard(mutex_);
                    release_all_locked(cx);  // cancellation: clean exit
                    throw;
                }
                const std::lock_guard<std::mutex> guard(mutex_);
                if (!acquire_commit_block_locked(cx, block)) {
                    release_all_locked(cx);
                    return false;  // retry
                }
            }
        }
        // Write back under exclusive ownership (one entry per address, each
        // holding its final value), then drop everything.
        for (const WriteLog::Entry& entry : cx.redo_.entries()) {
            *entry.addr = entry.value;
        }
        const std::lock_guard<std::mutex> guard(mutex_);
        release_all_locked(cx);
        return true;
    }

    void abort(TxContext& cx_base) override {
        auto& cx = static_cast<LazyTableContext&>(cx_base);
        // Nothing was published (redo buffering): just drop ownership.
        const std::lock_guard<std::mutex> guard(mutex_);
        release_all_locked(cx);
    }

    std::uint64_t occupied_metadata_entries() const noexcept override {
        const std::lock_guard<std::mutex> guard(mutex_);
        return table_.occupied_entries();
    }

private:
    [[nodiscard]] std::uint64_t block_of(const std::uint64_t* addr) const noexcept {
        return reinterpret_cast<std::uintptr_t>(addr) >> block_shift_;
    }

    /// Pre: mutex_ held. Acquires write ownership of one redo entry's
    /// block; false means a conflict (caller releases everything and the
    /// commit retries). The test-only ignore fault reports success without
    /// recording ownership — the write-back then races, which is the point.
    [[nodiscard]] bool acquire_commit_block_locked(LazyTableContext& cx,
                                                   std::uint64_t block) {
        const AcquireResult r = table_.acquire_write(cx.slot_, block);
        if (!r.ok) {
            if (test_faults().ignore_acquire_conflicts.load(
                    std::memory_order_relaxed)) {
                return true;
            }
            classify_conflict(block, r.conflicting);
            return false;
        }
        held_blocks_[cx.slot_].insert(block);
        cx.held_.put(block, Mode::kWrite);
        return true;
    }

    /// Pre: mutex_ held.
    void classify_conflict(std::uint64_t block, std::uint64_t conflicting) {
        bool same_block = false;
        while (conflicting != 0) {
            const auto slot = static_cast<std::uint32_t>(std::countr_zero(conflicting));
            conflicting &= conflicting - 1;
            if (held_blocks_[slot].contains(block)) {
                same_block = true;
                break;
            }
        }
        auto& counter = same_block ? stats_.true_conflicts : stats_.false_conflicts;
        counter.fetch_add(1, std::memory_order_relaxed);
    }

    /// Pre: mutex_ held.
    void release_all_locked(LazyTableContext& cx) {
        cx.held_.for_each([&](std::uint64_t block, Mode mode) {
            table_.release(cx.slot_, block, mode);
        });
        held_blocks_[cx.slot_].clear();
        cx.held_.clear();
        cx.redo_.clear();
    }

    SharedStats& stats_;
    unsigned block_shift_;
    mutable std::mutex mutex_;
    Table table_;
    std::array<BlockSet, ownership::kMaxTx> held_blocks_;
    SlotPool slots_;
};

}  // namespace

std::unique_ptr<Backend> make_table_backend(const StmConfig& config,
                                            SharedStats& stats,
                                            ReclaimDomain& /*reclaim*/) {
    const bool tagless = config.backend == BackendKind::kTaglessTable;
    if (config.commit_time_locks) {
        if (tagless) {
            return std::make_unique<LazyTableBackend<ownership::TaglessTable>>(config,
                                                                               stats);
        }
        return std::make_unique<LazyTableBackend<ownership::TaggedTable>>(config,
                                                                          stats);
    }
    if (tagless) {
        return std::make_unique<TableBackend<ownership::TaglessTable>>(config, stats);
    }
    return std::make_unique<TableBackend<ownership::TaggedTable>>(config, stats);
}

}  // namespace tmb::stm::detail
