// atomic_backend.cpp — lock-free tagless-table STM backend.
//
// Same protocol as the table backend (encounter-time 2PL, in-place writes
// with an undo log, abort-on-conflict) but conflict metadata lives in the
// lock-free AtomicTaglessTable: the acquire fast path is one CAS, with no
// global lock anywhere. This is the organization a performance-minded STM
// implementer would actually ship with a tagless design — and it inherits
// the false-conflict pathology unchanged, which is the paper's point.
//
// Locked instructions: on the access path (load, store, commit, abort) the
// table's entry CAS is the only one. The table's counter shard for a TxId
// and the slot's footprint log both have one writer, the context holding
// that TxId, so they are written with plain atomic stores. A TxId passes
// to its next holder through the SlotPool's release/acquire pair, or, kept
// by an idle context, through the context pool slot's release store and
// acquire CAS (context_pool.hpp); both order the last holder's writes
// before the next one's. Only a footprint that overflows its inline log
// takes a mutex.
//
// Conflict classification (true vs false) is best-effort here: the
// conflicting transaction's footprint is read while its holder runs, so it
// may have committed/aborted (or started over) between our failed CAS and
// the inspection. Counts are therefore approximate under heavy churn (exact
// in the common case); the global-lock backend remains the
// exact-classification reference.

#include <algorithm>
#include <array>
#include <atomic>
#include <mutex>
#include <vector>

#include "ownership/atomic_tagless_table.hpp"
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

struct UndoEntry {
    std::uint64_t* addr;
    std::uint64_t old_value;
};

class AtomicContext final : public TxContext {
public:
    /// Kept from attach until release (SlotPool::kNone before).
    TxId slot_ = SlotPool::kNone;
    /// Allocation-free tx-local structures (stm/txlocal.hpp): the mode
    /// cache clears in O(1) per attempt and the undo log keeps capacity, so
    /// a steady-state transaction never touches the heap.
    SmallMap<std::uint64_t, Mode> modes_;
    std::vector<UndoEntry> undo_;
};

/// The blocks a slot's current holder owns, for classifying the conflicts
/// others hit against it. Only the holder writes; any thread may read. The
/// first kInline blocks go to an array published by a release store of
/// `count_`; the rest spill into a mutex-guarded set, and `count_` then
/// reads kInline + 1. 62 slots x 32 words keep the zeroed array ≈16 KiB.
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

class AtomicBackend final : public Backend {
public:
    AtomicBackend(const StmConfig& config, SharedStats& stats)
        : stats_(stats),
          block_shift_(util::log2_pow2(util::next_pow2(config.block_bytes))),
          table_(config.table),
          slots_(ownership::kMaxAtomicTx) {}

    std::unique_ptr<TxContext> make_context() override {
        return std::make_unique<AtomicContext>();
    }

    bool attach(TxContext& cx) noexcept override {
        return slots_.keep(static_cast<AtomicContext&>(cx).slot_);
    }

    /// The slot's footprint is already empty: commit and abort clear it.
    void release(TxContext& cx) noexcept override {
        slots_.give_back(static_cast<AtomicContext&>(cx).slot_);
    }

    std::optional<TxId> tx_id(const TxContext& cx) const noexcept override {
        return SlotPool::held(static_cast<const AtomicContext&>(cx).slot_);
    }

    std::uint32_t max_live_contexts() const noexcept override {
        return ownership::kMaxAtomicTx;
    }

    std::uint64_t occupied_metadata_entries() const noexcept override {
        return table_.occupied_entries();
    }

    void begin(TxContext& cx_base) override {
        auto& cx = static_cast<AtomicContext&>(cx_base);
        cx.modes_.clear();
        cx.undo_.clear();
    }

    std::uint64_t load(TxContext& cx_base, const std::uint64_t* addr) override {
        auto& cx = static_cast<AtomicContext&>(cx_base);
        const std::uint64_t block = block_of(addr);
        if (!cx.modes_.contains(block)) {
            acquire_block(cx, block, /*for_write=*/false);
        }
        return *addr;
    }

    void store(TxContext& cx_base, std::uint64_t* addr,
               std::uint64_t value) override {
        auto& cx = static_cast<AtomicContext&>(cx_base);
        const std::uint64_t block = block_of(addr);
        const Mode* held = cx.modes_.find(block);
        if (held == nullptr || *held != Mode::kWrite) {
            acquire_block(cx, block, /*for_write=*/true);
        }
        cx.undo_.push_back({addr, *addr});
        *addr = value;
    }

    bool commit(TxContext& cx_base) override {
        release_all(static_cast<AtomicContext&>(cx_base));
        return true;
    }

    void abort(TxContext& cx_base) override {
        auto& cx = static_cast<AtomicContext&>(cx_base);
        for (auto it = cx.undo_.rbegin(); it != cx.undo_.rend(); ++it) {
            *it->addr = it->old_value;
        }
        release_all(cx);
    }

private:
    [[nodiscard]] std::uint64_t block_of(const std::uint64_t* addr) const noexcept {
        return reinterpret_cast<std::uintptr_t>(addr) >> block_shift_;
    }

    void acquire_block(AtomicContext& cx, std::uint64_t block, bool for_write) {
        scheduler_yield(for_write ? YieldPoint::kAcquireWrite
                                  : YieldPoint::kAcquireRead,
                        YieldSite::kAtomicAcquire);
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
        // A read→write upgrade keeps the block's footprint record.
        if (cx.modes_.put(block, for_write ? Mode::kWrite : Mode::kRead)) {
            footprints_[cx.slot_].record(block);
        }
    }

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

    void release_all(AtomicContext& cx) {
        cx.modes_.for_each([&](std::uint64_t block, Mode mode) {
            table_.release(cx.slot_, block, mode);
        });
        footprints_[cx.slot_].reset();
        cx.modes_.clear();
        cx.undo_.clear();
    }

    SharedStats& stats_;
    unsigned block_shift_;
    AtomicTaglessTable table_;
    std::array<SlotFootprint, ownership::kMaxAtomicTx> footprints_;
    SlotPool slots_;
};

}  // namespace

std::unique_ptr<Backend> make_atomic_backend(const StmConfig& config,
                                             SharedStats& stats,
                                             ReclaimDomain& /*reclaim*/) {
    return std::make_unique<AtomicBackend>(config, stats);
}

}  // namespace tmb::stm::detail
