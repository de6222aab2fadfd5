// slot_pool.hpp — internal: bitmask-based pool of transaction slot ids.
//
// Table backends identify live transactions by small ids (holder-bitmap
// indices). The pool hands out the lowest free id. One word holds every
// id's bit and all threads share it, so backends keep it off the per-call
// path: a context keeps the id it took across checkouts (backend.hpp), and
// the pool is touched only when a context without an id is checked out or
// an idle context gives its id back. try_acquire() never blocks — the
// runtime reacts to exhaustion by having idle contexts release their ids;
// acquire() yields until an id is free.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <optional>
#include <thread>

#include "ownership/ownership.hpp"

namespace tmb::stm::detail {

class SlotPool {
public:
    /// `capacity` <= 64: number of usable slot ids [0, capacity).
    explicit SlotPool(std::uint32_t capacity = ownership::kMaxTx) noexcept
        : unusable_(capacity >= 64 ? 0 : ~((std::uint64_t{1} << capacity) - 1)) {}

    /// The lowest free id, or nullopt when every id is in use.
    [[nodiscard]] std::optional<ownership::TxId> try_acquire() noexcept {
        std::uint64_t used = used_.load(std::memory_order_relaxed);
        for (;;) {
            const std::uint64_t occupied = used | unusable_;
            if (~occupied == 0) return std::nullopt;
            const auto slot =
                static_cast<ownership::TxId>(std::countr_one(occupied));
            if (used_.compare_exchange_weak(used,
                                            used | (std::uint64_t{1} << slot),
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
                return slot;
            }
        }
    }

    /// The lowest free id, yielding while every id is in use.
    [[nodiscard]] ownership::TxId acquire() noexcept {
        for (;;) {
            if (const auto slot = try_acquire()) return *slot;
            std::this_thread::yield();
        }
    }

    void release(ownership::TxId slot) noexcept {
        used_.fetch_and(~(std::uint64_t{1} << slot), std::memory_order_release);
    }

    /// A kept id's value while its holder has none.
    static constexpr ownership::TxId kNone = ownership::kMaxTx;

    /// Gives `kept` the lowest free id unless it holds one already; false
    /// (and `kept` still kNone) when every id is in use.
    [[nodiscard]] bool keep(ownership::TxId& kept) noexcept {
        if (kept != kNone) return true;
        const auto slot = try_acquire();
        if (slot) kept = *slot;
        return slot.has_value();
    }

    /// Releases `kept`, if it holds an id.
    void give_back(ownership::TxId& kept) noexcept {
        if (kept == kNone) return;
        release(kept);
        kept = kNone;
    }

    [[nodiscard]] static std::optional<ownership::TxId> held(
        ownership::TxId kept) noexcept {
        if (kept == kNone) return std::nullopt;
        return kept;
    }

private:
    std::uint64_t unusable_;
    std::atomic<std::uint64_t> used_{0};
};

}  // namespace tmb::stm::detail
