// context_pool.hpp — internal: the runtime's pool of idle TxContexts.
//
// Stm::atomically checks a context out of this pool per call and an
// Executor once for its lifetime (stm.cpp); contexts are built only when
// the pool has none to hand out. The pool has 16 shards of 4 slots, so at
// most 64 contexts idle in it. A thread uses the shard its id hashes to,
// and a slot is an atomic pointer: no lock is taken, and a thread that
// keeps calling atomically finds its own context in its own shard.
//
// A context keeps the slot it came from reserved while an atomically()
// call has it out and is parked there again on return, so a checkout costs
// one CAS and a return one store. An Executor gives its slot up; its
// context claims a free one when the Executor is destroyed.
//
// An idle context may keep its backend's TxId (backend.hpp), so the slot's
// release store and acquire CAS also hand the TxId, and whatever the
// backend keys by it, from one thread to the next. The pool itself never
// frees TxIds: the runtime visits idle contexts with for_each_idle to have
// them released, and releases a context park() hands back before it is
// destroyed. The destructor deletes idle contexts without releasing: their
// backend goes with the pool.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>

#include "stm/backend.hpp"
#include "util/hash.hpp"

namespace tmb::stm::detail {

class ContextPool {
public:
    ContextPool() = default;
    ContextPool(const ContextPool&) = delete;
    ContextPool& operator=(const ContextPool&) = delete;

    ~ContextPool() {
        for (Shard& shard : shards_) {
            for (auto& slot : shard) {
                if (slot.load() != reserved()) delete slot.load();
            }
        }
    }

    /// An idle context from the calling thread's shard, or null. With
    /// `keep_slot` the context's slot stays reserved for its return.
    [[nodiscard]] std::unique_ptr<TxContext> take(bool keep_slot) noexcept {
        for (auto& slot : own_shard()) {
            TxContext* idle = slot.load(std::memory_order_relaxed);
            if (idle == nullptr || !reserve(slot, idle)) continue;
            if (!keep_slot) {
                slot.store(nullptr, std::memory_order_relaxed);
                idle->pool_slot = nullptr;
            }
            return std::unique_ptr<TxContext>(idle);
        }
        return nullptr;
    }

    /// Parks `cx` in its reserved slot, else in a free slot of the calling
    /// thread's shard; hands it back when there is none.
    [[nodiscard]] std::unique_ptr<TxContext> park(
        std::unique_ptr<TxContext> cx) noexcept {
        if (cx->pool_slot == nullptr) {
            for (auto& slot : own_shard()) {
                if (!reserve(slot, nullptr)) continue;
                cx->pool_slot = &slot;
                break;
            }
        }
        if (cx->pool_slot != nullptr) {
            cx->pool_slot->store(cx.release(), std::memory_order_release);
        }
        return cx;
    }

    /// Runs `fn` on every idle context, each reserved meanwhile.
    template <typename F>
    void for_each_idle(F&& fn) noexcept {
        for (Shard& shard : shards_) {
            for (auto& slot : shard) {
                TxContext* idle = slot.load(std::memory_order_relaxed);
                if (idle == nullptr || !reserve(slot, idle)) continue;
                fn(*idle);
                slot.store(idle, std::memory_order_release);
            }
        }
    }

private:
    using Slot = std::atomic<TxContext*>;
    struct alignas(64) Shard : std::array<Slot, 4> {};

    /// Slot value while its context is checked out (or being visited).
    [[nodiscard]] static TxContext* reserved() noexcept {
        return reinterpret_cast<TxContext*>(std::uintptr_t{1});
    }

    /// Swaps `from` (an idle context or null) for the reserved marker.
    [[nodiscard]] static bool reserve(Slot& slot, TxContext* from) noexcept {
        return from != reserved() &&
               slot.load(std::memory_order_relaxed) == from &&
               slot.compare_exchange_strong(from, reserved(),
                                            std::memory_order_acquire,
                                            std::memory_order_relaxed);
    }

    [[nodiscard]] Shard& own_shard() noexcept {
        static thread_local const std::size_t index =
            util::mix64(std::hash<std::thread::id>{}(
                std::this_thread::get_id())) %
            std::tuple_size_v<decltype(shards_)>;
        return shards_[index];
    }

    std::array<Shard, 16> shards_{};
};

}  // namespace tmb::stm::detail
