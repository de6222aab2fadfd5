// txlocal.hpp — allocation-free transaction-local containers.
//
// Every STM backend keeps per-transaction metadata (block → mode caches,
// footprint-log spills, read-set dedup state). The std::unordered_map /
// std::unordered_set containers used originally pay one heap allocation per
// inserted node — on the *per-access fast path*, which is exactly the cost
// the paper's ownership-table argument says must not exist. These containers
// replace them:
//
//   * SmallMap<K, V>  — open-addressed linear-probe map over a power-of-two
//     slot array. The initial array is inline (no heap); past a 50% load
//     threshold it spills to a grown heap array that is kept for the
//     context's lifetime. `clear()` is O(1): slots carry an epoch stamp and
//     clearing bumps the epoch (a full wipe happens only on epoch wrap,
//     amortized to nothing). Iteration is O(live) in insertion order. The
//     inline array is deliberately small (16 slots): contexts created per
//     Stm::atomically call must also be cheap to *construct*, and spilled
//     capacity persists for reused (Executor/pooled) contexts anyway.
//
//   * SmallSet<K>     — SmallMap with a one-byte payload.
//
//   * SeenFilter      — epoch-stamped *direct-mapped* membership filter for
//     read-set dedup. `test_and_set` has no false positives ("seen" is
//     exact) but may forget a key when another key evicts its cell — the
//     caller then records a duplicate, which is safe (dedup is conservative,
//     never lossy).
//
// All three are single-threaded by design: they live inside one TxContext
// and are reused across retries and transactions, so a steady-state
// transaction performs zero heap allocations. Keys and values must be
// trivially copyable (clear() never runs destructors).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

namespace tmb::stm::detail {

/// Canonical 64-bit view of a key (pointers hash by address).
template <typename K>
[[nodiscard]] inline std::uint64_t txlocal_key_bits(K key) noexcept {
    if constexpr (std::is_pointer_v<K>) {
        return reinterpret_cast<std::uintptr_t>(key);
    } else {
        return static_cast<std::uint64_t>(key);
    }
}

/// Fibonacci hashing: a single multiply, taking the well-mixed middle bits.
/// These tables are tiny and per-transaction — one multiply beats a full
/// avalanche mixer on the per-access fast path, and the golden-ratio
/// constant spreads both sequential block numbers and pointer keys.
[[nodiscard]] inline std::uint64_t txlocal_hash(std::uint64_t bits) noexcept {
    return (bits * 0x9e3779b97f4a7c15ULL) >> 32;
}

/// Open-addressed insertion-ordered map with inline storage and O(1)
/// epoch-stamped clear. See file header. `Epoch` is a template parameter so
/// tests can force wrap-around quickly (std::uint8_t wraps after 255
/// clears); production code uses the default.
template <typename K, typename V, std::size_t kInlineSlots = 16,
          typename Epoch = std::uint32_t>
class SmallMap {
    static_assert(kInlineSlots >= 4 && (kInlineSlots & (kInlineSlots - 1)) == 0,
                  "inline capacity must be a power of two");
    static_assert(std::is_trivially_copyable_v<K> &&
                      std::is_trivially_copyable_v<V>,
                  "epoch-stamped clear() never runs destructors");
    static_assert(std::is_unsigned_v<Epoch>);

public:
    SmallMap() = default;
    SmallMap(const SmallMap&) = delete;
    SmallMap& operator=(const SmallMap&) = delete;

    [[nodiscard]] std::size_t size() const noexcept { return order_.size(); }
    [[nodiscard]] bool empty() const noexcept { return order_.empty(); }
    /// Current probe-array capacity (inline until the first spill).
    [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
    [[nodiscard]] bool spilled() const noexcept { return heap_ != nullptr; }

    [[nodiscard]] V* find(K key) noexcept {
        Slot& s = *probe(key);
        return s.stamp == epoch_ ? &s.value : nullptr;
    }
    [[nodiscard]] const V* find(K key) const noexcept {
        return const_cast<SmallMap*>(this)->find(key);
    }
    [[nodiscard]] bool contains(K key) const noexcept {
        return find(key) != nullptr;
    }

    /// Inserts or overwrites. Returns true when the key was new.
    bool put(K key, V value) {
        Slot* s = probe(key);
        if (s->stamp == epoch_) {
            s->value = value;
            return false;
        }
        s->key = key;
        s->value = value;
        s->stamp = epoch_;
        order_.push_back(static_cast<std::uint32_t>(s - slots_));
        if (order_.size() * 2 > capacity_) grow();
        return true;
    }

    /// O(1): bumps the epoch; a full stamp wipe happens only on wrap.
    void clear() noexcept {
        order_.clear();
        if (++epoch_ == 0) {
            for (std::size_t i = 0; i < capacity_; ++i) slots_[i].stamp = 0;
            epoch_ = 1;
        }
    }

    /// Visits (key, value) in insertion order.
    template <typename F>
    void for_each(F&& fn) const {
        for (const std::uint32_t idx : order_) {
            fn(slots_[idx].key, slots_[idx].value);
        }
    }

private:
    struct Slot {
        K key;
        V value;
        Epoch stamp;  ///< live iff == the map's current epoch (never 0)
    };

    /// First slot that holds `key` or is free (linear probe; load ≤ 50%
    /// guarantees termination).
    [[nodiscard]] Slot* probe(K key) const noexcept {
        std::size_t i = txlocal_hash(txlocal_key_bits(key)) & mask_;
        for (;;) {
            Slot& s = slots_[i];
            if (s.stamp != epoch_ || s.key == key) return &s;
            i = (i + 1) & mask_;
        }
    }

    void grow() {
        const std::size_t next = capacity_ * 2;
        auto fresh = std::make_unique<Slot[]>(next);  // stamps value-init to 0
        Slot* const old = slots_;
        slots_ = fresh.get();
        capacity_ = next;
        mask_ = next - 1;
        // Reinsert in insertion order, rewriting order_ in place (epoch is
        // unchanged; fresh stamps are 0 and epoch_ is never 0).
        for (std::uint32_t& idx : order_) {
            const Slot& src = old[idx];
            Slot* dst = probe(src.key);
            *dst = src;
            idx = static_cast<std::uint32_t>(dst - slots_);
        }
        heap_ = std::move(fresh);  // frees the previous heap array, if any
    }

    std::array<Slot, kInlineSlots> inline_{};
    std::unique_ptr<Slot[]> heap_;
    Slot* slots_ = inline_.data();
    std::size_t capacity_ = kInlineSlots;
    std::size_t mask_ = kInlineSlots - 1;
    Epoch epoch_ = 1;
    std::vector<std::uint32_t> order_;  ///< live slot indices, insertion order
};

/// Set facade over SmallMap (the ownership engine's footprint spill).
template <typename K, std::size_t kInlineSlots = 16,
          typename Epoch = std::uint32_t>
class SmallSet {
public:
    [[nodiscard]] std::size_t size() const noexcept { return map_.size(); }
    [[nodiscard]] bool empty() const noexcept { return map_.empty(); }
    [[nodiscard]] bool contains(K key) const noexcept {
        return map_.contains(key);
    }
    /// Returns true when the key was new.
    bool insert(K key) { return map_.put(key, std::uint8_t{1}); }
    void clear() noexcept { map_.clear(); }

    template <typename F>
    void for_each(F&& fn) const {
        map_.for_each([&](K key, std::uint8_t) { fn(key); });
    }

private:
    SmallMap<K, std::uint8_t, kInlineSlots, Epoch> map_;
};

/// A write/redo log: entries in first-write order, one per address, with
/// read-your-own-write lookup. Below kScanThreshold entries lookups are
/// backward linear scans (for the common tiny transaction a handful of
/// L1-hot compares beats any hashing); past it an addr → index SmallMap is
/// seeded once and maintained. Shared by the TL2 write set and the
/// ownership engine's lazy redo log.
class WriteLog {
public:
    struct Entry {
        std::uint64_t* addr;
        std::uint64_t value;
    };

    static constexpr std::size_t kScanThreshold = 8;

    [[nodiscard]] const std::vector<Entry>& entries() const noexcept {
        return entries_;
    }
    [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }
    [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

    /// The entry for `addr`, or null. The caller updates value in place on
    /// rewrite (the entry keeps its first-write position).
    [[nodiscard]] Entry* find(const std::uint64_t* addr) noexcept {
        if (!indexed_) {
            for (auto it = entries_.rbegin(); it != entries_.rend(); ++it) {
                if (it->addr == addr) return &*it;
            }
            return nullptr;
        }
        const std::uint32_t* idx = index_.find(addr);
        return idx ? &entries_[*idx] : nullptr;
    }

    /// Appends a new entry (caller checked find() first).
    void push(std::uint64_t* addr, std::uint64_t value) {
        entries_.push_back({addr, value});
        if (!indexed_) {
            if (entries_.size() < kScanThreshold) return;
            index_.clear();  // seed from the scanned prefix
            for (std::uint32_t i = 0; i < entries_.size(); ++i) {
                index_.put(entries_[i].addr, i);
            }
            indexed_ = true;
            return;
        }
        index_.put(addr, static_cast<std::uint32_t>(entries_.size() - 1));
    }

    void clear() noexcept {
        entries_.clear();
        indexed_ = false;
    }

private:
    std::vector<Entry> entries_;
    SmallMap<const std::uint64_t*, std::uint32_t> index_;
    bool indexed_ = false;
};

/// Direct-mapped dedup filter: exact "seen", conservative "not seen" (a
/// colliding key evicts — the caller records a harmless duplicate). Sized
/// for read sets: 512 cells is 8 KiB and covers typical transactions with
/// few evictions.
template <std::size_t kCells = 512, typename Epoch = std::uint32_t>
class SeenFilter {
    static_assert((kCells & (kCells - 1)) == 0, "cell count must be pow2");
    static_assert(std::is_unsigned_v<Epoch>);

public:
    /// True iff `key` was recorded since the last clear() and has not been
    /// evicted. Records it either way.
    template <typename K>
    bool test_and_set(K key) noexcept {
        const std::uint64_t bits = txlocal_key_bits(key);
        Cell& c = cells_[txlocal_hash(bits) & (kCells - 1)];
        if (c.stamp == epoch_ && c.key == bits) return true;
        c.key = bits;
        c.stamp = epoch_;
        return false;
    }

    void clear() noexcept {
        if (++epoch_ == 0) {
            for (Cell& c : cells_) c.stamp = 0;
            epoch_ = 1;
        }
    }

private:
    struct Cell {
        std::uint64_t key;
        Epoch stamp;
    };
    std::array<Cell, kCells> cells_{};
    Epoch epoch_ = 1;
};

}  // namespace tmb::stm::detail
