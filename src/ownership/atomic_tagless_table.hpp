// atomic_tagless_table.hpp — a lock-free concurrent tagless ownership table.
//
// `TaglessTable` is the faithful single-threaded model of paper Fig. 1 used
// by the simulators (and by the STM under one global lock). This class is
// the production-concurrency variant: each entry is a single atomic word
// manipulated with CAS, so transactions on different threads acquire and
// release entries without any shared lock.
//
// Entry word layout (64 bits):
//   bits 63..62  mode: 0 = Free, 1 = Read, 2 = Write
//   bits 61..0   Read:  sharer bitmap (one bit per TxId; ids 0..61)
//                Write: writer TxId
//
// The single-word layout is exactly why tagless tables appeal to STM
// implementers (paper §2.1: no tags, no chains, one CAS per acquire) — and
// it changes nothing about their false-conflict pathology, which this class
// inherits by construction.
//
// Locked instructions: the entry CAS is the only one. Statistics live in
// one counter shard per TxId, and only the current holder of TxId t may
// call acquire_read/acquire_write/release with t (a release by a TxId that
// does not hold the entry is tolerated: it changes nothing, counts
// nothing). So shard t has a single writer, which bumps it with a relaxed
// load and store; whatever hands TxIds between threads must order one
// holder's last call before the next holder's first, as a release/acquire
// pair does. In the STM a TxId, and with it its counter shard, moves
// between threads two ways: through the SlotPool word (release's
// release-ordered fetch_and, try_acquire's acquire CAS), and, kept by an
// idle pooled context, through the context pool slot's release store and
// acquire CAS.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "ownership/ownership.hpp"

namespace tmb::ownership {

/// Maximum concurrent transactions for the atomic table (sharer bitmap is
/// 62 bits wide; two bits of the word encode the mode).
inline constexpr TxId kMaxAtomicTx = 62;

class AtomicTaglessTable {
public:
    explicit AtomicTaglessTable(TableConfig config);

    AtomicTaglessTable(const AtomicTaglessTable&) = delete;
    AtomicTaglessTable& operator=(const AtomicTaglessTable&) = delete;

    /// Lock-free; linearizes at a successful CAS (or at the load that
    /// observes a conflicting state). Throws std::out_of_range when
    /// `tx >= kMaxAtomicTx`: a TxId of 62 or 63 would set a mode bit in the
    /// entry word instead of a sharer bit, silently corrupting the entry.
    AcquireResult acquire_read(TxId tx, std::uint64_t block);
    AcquireResult acquire_write(TxId tx, std::uint64_t block);
    void release(TxId tx, std::uint64_t block, Mode mode);

    [[nodiscard]] std::uint64_t index_of(std::uint64_t block) const noexcept;

    [[nodiscard]] std::uint64_t entry_count() const noexcept { return config_.entries; }
    [[nodiscard]] const TableConfig& config() const noexcept { return config_; }
    [[nodiscard]] TableCounters counters() const noexcept;
    [[nodiscard]] std::uint64_t occupied_entries() const noexcept;
    /// Largest number of concurrently live transactions: the sharer bitmap
    /// is only 62 bits wide, so TxIds 62 and 63 are NOT usable here even
    /// though other organizations accept them.
    [[nodiscard]] TxId max_tx() const noexcept { return kMaxAtomicTx; }

    /// Not thread-safe; call only at quiescent points.
    void clear();

    // Inspection for tests (racy by nature; exact only when quiescent).
    [[nodiscard]] Mode mode_at(std::uint64_t index) const noexcept;
    /// Permission state a non-transactional access to `block` would observe.
    [[nodiscard]] Mode mode_of_block(std::uint64_t block) const noexcept {
        return mode_at(index_of(block));
    }
    [[nodiscard]] std::uint64_t sharers_at(std::uint64_t index) const noexcept;
    [[nodiscard]] TxId writer_at(std::uint64_t index) const noexcept;

private:
    static constexpr std::uint64_t kModeShift = 62;
    static constexpr std::uint64_t kPayloadMask = (std::uint64_t{1} << 62) - 1;
    static constexpr std::uint64_t kFreeWord = 0;

    [[nodiscard]] static constexpr std::uint64_t pack(Mode mode,
                                                      std::uint64_t payload) {
        return (static_cast<std::uint64_t>(mode) << kModeShift) |
               (payload & kPayloadMask);
    }
    [[nodiscard]] static constexpr Mode mode_of(std::uint64_t word) {
        return static_cast<Mode>(word >> kModeShift);
    }
    [[nodiscard]] static constexpr std::uint64_t payload_of(std::uint64_t word) {
        return word & kPayloadMask;
    }

    /// Per-TxId statistics shard: counters are bumped on every acquire, so
    /// a single shared set would ping-pong one cache line between all
    /// threads; each transaction writes its own line instead (single
    /// writer, see the file header) and counters() sums at read time.
    /// `releases` counts holds actually given up, so a foreign or double
    /// release writes no shard.
    struct alignas(64) CounterShard {
        std::atomic<std::uint64_t> read_acquires{0};
        std::atomic<std::uint64_t> write_acquires{0};
        std::atomic<std::uint64_t> conflicts{0};
        std::atomic<std::uint64_t> releases{0};
    };

    TableConfig config_;
    util::BlockHasher hasher_;
    std::vector<std::atomic<std::uint64_t>> entries_;
    std::array<CounterShard, kMaxAtomicTx> counter_shards_;
};

static_assert(OwnershipTable<AtomicTaglessTable>);

}  // namespace tmb::ownership
