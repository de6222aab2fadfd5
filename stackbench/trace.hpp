// trace.hpp — in-memory span recorder for the traced run.
//
// The benchmark records a span around each public call it makes into a
// layer of the stack (Stm::create, a THashMap call, ParallelRunner
// construction and run(), run_service per step, reclaim_drain, ...). A span
// holds its name, start, end, parent span and a run id (the repetition it
// belongs to). Spans stay in per-thread buffers while the workload runs and
// are summarized and written out once, at exit.
//
// The layer of a span is its name's prefix up to the first '.', so
// "stm.call" belongs to `stm` and "exec.run" to `exec`. A span's self time
// is its duration minus the union of the intervals its children cover
// (children may run on other threads: the operation spans of a
// ParallelRunner worker are children of the run() span on the main thread).
//
// With tracing off, Scope is a no-op and nothing is allocated.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace stackbench {

struct Span {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint64_t parent = 0;  ///< span id, Tracer::kNone for a root
    std::uint32_t name = 0;    ///< index of the interned name
    std::uint32_t run = 0;     ///< repetition id
};

/// Per-name totals of a finished trace.
struct SpanTotals {
    std::uint64_t count = 0;
    double self_ns = 0.0;
};

class Tracer {
public:
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};

    /// The process-wide tracer (disabled until enable()).
    static Tracer& instance();

    /// Turns recording on; at most `max_spans` spans are kept (later ones
    /// are counted in dropped() and left out of the summary).
    void enable(std::size_t max_spans);
    [[nodiscard]] bool enabled() const noexcept { return enabled_; }

    /// Interns a span name. Call before worker threads start.
    [[nodiscard]] std::uint32_t intern(std::string_view name);

    /// Repetition id stamped on spans opened from now on.
    void set_run(std::uint32_t run) noexcept {
        run_.store(run, std::memory_order_relaxed);
    }

    /// Opens a span on the calling thread under `parent` (kNone = the
    /// innermost span this thread has open, or a root). Returns its id.
    std::uint64_t open(std::uint32_t name, std::uint64_t parent = kNone);
    /// Closes the span `id` (must be the innermost open on this thread).
    void close(std::uint64_t id);

    [[nodiscard]] std::uint64_t dropped() const noexcept {
        return dropped_.load(std::memory_order_relaxed);
    }

    /// Per-name totals with self times. Quiescent points only.
    [[nodiscard]] std::map<std::string, SpanTotals> summarize() const;

    /// Spans kept so far. Quiescent points only.
    [[nodiscard]] std::size_t span_count() const;

    /// Raw spans of every thread, concatenated. Quiescent points only.
    [[nodiscard]] std::vector<Span> spans() const;

    /// Writes the spans in the binary format described in README.md.
    /// Returns false if the file could not be written.
    bool write(const std::string& path) const;

private:
    struct Buffer {
        std::vector<Span> spans;
        std::vector<std::uint64_t> open;  ///< stack of open span ids
        std::uint64_t index = 0;          ///< position in buffers_
    };
    Buffer& local();

    bool enabled_ = false;
    std::size_t max_spans_ = 0;
    std::atomic<std::size_t> stored_{0};
    std::atomic<std::uint64_t> dropped_{0};
    std::atomic<std::uint32_t> run_{0};
    std::vector<std::string> names_;
    mutable std::mutex mu_;  ///< guards buffers_
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span. `parent` as for Tracer::open.
class Scope {
public:
    explicit Scope(std::uint32_t name, std::uint64_t parent = Tracer::kNone) {
        Tracer& t = Tracer::instance();
        if (t.enabled()) id_ = t.open(name, parent);
    }
    ~Scope() {
        if (id_ != Tracer::kNone) Tracer::instance().close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

private:
    std::uint64_t id_ = Tracer::kNone;
};

/// Layer of a span name: the prefix before the first '.'.
[[nodiscard]] std::string layer_of(std::string_view span_name);

}  // namespace stackbench
