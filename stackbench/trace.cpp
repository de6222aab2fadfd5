#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "common.hpp"

namespace stackbench {

namespace {

constexpr int kIndexShift = 40;
constexpr std::uint64_t kLocalMask = (std::uint64_t{1} << kIndexShift) - 1;
/// Returned by open() for a span beyond the cap; close() ignores it.
constexpr std::uint64_t kDroppedId = Tracer::kNone - 1;

thread_local void* tl_buffer = nullptr;

}  // namespace

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

void Tracer::enable(std::size_t max_spans) {
    enabled_ = true;
    max_spans_ = max_spans;
}

std::uint32_t Tracer::intern(std::string_view name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
        if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Buffer& Tracer::local() {
    if (tl_buffer == nullptr) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffers_.back()->index = buffers_.size() - 1;
        tl_buffer = buffers_.back().get();
    }
    return *static_cast<Buffer*>(tl_buffer);
}

std::uint64_t Tracer::open(std::uint32_t name, std::uint64_t parent) {
    Buffer& b = local();
    if (stored_.fetch_add(1, std::memory_order_relaxed) >= max_spans_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        b.open.push_back(kDroppedId);
        return kDroppedId;
    }
    if (parent == kNone && !b.open.empty()) parent = b.open.back();
    const std::uint64_t id = (b.index << kIndexShift) | b.spans.size();
    b.spans.push_back(Span{now_ns(), 0, parent, name,
                           run_.load(std::memory_order_relaxed)});
    b.open.push_back(id);
    return id;
}

void Tracer::close(std::uint64_t id) {
    Buffer& b = local();
    if (!b.open.empty()) b.open.pop_back();
    if (id == kDroppedId) return;
    b.spans[id & kLocalMask].end_ns = now_ns();
}

std::size_t Tracer::span_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::size_t n = 0;
    for (const auto& b : buffers_) n += b->spans.size();
    return n;
}

std::vector<Span> Tracer::spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& b : buffers_) {
        out.insert(out.end(), b->spans.begin(), b->spans.end());
    }
    return out;
}

std::map<std::string, SpanTotals> Tracer::summarize() const {
    std::lock_guard<std::mutex> lock(mu_);
    // Children of every span, as intervals clipped later to the parent.
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children;
    for (const auto& b : buffers_) {
        for (const Span& s : b->spans) {
            if (s.parent != kNone && s.parent != kDroppedId) {
                children[s.parent].emplace_back(s.start_ns, s.end_ns);
            }
        }
    }
    std::map<std::string, SpanTotals> out;
    for (const auto& b : buffers_) {
        for (std::size_t i = 0; i < b->spans.size(); ++i) {
            const Span& s = b->spans[i];
            const double dur = static_cast<double>(s.end_ns - s.start_ns);
            double covered = 0.0;
            const auto it = children.find((b->index << kIndexShift) | i);
            if (it != children.end()) {
                auto& iv = it->second;
                std::sort(iv.begin(), iv.end());
                std::uint64_t lo = 0, hi = 0;
                bool have = false;
                for (auto [cs, ce] : iv) {
                    cs = std::max(cs, s.start_ns);
                    ce = std::min(ce, s.end_ns);
                    if (ce <= cs) continue;
                    if (have && cs <= hi) {
                        hi = std::max(hi, ce);
                    } else {
                        if (have) covered += static_cast<double>(hi - lo);
                        lo = cs;
                        hi = ce;
                        have = true;
                    }
                }
                if (have) covered += static_cast<double>(hi - lo);
            }
            SpanTotals& t = out[names_[s.name]];
            ++t.count;
            t.self_ns += dur - covered;
        }
    }
    return out;
}

bool Tracer::write(const std::string& path) const {
    const std::vector<Span> all = spans();
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return false;
    bool ok = std::fwrite("SBTRACE1", 1, 8, f) == 8;
    const auto put32 = [&](std::uint32_t v) {
        ok = ok && std::fwrite(&v, sizeof v, 1, f) == 1;
    };
    put32(static_cast<std::uint32_t>(names_.size()));
    for (const std::string& n : names_) {
        put32(static_cast<std::uint32_t>(n.size()));
        ok = ok && std::fwrite(n.data(), 1, n.size(), f) == n.size();
    }
    const std::uint64_t count = all.size();
    ok = ok && std::fwrite(&count, sizeof count, 1, f) == 1;
    ok = ok && std::fwrite(all.data(), sizeof(Span), all.size(), f) ==
                   all.size();
    return std::fclose(f) == 0 && ok;
}

std::string layer_of(std::string_view span_name) {
    return std::string(span_name.substr(0, span_name.find('.')));
}

}  // namespace stackbench
