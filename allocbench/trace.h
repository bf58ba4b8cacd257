/**
 * @file
 * Measurement helpers of the allocator benchmark driver: a log-linear
 * latency histogram and per-thread span buffers with a Chrome
 * trace-event exporter.
 *
 * Spans are recorded by the driver around its own calls into the
 * library (the library's tracepoints stay off), kept in per-thread
 * memory and written out once, after the workers have stopped.
 */
#ifndef ALLOCBENCH_TRACE_H
#define ALLOCBENCH_TRACE_H

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace allocbench {

inline std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Single-writer histogram with 64 linear sub-buckets per octave
 * (about 1.5% resolution). Percentiles interpolate inside a bucket,
 * so a quantile moves continuously between runs instead of snapping
 * to a bucket edge.
 */
class Histogram
{
  public:
    static constexpr unsigned kSubBits = 6;
    static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
    static constexpr std::size_t kBuckets = kSub * 40;

    void
    record(std::uint64_t v)
    {
        ++counts_[index(v)];
        ++count_;
    }

    void
    merge(const Histogram& o)
    {
        for (std::size_t i = 0; i < kBuckets; ++i)
            counts_[i] += o.counts_[i];
        count_ += o.count_;
    }

    std::uint64_t count() const { return count_; }

    /// Value at quantile @p q in [0, 1]; 0 when empty.
    double
    quantile(double q) const
    {
        if (count_ == 0)
            return 0.0;
        const double rank = q * static_cast<double>(count_);
        std::uint64_t seen = 0;
        for (std::size_t i = 0; i < kBuckets; ++i) {
            const std::uint64_t c = counts_[i];
            if (c == 0)
                continue;
            if (static_cast<double>(seen + c) >= rank) {
                const double frac =
                    (rank - static_cast<double>(seen)) /
                    static_cast<double>(c);
                return static_cast<double>(lower(i)) +
                       static_cast<double>(width(i)) * frac;
            }
            seen += c;
        }
        return static_cast<double>(lower(kBuckets - 1));
    }

  private:
    static std::size_t
    index(std::uint64_t v)
    {
        if (v < kSub)
            return static_cast<std::size_t>(v);
        const unsigned shift =
            static_cast<unsigned>(std::bit_width(v)) - kSubBits - 1;
        const std::size_t i =
            kSub * (shift + 1) + ((v >> shift) - kSub);
        return i < kBuckets ? i : kBuckets - 1;
    }

    static std::uint64_t
    lower(std::size_t i)
    {
        if (i < kSub)
            return i;
        const std::size_t shift = i / kSub - 1;
        return (kSub + i % kSub) << shift;
    }

    static std::uint64_t
    width(std::size_t i)
    {
        return i < kSub ? 1 : std::uint64_t{1} << (i / kSub - 1);
    }

    std::array<std::uint64_t, kBuckets> counts_{};
    std::uint64_t count_ = 0;
};

/// One completed span: a request or a library call inside one. Spans of
/// one request carry its id.
struct Span
{
    const char* name;
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t request;
};

/**
 * Fixed-capacity span buffer owned by one worker thread. Spans past
 * the capacity are counted, not stored, so a long traced run keeps
 * bounded memory; the per-layer aggregates are computed from every
 * span regardless.
 */
class SpanBuffer
{
  public:
    explicit SpanBuffer(std::size_t capacity) : capacity_(capacity)
    {
        spans_.reserve(capacity);
    }

    void
    add(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
        std::uint64_t request)
    {
        if (spans_.size() < capacity_)
            spans_.push_back({name, start_ns, end_ns, request});
        else
            ++dropped_;
    }

    const std::vector<Span>& spans() const { return spans_; }
    std::uint64_t dropped() const { return dropped_; }

  private:
    std::size_t capacity_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/**
 * Write @p buffers (one per worker, tid = index) as Chrome
 * trace-event JSON ("X" complete events, microsecond timestamps
 * relative to @p origin_ns). @return false on an I/O error.
 */
inline bool
write_chrome_trace(const std::string& path,
                   const std::vector<const SpanBuffer*>& buffers,
                   std::uint64_t origin_ns)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
    bool first = true;
    for (std::size_t tid = 0; tid < buffers.size(); ++tid) {
        for (const Span& s : buffers[tid]->spans()) {
            std::fprintf(
                f,
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                "\"tid\":%zu,\"ts\":%.3f,\"dur\":%.3f,"
                "\"args\":{\"request\":%llu}}",
                first ? "" : ",", s.name, tid,
                static_cast<double>(s.start_ns - origin_ns) / 1e3,
                static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                static_cast<unsigned long long>(s.request));
            first = false;
        }
    }
    std::fputs("\n]}\n", f);
    const bool ok = std::ferror(f) == 0;
    return std::fclose(f) == 0 && ok;
}

}  // namespace allocbench

#endif  // ALLOCBENCH_TRACE_H
