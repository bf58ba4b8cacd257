/**
 * @file
 * Closed-loop benchmark driver for the Prudence allocator.
 *
 * One process runs one workload (exchange, rcu_table or reclaim_wave)
 * on kWorkers worker threads against make_prudence_allocator() with
 * the default PrudenceConfig and RcuConfig. Each worker replays a
 * request script generated from --seed and issues its next request
 * only when the previous one has returned. The driver reaches the
 * library only through Allocator, RcuDomain, BuddyAllocator::stats()
 * and cache snapshots; every per-layer number is either a span the
 * driver timed around one of those calls or a counter delta.
 *
 *   allocbench --workload W --seed N --seconds S --trace 0|1
 *              [--trace-out FILE] [--inject live|stamp]
 *
 * --trace 0 times one untraced phase of S seconds and prints the
 * end-to-end metrics. --trace 1 times an untraced and a traced phase of
 * S/2 each and prints the per-layer metrics; --trace-out writes the
 * traced phase's spans as Chrome trace-event JSON. --inject breaks one
 * check input on purpose (a leaked object, or a wrong key stamp) so the
 * self-tests can show that the checks fail.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics. Any failed allocation or check makes correct false and
 * the exit code 1.
 */
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cerrno>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "api/allocator_factory.h"
#include "page/buddy_allocator.h"
#include "page/page_types.h"
#include "rcu/rcu_domain.h"
#include "workload/loadgen.h"

#include "trace.h"

namespace allocbench {
namespace {

using prudence::Allocator;
using prudence::CacheId;
using prudence::RcuDomain;

/// nproc - 1 on the 4-core reference machine: one core stays free for
/// the grace-period thread and the sampling driver thread.
constexpr unsigned kWorkers = 3;
constexpr std::size_t kSpanCapacity = std::size_t{1} << 16;
constexpr auto kSamplePeriod = std::chrono::milliseconds{10};
/// The untraced phase is cut into windows of this length; end-to-end
/// metrics are the median over windows, so a short disturbance from
/// outside the process moves one window, not the result.
constexpr double kWindowSeconds = 1.0;

/// CPUs the process may run on, in order.
std::vector<int>
allowed_cpus()
{
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &set))
                cpus.push_back(c);
    return cpus;
}

void
pin_self(int cpu)
{
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    sched_setaffinity(0, sizeof set, &set);
}

/// With at least kWorkers + 1 CPUs, the main thread takes the first
/// (threads it creates later, the grace-period and maintenance
/// threads among them, inherit it) and worker i takes CPU i + 1, so
/// thread placement is the same in every run. Empty: no pinning.
std::vector<int>
placement()
{
    std::vector<int> cpus = allowed_cpus();
    if (cpus.size() < kWorkers + 1)
        return {};
    cpus.resize(kWorkers + 1);
    pin_self(cpus[0]);
    return cpus;
}

enum class Inject
{
    kNone,
    kLive,   ///< leak one object at teardown
    kStamp,  ///< corrupt one stamp the checks read back
};

/// What a workload is built from: the system under test and the
/// seed-derived inputs.
struct Context
{
    Allocator& alloc;
    RcuDomain& rcu;
    std::uint64_t seed;
    Inject inject;
    const std::vector<std::uint32_t>& hot;  ///< rcu_table: rank -> slot
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    std::string trace_out;
    Inject inject = Inject::kNone;
    std::vector<int> cpus;       ///< from placement()
    std::uint64_t start_ns = 0;  ///< process start (main entry)
};

/// Independent generator seed per (seed, worker, stream), the
/// splitmix64 construction the scenario load generator uses.
std::uint64_t
stream_seed(std::uint64_t seed, unsigned worker, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (worker + 1) +
                      0xbf58476d1ce4e5b9ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
fnv1a(const std::vector<std::uint32_t>& words)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::uint32_t w : words) {
        for (int b = 0; b < 4; ++b) {
            h ^= (w >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
        }
    }
    return h;
}

/// Per-worker state. Written only by its worker while the worker runs
/// and read by the main thread after the phase barrier.
struct alignas(64) Worker
{
    unsigned id = 0;
    const std::vector<std::uint32_t>* script = nullptr;
    std::size_t next = 0;  ///< next script request (wraps)
    std::uint64_t request = 0;

    // Correctness accounting, every phase.
    std::uint64_t calls = 0;  ///< allocator calls + RCU lookups checked
    std::uint64_t nulls = 0;
    std::uint64_t checks = 0;
    std::uint64_t bad = 0;
    bool corrupt_next = false;

    // Untraced phase, per window.
    struct Window
    {
        std::uint64_t requests = 0;
        Histogram write_lat, read_lat;
    };
    std::vector<Window> windows;
    std::uint64_t requests = 0;

    // Traced phase.
    std::uint64_t traced_requests = 0;
    std::uint64_t traced_nulls = 0;
    std::uint64_t lookups = 0, updates = 0;
    std::uint64_t busy_ns = 0, rcu_ns = 0, self_total_ns = 0;
    std::uint64_t loop_ns = 0, child_ns = 0;
    std::uint64_t span_start = 0, span_end = 0;  ///< last call span
    Histogram alloc_ns, free_ns, defer_ns, read_ns, self_ns;
    SpanBuffer spans{0};
};

/// Layer a traced call belongs to: the Allocator (api/ + core/) or
/// the RcuDomain read side.
enum class Layer
{
    kCore,
    kRcu,
};

/// Time one library call when tracing; a plain call otherwise.
template <bool kTraced, class F>
auto
call(Worker& w, const char* name, Histogram* h, Layer layer, F&& f)
{
    if constexpr (!kTraced) {
        return f();
    } else {
        const std::uint64_t a = now_ns();
        auto r = f();
        const std::uint64_t b = now_ns();
        w.spans.add(name, a, b, w.request);
        w.span_start = a;
        w.span_end = b;
        w.child_ns += b - a;
        if (h != nullptr)
            h->record(b - a);
        (layer == Layer::kCore ? w.busy_ns : w.rcu_ns) += b - a;
        return r;
    }
}

inline void
stamp_object(void* p, std::uint64_t v, std::size_t bytes)
{
    auto* words = static_cast<std::uint64_t*>(p);
    // One store per cache line touched, first word carries the stamp.
    for (std::size_t i = 0; i < bytes / 8; i += 8)
        words[i] = v + i;
}

inline std::uint64_t
read_stamp(const void* p)
{
    return *static_cast<const std::uint64_t*>(p);
}

// ---------------------------------------------------------------------
// exchange: bursts of 48 allocations from one 192-B cache, freed in a
// seed-chosen rotation. 48 = 1.5x the 32-slot magazine, so every
// request crosses the magazine/depot boundary; RCU and the page layer
// are bypassed.
// ---------------------------------------------------------------------
struct Exchange
{
    static constexpr std::size_t kBurst = 48;
    static constexpr std::size_t kObject = 192;
    static constexpr std::size_t kScript = std::size_t{1} << 16;
    static constexpr std::size_t kWarmup = 20000;
    static constexpr std::size_t kWordsPerRequest = 1;

    Allocator& a;
    CacheId cache;

    explicit Exchange(const Context& c)
        : a(c.alloc), cache(a.create_cache("allocbench_192", kObject))
    {
    }

    static std::vector<std::uint32_t>
    script(std::uint64_t seed, unsigned worker)
    {
        std::mt19937_64 rng(stream_seed(seed, worker, 0));
        std::vector<std::uint32_t> s(kScript);
        for (auto& e : s)
            e = static_cast<std::uint32_t>(rng() % kBurst);
        return s;
    }

    void populate(Worker&) {}
    void teardown(Worker&) {}

    template <bool kTraced>
    bool
    request(Worker& w, const std::uint32_t* req)
    {
        void* objs[kBurst];
        const std::uint64_t base =
            (std::uint64_t{w.id} << 56) | (w.request << 8);
        for (std::size_t j = 0; j < kBurst; ++j) {
            void* p = call<kTraced>(w, "core.cache_alloc", &w.alloc_ns,
                                    Layer::kCore,
                                    [&] { return a.cache_alloc(cache); });
            ++w.calls;
            objs[j] = p;
            if (p == nullptr) {
                ++w.nulls;
                continue;
            }
            stamp_object(p, base + j, kObject);
        }
        if (w.corrupt_next && objs[0] != nullptr) {
            stamp_object(objs[0], base ^ 0xdead, kObject);
            w.corrupt_next = false;
        }
        const std::size_t rot = req[0];
        for (std::size_t k = 0; k < kBurst; ++k) {
            const std::size_t j = (rot + k) % kBurst;
            void* p = objs[j];
            if (p == nullptr)
                continue;
            ++w.checks;
            if (read_stamp(p) != base + j)
                ++w.bad;
            call<kTraced>(w, "core.cache_free", &w.free_ns, Layer::kCore, [&] {
                a.cache_free(cache, p);
                return 0;
            });
            ++w.calls;
        }
        return true;
    }
};

// ---------------------------------------------------------------------
// rcu_table: kWorkers x 16384 RCU-published 192-B objects. Four of
// every five requests look up a Zipf-chosen slot of any owner; the
// fifth replaces one of the worker's own slots and defer-frees the old
// object. Readers check the key stamped at publish, so reuse before
// the grace period is visible from outside.
// ---------------------------------------------------------------------
struct Table
{
    struct Obj
    {
        std::uint64_t key;
        char payload[184];
    };
    static_assert(sizeof(Obj) == 192);

    static constexpr std::uint32_t kPerWorker = 16384;
    static constexpr std::uint32_t kSlots = kWorkers * kPerWorker;
    static constexpr std::uint32_t kUpdate = 1u << 31;
    static constexpr std::size_t kScript = std::size_t{1} << 17;
    static constexpr std::size_t kWarmup = 100000;
    static constexpr std::size_t kWordsPerRequest = 1;
    static constexpr double kZipfS = 0.99;

    Allocator& a;
    RcuDomain& rcu;
    CacheId cache;
    std::uint64_t seed;
    std::uint32_t corrupt_slot;
    std::unique_ptr<std::atomic<Obj*>[]> table;

    explicit Table(const Context& c)
        : a(c.alloc),
          rcu(c.rcu),
          cache(a.create_cache("allocbench_192", sizeof(Obj))),
          seed(c.seed),
          corrupt_slot(c.inject == Inject::kStamp ? c.hot[0] : kSlots),
          table(new std::atomic<Obj*>[kSlots])
    {
        for (std::uint32_t i = 0; i < kSlots; ++i)
            table[i].store(nullptr, std::memory_order_relaxed);
    }

    /// Zipf rank -> slot, so the hottest keys are spread over owners.
    static std::vector<std::uint32_t>
    rank_to_slot(std::uint64_t seed)
    {
        std::vector<std::uint32_t> perm(kSlots);
        for (std::uint32_t i = 0; i < kSlots; ++i)
            perm[i] = i;
        std::mt19937_64 rng(stream_seed(seed, kWorkers, 2));
        for (std::uint32_t i = kSlots - 1; i > 0; --i)
            std::swap(perm[i], perm[rng() % (i + 1)]);
        return perm;
    }

    static std::vector<std::uint32_t>
    script(std::uint64_t seed, unsigned worker,
           const prudence::ZipfSampler* zipf,
           const std::vector<std::uint32_t>& perm)
    {
        std::mt19937_64 rng(stream_seed(seed, worker, 1));
        std::vector<std::uint32_t> s(kScript);
        for (std::size_t i = 0; i < kScript; ++i) {
            if (i % 5 == 4) {
                s[i] = kUpdate |
                       (worker * kPerWorker +
                        static_cast<std::uint32_t>(rng() % kPerWorker));
            } else {
                s[i] = perm[zipf->sample(
                    prudence::ZipfSampler::unit_uniform(rng()))];
            }
        }
        return s;
    }

    std::uint64_t
    key(std::uint32_t slot) const
    {
        return stream_seed(seed, slot, 3) | 1;
    }

    void
    publish(Obj* p, std::uint32_t slot)
    {
        std::atomic_ref<std::uint64_t>(p->key).store(
            slot == corrupt_slot ? key(slot) ^ 2 : key(slot),
            std::memory_order_relaxed);
    }

    void
    populate(Worker& w)
    {
        for (std::uint32_t i = 0; i < kPerWorker; ++i) {
            const std::uint32_t slot = w.id * kPerWorker + i;
            auto* p = static_cast<Obj*>(a.cache_alloc(cache));
            ++w.calls;
            if (p == nullptr) {
                ++w.nulls;
                continue;
            }
            publish(p, slot);
            table[slot].store(p, std::memory_order_release);
        }
    }

    /// Runs after every worker has stopped reading.
    void
    teardown(Worker& w)
    {
        for (std::uint32_t i = 0; i < kPerWorker; ++i) {
            const std::uint32_t slot = w.id * kPerWorker + i;
            Obj* p = table[slot].exchange(nullptr,
                                          std::memory_order_acq_rel);
            if (p != nullptr) {
                a.cache_free(cache, p);
                ++w.calls;
            }
        }
    }

    template <bool kTraced>
    bool
    request(Worker& w, const std::uint32_t* req)
    {
        const std::uint32_t e = req[0];
        const std::uint32_t slot = e & ~kUpdate;
        if ((e & kUpdate) != 0) {
            if constexpr (kTraced)
                ++w.updates;
            auto* p = static_cast<Obj*>(
                call<kTraced>(w, "core.cache_alloc", &w.alloc_ns, Layer::kCore,
                              [&] { return a.cache_alloc(cache); }));
            ++w.calls;
            if (p == nullptr) {
                ++w.nulls;
                return true;
            }
            publish(p, slot);
            Obj* old = table[slot].exchange(p, std::memory_order_acq_rel);
            ++w.checks;
            if (old == nullptr ||
                std::atomic_ref<std::uint64_t>(old->key).load(
                    std::memory_order_relaxed) != key(slot))
                ++w.bad;
            if (old != nullptr) {
                call<kTraced>(w, "core.cache_free_deferred", &w.defer_ns,
                              Layer::kCore, [&] {
                                  a.cache_free_deferred(cache, old);
                                  return 0;
                              });
                ++w.calls;
            }
            return true;
        }
        if constexpr (kTraced)
            ++w.lookups;
        call<kTraced>(w, "rcu.read_lock", nullptr, Layer::kRcu, [&] {
            rcu.read_lock();
            return 0;
        });
        const std::uint64_t section_start = w.span_start;
        const Obj* p = table[slot].load(std::memory_order_acquire);
        const std::uint64_t k =
            p == nullptr ? 0
                         : std::atomic_ref<std::uint64_t>(
                               const_cast<std::uint64_t&>(p->key))
                               .load(std::memory_order_relaxed);
        call<kTraced>(w, "rcu.read_unlock", nullptr, Layer::kRcu, [&] {
            rcu.read_unlock();
            return 0;
        });
        if constexpr (kTraced)
            w.read_ns.record(w.span_end - section_start);
        ++w.calls;
        ++w.checks;
        if (k != key(slot))
            ++w.bad;
        return false;
    }
};

// ---------------------------------------------------------------------
// reclaim_wave: each worker owns 40k kmalloc objects spread evenly over
// six classes (64..2048 B), ~80 MiB live in total; every request
// replaces 16 random members and defer-frees the old ones. The live
// set dwarfs the per-CPU, depot and PCP caches, so slab node lists,
// latent merges, slab grows and the buddy layer do the work.
// ---------------------------------------------------------------------
struct Wave
{
    static constexpr std::uint32_t kMembers = 40000;
    static constexpr unsigned kClasses = 6;
    static constexpr std::size_t kReplace = 16;
    static constexpr std::size_t kScript = std::size_t{1} << 13;
    static constexpr std::size_t kWarmup = 5000;
    static constexpr std::size_t kWordsPerRequest = kReplace;

    struct Members
    {
        std::vector<void*> obj = std::vector<void*>(kMembers);
        std::vector<std::uint32_t> gen = std::vector<std::uint32_t>(kMembers);
    };

    Allocator& a;
    std::vector<Members> members = std::vector<Members>(kWorkers);

    explicit Wave(const Context& c) : a(c.alloc) {}

    static std::size_t
    size_of(std::uint32_t member)
    {
        return std::size_t{64} << (member % kClasses);
    }

    static std::uint64_t
    tag(unsigned worker, std::uint32_t member, std::uint32_t gen)
    {
        return (std::uint64_t{worker} << 60) |
               (std::uint64_t{member} << 32) | gen;
    }

    static std::vector<std::uint32_t>
    script(std::uint64_t seed, unsigned worker)
    {
        std::mt19937_64 rng(stream_seed(seed, worker, 4));
        std::vector<std::uint32_t> s(kScript * kReplace);
        for (auto& e : s)
            e = static_cast<std::uint32_t>(rng() % kMembers);
        return s;
    }

    void
    populate(Worker& w)
    {
        Members& m = members[w.id];
        for (std::uint32_t i = 0; i < kMembers; ++i) {
            void* p = a.kmalloc(size_of(i));
            ++w.calls;
            m.obj[i] = p;
            if (p == nullptr) {
                ++w.nulls;
                continue;
            }
            stamp_object(p, tag(w.id, i, 0), size_of(i));
        }
    }

    void
    teardown(Worker& w)
    {
        Members& m = members[w.id];
        for (std::uint32_t i = 0; i < kMembers; ++i) {
            void* p = m.obj[i];
            if (p == nullptr)
                continue;
            ++w.checks;
            if (read_stamp(p) != tag(w.id, i, m.gen[i]))
                ++w.bad;
            a.kfree(p);
            ++w.calls;
            m.obj[i] = nullptr;
        }
    }

    template <bool kTraced>
    bool
    request(Worker& w, const std::uint32_t* req)
    {
        Members& m = members[w.id];
        for (std::size_t k = 0; k < kReplace; ++k) {
            const std::uint32_t i = req[k];
            void* p = call<kTraced>(w, "core.kmalloc", &w.alloc_ns,
                                    Layer::kCore,
                                    [&] { return a.kmalloc(size_of(i)); });
            ++w.calls;
            if (p == nullptr) {
                ++w.nulls;
                continue;
            }
            void* old = m.obj[i];
            ++w.checks;
            if (old == nullptr || read_stamp(old) != tag(w.id, i, m.gen[i]))
                ++w.bad;
            stamp_object(p, tag(w.id, i, ++m.gen[i]), size_of(i));
            if (w.corrupt_next) {
                stamp_object(p, tag(w.id, i, m.gen[i] + 7), size_of(i));
                w.corrupt_next = false;
            }
            m.obj[i] = p;
            if (old != nullptr) {
                call<kTraced>(w, "core.kfree_deferred", &w.defer_ns,
                              Layer::kCore, [&] {
                                  a.kfree_deferred(old);
                                  return 0;
                              });
                ++w.calls;
            }
        }
        return true;
    }
};

/// Summed cache counters over every cache (kmalloc classes + named).
struct SlabTotals
{
    std::uint64_t alloc = 0, hits = 0, latent = 0, free = 0, deferred = 0,
                  refills = 0, flushes = 0, grows = 0, shrinks = 0,
                  pcpu_locks = 0, depot = 0, miss_cold = 0, miss_gp = 0;
    double slab_bytes = 0, live_bytes = 0;

    static SlabTotals
    of(const Allocator& a)
    {
        SlabTotals t;
        for (const auto& s : a.snapshots()) {
            t.alloc += s.alloc_calls;
            t.hits += s.cache_hits;
            t.latent += s.latent_merge_hits;
            t.free += s.free_calls;
            t.deferred += s.deferred_free_calls;
            t.refills += s.refills;
            t.flushes += s.flushes;
            t.grows += s.grows;
            t.shrinks += s.shrinks;
            t.pcpu_locks += s.pcpu_lock_acquisitions;
            t.depot += s.depot_exchanges;
            t.miss_cold += s.depot_miss_cold;
            t.miss_gp += s.depot_miss_gp_pending;
            t.slab_bytes += static_cast<double>(s.current_slabs) *
                            static_cast<double>(s.slab_bytes);
            t.live_bytes += static_cast<double>(s.live_objects) *
                            static_cast<double>(s.object_size);
        }
        return t;
    }
};

struct PhaseResult
{
    std::uint64_t start_ns = 0;
    double seconds = 0;
    std::uint64_t requests = 0;
    std::vector<double> window_seconds;
    std::vector<double> window_pages;  ///< mean pages in use per window
    double mean_pages = 0;             ///< over the whole phase
    std::vector<double> gp_ns;
    std::uint64_t gp_count = 0;
    SlabTotals slab0, slab1;
    prudence::BuddyStatsSnapshot page0, page1;
};

/// One set-up: RCU domain, allocator, workload state and workers. The
/// constructor returns when every worker has populated and warmed up.
template <class W>
class Instance
{
  public:
    enum class Phase
    {
        kUntraced,
        kTraced,
        kTeardown,
    };

    Instance(const Options& opt,
             const std::vector<std::vector<std::uint32_t>>& scripts,
             const std::vector<std::uint32_t>& hot)
        : opt_(opt),
          rcu_(std::make_unique<RcuDomain>()),
          alloc_(prudence::make_prudence_allocator(*rcu_)),
          wl_(Context{*alloc_, *rcu_, opt.seed, opt.inject, hot}),
          sync_(kWorkers + 1)
    {
        for (unsigned i = 0; i < kWorkers; ++i) {
            auto w = std::make_unique<Worker>();
            w->id = i;
            w->script = &scripts[i];
            w->corrupt_next = opt.inject == Inject::kStamp && i == 0;
            w->windows.resize(std::max<std::size_t>(
                1, static_cast<std::size_t>(opt.seconds / kWindowSeconds)));
            if (opt.trace)
                w->spans = SpanBuffer(kSpanCapacity);
            workers_.push_back(std::move(w));
        }
        for (unsigned i = 0; i < kWorkers; ++i)
            threads_.emplace_back([this, i] { worker_main(*workers_[i]); });
        sync_.arrive_and_wait();  // populated
        sync_.arrive_and_wait();  // warmed up
        ready_ns_ = now_ns();
    }

    ~Instance()
    {
        if (!threads_.empty())
            finish();
    }

    Instance(const Instance&) = delete;
    Instance& operator=(const Instance&) = delete;

    /// When set-up finished: every worker has populated and warmed up.
    std::uint64_t ready_ns() const { return ready_ns_; }

    /// Run one timed phase for @p seconds while sampling the page
    /// layer's in-use pages and the last grace-period duration. The
    /// untraced phase is cut into kWindowSeconds windows.
    PhaseResult
    run_phase(Phase phase, double seconds)
    {
        const std::size_t windows =
            phase == Phase::kUntraced ? workers_[0]->windows.size() : 1;
        PhaseResult r;
        r.slab0 = SlabTotals::of(*alloc_);
        r.page0 = alloc_->page_allocator().stats();
        const std::uint64_t gp0 = rcu_->stats().grace_periods;
        phase_ = phase;
        window_.store(0, std::memory_order_relaxed);
        stop_.store(false, std::memory_order_relaxed);
        std::uint64_t before = 0;
        for (const auto& w : workers_)
            before += w->requests + w->traced_requests;
        const std::uint64_t t0 = now_ns();
        r.start_ns = t0;
        sync_.arrive_and_wait();  // go
        const double window_ns = seconds * 1e9 / static_cast<double>(windows);
        std::uint64_t begin = t0;
        double all_pages = 0;
        std::uint64_t all_samples = 0;
        for (std::size_t i = 0; i < windows; ++i) {
            const std::uint64_t end =
                t0 + static_cast<std::uint64_t>(window_ns *
                                                static_cast<double>(i + 1));
            double pages = 0;
            std::uint64_t samples = 0;
            while (now_ns() < end) {
                std::this_thread::sleep_for(kSamplePeriod);
                pages += static_cast<double>(
                    alloc_->page_allocator().stats().pages_in_use);
                ++samples;
                r.gp_ns.push_back(
                    static_cast<double>(rcu_->stats().last_gp_ns));
            }
            const std::uint64_t now = now_ns();
            if (i + 1 < windows)
                window_.store(i + 1, std::memory_order_relaxed);
            else
                stop_.store(true, std::memory_order_relaxed);
            r.window_seconds.push_back(static_cast<double>(now - begin) / 1e9);
            r.window_pages.push_back(
                samples == 0 ? 0 : pages / static_cast<double>(samples));
            all_pages += pages;
            all_samples += samples;
            begin = now;
        }
        r.mean_pages =
            all_samples == 0 ? 0 : all_pages / static_cast<double>(all_samples);
        sync_.arrive_and_wait();  // every worker has stopped
        r.seconds = static_cast<double>(now_ns() - t0) / 1e9;
        for (const auto& w : workers_)
            r.requests += w->requests + w->traced_requests;
        r.requests -= before;
        r.gp_count = rcu_->stats().grace_periods - gp0;
        r.slab1 = SlabTotals::of(*alloc_);
        r.page1 = alloc_->page_allocator().stats();
        return r;
    }

    /// Stop the workers (each frees what it owns and drains its
    /// thread caches), quiesce, and check the allocator's accounting.
    /// @return the number of violated checks.
    std::uint64_t
    finish()
    {
        phase_ = Phase::kTeardown;
        sync_.arrive_and_wait();
        for (auto& t : threads_)
            t.join();
        threads_.clear();
        const std::uint64_t q0 = now_ns();
        alloc_->quiesce();
        quiesce_ms_ = static_cast<double>(now_ns() - q0) / 1e6;

        std::uint64_t violations = 0;
        auto fail = [&](const std::string& what) {
            std::fprintf(stderr, "allocbench: check failed: %s\n",
                         what.c_str());
            ++violations;
        };
        ++final_checks_;
        if (std::string v = alloc_->validate(); !v.empty())
            fail("validate: " + v);
        for (const auto& s : alloc_->snapshots()) {
            final_checks_ += 2;
            if (s.live_objects != 0)
                fail(s.cache_name + ": live_objects " +
                     std::to_string(s.live_objects));
            if (s.alloc_calls != s.free_calls + s.deferred_free_calls)
                fail(s.cache_name + ": alloc_calls " +
                     std::to_string(s.alloc_calls) + " != free " +
                     std::to_string(s.free_calls) + " + deferred " +
                     std::to_string(s.deferred_free_calls));
        }
        const auto b = alloc_->page_allocator().stats();
        ++final_checks_;
        if (b.free_pages + static_cast<std::size_t>(b.pcp_cached_pages) +
                static_cast<std::size_t>(b.pages_in_use) !=
            b.capacity_pages)
            fail("buddy: free + pcp_cached + in_use != capacity");
        if (leaked_ != nullptr)
            alloc_->kfree(leaked_);
        alloc_->drain_thread();
        return violations;
    }

    const std::vector<std::unique_ptr<Worker>>& workers() const
    {
        return workers_;
    }
    std::uint64_t final_checks() const { return final_checks_; }
    double quiesce_ms() const { return quiesce_ms_; }

  private:
    template <bool kTraced>
    void
    loop(Worker& w)
    {
        const std::vector<std::uint32_t>& s = *w.script;
        const std::size_t len = s.size() / W::kWordsPerRequest;
        const std::uint64_t begin = now_ns();
        while (!stop_.load(std::memory_order_relaxed)) {
            const std::uint32_t* req =
                s.data() + (w.next++ % len) * W::kWordsPerRequest;
            ++w.request;
            if constexpr (!kTraced) {
                Worker::Window& win =
                    w.windows[window_.load(std::memory_order_relaxed)];
                const std::uint64_t a = now_ns();
                const bool write = wl_.template request<false>(w, req);
                const std::uint64_t b = now_ns();
                (write ? win.write_lat : win.read_lat).record(b - a);
                ++win.requests;
                ++w.requests;
            } else {
                w.child_ns = 0;
                const std::uint64_t nulls = w.nulls;
                const std::uint64_t a = now_ns();
                const bool write = wl_.template request<true>(w, req);
                const std::uint64_t b = now_ns();
                w.spans.add(write ? "request.write" : "request.read", a, b,
                            w.request);
                w.self_ns.record(b - a - w.child_ns);
                w.self_total_ns += b - a - w.child_ns;
                w.traced_nulls += w.nulls - nulls;
                ++w.traced_requests;
            }
        }
        if constexpr (kTraced)
            w.loop_ns += now_ns() - begin;
    }

    void
    worker_main(Worker& w)
    {
        if (!opt_.cpus.empty())
            pin_self(opt_.cpus[w.id + 1]);
        wl_.populate(w);
        sync_.arrive_and_wait();  // every owner has published
        for (std::size_t i = 0; i < W::kWarmup; ++i) {
            const std::vector<std::uint32_t>& s = *w.script;
            const std::size_t len = s.size() / W::kWordsPerRequest;
            ++w.request;
            wl_.template request<false>(
                w, s.data() + (w.next++ % len) * W::kWordsPerRequest);
        }
        sync_.arrive_and_wait();  // set-up complete
        for (;;) {
            sync_.arrive_and_wait();  // phase chosen
            if (phase_ == Phase::kTeardown)
                break;
            if (phase_ == Phase::kTraced)
                loop<true>(w);
            else
                loop<false>(w);
            sync_.arrive_and_wait();  // phase done
        }
        // Every worker has stopped issuing requests: owned objects can
        // be freed immediately.
        wl_.teardown(w);
        if (opt_.inject == Inject::kLive && w.id == 0)
            leaked_ = alloc_->kmalloc(64);
        alloc_->drain_thread();
    }

    const Options& opt_;
    std::unique_ptr<RcuDomain> rcu_;
    std::unique_ptr<Allocator> alloc_;
    W wl_;
    std::barrier<> sync_;
    Phase phase_ = Phase::kUntraced;
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> window_{0};
    std::uint64_t ready_ns_ = 0;
    std::uint64_t final_checks_ = 0;
    double quiesce_ms_ = 0;
    void* leaked_ = nullptr;
    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;  // last: joined before the rest
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

class Json
{
  public:
    void
    metric(const char* name, double value, const char* unit)
    {
        char buf[256];
        std::snprintf(buf, sizeof buf,
                      "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                      body_.empty() ? "" : ", ", name, value, unit);
        body_ += buf;
    }
    const std::string& body() const { return body_; }

  private:
    std::string body_;
};

/// `"name": [v0, v1, ...]` with every digit kept.
std::string
json_list(const char* name, const std::vector<double>& values)
{
    std::string out = std::string("\"") + name + "\": [";
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%s%.17g", i == 0 ? "" : ", ",
                      values[i]);
        out += buf;
    }
    return out + "]";
}

template <class W>
int
run(const Options& opt)
{
    // Scripts are pure functions of the seed.
    std::unique_ptr<prudence::ZipfSampler> zipf;
    std::vector<std::uint32_t> hot;
    std::vector<std::vector<std::uint32_t>> scripts;
    std::vector<std::uint64_t> fps;
    if constexpr (std::is_same_v<W, Table>) {
        zipf = std::make_unique<prudence::ZipfSampler>(Table::kSlots,
                                                       Table::kZipfS);
        hot = Table::rank_to_slot(opt.seed);
    }
    for (unsigned i = 0; i < kWorkers; ++i) {
        if constexpr (std::is_same_v<W, Table>)
            scripts.push_back(W::script(opt.seed, i, zipf.get(), hot));
        else
            scripts.push_back(W::script(opt.seed, i));
        fps.push_back(fnv1a(scripts.back()));
    }
    const std::uint64_t fingerprint = prudence::combine_fingerprints(fps);

    Instance<W> inst(opt, scripts, hot);
    using Phase = typename Instance<W>::Phase;
    const double phase_s = opt.trace ? opt.seconds / 2 : opt.seconds;
    const PhaseResult plain = inst.run_phase(Phase::kUntraced, phase_s);
    PhaseResult traced;
    if (opt.trace)
        traced = inst.run_phase(Phase::kTraced, phase_s);
    std::uint64_t failed = inst.finish();
    std::uint64_t attempted = inst.final_checks();
    for (const auto& w : inst.workers()) {
        attempted += w->calls + w->checks;
        failed += w->nulls + w->bad;
    }

    // Per-window end-to-end figures; each metric is their median.
    std::vector<double> win_rps, win_w50, win_w99, win_r50, win_r99;
    Histogram write_lat, read_lat;
    for (std::size_t i = 0; i < plain.window_seconds.size(); ++i) {
        Histogram wr, rd;
        std::uint64_t n = 0;
        for (const auto& w : inst.workers()) {
            wr.merge(w->windows[i].write_lat);
            rd.merge(w->windows[i].read_lat);
            n += w->windows[i].requests;
        }
        win_rps.push_back(static_cast<double>(n) / plain.window_seconds[i]);
        win_w50.push_back(wr.quantile(0.5));
        win_w99.push_back(wr.quantile(0.99));
        win_r50.push_back(rd.quantile(0.5));
        win_r99.push_back(rd.quantile(0.99));
        write_lat.merge(wr);
        read_lat.merge(rd);
    }
    Histogram alloc_ns, free_ns, defer_ns, read_ns, self_ns;
    std::uint64_t lookups = 0, updates = 0, busy = 0, rcu_ns = 0,
                  self_total = 0, loop = 0, traced_nulls = 0, dropped = 0;
    std::vector<const SpanBuffer*> buffers;
    for (const auto& w : inst.workers()) {
        alloc_ns.merge(w->alloc_ns);
        free_ns.merge(w->free_ns);
        defer_ns.merge(w->defer_ns);
        read_ns.merge(w->read_ns);
        self_ns.merge(w->self_ns);
        lookups += w->lookups;
        updates += w->updates;
        busy += w->busy_ns;
        rcu_ns += w->rcu_ns;
        self_total += w->self_total_ns;
        loop += w->loop_ns;
        traced_nulls += w->traced_nulls;
        dropped += w->spans.dropped();
        buffers.push_back(&w->spans);
    }
    const double plain_rps =
        static_cast<double>(plain.requests) / plain.seconds;
    std::vector<double> win_mib;
    for (double pages : plain.window_pages)
        win_mib.push_back(pages * prudence::kPageSize / 1048576.0);

    std::printf("workload %s seed %" PRIu64 " workers %u fingerprint "
                "%016" PRIx64 " requests %" PRIu64 "\n",
                opt.workload.c_str(), opt.seed, kWorkers, fingerprint,
                plain.requests);
    std::printf("write latency: window-median p50 %.1f ns p99 %.1f ns; "
                "whole phase p999 %.1f ns (n=%" PRIu64 ")\n",
                median(win_w50), median(win_w99),
                write_lat.quantile(0.999), write_lat.count());
    if (read_lat.count() > 0)
        std::printf("read latency: window-median p50 %.1f ns p99 %.1f ns; "
                    "whole phase p999 %.1f ns (n=%" PRIu64 ")\n",
                    median(win_r50), median(win_r99),
                    read_lat.quantile(0.999), read_lat.count());
    std::printf("footprint MiB per window:");
    for (double v : win_mib)
        std::printf(" %.2f", v);
    std::printf("\nreq/s per window:");
    for (double v : win_rps)
        std::printf(" %.0f", v);
    std::printf("\n");
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("footprint: %.2f MiB time-mean of pages in use; "
                "peak RSS %.2f MiB\n",
                plain.mean_pages * prudence::kPageSize / 1048576.0,
                static_cast<double>(ru.ru_maxrss) / 1024.0);

    Json m;
    std::string windows;
    if (!opt.trace) {
        m.metric("setup_s",
                 static_cast<double>(inst.ready_ns() - opt.start_ns) / 1e9,
                 "s");
        m.metric("req_per_s", median(win_rps), "req/s");
        m.metric("write_p50_ns", median(win_w50), "ns");
        m.metric("write_p99_ns", median(win_w99), "ns");
        windows = ", \"windows\": {" + json_list("req_per_s", win_rps) +
                  ", " + json_list("write_p50_ns", win_w50) + ", " +
                  json_list("write_p99_ns", win_w99) + "}";
    } else {
        const SlabTotals& s0 = traced.slab0;
        const SlabTotals& s1 = traced.slab1;
        const auto& p0 = traced.page0;
        const auto& p1 = traced.page1;
        const double kop =
            static_cast<double>((s1.alloc - s0.alloc) + (s1.free - s0.free) +
                                (s1.deferred - s0.deferred)) /
            1000.0;
        auto per_kop = [&](std::uint64_t a, std::uint64_t b) {
            return ratio(static_cast<double>(b - a), kop);
        };
        const double allocs = static_cast<double>(s1.alloc - s0.alloc);
        const double frees = static_cast<double>((s1.free - s0.free) +
                                                 (s1.deferred - s0.deferred));
        const double pcp = static_cast<double>(
            (p1.pcp_hits - p0.pcp_hits) + (p1.pcp_misses - p0.pcp_misses));
        const double traced_rps =
            static_cast<double>(traced.requests) / traced.seconds;

        m.metric("core.alloc_ns_p50", alloc_ns.quantile(0.5), "ns");
        m.metric("core.alloc_ns_p99", alloc_ns.quantile(0.99), "ns");
        m.metric("core.free_ns_p50", free_ns.quantile(0.5), "ns");
        m.metric("core.free_ns_p99", free_ns.quantile(0.99), "ns");
        m.metric("core.defer_ns_p50", defer_ns.quantile(0.5), "ns");
        m.metric("core.defer_ns_p99", defer_ns.quantile(0.99), "ns");
        m.metric("core.busy_frac",
                 ratio(static_cast<double>(busy), static_cast<double>(loop)),
                 "ratio");
        m.metric("core.alloc_failed", static_cast<double>(traced_nulls),
                 "count");
        m.metric("core.quiesce_ms", inst.quiesce_ms(), "ms");
        m.metric("slab.hit_frac",
                 ratio(static_cast<double>(s1.hits - s0.hits), allocs),
                 "ratio");
        m.metric("slab.depot_exchanges_per_kop", per_kop(s0.depot, s1.depot),
                 "1/kop");
        m.metric("slab.pcpu_locks_per_kop",
                 per_kop(s0.pcpu_locks, s1.pcpu_locks), "1/kop");
        m.metric("slab.refills_per_kop", per_kop(s0.refills, s1.refills),
                 "1/kop");
        m.metric("slab.flushes_per_kop", per_kop(s0.flushes, s1.flushes),
                 "1/kop");
        m.metric("slab.depot_miss_gp_pending_per_kop",
                 per_kop(s0.miss_gp, s1.miss_gp), "1/kop");
        m.metric("slab.depot_miss_cold_per_kop",
                 per_kop(s0.miss_cold, s1.miss_cold), "1/kop");
        m.metric("slab.latent_hit_frac",
                 ratio(static_cast<double>(s1.latent - s0.latent), allocs),
                 "ratio");
        m.metric("slab.fragmentation", ratio(s1.slab_bytes, s1.live_bytes),
                 "ratio");
        m.metric("slab.grows_per_kop", per_kop(s0.grows, s1.grows), "1/kop");
        m.metric("slab.shrinks_per_kop", per_kop(s0.shrinks, s1.shrinks),
                 "1/kop");
        m.metric("slab.deferred_frac",
                 ratio(static_cast<double>(s1.deferred - s0.deferred), frees),
                 "ratio");
        m.metric("page.allocs_per_kop",
                 per_kop(p0.alloc_calls, p1.alloc_calls), "1/kop");
        m.metric("page.lock_acq_per_kop",
                 per_kop(p0.lock_acquisitions, p1.lock_acquisitions),
                 "1/kop");
        m.metric("page.pcp_hit_frac",
                 ratio(static_cast<double>(p1.pcp_hits - p0.pcp_hits), pcp),
                 "ratio");
        m.metric("page.split_merge_per_kop",
                 per_kop(p0.split_ops + p0.merge_ops,
                         p1.split_ops + p1.merge_ops),
                 "1/kop");
        m.metric("page.footprint_mib",
                 plain.mean_pages * prudence::kPageSize / 1048576.0, "MiB");
        m.metric("page.peak_mib",
                 static_cast<double>(p1.peak_pages_in_use) *
                     prudence::kPageSize / 1048576.0,
                 "MiB");
        m.metric("page.failed_allocs",
                 static_cast<double>(p1.failed_allocs - p0.failed_allocs),
                 "count");
        m.metric("rcu.read_ns_p50", read_ns.quantile(0.5), "ns");
        m.metric("rcu.read_ns_p99", read_ns.quantile(0.99), "ns");
        m.metric("rcu.gp_per_s",
                 static_cast<double>(traced.gp_count) / traced.seconds, "1/s");
        m.metric("rcu.gp_us_p50", median(traced.gp_ns) / 1e3, "us");
        m.metric("rcu.lookups_per_update",
                 ratio(static_cast<double>(lookups),
                       static_cast<double>(updates)),
                 "ratio");
        m.metric("bench.self_ns_p50", self_ns.quantile(0.5), "ns");
        m.metric("bench.trace_overhead_frac", 1.0 - traced_rps / plain_rps,
                 "ratio");
        const double n = static_cast<double>(traced.requests);
        std::printf("traced: %.1f req/s vs untraced %.1f req/s "
                    "(overhead %.3f)\n",
                    traced_rps, plain_rps, 1.0 - traced_rps / plain_rps);
        std::printf("self time per request: core %.1f ns, rcu %.1f ns, "
                    "bench %.1f ns\n",
                    ratio(static_cast<double>(busy), n),
                    ratio(static_cast<double>(rcu_ns), n),
                    ratio(static_cast<double>(self_total), n));
        std::printf("spans kept %zu per worker at most, %" PRIu64
                    " dropped past the buffers\n",
                    kSpanCapacity, dropped);
        if (!opt.trace_out.empty() &&
            !write_chrome_trace(opt.trace_out, buffers, traced.start_ns)) {
            std::fprintf(stderr, "allocbench: cannot write %s\n",
                         opt.trace_out.c_str());
            ++failed;
        }
    }

    const bool correct = failed == 0;
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {%s}%s}\n",
                correct ? "true" : "false", attempted, failed,
                m.body().c_str(), windows.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "allocbench: %s\nusage: allocbench --workload "
                 "exchange|rcu_table|reclaim_wave --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE] "
                 "[--inject live|stamp]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parse_u64(const char* s, const char* what)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0' || *s == '-')
        usage(what);
    return v;
}

Options
parse(int argc, char** argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + k).c_str());
        const char* v = argv[++i];
        if (k == "--workload") {
            o.workload = v;
        } else if (k == "--seed") {
            o.seed = parse_u64(v, "bad --seed");
            have_seed = true;
        } else if (k == "--seconds") {
            const std::uint64_t s = parse_u64(v, "bad --seconds");
            if (s < 1 || s > 120)
                usage("--seconds must be in [1, 120]");
            o.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (k == "--trace") {
            const std::uint64_t t = parse_u64(v, "bad --trace");
            if (t > 1)
                usage("--trace must be 0 or 1");
            o.trace = t == 1;
            have_trace = true;
        } else if (k == "--trace-out") {
            o.trace_out = v;
        } else if (k == "--inject") {
            const std::string s = v;
            if (s == "live")
                o.inject = Inject::kLive;
            else if (s == "stamp")
                o.inject = Inject::kStamp;
            else
                usage("--inject must be live or stamp");
        } else {
            usage(("unknown argument " + k).c_str());
        }
    }
    if (o.workload.empty() || !have_seed || !have_seconds || !have_trace)
        usage("--workload, --seed, --seconds and --trace are required");
    return o;
}

}  // namespace
}  // namespace allocbench

int
main(int argc, char** argv)
{
    using namespace allocbench;
    const std::uint64_t start = now_ns();
    Options opt = parse(argc, argv);
    opt.start_ns = start;
    opt.cpus = placement();
    if (opt.workload == "exchange")
        return run<Exchange>(opt);
    if (opt.workload == "rcu_table")
        return run<Table>(opt);
    if (opt.workload == "reclaim_wave")
        return run<Wave>(opt);
    usage(("unknown workload " + opt.workload).c_str());
}
