/**
 * @file
 * §3.3 cost-table reproduction: the relative cost of the three
 * allocation paths. Paper: "the object allocation cost, compared to
 * cache hit, is 4x expensive if it involves object cache refill and
 * 14x expensive if it involves slab cache grow operation."
 *
 * Method: time batches of allocations in three prepared allocator
 * states and separate the slow-path cost using the refill/grow
 * counters (the baseline allocator on a manual grace-period domain,
 * one virtual CPU — no concurrency noise):
 *
 *   hit     — steady alloc/free pairs served from the object cache;
 *   refill  — allocations against partial slabs (no growth);
 *   grow    — allocations against an empty cache (every refill grows).
 */
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "api/allocator_factory.h"
#include "bench_common.h"
#include "rcu/manual_domain.h"
#include "slab/geometry.h"

namespace {

using namespace prudence;

constexpr std::size_t kObjectSize = 512;
constexpr std::size_t kBatch = 200000;

std::unique_ptr<Allocator>
make_alloc(ManualRcuDomain& domain)
{
    SlubConfig cfg;
    cfg.arena_bytes = std::size_t{1} << 30;
    cfg.cpus = 1;
    cfg.callback.background_drainer = false;
    cfg.callback.inline_batch_limit = 0;
    cfg.magazine_capacity = prudence_bench::magazine_capacity_env(
        cfg.magazine_capacity);
    return make_slub_allocator(domain, cfg);
}

struct PathCosts
{
    double hit_ns = 0.0;
    double refill_ns = 0.0;
    double grow_ns = 0.0;
    /// Mean per-allocation cost in each prepared state (the paper's
    /// framing: "the object allocation cost, compared to cache hit").
    double refill_state_mean_ns = 0.0;
    double grow_state_mean_ns = 0.0;
};

/// Time @p n allocations; return (seconds, refills, grows, hits).
struct Measured
{
    double seconds;
    std::uint64_t refills;
    std::uint64_t grows;
    std::uint64_t hits;
    std::vector<void*> objs;
};

Measured
measure_allocs(Allocator& alloc, CacheId id, std::size_t n)
{
    Measured m{};
    m.objs.reserve(n);
    auto before = alloc.cache_snapshot(id);
    auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < n; ++i) {
        void* p = alloc.cache_alloc(id);
        benchmark::DoNotOptimize(p);
        m.objs.push_back(p);
    }
    m.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    auto after = alloc.cache_snapshot(id);
    m.refills = after.refills - before.refills;
    m.grows = after.grows - before.grows;
    m.hits = after.cache_hits - before.cache_hits;
    return m;
}

PathCosts
measure_paths()
{
    PathCosts costs;

    // --- hit: steady-state alloc/free pairs. The free side of the
    // pair is symmetric cache work, so half the pair approximates the
    // allocation. ---
    {
        ManualRcuDomain domain;
        auto alloc = make_alloc(domain);
        CacheId id = alloc->create_cache("hit", kObjectSize);
        // Warm the cache.
        void* warm = alloc->cache_alloc(id);
        alloc->cache_free(id, warm);
        auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < kBatch; ++i) {
            void* p = alloc->cache_alloc(id);
            benchmark::DoNotOptimize(p);
            alloc->cache_free(id, p);
        }
        double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        costs.hit_ns = seconds * 1e9 / static_cast<double>(kBatch) / 2;
    }

    // --- refill: plenty of partial slabs, no growth needed. Keep
    // half of a large population live so freed slabs stay partial
    // rather than draining to the free list. ---
    {
        ManualRcuDomain domain;
        auto alloc = make_alloc(domain);
        CacheId id = alloc->create_cache("refill", kObjectSize);
        std::vector<void*> anchor, returned;
        for (std::size_t i = 0; i < kBatch * 2; ++i) {
            void* p = alloc->cache_alloc(id);
            (i % 2 == 0 ? anchor : returned).push_back(p);
        }
        for (void* p : returned)
            alloc->cache_free(id, p);

        Measured m = measure_allocs(*alloc, id, kBatch);
        double slow = m.seconds * 1e9 -
                      static_cast<double>(m.hits) * costs.hit_ns;
        costs.refill_ns =
            m.refills > 0 ? slow / static_cast<double>(m.refills)
                          : 0.0;
        costs.refill_state_mean_ns =
            m.seconds * 1e9 / static_cast<double>(kBatch);
        std::printf("# refill state: refills=%llu grows=%llu "
                    "hits=%llu\n",
                    static_cast<unsigned long long>(m.refills),
                    static_cast<unsigned long long>(m.grows),
                    static_cast<unsigned long long>(m.hits));
    }

    // --- grow: empty allocator, every refill must grow the slab
    // cache from the page allocator. ---
    {
        ManualRcuDomain domain;
        auto alloc = make_alloc(domain);
        CacheId id = alloc->create_cache("grow", kObjectSize);
        Measured m = measure_allocs(*alloc, id, kBatch);
        double slow = m.seconds * 1e9 -
                      static_cast<double>(m.hits) * costs.hit_ns;
        costs.grow_ns =
            m.refills > 0 ? slow / static_cast<double>(m.refills)
                          : 0.0;
        costs.grow_state_mean_ns =
            m.seconds * 1e9 / static_cast<double>(kBatch);
        std::printf("# grow state: refills=%llu grows=%llu "
                    "hits=%llu\n",
                    static_cast<unsigned long long>(m.refills),
                    static_cast<unsigned long long>(m.grows),
                    static_cast<unsigned long long>(m.hits));
    }
    return costs;
}

/// google-benchmark wrappers so the three paths also appear in the
/// standard benchmark output (ns per allocation, amortized).
void
BM_AllocPath_Hit(benchmark::State& state)
{
    ManualRcuDomain domain;
    auto alloc = make_alloc(domain);
    CacheId id = alloc->create_cache("bm_hit", kObjectSize);
    for (auto _ : state) {
        void* p = alloc->cache_alloc(id);
        benchmark::DoNotOptimize(p);
        alloc->cache_free(id, p);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocPath_Hit);

void
BM_AllocPath_GrowHeavy(benchmark::State& state)
{
    ManualRcuDomain domain;
    auto alloc = make_alloc(domain);
    CacheId id = alloc->create_cache("bm_grow", kObjectSize);
    std::vector<void*> objs;
    objs.reserve(1 << 20);
    for (auto _ : state) {
        void* p = alloc->cache_alloc(id);
        benchmark::DoNotOptimize(p);
        if (p != nullptr)
            objs.push_back(p);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AllocPath_GrowHeavy)->Iterations(200000);

}  // namespace

int
main(int argc, char** argv)
{
    prudence_bench::TelemetrySession telemetry_session(argc, argv);
    std::printf("# Table (paper §3.3): allocation-path cost relative "
                "to an object-cache hit\n");
    std::printf("# Paper reports: refill ~4x, grow ~14x\n");
    PathCosts costs = measure_paths();
    std::printf("\nmean allocation cost by state (paper's framing; "
                "batch effects amortized):\n");
    std::printf("%-28s %12s %10s\n", "state", "ns/alloc", "vs hit");
    std::printf("%-28s %12.1f %9.1fx\n", "object-cache hit",
                costs.hit_ns, 1.0);
    std::printf("%-28s %12.1f %9.1fx\n",
                "refilling from slabs", costs.refill_state_mean_ns,
                costs.hit_ns > 0
                    ? costs.refill_state_mean_ns / costs.hit_ns
                    : 0.0);
    std::printf("%-28s %12.1f %9.1fx\n", "refilling with slab grow",
                costs.grow_state_mean_ns,
                costs.hit_ns > 0
                    ? costs.grow_state_mean_ns / costs.hit_ns
                    : 0.0);
    std::printf("\nisolated slow-path operation cost (one refill "
                "moves a %zu-object batch):\n",
                compute_slab_geometry(kObjectSize).refill_target);
    std::printf("%-28s %12s %10s\n", "operation", "ns/op", "vs hit");
    std::printf("%-28s %12.1f %9.1fx\n", "object-cache refill",
                costs.refill_ns,
                costs.hit_ns > 0 ? costs.refill_ns / costs.hit_ns
                                 : 0.0);
    std::printf("%-28s %12.1f %9.1fx\n", "refill with slab grow",
                costs.grow_ns,
                costs.hit_ns > 0 ? costs.grow_ns / costs.hit_ns : 0.0);

    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
