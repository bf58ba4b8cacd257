/**
 * @file
 * Figure 15 (repo-local experiment): per-CPU slab-lock contention
 * under multi-threaded object churn through the lock-free magazine
 * depot (DESIGN.md §14).
 *
 * The fig14 story one layer up: the magazine boundary — refill, flush
 * and deferral spill — exchanges whole blocks with the depot by one
 * CAS, so the per-CPU spinlock is left to the depot's fallbacks
 * (budget exhausted, deferred half-cap reached, prefill refused) and
 * should all but vanish from the hot path.
 *
 * N threads churn cache_alloc / cache_free / cache_free_deferred over
 * a shared cache (bursts that cross magazine boundaries, the pattern
 * that forces exchanges), and the bench reports per thread count and
 * per mix (std: 25% deferred, heavy: 75% deferred):
 *
 *   ns_per_op    wall time per operation, per thread
 *   lock_per_op  per-CPU spinlock acquisitions per operation
 *   depot_per_op depot CAS exchanges per operation
 *
 * The CI gate: lock_per_op of the std mix at 8 threads stays under
 * bench/results/fig15_lock_per_op_threshold.txt.
 *
 * Environment: PRUDENCE_MAGAZINE_CAPACITY overrides the magazine
 * depth (default 32; 0 is replaced by 32, the depot needs magazines).
 */
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "core/prudence_allocator.h"
#include "rcu/rcu_domain.h"

namespace {

using namespace prudence;

struct RunResult
{
    double ns_per_op = 0.0;
    double lock_per_op = 0.0;
    double depot_per_op = 0.0;
    // Attributed residual-miss counters (raw sums over caches).
    std::uint64_t miss_cold = 0;
    std::uint64_t miss_gp_pending = 0;
    std::uint64_t prefills = 0;
    std::uint64_t claim_hits = 0;
};

/// One churn run: @p threads workers, each performing @p ops
/// operations (alloc-burst / free-burst / defer mix) against a fresh
/// allocator. @p defer_heavy inverts the defer mix (75% deferred
/// instead of 25%) — the regime where refills race the prudence
/// window and the full stack starves behind open grace periods.
RunResult
run_churn(unsigned threads, std::size_t ops, std::size_t magazines,
          bool defer_heavy)
{
    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds{200};
    RcuDomain rcu(rcfg);

    PrudenceConfig cfg;
    cfg.arena_bytes = std::size_t{256} << 20;
    cfg.cpus = threads;
    cfg.magazine_capacity = magazines;
    PrudenceAllocator alloc(rcu, cfg);
    CacheId cache = alloc.create_cache("fig15.obj", 128);

    std::atomic<bool> go{false};
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&alloc, &go, cache, ops, t,
                              defer_heavy] {
            while (!go.load(std::memory_order_acquire)) {
            }
            // Bursts sized past the magazine capacity so every round
            // crosses a refill/flush boundary — the exchange paths
            // are the contended ones, not the in-magazine hits.
            constexpr std::size_t kBurst = 48;
            void* held[kBurst] = {};
            std::size_t done = 0;
            unsigned state = t * 2654435761u + 1;
            while (done < ops) {
                for (std::size_t i = 0; i < kBurst && done < ops;
                     ++i, ++done) {
                    held[i] = alloc.cache_alloc(cache);
                    if (held[i] != nullptr)
                        std::memset(held[i], static_cast<int>(t), 8);
                }
                for (std::size_t i = 0; i < kBurst && done < ops;
                     ++i, ++done) {
                    if (held[i] == nullptr)
                        continue;
                    state = state * 1664525u + 1013904223u;
                    bool defer = ((state >> 16) % 4 == 0) != defer_heavy;
                    if (defer)
                        alloc.cache_free_deferred(cache, held[i]);
                    else
                        alloc.cache_free(cache, held[i]);
                    held[i] = nullptr;
                }
            }
            for (void* p : held) {
                if (p != nullptr)
                    alloc.cache_free(cache, p);
            }
            alloc.drain_thread();
        });
    }

    auto t0 = std::chrono::steady_clock::now();
    go.store(true, std::memory_order_release);
    for (auto& w : workers)
        w.join();
    auto t1 = std::chrono::steady_clock::now();

    alloc.quiesce();
    std::uint64_t locks = 0, exchanges = 0;
    RunResult r;
    for (const auto& s : alloc.snapshots()) {
        locks += s.pcpu_lock_acquisitions;
        exchanges += s.depot_exchanges;
        r.miss_cold += s.depot_miss_cold;
        r.miss_gp_pending += s.depot_miss_gp_pending;
        r.prefills += s.depot_prefills;
        r.claim_hits += s.depot_claim_hits;
    }

    double total_ops = static_cast<double>(ops) * threads;
    double wall_ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());
    r.ns_per_op = wall_ns * threads / total_ops;
    r.lock_per_op = static_cast<double>(locks) / total_ops;
    r.depot_per_op = static_cast<double>(exchanges) / total_ops;
    return r;
}

}  // namespace

int
main(int argc, char** argv)
{
    prudence_bench::TraceSession trace_session(argc, argv);
    prudence_bench::TelemetrySession telemetry_session(argc, argv);
    double scale = prudence_bench::run_scale(argc, argv);
    std::size_t magazines = prudence_bench::magazine_capacity_env(32);
    if (magazines == 0)
        magazines = 32;  // the depot rides the magazine layer

    auto ops = static_cast<std::size_t>(400000.0 * scale);
    if (ops < 2000)
        ops = 2000;

    std::printf("# Figure 15: per-CPU slab-lock contention through the "
                "magazine depot\n");
    std::printf("# %zu ops per thread, 128 B objects, magazine "
                "capacity %zu\n",
                ops, magazines);
    std::printf("%-8s %-9s %12s %14s %14s\n", "threads", "mix",
                "ns_per_op", "lock_per_op", "depot_per_op");

    // The std mix at every thread count, then the deferred-heavy mix
    // (75% cache_free_deferred) at 1 and 8 threads.
    RunResult std8, heavy8;
    for (bool heavy : {false, true}) {
        for (unsigned threads : {1u, 2u, 4u, 8u}) {
            if (heavy && (threads == 2 || threads == 4))
                continue;
            RunResult r = run_churn(threads, ops, magazines, heavy);
            std::printf("%-8u %-9s %12.1f %14.4f %14.4f\n", threads,
                        heavy ? "heavy" : "std", r.ns_per_op,
                        r.lock_per_op, r.depot_per_op);
            if (threads == 8)
                (heavy ? heavy8 : std8) = r;
        }
    }

    for (bool heavy : {false, true}) {
        const RunResult& r = heavy ? heavy8 : std8;
        std::printf("# 8 threads %s: miss_cold=%llu miss_gp_pending=%llu "
                    "prefills=%llu claim_hits=%llu\n",
                    heavy ? "heavy" : "std",
                    static_cast<unsigned long long>(r.miss_cold),
                    static_cast<unsigned long long>(r.miss_gp_pending),
                    static_cast<unsigned long long>(r.prefills),
                    static_cast<unsigned long long>(r.claim_hits));
    }
    return 0;
}
