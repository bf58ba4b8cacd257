/**
 * @file
 * Tests for the lock-free per-CPU layer (DESIGN.md §14): the tagged
 * Treiber block stack, the bounded MPMC ring, and the magazine depot
 * wired into the Prudence allocator — CAS exactness, ABA-via-epochs
 * (reuse blocked until the grace period), parity with the per-op
 * (magazines off) path, the near-zero lock-acquisition property, the
 * ripe-block sweeps, the deferred half-cap overflow onto the latent
 * path, the trim_depot actuator, the depot occupancy probes, and the
 * deliberately broken unprotected depot pop that the model checker
 * must catch.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>
#include <vector>

#include "core/prudence_allocator.h"
#include "rcu/manual_domain.h"
#include "rcu/rcu_domain.h"
#include "slab/geometry.h"
#include "slab/magazine_depot.h"
#include "sync/lockfree_ring.h"
#include "sync/lockfree_stack.h"

#if defined(PRUDENCE_SIM_ENABLED)
#include "sim/ref_model.h"
#include "sim/sim.h"
#endif

#if defined(PRUDENCE_TELEMETRY_ENABLED)
#include "telemetry/monitor.h"
#endif

namespace prudence {
namespace {

// ---------------------------------------------------------------------
// LockFreeBlockStack: CAS exactness.
// ---------------------------------------------------------------------

struct Node
{
    LockFreeBlockStack::Hook hook;
    int id = 0;
};

TEST(LockFreeStack, LifoOrderAndCountSingleThread)
{
    LockFreeBlockStack st;
    EXPECT_TRUE(st.empty());
    EXPECT_EQ(st.pop(), nullptr);

    constexpr int kN = 64;
    std::vector<Node> nodes(kN);
    for (int i = 0; i < kN; ++i) {
        nodes[i].id = i;
        st.push(&nodes[i].hook);
        EXPECT_EQ(st.count(), static_cast<std::size_t>(i + 1));
    }
    EXPECT_FALSE(st.empty());

    for (int i = kN - 1; i >= 0; --i) {
        auto* h = st.pop();
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(reinterpret_cast<Node*>(h)->id, i) << "not LIFO";
    }
    EXPECT_TRUE(st.empty());
    EXPECT_EQ(st.count(), 0u);
    EXPECT_EQ(st.pop(), nullptr);
}

TEST(LockFreeStack, EveryBlockTransfersExactlyOnceUnderContention)
{
    // Type-stable arena, N pushers racing N poppers: every node must
    // come out exactly once, nothing lost, nothing duplicated.
    constexpr int kThreads = 4;
    constexpr int kPerThread = 5000;
    constexpr int kTotal = kThreads * kPerThread;

    LockFreeBlockStack st;
    std::vector<Node> nodes(kTotal);
    for (int i = 0; i < kTotal; ++i)
        nodes[i].id = i;

    std::vector<std::atomic<int>> popped(kTotal);
    for (auto& f : popped)
        f.store(0, std::memory_order_relaxed);
    std::atomic<int> total_popped{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                st.push(&nodes[t * kPerThread + i].hook);
        });
        threads.emplace_back([&] {
            while (total_popped.load(std::memory_order_relaxed) <
                   kTotal) {
                auto* h = st.pop();
                if (h == nullptr) {
                    std::this_thread::yield();
                    continue;
                }
                int id = reinterpret_cast<Node*>(h)->id;
                EXPECT_EQ(popped[id].fetch_add(1), 0)
                        << "node popped twice";
                total_popped.fetch_add(1);
            }
        });
    }
    for (auto& th : threads)
        th.join();

    EXPECT_EQ(total_popped.load(), kTotal);
    EXPECT_TRUE(st.empty());
    EXPECT_EQ(st.count(), 0u);
    for (int i = 0; i < kTotal; ++i)
        EXPECT_EQ(popped[i].load(), 1) << "node " << i << " lost";
}

TEST(LockFreeStack, RecycledBlocksStayExact)
{
    // Blocks cycling push→pop→push (the depot's empty-stack pattern,
    // the fast half of the ABA window): a small arena recycled many
    // times must never lose or duplicate a node.
    constexpr int kArena = 8;
    constexpr int kIters = 20000;
    LockFreeBlockStack st;
    std::vector<Node> nodes(kArena);
    for (auto& n : nodes)
        st.push(&n.hook);

    std::atomic<int> held{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIters; ++i) {
                auto* h = st.pop();
                if (h == nullptr)
                    continue;
                held.fetch_add(1);
                held.fetch_sub(1);
                st.push(h);
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(st.count(), static_cast<std::size_t>(kArena));
    std::set<LockFreeBlockStack::Hook*> seen;
    while (auto* h = st.pop())
        EXPECT_TRUE(seen.insert(h).second) << "duplicate block";
    EXPECT_EQ(seen.size(), static_cast<std::size_t>(kArena));
}

// ---------------------------------------------------------------------
// LockFreeRing: bounded MPMC exactness.
// ---------------------------------------------------------------------

TEST(LockFreeRing, FifoOrderCapacityAndFullEmpty)
{
    LockFreeRing ring(6);  // rounds up to 8
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(ring.pop(), nullptr);

    int payload[8];
    for (int i = 0; i < 8; ++i)
        EXPECT_TRUE(ring.push(&payload[i]));
    EXPECT_FALSE(ring.push(&payload[0])) << "push into a full ring";
    EXPECT_EQ(ring.count(), 8u);

    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(ring.pop(), &payload[i]) << "not FIFO";
    EXPECT_EQ(ring.pop(), nullptr);
    EXPECT_EQ(ring.count(), 0u);
}

TEST(LockFreeRing, MpmcTokensTransferExactlyOnce)
{
    constexpr int kProducers = 4;
    constexpr int kConsumers = 4;
    constexpr int kPerProducer = 10000;
    constexpr int kTotal = kProducers * kPerProducer;

    LockFreeRing ring(64);
    std::vector<int> tokens(kTotal);
    std::vector<std::atomic<int>> seen(kTotal);
    for (auto& f : seen)
        f.store(0, std::memory_order_relaxed);
    std::atomic<int> consumed{0};

    std::vector<std::thread> threads;
    for (int t = 0; t < kProducers; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerProducer; ++i) {
                int idx = t * kPerProducer + i;
                tokens[idx] = idx;
                while (!ring.push(&tokens[idx]))
                    std::this_thread::yield();
            }
        });
    }
    for (int t = 0; t < kConsumers; ++t) {
        threads.emplace_back([&] {
            while (consumed.load(std::memory_order_relaxed) < kTotal) {
                void* p = ring.pop();
                if (p == nullptr) {
                    std::this_thread::yield();
                    continue;
                }
                int idx = *static_cast<int*>(p);
                EXPECT_EQ(seen[idx].fetch_add(1), 0)
                        << "token consumed twice";
                consumed.fetch_add(1);
            }
        });
    }
    for (auto& th : threads)
        th.join();
    EXPECT_EQ(consumed.load(), kTotal);
    EXPECT_EQ(ring.count(), 0u);
    for (int i = 0; i < kTotal; ++i)
        EXPECT_EQ(seen[i].load(), 1) << "token " << i << " lost";
}

// ---------------------------------------------------------------------
// Depot wired into the allocator.
// ---------------------------------------------------------------------

/// Deterministic setup: one virtual CPU, no background maintenance.
/// magazine_capacity = 0 is the per-op path, where the depot is inert.
PrudenceConfig
depot_config(std::size_t magazine_capacity = 8)
{
    PrudenceConfig cfg;
    cfg.arena_bytes = 64 << 20;
    cfg.cpus = 1;
    cfg.maintenance_interval = std::chrono::microseconds{0};
    cfg.magazine_capacity = magazine_capacity;
    return cfg;
}

std::uint64_t
total_lock_acquisitions(const Allocator& alloc)
{
    std::uint64_t total = 0;
    for (const auto& s : alloc.snapshots())
        total += s.pcpu_lock_acquisitions;
    return total;
}

std::uint64_t
total_depot_exchanges(const Allocator& alloc)
{
    std::uint64_t total = 0;
    for (const auto& s : alloc.snapshots())
        total += s.depot_exchanges;
    return total;
}

TEST(Depot, AbaRegressionReuseBlockedUntilGracePeriod)
{
    // The depot's ABA protection is the epoch machinery: a deferred
    // block must not re-enter circulation until its stamped grace
    // period completes, no matter how many allocs hammer the pop
    // path in between.
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, depot_config());
    CacheId id = alloc.create_cache("aba", 64);

    std::set<void*> deferred;
    for (int i = 0; i < 32; ++i) {
        void* p = alloc.cache_alloc(id);
        ASSERT_NE(p, nullptr);
        deferred.insert(p);
    }
    for (void* p : deferred)
        alloc.cache_free_deferred(id, p);
    alloc.drain_thread();  // spill the defer buffers into the depot
    ASSERT_GT(alloc.depot_deferred_objects(), 0u)
            << "workload never reached the depot deferred stack";

    // Grace period still open: none of the deferred objects may come
    // back, however hard we hit the allocation path.
    std::vector<void*> fresh;
    for (int i = 0; i < 256; ++i) {
        void* q = alloc.cache_alloc(id);
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(deferred.count(q), 0u)
                << "deferred object reused inside its grace period";
        fresh.push_back(q);
    }
    for (void* q : fresh)
        alloc.cache_free(id, q);

    // Grace period closes: the deferred blocks become harvestable and
    // the allocator must eventually recycle them.
    domain.advance();
    domain.advance();
    std::size_t reused = 0;
    std::vector<void*> after;
    for (int i = 0; i < 512; ++i) {
        void* q = alloc.cache_alloc(id);
        ASSERT_NE(q, nullptr);
        reused += deferred.count(q);
        after.push_back(q);
    }
    EXPECT_GT(reused, 0u) << "deferred objects never recycled";
    for (void* q : after)
        alloc.cache_free(id, q);
    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
}

TEST(Depot, ToggleOffParityOnIdenticalWorkload)
{
    // The same deterministic workload with magazines on (depot path)
    // and off (per-op path) must agree on every externally visible
    // property; with magazines off the depot stays inert.
    auto run = [](std::size_t magazines) -> std::uint64_t {
        ManualRcuDomain domain;
        PrudenceAllocator alloc(domain, depot_config(magazines));
        CacheId id = alloc.create_cache("parity", 96);
        std::vector<void*> pool;
        for (int round = 0; round < 50; ++round) {
            for (int i = 0; i < 20; ++i) {
                void* p = alloc.cache_alloc(id);
                if (p == nullptr) {
                    ADD_FAILURE() << "alloc failed";
                    return 0;
                }
                std::memset(p, 0x3C, 96);
                pool.push_back(p);
            }
            for (int i = 0; i < 10; ++i) {
                alloc.cache_free(id, pool.back());
                pool.pop_back();
            }
            for (int i = 0; i < 5; ++i) {
                alloc.cache_free_deferred(id, pool.back());
                pool.pop_back();
            }
            if (round % 8 == 0) {
                domain.advance();
                alloc.maintenance_pass();
            }
        }
        CacheStatsSnapshot mid = alloc.cache_snapshot(id);
        EXPECT_EQ(mid.live_objects,
                  static_cast<std::int64_t>(pool.size()));
        for (void* p : pool)
            alloc.cache_free(id, p);
        domain.advance();
        alloc.quiesce();
        EXPECT_EQ(alloc.validate(), "");
        CacheStatsSnapshot s = alloc.cache_snapshot(id);
        EXPECT_EQ(s.live_objects, 0);
        EXPECT_EQ(s.deferred_outstanding, 0);
        if (magazines == 0) {
            EXPECT_EQ(total_depot_exchanges(alloc), 0u)
                    << "per-op path touched the depot";
            EXPECT_EQ(alloc.depot_full_objects(), 0u);
            EXPECT_EQ(alloc.depot_deferred_objects(), 0u);
            EXPECT_EQ(alloc.depot_blocks_created(), 0u);
        }
        return s.alloc_calls;
    };
    std::uint64_t on = run(8);
    std::uint64_t off = run(0);
    EXPECT_EQ(on, off) << "legs diverged on op count";
}

TEST(Depot, LockFreeLegTakesAlmostNoPerCpuLocks)
{
    // The tentpole property: steady-state alloc/free churn must not
    // touch the per-CPU spinlocks (only the depot's fallbacks may).
    // Every depot exchange stands in for one locked splice.
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, depot_config());
    CacheId id = alloc.create_cache("locks", 64);
    // Warm up: populate magazines and the depot.
    std::vector<void*> warm;
    for (int i = 0; i < 512; ++i)
        warm.push_back(alloc.cache_alloc(id));
    for (void* p : warm)
        alloc.cache_free(id, p);
    std::uint64_t locks0 = total_lock_acquisitions(alloc);
    std::uint64_t exchanges0 = total_depot_exchanges(alloc);
    // Steady state: burst alloc/free across magazine boundaries.
    constexpr int kOps = 20000;
    std::vector<void*> pool;
    for (int i = 0; i < kOps / 32; ++i) {
        for (int j = 0; j < 32; ++j)
            pool.push_back(alloc.cache_alloc(id));
        for (void* p : pool)
            alloc.cache_free(id, p);
        pool.clear();
    }
    std::uint64_t locks = total_lock_acquisitions(alloc) - locks0;
    std::uint64_t exchanges = total_depot_exchanges(alloc) - exchanges0;
    EXPECT_GT(exchanges, 100u)
            << "churn should cross the magazine boundary via the depot";
    EXPECT_LT(locks * 20, exchanges)
            << "depot path took too many per-CPU locks (" << locks
            << " for " << exchanges << " exchanges)";
}

TEST(Depot, ExchangeHammerOversubscribed)
{
    // TSan target: 2x-oversubscribed alloc/free/defer churn through
    // the depot, then quiesce — the accounting identities must hold
    // exactly and the depot must have actually been exercised.
    unsigned hw = std::thread::hardware_concurrency();
    unsigned n = std::min(16u, std::max(4u, hw * 2));

    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds{50};
    RcuDomain domain(rcfg);
    PrudenceConfig cfg;
    cfg.arena_bytes = 128 << 20;
    cfg.cpus = 4;
    cfg.magazine_capacity = 16;
    cfg.maintenance_interval = std::chrono::microseconds{200};
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("hammer", 128);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n; ++t) {
        threads.emplace_back([&alloc, id, t] {
            std::vector<void*> pool;
            unsigned state = t * 2654435761u + 1;
            for (int i = 0; i < 8000; ++i) {
                state = state * 1664525u + 1013904223u;
                unsigned action = (state >> 16) % 4;
                if (action < 2 || pool.empty()) {
                    if (void* p = alloc.cache_alloc(id)) {
                        std::memset(p, static_cast<int>(t), 16);
                        pool.push_back(p);
                    }
                } else if (action == 2) {
                    alloc.cache_free(id, pool.back());
                    pool.pop_back();
                } else {
                    alloc.cache_free_deferred(id, pool.back());
                    pool.pop_back();
                }
            }
            for (void* p : pool)
                alloc.cache_free(id, p);
            alloc.drain_thread();
        });
    }
    for (auto& th : threads)
        th.join();

    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_GT(total_depot_exchanges(alloc), 0u)
            << "hammer never exchanged through the depot";
}

TEST(Depot, HarvestAheadNeverPromotesOpenGracePeriodBlock)
{
    // Ripe deferred blocks are promoted to full stock by the governor's
    // harvest_depot() and by maintenance_pass() — "ripe" meaning the
    // stamped grace period has completed. With the grace period held
    // open neither sweep may promote a block; once it closes, each
    // must. The model checker (when built in) independently verifies
    // the first half: any early reuse trips reuse_before_grace_period.
    ManualRcuDomain domain;
#if defined(PRUDENCE_SIM_ENABLED)
    sim::ModelChecker model;
    model.set_completed_provider(
            [&domain] { return domain.completed_epoch(); });
    sim::ModelChecker::install(&model);
    sim::Scheduler& sched = sim::Scheduler::instance();
    sched.reset(1);
    sched.start(/*site_mask=*/0, /*base_delay_ns=*/0);
#endif
    {
        PrudenceAllocator alloc(domain, depot_config());
        CacheId id = alloc.create_cache("harvest", 64);

        // Defer one batch, spill it into the depot deferred stack.
        auto defer_batch = [&](std::set<void*>& deferred) {
            for (int i = 0; i < 64; ++i) {
                void* p = alloc.cache_alloc(id);
                ASSERT_NE(p, nullptr);
                deferred.insert(p);
            }
            for (void* p : deferred)
                alloc.cache_free_deferred(id, p);
            alloc.drain_thread();
        };

        // Arm 1: the governor's harvest_depot().
        std::set<void*> first;
        defer_batch(first);
        std::size_t parked = alloc.depot_deferred_objects();
        ASSERT_GT(parked, 0u);
        std::size_t full0 = alloc.depot_full_objects();
        EXPECT_EQ(alloc.harvest_depot(), 0u)
                << "harvest_depot promoted under an open grace period";
        EXPECT_EQ(alloc.depot_deferred_objects(), parked);
        domain.advance();
        domain.advance();
        EXPECT_EQ(alloc.harvest_depot(), parked);
        EXPECT_EQ(alloc.depot_deferred_objects(), 0u);
        EXPECT_EQ(alloc.depot_full_objects(), full0 + parked);

        // Arm 2: the maintenance sweep.
        std::set<void*> second;
        defer_batch(second);
        parked = alloc.depot_deferred_objects();
        ASSERT_GT(parked, 0u);
        alloc.maintenance_pass();
        EXPECT_EQ(alloc.depot_deferred_objects(), parked)
                << "maintenance promoted under an open grace period";
        domain.advance();
        domain.advance();
        alloc.maintenance_pass();
        EXPECT_EQ(alloc.depot_deferred_objects(), 0u)
                << "maintenance never promoted ripe blocks";

        // Promoted stock is reusable: the allocator hands it back out.
        std::size_t reused = 0;
        std::vector<void*> pool;
        for (int i = 0; i < 256; ++i) {
            void* q = alloc.cache_alloc(id);
            ASSERT_NE(q, nullptr);
            reused += first.count(q) + second.count(q);
            pool.push_back(q);
        }
        EXPECT_GT(reused, 0u);
        for (void* q : pool)
            alloc.cache_free(id, q);
        alloc.quiesce();
        EXPECT_EQ(alloc.validate(), "");
    }
#if defined(PRUDENCE_SIM_ENABLED)
    sched.stop();
    sim::ModelChecker::install(nullptr);
    EXPECT_TRUE(model.violations().empty())
            << "model checker flagged the ripe-block sweeps";
#endif
}

TEST(Depot, DeferralOverflowPastHalfCapLandsOnLatentPath)
{
    // Deferred depot blocks may hold at most half the block budget;
    // past that cap, deferral spills take the locked fallback into the
    // per-CPU latent ring and, once it saturates, the slabs' latent
    // rings with pre-movement. One open grace period, one CPU.
    ManualRcuDomain domain;
    PrudenceConfig cfg = depot_config(32);
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("overflow", 128);
    std::size_t per_block =
        std::min(cfg.magazine_capacity,
                 compute_slab_geometry(128).cache_capacity);

    constexpr std::size_t kDeferred = 6000;
    std::set<void*> deferred;
    for (std::size_t i = 0; i < kDeferred; ++i) {
        void* p = alloc.cache_alloc(id);
        ASSERT_NE(p, nullptr);
        deferred.insert(p);
    }
    for (void* p : deferred)
        alloc.cache_free_deferred(id, p);
    alloc.drain_thread();

    EXPECT_EQ(alloc.depot_deferred_objects(),
              kDepotBlockBudget / 2 * per_block)
            << "depot deferred stack not filled to its half-budget cap";
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.deferred_outstanding,
              static_cast<std::int64_t>(kDeferred));
    EXPECT_GT(s.premoves, 0u) << "overflow never reached latent slabs";
    EXPECT_EQ(alloc.validate(), "");

    // Grace period still open: nothing deferred may come back.
    std::vector<void*> fresh;
    for (int i = 0; i < 2000; ++i) {
        void* q = alloc.cache_alloc(id);
        ASSERT_NE(q, nullptr);
        EXPECT_EQ(deferred.count(q), 0u)
                << "deferred object reused inside its grace period";
        fresh.push_back(q);
    }
    for (void* q : fresh)
        alloc.cache_free(id, q);

    domain.advance();
    domain.advance();
    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
    s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_EQ(alloc.depot_deferred_objects(), 0u);
}

TEST(Depot, PrefillAccountingExactAtQuiesce)
{
    // Slab-side prefill moves whole blocks' worth of objects from
    // slab freelists into the depot in one shot — the easiest place
    // to leak an accounting delta. Drive a cold cache through the
    // prefill path, then check every identity validate() knows about,
    // plus exact live-object counts, at mid-run and at quiesce.
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, depot_config());
    CacheId id = alloc.create_cache("prefill", 64);

    // Cold start: the first refills miss (nothing deferred, nothing
    // full) and must come back through depot_prefill.
    std::vector<void*> pool;
    for (int i = 0; i < 200; ++i) {
        void* p = alloc.cache_alloc(id);
        ASSERT_NE(p, nullptr);
        pool.push_back(p);
    }
    CacheStatsSnapshot mid = alloc.cache_snapshot(id);
    EXPECT_GT(mid.depot_prefills, 0u) << "cold refills skipped prefill";
    EXPECT_GT(mid.depot_miss_cold, 0u);
    EXPECT_EQ(mid.depot_miss_gp_pending, 0u)
            << "cold cache attributed misses to open grace periods";
    EXPECT_EQ(mid.live_objects, static_cast<std::int64_t>(pool.size()));
    EXPECT_EQ(alloc.validate(), "");

    // Free everything back and quiesce: prefilled objects must drain
    // to exactly zero live / zero deferred, identities intact.
    for (void* p : pool)
        alloc.cache_free(id, p);
    domain.advance();
    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
}

TEST(Depot, ResidualMechanismHammerOversubscribed)
{
    // TSan target: oversubscribed alloc/free/defer churn through the
    // residual-miss mechanisms (slab-side prefill, claim rings, the
    // deferred-block scan) at the default config. It must quiesce to
    // exact accounting and actually exercise each mechanism.
    unsigned hw = std::thread::hardware_concurrency();
    unsigned n = std::min(16u, std::max(4u, hw * 2));

    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds{50};
    RcuDomain domain(rcfg);
    PrudenceConfig cfg;
    cfg.arena_bytes = 128 << 20;
    cfg.cpus = 4;
    cfg.magazine_capacity = 16;
    cfg.maintenance_interval = std::chrono::microseconds{200};
    PrudenceAllocator alloc(domain, cfg);
    CacheId id = alloc.create_cache("residual", 128);

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < n; ++t) {
        threads.emplace_back([&alloc, id, t] {
            std::vector<void*> pool;
            unsigned state = t * 2654435761u + 1;
            for (int i = 0; i < 4000; ++i) {
                state = state * 1664525u + 1013904223u;
                unsigned action = (state >> 16) % 4;
                if (action < 2 || pool.empty()) {
                    if (void* p = alloc.cache_alloc(id)) {
                        std::memset(p, static_cast<int>(t), 16);
                        pool.push_back(p);
                    }
                } else if (action == 2) {
                    alloc.cache_free(id, pool.back());
                    pool.pop_back();
                } else {
                    alloc.cache_free_deferred(id, pool.back());
                    pool.pop_back();
                }
            }
            for (void* p : pool)
                alloc.cache_free(id, p);
            alloc.drain_thread();
        });
    }
    for (auto& th : threads)
        th.join();

    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
    CacheStatsSnapshot s = alloc.cache_snapshot(id);
    EXPECT_EQ(s.live_objects, 0);
    EXPECT_EQ(s.deferred_outstanding, 0);
    EXPECT_GT(s.depot_prefills, 0u);
    EXPECT_GT(s.depot_claim_hits, 0u);
}

TEST(Depot, TrimDepotReleasesRetainedFullBlocks)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, depot_config());
    CacheId id = alloc.create_cache("trim", 64);

    std::vector<void*> pool;
    for (int i = 0; i < 256; ++i)
        pool.push_back(alloc.cache_alloc(id));
    for (void* p : pool)
        alloc.cache_free(id, p);
    alloc.drain_thread();
    ASSERT_GT(alloc.depot_full_objects(), 0u)
            << "flushes never built depot full blocks";

    std::size_t released = alloc.trim_depot(0);
    EXPECT_GT(released, 0u);
    EXPECT_EQ(alloc.depot_full_objects(), 0u);
    EXPECT_EQ(alloc.validate(), "");
    alloc.quiesce();
    EXPECT_EQ(alloc.validate(), "");
}

#if defined(PRUDENCE_TELEMETRY_ENABLED)
TEST(Depot, OccupancyProbesReportGauges)
{
    ManualRcuDomain domain;
    PrudenceAllocator alloc(domain, depot_config());
    CacheId id = alloc.create_cache("probes", 64);

    std::vector<void*> pool;
    for (int i = 0; i < 128; ++i)
        pool.push_back(alloc.cache_alloc(id));
    for (void* p : pool)
        alloc.cache_free(id, p);
    alloc.drain_thread();
    ASSERT_GT(alloc.depot_full_objects(), 0u);

    telemetry::Monitor monitor;
    telemetry::ProbeGroup group(monitor);
    alloc.register_telemetry_probes(group, "t.");
    monitor.sample_at(1'000'000);

    bool found_full = false, found_deferred = false,
         found_blocks = false;
    for (const auto& [name, value] : monitor.latest()) {
        if (name == "t.alloc.depot_full_objects") {
            found_full = true;
            EXPECT_EQ(value, alloc.depot_full_objects());
        } else if (name == "t.alloc.depot_deferred_objects") {
            found_deferred = true;
        } else if (name == "t.alloc.depot_blocks") {
            found_blocks = true;
            EXPECT_GT(value, 0u);
        }
    }
    EXPECT_TRUE(found_full);
    EXPECT_TRUE(found_deferred);
    EXPECT_TRUE(found_blocks);
}
#endif  // PRUDENCE_TELEMETRY_ENABLED

#if defined(PRUDENCE_SIM_ENABLED)
TEST(Depot, UnprotectedPopVariantTripsTheModelChecker)
{
    // Self-test of the safety net: arm the deliberately broken depot
    // pop (grace-period check skipped) and the reference model must
    // flag reuse_before_grace_period; disarmed, the same workload is
    // clean. schedfuzz --self-test runs the full seeded-schedule
    // version of this.
    auto run = [](bool armed) {
        ManualRcuDomain domain;
        sim::ModelChecker model;
        model.set_completed_provider(
                [&domain] { return domain.completed_epoch(); });
        sim::ModelChecker::install(&model);
        // Model hooks and bug detours run only inside a sim session;
        // an empty site mask keeps the schedule itself unperturbed.
        sim::Scheduler& sched = sim::Scheduler::instance();
        sched.reset(1);
        sched.start(/*site_mask=*/0, /*base_delay_ns=*/0);
        sim::set_bug(armed ? sim::BugId::kUnprotectedDepotPop
                           : sim::BugId::kNone);

        {
            PrudenceAllocator alloc(domain, depot_config());
            CacheId id = alloc.create_cache("bug", 64);
            std::vector<void*> pool;
            for (int i = 0; i < 64; ++i)
                pool.push_back(alloc.cache_alloc(id));
            for (void* p : pool)
                alloc.cache_free_deferred(id, p);
            alloc.drain_thread();
            // Grace period deliberately left open: a correct depot
            // refuses these blocks, the broken one hands them out.
            pool.clear();
            for (int i = 0; i < 256; ++i) {
                if (void* p = alloc.cache_alloc(id))
                    pool.push_back(p);
            }
            for (void* p : pool)
                alloc.cache_free(id, p);
            domain.advance();
            alloc.quiesce();
        }

        sim::set_bug(sim::BugId::kNone);
        sched.stop();
        sim::ModelChecker::install(nullptr);
        return model.violations();
    };

    auto broken = run(true);
    ASSERT_FALSE(broken.empty())
            << "unprotected pop escaped the model checker";
    bool saw_reuse = false;
    for (const auto& v : broken)
        saw_reuse |= v.kind == "reuse_before_grace_period";
    EXPECT_TRUE(saw_reuse);

    EXPECT_TRUE(run(false).empty())
            << "clean depot flagged by the model checker";
}
#endif  // PRUDENCE_SIM_ENABLED

}  // namespace
}  // namespace prudence
