/**
 * @file
 * Figure 6 reproduction: kmalloc()/kfree_deferred() pairs executed
 * per second for different allocation sizes.
 *
 * Paper (§5.2): tight alloc/defer-free loop on all CPUs, object sizes
 * up to 4096 B, 5 M pairs per CPU per size, three runs, mean ± stddev.
 * Prudence beats SLUB 3.9×–28.6×, the gap widening with object size
 * (larger objects have shallower caches and smaller slabs, so the
 * baseline churns more).
 *
 * The baseline runs with softirq-style inline callback assistance so
 * it survives the loop (the Figure 3 regime would just OOM); it still
 * pays for bursty frees and extended lifetimes.
 */
#include <chrono>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "api/allocator_factory.h"
#include "bench/bench_common.h"
#include "rcu/rcu_domain.h"

namespace {

using namespace prudence;

double
run_pairs_per_second(bool use_prudence, std::size_t size,
                     std::uint64_t pairs_per_thread, unsigned threads)
{
    RcuConfig rcfg;
    rcfg.gp_interval = std::chrono::microseconds{1000};
    RcuDomain rcu(rcfg);

    std::unique_ptr<Allocator> alloc;
    if (use_prudence) {
        PrudenceConfig cfg;
        cfg.arena_bytes = std::size_t{1} << 30;
        cfg.cpus = threads;
        cfg.magazine_capacity = prudence_bench::magazine_capacity_env(
            cfg.magazine_capacity);
        alloc = make_prudence_allocator(rcu, cfg);
    } else {
        SlubConfig cfg;
        cfg.arena_bytes = std::size_t{1} << 30;
        cfg.cpus = threads;
        cfg.magazine_capacity = prudence_bench::magazine_capacity_env(
            cfg.magazine_capacity);
        // Kernel-faithful regime: callbacks become ready in
        // grace-period batches and the softirq drains the ready list
        // at once — deferred frees land on the allocator in bursts
        // (paper §3.1), not smoothly paced.
        cfg.callback.inline_batch_limit = 100000;
        cfg.callback.batch_limit = 1000;
        cfg.callback.tick = std::chrono::microseconds{1000};
        alloc = make_slub_allocator(rcu, cfg);
    }

    std::vector<std::thread> workers;
    auto t0 = std::chrono::steady_clock::now();
    for (unsigned t = 0; t < threads; ++t) {
        workers.emplace_back([&alloc, size, pairs_per_thread] {
            for (std::uint64_t i = 0; i < pairs_per_thread; ++i) {
                void* p = alloc->kmalloc(size);
                if (p != nullptr)
                    alloc->kfree_deferred(p);
            }
        });
    }
    for (auto& w : workers)
        w.join();
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    alloc->quiesce();
    double total =
        static_cast<double>(pairs_per_thread) * threads;
    return seconds > 0 ? total / seconds : 0.0;
}

struct Series
{
    double mean = 0.0;
    double stddev = 0.0;
};

Series
summarize(const std::vector<double>& runs)
{
    Series s;
    for (double r : runs)
        s.mean += r;
    s.mean /= static_cast<double>(runs.size());
    for (double r : runs)
        s.stddev += (r - s.mean) * (r - s.mean);
    s.stddev =
        std::sqrt(s.stddev / static_cast<double>(runs.size()));
    return s;
}

}  // namespace

int
main(int argc, char** argv)
{
    prudence_bench::TraceSession trace_session(argc, argv);
    prudence_bench::TelemetrySession telemetry_session(argc, argv);
    double scale = prudence_bench::run_scale(argc, argv);
    auto pairs = static_cast<std::uint64_t>(150000.0 * scale);
    if (pairs < 1000)
        pairs = 1000;
    unsigned threads = 8;
    constexpr int kRuns = 3;

    prudence_bench::print_banner(
        "Figure 6: kmalloc/kfree_deferred pairs per second by size",
        "Prudence 3.9x-28.6x over SLUB; improvement grows with "
        "object size (28.6x at 4096 B)");
    std::cout << "# threads=" << threads << " pairs_per_thread="
              << pairs << " runs=" << kRuns << "\n";
    std::cout << std::left << std::setw(8) << "size" << std::right
              << std::setw(16) << "slub pairs/s" << std::setw(10)
              << "+-sd" << std::setw(16) << "prudence pairs/s"
              << std::setw(10) << "+-sd" << std::setw(10) << "speedup"
              << "\n";

    for (std::size_t size : {64u, 128u, 256u, 512u, 1024u, 2048u,
                             4096u}) {
        std::vector<double> slub_runs, prud_runs;
        for (int r = 0; r < kRuns; ++r) {
            slub_runs.push_back(run_pairs_per_second(
                /*use_prudence=*/false, size, pairs, threads));
            prud_runs.push_back(run_pairs_per_second(
                /*use_prudence=*/true, size, pairs, threads));
        }
        Series slub = summarize(slub_runs);
        Series prud = summarize(prud_runs);
        std::cout << std::left << std::setw(8) << size << std::right
                  << std::fixed << std::setprecision(0)
                  << std::setw(16) << slub.mean << std::setw(10)
                  << slub.stddev << std::setw(16) << prud.mean
                  << std::setw(10) << prud.stddev
                  << std::setprecision(2) << std::setw(10)
                  << (slub.mean > 0 ? prud.mean / slub.mean : 0.0)
                  << "\n";
    }
    std::cout << "# paper-vs-measured: expect speedup > 1 at every "
                 "size, increasing toward the largest objects\n";
    return 0;
}
