/**
 * @file
 * Suite runner: executes a WorkloadSpec against both allocators under
 * identical conditions (fresh RCU domain, fresh bounded arena, same
 * seed) and pairs the results for figure reporting.
 */
#ifndef PRUDENCE_WORKLOAD_SUITE_H
#define PRUDENCE_WORKLOAD_SUITE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "core/prudence_config.h"
#include "workload/engine.h"
#include "workload/op_spec.h"

namespace prudence {

/// Shared run conditions for a suite.
struct SuiteConfig
{
    /// Multiplies every spec's op counts (quick runs for tests).
    double scale = 1.0;
    /// Simulated physical memory per run.
    std::size_t arena_bytes = std::size_t{1} << 30;
    /// Virtual CPUs per allocator.
    unsigned cpus = 8;
    /// Thread-local magazine depth for both allocators (0 = off),
    /// applied uniformly so comparisons stay like-for-like.
    std::size_t magazine_capacity = 32;
    /// Per-CPU page-cache high watermark for both allocators
    /// (0 = off), applied uniformly like magazine_capacity.
    std::size_t pcp_high_watermark = 32;
    /// Blocks per page-cache refill/drain batch.
    std::size_t pcp_batch = 8;
    /// Workload RNG seed.
    std::uint64_t seed = 1;
    /// Repetitions per (workload, allocator); metrics use run 0, the
    /// throughput is averaged (paper: average of three runs).
    unsigned repetitions = 1;
    /// Optional Prudence feature overrides (ablation benches).
    std::optional<PrudenceConfig> prudence_overrides;
};

/// Paired results of one workload on both allocators.
struct BenchmarkComparison
{
    WorkloadResult slub;
    WorkloadResult prudence;
    /// Per-repetition throughputs (ops/s).
    std::vector<double> slub_throughputs;
    std::vector<double> prudence_throughputs;

    double mean_slub_throughput() const;
    double mean_prudence_throughput() const;
    /// Prudence throughput improvement over SLUB, % (paper Fig. 13).
    double throughput_improvement_percent() const;
};

/// Run @p spec on both allocators.
BenchmarkComparison run_comparison(const WorkloadSpec& spec,
                                   const SuiteConfig& config);

/// Run the paper's four benchmarks (§5.3) on both allocators.
std::vector<BenchmarkComparison> run_paper_suite(
    const SuiteConfig& config);

}  // namespace prudence

#endif  // PRUDENCE_WORKLOAD_SUITE_H
