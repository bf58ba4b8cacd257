#include "workload/suite.h"

#include <numeric>

#include "api/allocator_factory.h"
#include "rcu/rcu_domain.h"
#include "workload/benchmarks.h"

namespace prudence {

namespace {

double
mean(const std::vector<double>& v)
{
    if (v.empty())
        return 0.0;
    return std::accumulate(v.begin(), v.end(), 0.0) /
           static_cast<double>(v.size());
}

WorkloadResult
run_one(const WorkloadSpec& spec, const SuiteConfig& config, bool slub,
        std::uint64_t seed)
{
    RcuDomain rcu;
    std::unique_ptr<Allocator> alloc;
    if (slub) {
        SlubConfig sc;
        sc.arena_bytes = config.arena_bytes;
        sc.cpus = config.cpus;
        sc.magazine_capacity = config.magazine_capacity;
        sc.pcp_high_watermark = config.pcp_high_watermark;
        sc.pcp_batch = config.pcp_batch;
        // Kernel-like regime: callbacks become ready in grace-period
        // batches and are drained at once (paper §3.1 bursty
        // freeing), with a throttled background drainer as backstop.
        sc.callback.inline_batch_limit = 100000;
        sc.callback.batch_limit = 1000;
        sc.callback.tick = std::chrono::microseconds{1000};
        alloc = make_slub_allocator(rcu, sc);
    } else {
        PrudenceConfig pc = config.prudence_overrides
            ? *config.prudence_overrides
            : PrudenceConfig{};
        pc.arena_bytes = config.arena_bytes;
        pc.cpus = config.cpus;
        pc.magazine_capacity = config.magazine_capacity;
        pc.pcp_high_watermark = config.pcp_high_watermark;
        pc.pcp_batch = config.pcp_batch;
        alloc = make_prudence_allocator(rcu, pc);
    }
    return run_workload(*alloc, spec, seed);
}

}  // namespace

double
BenchmarkComparison::mean_slub_throughput() const
{
    return mean(slub_throughputs);
}

double
BenchmarkComparison::mean_prudence_throughput() const
{
    return mean(prudence_throughputs);
}

double
BenchmarkComparison::throughput_improvement_percent() const
{
    double s = mean_slub_throughput();
    double p = mean_prudence_throughput();
    if (s <= 0.0)
        return 0.0;
    return 100.0 * (p - s) / s;
}

BenchmarkComparison
run_comparison(const WorkloadSpec& spec, const SuiteConfig& config)
{
    BenchmarkComparison cmp;
    unsigned reps = config.repetitions == 0 ? 1 : config.repetitions;
    for (unsigned r = 0; r < reps; ++r) {
        std::uint64_t seed = config.seed + r;
        WorkloadResult s = run_one(spec, config, /*slub=*/true, seed);
        WorkloadResult p = run_one(spec, config, /*slub=*/false, seed);
        cmp.slub_throughputs.push_back(s.ops_per_second);
        cmp.prudence_throughputs.push_back(p.ops_per_second);
        if (r == 0) {
            cmp.slub = std::move(s);
            cmp.prudence = std::move(p);
        }
    }
    return cmp;
}

std::vector<BenchmarkComparison>
run_paper_suite(const SuiteConfig& config)
{
    std::vector<BenchmarkComparison> out;
    for (const WorkloadSpec& spec : all_benchmark_specs(config.scale))
        out.push_back(run_comparison(spec, config));
    return out;
}

}  // namespace prudence
