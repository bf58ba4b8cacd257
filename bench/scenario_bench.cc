/**
 * @file
 * Scenario engine driver (DESIGN.md §15): server-style open-loop
 * traffic on both allocators. Emits one machine-parseable
 * `scenario ...` row per (scenario, allocator) pair — run_bench.sh
 * folds these into BENCH_<sha>.json — plus a human digest per run.
 *
 * Usage:
 *   scenario_bench [scale] [--scenario=<stock-name-or-file>]...
 *                  [--unpaced] [--threads=N] [--trace=<file>]
 *
 * With no --scenario flags all three stock scenarios run. The scale
 * argument multiplies each scenario's scheduled duration (quick
 * smoke legs use e.g. 0.25).
 */
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "api/allocator_factory.h"
#include "bench/bench_common.h"
#include "rcu/rcu_domain.h"
#include "workload/engine.h"
#include "workload/scenario.h"

namespace {

/// Resolve a --scenario= operand: a stock name or a DSL file path.
bool
load_scenario(const std::string& arg, prudence::ScenarioSpec& out)
{
    if (prudence::stock_scenario(arg, out))
        return true;
    std::ifstream in(arg);
    if (!in) {
        std::cerr << "scenario_bench: cannot open scenario '" << arg
                  << "' (not a stock name or readable file)\n";
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    prudence::ScenarioParseResult parsed =
        prudence::parse_scenario(text.str());
    if (!parsed.ok) {
        std::cerr << "scenario_bench: " << arg << ": " << parsed.error
                  << "\n";
        return false;
    }
    for (const std::string& note : parsed.clamped)
        std::cerr << "scenario_bench: " << arg << ": note: " << note
                  << "\n";
    out = parsed.spec;
    return true;
}

prudence::ScenarioResult
run_on(const prudence::ScenarioSpec& spec,
       const prudence::SuiteConfig& cfg,
       const prudence::ScenarioRunOptions& options, bool slub)
{
    prudence::RcuDomain rcu;
    std::unique_ptr<prudence::Allocator> alloc;
    if (slub) {
        prudence::SlubConfig sc;
        sc.arena_bytes = cfg.arena_bytes;
        sc.cpus = cfg.cpus;
        sc.magazine_capacity = cfg.magazine_capacity;
        sc.pcp_high_watermark = cfg.pcp_high_watermark;
        sc.pcp_batch = cfg.pcp_batch;
        sc.callback.inline_batch_limit = 100000;
        sc.callback.batch_limit = 1000;
        sc.callback.tick = std::chrono::microseconds{1000};
        alloc = prudence::make_slub_allocator(rcu, sc);
    } else {
        prudence::PrudenceConfig pc;
        pc.arena_bytes = cfg.arena_bytes;
        pc.cpus = cfg.cpus;
        pc.magazine_capacity = cfg.magazine_capacity;
        pc.pcp_high_watermark = cfg.pcp_high_watermark;
        pc.pcp_batch = cfg.pcp_batch;
        alloc = prudence::make_prudence_allocator(rcu, pc);
    }
    return prudence::run_scenario(*alloc, rcu, spec, options);
}

}  // namespace

int
main(int argc, char** argv)
{
    prudence_bench::TraceSession trace_session(argc, argv);
    double scale = prudence_bench::run_scale(argc, argv);
    prudence::SuiteConfig cfg = prudence_bench::suite_config(scale);

    prudence::ScenarioRunOptions options;
    std::vector<std::string> requested;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--scenario=", 11) == 0)
            requested.emplace_back(argv[i] + 11);
        else if (std::strcmp(argv[i], "--unpaced") == 0)
            options.paced = false;
        else if (std::strncmp(argv[i], "--threads=", 10) == 0)
            options.threads = static_cast<unsigned>(
                std::strtoul(argv[i] + 10, nullptr, 10));
    }
    if (requested.empty())
        requested = prudence::stock_scenario_names();

    prudence_bench::print_banner(
        "Scenario engine: tail latency and footprint under "
        "server-style traffic",
        "open-loop p99/p999 and peak RSS per scenario per allocator");

    int rc = 0;
    for (const std::string& name : requested) {
        prudence::ScenarioSpec spec;
        if (!load_scenario(name, spec)) {
            rc = 2;
            continue;
        }
        double ms = static_cast<double>(spec.duration_ms) * scale;
        spec.duration_ms = ms < 1.0 ? 1 : static_cast<std::uint32_t>(ms);
        for (bool slub : {true, false}) {
            prudence::ScenarioResult r =
                run_on(spec, cfg, options, slub);
            prudence::print_scenario_summary(std::cout, r);
            prudence::print_scenario_row(std::cout, r);
        }
    }
    return rc;
}
