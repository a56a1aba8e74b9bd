/**
 * @file
 * Figure 8(b): time to compute a new target state vs cluster size.
 * Phoenix (planner + packing) and Default are timed on clusters from
 * 100 to 100,000 nodes; the LP formulations are attempted up to 1,000
 * nodes where — as in the paper — they stop scaling (the solver hits
 * its wall-clock limit; larger instances are refused outright).
 *
 * The 100,000-node Phoenix point is the paper's headline (<10 s) and
 * is always measured, regardless of ADAPTLAB_FULL_SCALE.
 *
 * Besides the plan/pack wall-clock phase breakdown, every cell reports
 * the deterministic hot-path operation counters (planner/packer queue
 * pushes, best-fit probes, pods the packer's repack and targeted-delete
 * walks read) — these are seed-stable, so regressions show up as exact
 * integer diffs even on noisy machines — and the run records its peak
 * RSS.
 *
 * FIG8B_SMOKE=1 turns the harness into a ctest smoke gate: only the
 * 1,000-node Phoenix cells run, and their op counters are asserted
 * against recorded bounds (exit 1 on violation). A counter above the
 * bound means the hot path got algorithmically heavier; zero counters
 * mean the instrumentation broke.
 *
 * Beyond the shared flags, this harness accepts:
 *
 *   --nodes N     run a single cluster size instead of the sweep
 *                 (N >= 1,000,000 restricts the grid to the Phoenix
 *                 schemes; the baselines' bookkeeping does not reach
 *                 that scale)
 *   --1m-smoke    opt-in 1,000,000-node gate for ctest: requires
 *                 FIG8B_1M=1 in the environment (exits 77 — the ctest
 *                 SKIP code — otherwise), runs the 1M-node Phoenix
 *                 cells, and asserts the recorded op-counter bounds
 *
 * This harness measures wall-clock planning time, so unlike the other
 * grids it defaults to --jobs 1: concurrent cells would contend for
 * cores and inflate the very numbers being reported. Pass --jobs N
 * explicitly to trade timing fidelity for throughput.
 */

#include <sys/resource.h>

#include <iostream>
#include <limits>
#include <vector>

#include "bench/bench_common.h"
#include "core/schemes.h"
#include "exp/grid.h"
#include "util/table.h"

using namespace phoenix;
using namespace phoenix::adaptlab;

namespace {

EnvironmentConfig
sizedConfig(size_t nodes)
{
    auto config = bench::paperEnvironment(
        workloads::TaggingScheme::ServiceLevel, 0.9,
        workloads::ResourceModel::CallsPerMinute);
    config.nodeCount = nodes;
    // Match application mix to cluster size the way the paper's
    // benchmarking harness does (small clusters cannot host the
    // 3000-service giants).
    if (nodes <= 1000) {
        config.alibaba.appCount = 5;
        config.alibaba.sizeScale = 0.005 * static_cast<double>(nodes) /
                                   10.0;
        if (config.alibaba.sizeScale < 0.004)
            config.alibaba.sizeScale = 0.004;
        // Single-replica so the exact LPs apply (they place each
        // microservice on one node, Eq. 3).
        config.maxReplicas = 1;
    } else {
        config.alibaba.appCount = 18;
        config.alibaba.sizeScale =
            nodes >= 100000 ? 1.0 : static_cast<double>(nodes) / 100000.0;
        if (config.alibaba.sizeScale < 0.05)
            config.alibaba.sizeScale = 0.05;
        // Realistic pod density at scale (~16 pods per 16-CPU node).
        config.nodeCapacity = 16.0;
        config.resources.minCpu = 0.5;
        config.resources.maxCpu = 8.0;
    }
    return config;
}

/** Peak resident set size of this process, in MiB. */
double
peakRssMiB()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    // Linux reports ru_maxrss in KiB.
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/**
 * Smoke bounds for the 1,000-node Phoenix cells (seedBase 1234, rate
 * 0.5, one trial): the counters are deterministic, so these are the
 * recorded values with ~30% headroom.
 */
struct SmokeBound
{
    double maxHeapPushes;
    double maxBestFitProbes;
    double maxPodScans;
};

// Observed at the 1,000-node point: 3,596 pushes / 649 probes / 0 pod
// scans for both Phoenix schemes (the counters are seed-deterministic,
// so any drift is a real algorithmic change). Bounds leave ~1.4x
// headroom; 1.4 x 0 scans is 0: every pod lands by best fit here, so
// neither the repack nor the targeted-delete walk may run.
constexpr SmokeBound kSmokeBound{5000.0, 1000.0, 0.0};

// Observed at the 1,000,000-node point (seedBase 1234, rate 0.5, one
// trial): 19,169 pushes for both Phoenix schemes, 12,555,185 probes
// (Fair) / 7,000,531 (Cost); same deterministic counters, ~1.4x
// headroom over the larger. Gated behind FIG8B_1M=1 via --1m-smoke.
// Pod scans were never recorded at this point, so they stay unbounded.
constexpr SmokeBound k1mBound{27000.0, 18000000.0,
                              std::numeric_limits<double>::infinity()};

bool
smokeCheck(const exp::SweepAggregate &agg, const SmokeBound &bound,
           const char *gate)
{
    bool ok = true;
    const auto check = [&](const char *what, double value, double low,
                           double high) {
        if (value < low || value > high) {
            std::cerr << gate << ": " << agg.scheme << " " << what
                      << " = " << value << " outside [" << low << ", "
                      << high << "]\n";
            ok = false;
        }
    };
    check("ops_heap_pushes", agg.mean.opsHeapPushes, 1.0,
          bound.maxHeapPushes);
    check("ops_best_fit_probes", agg.mean.opsBestFitProbes, 1.0,
          bound.maxBestFitProbes);
    check("ops_pod_scans", agg.mean.opsPodScans, 0.0, bound.maxPodScans);
    return ok;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *smoke_env = std::getenv("FIG8B_SMOKE");
    const bool smoke = smoke_env && std::string(smoke_env) == "1";

    // Harness-specific flags are stripped before the shared parser
    // (which exits on anything it does not know).
    size_t nodes_override = 0;
    bool smoke_1m = false;
    std::vector<char *> pass;
    pass.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--nodes" && i + 1 < argc) {
            nodes_override = static_cast<size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--1m-smoke") {
            smoke_1m = true;
        } else {
            pass.push_back(argv[i]);
        }
    }
    if (smoke_1m) {
        const char *gate = std::getenv("FIG8B_1M");
        if (!gate || std::string(gate) != "1") {
            std::cout << "fig8b --1m-smoke: FIG8B_1M=1 not set; "
                         "skipping (exit 77)\n";
            return 77;
        }
        nodes_override = 1000000;
    }

    auto options = bench::parseOptions(
        static_cast<int>(pass.size()), pass.data(), "fig8b");
    bench::applyObs(options);
    // Per-cell obs deltas (core.reconcile_seconds) are part of this
    // figure's report: metrics stay on regardless of --metrics.
    obs::setMetricsEnabled(true);
    if (options.jobs == 0)
        options.jobs = 1; // timing fidelity; see file header
    bench::banner(smoke
                      ? "Figure 8(b) smoke | 1,000-node counter gate"
                  : smoke_1m
                      ? "Figure 8(b) | 1,000,000-node counter gate"
                      : "Figure 8(b) | time to adapt vs cluster size");
    if (options.jobs != 1)
        std::cout << "note: --jobs " << options.jobs
                  << " overlaps timed cells; reported times include "
                     "contention\n";

    util::Table table({"nodes", "scheme", "plan(s)", "pack(s)",
                       "total(s)", "pushes", "probes", "podscans",
                       "status"});
    exp::Report report("fig8b");

    const std::vector<size_t> sizes =
        nodes_override > 0 ? std::vector<size_t>{nodes_override}
        : smoke            ? std::vector<size_t>{1000ul}
                           : std::vector<size_t>{100ul, 1000ul, 10000ul,
                                                 100000ul};
    bool smoke_ok = true;

    for (size_t nodes : sizes) {
        const Environment env = buildEnvironment(sizedConfig(nodes));

        exp::SweepGridSpec spec;
        spec.schemes = exp::paperSchemeSpecs(false);
        if (smoke) {
            const auto all = exp::paperSchemeSpecs(false);
            spec.schemes = {all[0], all[1]}; // PhoenixFair/PhoenixCost
        } else if (nodes >= 1000000) {
            // The baselines' bookkeeping (and the trial's state
            // copies) are the bottleneck at this scale; the panel the
            // 1M point exists for is Phoenix anyway.
            const auto all = exp::paperSchemeSpecs(false);
            spec.schemes = {all[0], all[1]};
        } else if (nodes <= 1000) {
            core::LpSchemeOptions lp_options;
            lp_options.timeLimitSec = 10.0;
            const auto with_lps =
                exp::paperSchemeSpecs(true, lp_options);
            // Keep only PhoenixFair/PhoenixCost/Default + the LPs —
            // the series the paper's panel shows.
            spec.schemes = {with_lps[0], with_lps[1], with_lps[4],
                            with_lps[5], with_lps[6]};
        } else {
            const auto all = exp::paperSchemeSpecs(false);
            spec.schemes = {all[0], all[1], all[4]};
        }
        spec.failureRates = {0.5};
        spec.trials = options.trialsOr(1);
        spec.seedBase = options.seedOr(1234);
        spec = exp::filterSchemes(spec, options.filter);

        const auto aggregates =
            exp::runGrid(env, spec, bench::engineOptions(options));
        for (const auto &agg : aggregates) {
            const bool failed = agg.failedTrials == agg.trials;
            table.row()
                .cell(nodes)
                .cell(agg.scheme)
                .cell(agg.mean.planSeconds, 4)
                .cell(agg.mean.packSeconds, 4)
                .cell(agg.mean.planSeconds + agg.mean.packSeconds, 4)
                .cell(agg.mean.opsHeapPushes, 0)
                .cell(agg.mean.opsBestFitProbes, 0)
                .cell(agg.mean.opsPodScans, 0)
                .cell(failed ? "gave-up" : "ok");
            if (smoke)
                smoke_ok =
                    smokeCheck(agg, kSmokeBound, "FIG8B_SMOKE") &&
                    smoke_ok;
            if (smoke_1m)
                smoke_ok = smokeCheck(agg, k1mBound, "FIG8B_1M") &&
                           smoke_ok;
        }
        if (!smoke && nodes > 1000 && options.filter.empty()) {
            table.row().cell(nodes).cell("LPFair").cell("-").cell("-")
                .cell("-").cell("-").cell("-").cell("-")
                .cell("does-not-scale");
            table.row().cell(nodes).cell("LPCost").cell("-").cell("-")
                .cell("-").cell("-").cell("-").cell("-")
                .cell("does-not-scale");
        }
        report.addSweep("nodes_" + std::to_string(nodes), aggregates);
    }

    table.print(std::cout);
    const double rss = peakRssMiB();
    std::cout << "Peak RSS: " << rss << " MiB\n";
    if (!smoke) {
        std::cout
            << "Headline: Phoenix replans a 100,000-node cluster in "
               "under 10 s; the LPs hit their wall-clock limit at "
               "1,000 nodes already.\n";
    }

    report.meta("peak_rss_mib", rss);
    report.addTable("fig8b_times", table);
    bench::finishReport(report, options);

    if ((smoke || smoke_1m) && !smoke_ok) {
        std::cerr << (smoke ? "FIG8B_SMOKE" : "FIG8B_1M")
                  << ": gate violated\n";
        return 1;
    }
    if (smoke || smoke_1m)
        std::cout << (smoke ? "FIG8B_SMOKE" : "FIG8B_1M")
                  << ": counters within recorded bounds\n";
    return 0;
}
