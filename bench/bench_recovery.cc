/**
 * @file
 * Recovery-dynamics bench (Fig 6, §6.1): drives the CloudLab testbed
 * through four failure-scenario shapes — a 50%-capacity failure with
 * staggered recovery, a correlated two-zone outage, rolling node
 * failures, and kubelet flaps inside/outside the grace period — under
 * PhoenixCost, PhoenixFair, and the Kubernetes Default baseline.
 *
 * Every cell records the per-tick time series (ready capacity,
 * Running-critical count, availability, utility, pending pods) and the
 * derived time-to-critical-recovery / time-to-full-recovery. The JSON
 * report (BENCH_recovery.json) carries one sweep section per scenario
 * so tools/perfdiff can compare plan-time across runs, plus the
 * per-cell recovery metrics and the headline timelines. The kube
 * invariant checker is active in every cell.
 *
 * Two anticipated-fault scenarios (decayzone, graydecay) inject
 * precursor signals — partial zone loss, gradual capacity decay —
 * before the main fault; the Phoenix cells run twice there, reactive
 * and with the forecast subsystem attached (--forecast extends the
 * forecast cells to every scenario). --sample-period overrides the
 * harness sampling cadence.
 *
 * RECOVERY_SMOKE=1 restricts the grid to the 50%-capacity scenario
 * plus the constrained/anticipated scenarios and asserts the Fig 6
 * storyline: Phoenix restores all critical services within bounded
 * time, Default cannot until capacity returns, the forecast cells
 * recover strictly faster than reactive on the anticipated faults
 * (>= 2x on the anticipated zone kill), and no cell violates a
 * cluster invariant.
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "exp/recovery.h"
#include "util/table.h"

using namespace phoenix;
using exp::RecoveryConfig;
using exp::RecoveryResult;
using exp::TestbedScheme;

namespace {

struct ScenarioSpec
{
    std::string name;
    /** Fraction of cluster capacity the scenario takes down (the
     * sweep section's failure_rate key). */
    double failureRate = 0.0;
    sim::Scenario scenario;
    sim::ScenarioOptions options;
    double endTime = 2400.0;
    /** Explicit node zones + the spread/PDB overlay on C1 services
     * (RecoveryConfig::zoneCount); 0 = classic untopologied testbed. */
    size_t zoneCount = 0;
    /** Precursor signals precede the main fault: the forecast cells
     * run here by default (reactive vs forecast ttcr is the story). */
    bool anticipated = false;
};

struct CellResult
{
    size_t scenarioIndex = 0;
    TestbedScheme scheme = TestbedScheme::Default;
    bool forecast = false;
    RecoveryResult recovery;
    double wallSeconds = 0.0;
};

/** Sweep/report label: the forecast cells are distinct schemes, so
 * perfdiff treats them as added/removed cells (never an ops
 * regression) against pre-forecast baselines. */
std::string
cellSchemeName(const CellResult &cell)
{
    std::string name = exp::testbedSchemeName(cell.scheme);
    if (cell.forecast)
        name += "+forecast";
    return name;
}

std::vector<ScenarioSpec>
buildScenarios(uint64_t seed)
{
    std::vector<ScenarioSpec> specs;

    {
        // The paper's headline run: capacity halved at t=600 s, nodes
        // return one by one from t=1500 s (staggered recovery).
        ScenarioSpec spec;
        spec.name = "cap50";
        spec.failureRate = 0.5;
        spec.options.seed = seed;
        spec.scenario.failCapacityFraction(600.0, 0.5)
            .recoverAll(1500.0, 30.0);
        spec.endTime = 2400.0;
        specs.push_back(std::move(spec));
    }
    {
        // Correlated sub-datacenter outage: two of five zones fail a
        // minute apart (40% of nodes), everything returns at once.
        ScenarioSpec spec;
        spec.name = "zones";
        spec.failureRate = 0.4;
        spec.options.seed = seed;
        spec.options.zoneCount = 5;
        spec.scenario.failZone(600.0, 0)
            .failZone(660.0, 1)
            .recoverAll(1500.0);
        spec.endTime = 2400.0;
        specs.push_back(std::move(spec));
    }
    {
        // Spread-constrained zone outage: nodes carry explicit zone
        // labels, every C1 service is split into a two-replica
        // minZoneSpread=2 pair (same aggregate demand), and one whole
        // zone dies. Placement honoring the implied per-zone cap
        // keeps a survivor of every critical pair outside the dead
        // zone, so the outage should be a non-event for critical
        // availability — the bench-level version of the pinned
        // zone-kill demo in test_constraints.
        ScenarioSpec spec;
        spec.name = "spreadzone";
        spec.failureRate = 0.2;
        spec.options.seed = seed;
        spec.options.zoneCount = 5;
        spec.zoneCount = 5;
        spec.scenario.failZone(600.0, 0).recoverAll(1500.0);
        spec.endTime = 2400.0;
        specs.push_back(std::move(spec));
    }
    {
        // Anticipated zone loss: three of zone 0's five nodes die as
        // precursors (t=400, t=500), then the whole zone goes at
        // t=900. The zone-loss detector arms on the precursor deficit
        // and pre-moves the survivors off the at-risk zone, so the
        // full kill should be a non-event for the forecast cell;
        // reactive cells eat a second detection + replan + restart
        // cycle.
        ScenarioSpec spec;
        spec.name = "decayzone";
        spec.failureRate = 0.2;
        spec.options.seed = seed;
        spec.options.zoneCount = 5;
        spec.anticipated = true;
        spec.scenario.failNodes(400.0, {0, 5})
            .failNodes(500.0, {10})
            .failZone(900.0, 0)
            .recoverAll(1500.0, 30.0);
        spec.endTime = 2400.0;
        specs.push_back(std::move(spec));
    }
    {
        // Anticipated gray failure: one failure domain's nodes decay
        // gradually (factor 0.6 at t=400, 0.25 at t=600) before dying
        // outright at t=900. The gray set is one zone under the
        // forecaster's fallback striping (id % 5), so the zone-loss
        // and capacity-decay detectors agree on the at-risk node set:
        // the proactive drain empties exactly the nodes that later
        // die, and the kill should be a non-event for the forecast
        // cell. The reactive controller sees no capacity *loss* while
        // the pods still fit the decayed nodes, so it eats the full
        // detection + replan cycle at the kill.
        ScenarioSpec spec;
        spec.name = "graydecay";
        spec.failureRate = 5.0 / 25.0;
        spec.options.seed = seed;
        spec.anticipated = true;
        std::vector<sim::NodeId> gray{0, 5, 10, 15, 20};
        spec.scenario.degradeNodes(400.0, gray, 0.6)
            .degradeNodes(600.0, gray, 0.25)
            .failNodes(900.0, gray)
            .recoverAll(1500.0, 15.0);
        spec.endTime = 2400.0;
        specs.push_back(std::move(spec));
    }
    {
        // Rolling failure: one random node per minute for 8 minutes,
        // then staggered recovery.
        ScenarioSpec spec;
        spec.name = "rolling";
        spec.failureRate = 8.0 / 25.0;
        spec.options.seed = seed;
        spec.scenario.rollingFail(600.0, 8, 60.0)
            .recoverAll(1800.0, 15.0);
        spec.endTime = 2600.0;
        specs.push_back(std::move(spec));
    }
    {
        // Kubelet flaps: three nodes flap inside the 100 s grace
        // period (must be a non-event), five flap well outside it.
        ScenarioSpec spec;
        spec.name = "flap";
        spec.failureRate = 5.0 / 25.0;
        spec.options.seed = seed;
        for (sim::NodeId n = 0; n < 3; ++n)
            spec.scenario.flapKubelet(600.0, n, 50.0);
        for (sim::NodeId n = 3; n < 8; ++n)
            spec.scenario.flapKubelet(900.0, n, 300.0);
        spec.endTime = 2000.0;
        specs.push_back(std::move(spec));
    }
    return specs;
}

exp::MetricStats
statsOf(const std::vector<double> &values)
{
    exp::MetricStats stats;
    if (values.empty())
        return stats;
    stats.min = values.front();
    stats.max = values.front();
    double sum = 0.0;
    for (double v : values) {
        sum += v;
        stats.min = std::min(stats.min, v);
        stats.max = std::max(stats.max, v);
    }
    stats.mean = sum / static_cast<double>(values.size());
    double var = 0.0;
    for (double v : values)
        var += (v - stats.mean) * (v - stats.mean);
    stats.stddev = std::sqrt(var / static_cast<double>(values.size()));
    return stats;
}

/** Cell -> perfdiff-compatible sweep aggregate. */
exp::SweepAggregate
toAggregate(const ScenarioSpec &spec, const CellResult &cell)
{
    exp::SweepAggregate agg;
    agg.scheme = cellSchemeName(cell);
    agg.failureRate = spec.failureRate;
    agg.trials = 1;
    agg.wallSeconds = cell.wallSeconds;

    // Per-cell obs metric deltas (--metrics), with the kube
    // invariant-violation count always present so a regression to
    // nonzero is visible in the JSON diff.
    agg.obs = cell.recovery.obsMetrics;
    if (!agg.obs.empty()) {
        bool has_violations = false;
        for (const auto &[name, value] : agg.obs) {
            (void)value;
            has_violations =
                has_violations || name == "kube.invariant_violations";
        }
        if (!has_violations) {
            agg.obs.emplace_back(
                "kube.invariant_violations",
                static_cast<double>(
                    cell.recovery.invariantViolations));
            std::sort(agg.obs.begin(), agg.obs.end());
        }
    }

    std::vector<double> avail;
    std::vector<double> util;
    for (const auto &sample : cell.recovery.samples) {
        if (sample.t >= cell.recovery.firstFailureAt) {
            avail.push_back(sample.availability);
            util.push_back(sample.utility);
        }
    }
    agg.availability = statsOf(avail);
    agg.requestsServed = statsOf(util);
    agg.availabilityStrict =
        statsOf({cell.recovery.finalAvailability});
    if (cell.recovery.replans > 0) {
        agg.planSeconds = statsOf({cell.recovery.planSecondsTotal /
                                   static_cast<double>(
                                       cell.recovery.replans)});
    }
    return agg;
}

bool
smokeMode()
{
    const char *env = std::getenv("RECOVERY_SMOKE");
    return env && std::string(env) == "1";
}

} // namespace

int
main(int argc, char **argv)
{
    // Harness-specific flags are stripped before the shared parser
    // (which exits on anything it does not know).
    bool forecastAll = false;
    double samplePeriod = 0.0; // 0 = RecoveryConfig default
    std::vector<char *> pass;
    pass.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--forecast") {
            forecastAll = true;
        } else if (arg == "--sample-period") {
            char *end = nullptr;
            const char *value = i + 1 < argc ? argv[++i] : "";
            samplePeriod = std::strtod(value, &end);
            if (*value == '\0' || end == nullptr || *end != '\0' ||
                samplePeriod <= 0.0) {
                std::cerr << "bench_recovery: --sample-period expects "
                             "a positive number of seconds, got '"
                          << value << "'\n";
                return 2;
            }
        } else {
            pass.push_back(argv[i]);
        }
    }

    const auto options = bench::parseOptions(
        static_cast<int>(pass.size()), pass.data(), "recovery");
    bench::applyObs(options);
    const bool smoke = smokeMode();
    bench::banner(
        "Recovery dynamics | scenario-driven Fig 6 timelines on the "
        "25-node CloudLab testbed");

    const auto scenarios = buildScenarios(options.seedOr(42));
    std::vector<TestbedScheme> schemes{TestbedScheme::PhoenixCost,
                                       TestbedScheme::PhoenixFair,
                                       TestbedScheme::Default};
    if (smoke)
        schemes = {TestbedScheme::PhoenixCost, TestbedScheme::Default};

    // Build the cell list (scenario-major, matching report order).
    // Phoenix schemes additionally run with the forecast subsystem on
    // the anticipated-fault scenarios (everywhere with --forecast).
    std::vector<CellResult> cells;
    for (size_t s = 0; s < scenarios.size(); ++s) {
        if (smoke && scenarios[s].name != "cap50" &&
            scenarios[s].name != "spreadzone" &&
            !scenarios[s].anticipated)
            continue;
        for (TestbedScheme scheme : schemes) {
            for (int forecast = 0; forecast < 2; ++forecast) {
                if (forecast &&
                    (scheme == TestbedScheme::Default ||
                     !(forecastAll || scenarios[s].anticipated)))
                    continue;
                if (smoke && forecast &&
                    scheme != TestbedScheme::PhoenixCost)
                    continue;
                CellResult cell;
                cell.scenarioIndex = s;
                cell.scheme = scheme;
                cell.forecast = forecast != 0;
                if (!options.filter.empty()) {
                    std::string name = cellSchemeName(cell);
                    std::string filter = options.filter;
                    for (auto &c : name)
                        c = static_cast<char>(std::tolower(c));
                    for (auto &c : filter)
                        c = static_cast<char>(std::tolower(c));
                    if (name.find(filter) == std::string::npos)
                        continue;
                }
                cells.push_back(cell);
            }
        }
    }

    exp::parallelFor(options.jobs, cells.size(), [&](size_t i) {
        CellResult &cell = cells[i];
        const ScenarioSpec &spec = scenarios[cell.scenarioIndex];
        // One trace track per cell, keyed by the canonical cell index
        // so the trace layout is identical for any --jobs value.
        obs::setCurrentTrack(static_cast<uint32_t>(i));
        if (obs::traceEnabled()) {
            obs::Tracer::global().nameTrack(
                static_cast<uint32_t>(i),
                spec.name + "/" + cellSchemeName(cell));
        }
        RecoveryConfig config;
        config.scheme = cell.scheme;
        config.scenario = spec.scenario;
        config.scenarioOptions = spec.options;
        config.endTime = spec.endTime;
        config.zoneCount = spec.zoneCount;
        config.forecast = cell.forecast;
        if (samplePeriod > 0.0)
            config.samplePeriod = samplePeriod;
        const auto start = std::chrono::steady_clock::now();
        cell.recovery = exp::runRecovery(config);
        cell.wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
    });

    // ---- Per-cell recovery metrics -------------------------------
    bench::banner("time-to-recovery per (scenario, scheme)");
    util::Table table({"scenario", "scheme", "ttcr(s)", "ttfr(s)",
                       "min_avail", "final_avail", "max_pending",
                       "replans", "proactive", "violations"});
    for (const CellResult &cell : cells) {
        const ScenarioSpec &spec = scenarios[cell.scenarioIndex];
        table.row()
            .cell(spec.name)
            .cell(cellSchemeName(cell))
            .cell(cell.recovery.timeToCriticalRecovery, 0)
            .cell(cell.recovery.timeToFullRecovery, 0)
            .cell(cell.recovery.minAvailability, 2)
            .cell(cell.recovery.finalAvailability, 2)
            .cell(cell.recovery.maxPending)
            .cell(cell.recovery.replans)
            .cell(cell.recovery.proactiveReplans)
            .cell(cell.recovery.invariantViolations);
    }
    table.print(std::cout);

    // ---- Headline timeline (cap50, PhoenixCost vs Default) -------
    util::Table timeline({"t(s)", "scheme", "ready_cpu", "crit_up",
                          "running", "pending", "avail", "utility"});
    for (const CellResult &cell : cells) {
        if (scenarios[cell.scenarioIndex].name != "cap50")
            continue;
        if (cell.scheme == TestbedScheme::PhoenixFair)
            continue;
        for (const auto &sample : cell.recovery.samples) {
            if (std::fmod(sample.t, 90.0) != 0.0)
                continue;
            timeline.row()
                .cell(sample.t, 0)
                .cell(exp::testbedSchemeName(cell.scheme))
                .cell(sample.readyCapacity, 0)
                .cell(sample.runningCritical)
                .cell(sample.running)
                .cell(sample.pending)
                .cell(sample.availability, 2)
                .cell(sample.utility, 2);
        }
    }
    bench::banner("cap50 recovery timeline");
    timeline.print(std::cout);

    // ---- Report --------------------------------------------------
    exp::Report report("recovery");
    report.meta("nodes",
                static_cast<int64_t>(apps::CloudLabConfig{}.nodeCount));
    report.meta("smoke", static_cast<int64_t>(smoke ? 1 : 0));
    for (const CellResult &cell : cells) {
        const ScenarioSpec &spec = scenarios[cell.scenarioIndex];
        const std::string prefix =
            spec.name + "_" + cellSchemeName(cell);
        report.meta(prefix + "_ttcr_s",
                    cell.recovery.timeToCriticalRecovery);
        report.meta(prefix + "_ttfr_s",
                    cell.recovery.timeToFullRecovery);
    }
    report.addTable("recovery_cells", table);
    report.addTable("timeline_cap50", timeline);
    for (size_t s = 0; s < scenarios.size(); ++s) {
        std::vector<exp::SweepAggregate> sweep;
        for (const CellResult &cell : cells) {
            if (cell.scenarioIndex == s)
                sweep.push_back(toAggregate(scenarios[s], cell));
        }
        if (!sweep.empty())
            report.addSweep(scenarios[s].name, sweep);
    }
    bench::finishReport(report, options);

    // ---- Smoke gate ----------------------------------------------
    if (smoke) {
        const CellResult *phoenix = nullptr;
        const CellResult *fallback = nullptr;
        const CellResult *spread = nullptr;
        const CellResult *decayReactive = nullptr;
        const CellResult *decayForecast = nullptr;
        const CellResult *grayReactive = nullptr;
        const CellResult *grayForecast = nullptr;
        for (const CellResult &cell : cells) {
            const std::string &name =
                scenarios[cell.scenarioIndex].name;
            if (name == "cap50" && !cell.forecast) {
                if (cell.scheme == TestbedScheme::PhoenixCost)
                    phoenix = &cell;
                if (cell.scheme == TestbedScheme::Default)
                    fallback = &cell;
            } else if (name == "spreadzone" && !cell.forecast &&
                       cell.scheme == TestbedScheme::PhoenixCost) {
                spread = &cell;
            } else if (cell.scheme == TestbedScheme::PhoenixCost &&
                       name == "decayzone") {
                (cell.forecast ? decayForecast : decayReactive) =
                    &cell;
            } else if (cell.scheme == TestbedScheme::PhoenixCost &&
                       name == "graydecay") {
                (cell.forecast ? grayForecast : grayReactive) = &cell;
            }
        }
        size_t failures = 0;
        auto expect = [&failures](bool ok, const std::string &what) {
            if (!ok) {
                std::cerr << "[smoke] FAIL: " << what << "\n";
                ++failures;
            }
        };
        for (const CellResult &cell : cells) {
            expect(cell.recovery.invariantViolations == 0,
                   std::string("invariant violations under ") +
                       exp::testbedSchemeName(cell.scheme));
        }
        expect(phoenix && fallback, "both smoke cells ran");
        if (phoenix && fallback) {
            const RecoveryResult &p = phoenix->recovery;
            const RecoveryResult &d = fallback->recovery;
            expect(p.minAvailability < 1.0,
                   "phoenix availability dipped during detection");
            expect(p.timeToCriticalRecovery > 0.0,
                   "phoenix ttcr derived");
            expect(p.timeToCriticalRecovery <= 420.0,
                   "phoenix restores critical services within 420 s "
                   "(grace + poll + replan + pod startup)");
            expect(p.finalAvailability >= 1.0 - 1e-9,
                   "phoenix ends fully available");
            expect(p.timeToFullRecovery > 0.0 &&
                       p.timeToFullRecovery <= 1800.0,
                   "phoenix full recovery after capacity returns");
            expect(d.timeToCriticalRecovery < 0.0 ||
                       d.timeToCriticalRecovery >
                           p.timeToCriticalRecovery + 120.0,
                   "default cannot protect critical services before "
                   "capacity returns");
        }
        // Forecast storyline: on both anticipated-fault scenarios the
        // forecast cell recovers strictly faster than reactive (a ttcr
        // of 0 — the fault became a non-event — counts), and on the
        // anticipated zone kill the margin is at least 2x.
        auto beats = [](const RecoveryResult &reactive,
                        const RecoveryResult &forecast) {
            if (forecast.timeToCriticalRecovery < 0.0)
                return false; // forecast never recovered
            return reactive.timeToCriticalRecovery < 0.0 ||
                   forecast.timeToCriticalRecovery <
                       reactive.timeToCriticalRecovery;
        };
        expect(decayReactive && decayForecast &&
                   grayReactive && grayForecast,
               "anticipated-fault smoke cells ran");
        if (decayReactive && decayForecast) {
            const RecoveryResult &r = decayReactive->recovery;
            const RecoveryResult &f = decayForecast->recovery;
            expect(r.timeToCriticalRecovery > 0.0,
                   "decayzone reactive ttcr derived (dip happened)");
            expect(beats(r, f),
                   "decayzone forecast ttcr strictly below reactive");
            expect(f.timeToCriticalRecovery * 2.0 <=
                       r.timeToCriticalRecovery,
                   "decayzone forecast recovers >= 2x faster");
            expect(f.forecast.prestagedPlans >= 1,
                   "decayzone forecast planned a projection");
            expect(f.proactiveReplans >= 1,
                   "decayzone forecast executed a plan proactively");
        }
        if (grayReactive && grayForecast) {
            const RecoveryResult &r = grayReactive->recovery;
            const RecoveryResult &f = grayForecast->recovery;
            expect(beats(r, f),
                   "graydecay forecast ttcr strictly below reactive");
            expect(f.forecast.prestagedPlans >= 1,
                   "graydecay forecast planned a projection");
        }
        expect(spread != nullptr, "spreadzone smoke cell ran");
        if (spread) {
            const RecoveryResult &s = spread->recovery;
            // Every critical pair has a spread-placed survivor, so a
            // whole zone dying never drops a critical service: the
            // outage is a non-event for critical availability and the
            // cluster is fully available again within the Fig 6
            // recovery envelope.
            expect(s.minAvailability >= 1.0 - 1e-9,
                   "spread-constrained criticals ride out the zone "
                   "kill (no availability dip)");
            expect(s.timeToCriticalRecovery == 0.0,
                   "spreadzone ttcr is 0 (never dropped)");
            expect(s.finalAvailability >= 1.0 - 1e-9,
                   "spreadzone ends fully available");
            expect(s.timeToFullRecovery >= 0.0 &&
                       s.timeToFullRecovery <= 1800.0,
                   "spreadzone full recovery after the zone returns");
        }
        if (failures > 0) {
            std::cerr << "[smoke] " << failures << " check(s) failed\n";
            return 1;
        }
        std::cout << "[smoke] recovery bounds OK\n";
    }
    return 0;
}
