/**
 * @file
 * Serving-layer bench: drives the live request front end (src/serve)
 * over the CloudLab testbed through a scheme x load-shape x
 * failure-scenario grid and reports what the traffic experienced —
 * per-class goodput, SLO-violation seconds split critical vs
 * non-critical, and the admission shed fraction.
 *
 * Grid: {zone outage, 50%-capacity failure} x {steady, diurnal,
 * burst} x {PhoenixCost, PhoenixFair, Default}. Admission control is
 * active under the Phoenix schemes only — the Default baseline admits
 * everything, which is exactly the paper's comparison: cooperative
 * degradation (plan-aware shedding + criticality-ranked recovery)
 * versus a scheduler that lets every class fail organically.
 *
 * The JSON report (BENCH_serve.json) is finished locally rather than
 * through bench::finishReport: no "jobs" metadata and zero wall-clock
 * fields, so the file is byte-identical across --jobs values at a
 * fixed seed (the serve determinism gate diffs it for jobs 1/4/16).
 *
 * SERVE_SMOKE=1 restricts the grid to the diurnal shape under the two
 * failure scenarios with PhoenixCost vs Default, re-runs every smoke
 * cell serially to assert schedule-independence, and gates on the
 * serving storyline: zero invariant violations, exact admission
 * accounting (offered == served + shed + failed), plan-aware shedding
 * under the capacity crunch, and strictly less critical-class SLO
 * damage under Phoenix than under Default in both scenarios.
 */

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "exp/serving.h"
#include "util/table.h"

using namespace phoenix;
using exp::ServeResult;
using exp::TestbedScheme;

namespace {

struct ScenarioSpec
{
    std::string name;
    /** Fraction of cluster capacity the scenario takes down. */
    double failureRate = 0.0;
    sim::Scenario scenario;
    sim::ScenarioOptions options;
};

struct ShapeSpec
{
    std::string name;
    apps::RateCurve curve;
};

struct Cell
{
    size_t scenarioIndex = 0;
    size_t shapeIndex = 0;
    TestbedScheme scheme = TestbedScheme::Default;
    ServeResult result;
};

/** Serving window shared by every cell: placement settles during
 * [0, 300), traffic runs over [300, 1800]. */
constexpr double kWarmupSec = 300.0;
constexpr double kEndTime = 1800.0;

/** Shift a curve's control points by @p offset seconds (shapes are
 * authored relative to the serving window). */
apps::RateCurve
shiftCurve(const apps::RateCurve &curve, double offset)
{
    apps::RateCurve shifted;
    for (const auto &[t, v] : curve.points())
        shifted.point(t + offset, v);
    return shifted;
}

std::vector<ScenarioSpec>
buildScenarios(uint64_t seed)
{
    std::vector<ScenarioSpec> specs;
    {
        // Correlated sub-datacenter outage: one of five zones (20% of
        // nodes) fails mid-trace; spare capacity covers the demand, so
        // this measures pure recovery speed under live load.
        ScenarioSpec spec;
        spec.name = "zone";
        spec.failureRate = 0.2;
        spec.options.seed = util::cellSeed(seed, 0);
        spec.options.zoneCount = 5;
        spec.scenario.failZone(600.0, 0).recoverAll(1500.0);
        specs.push_back(std::move(spec));
    }
    {
        // The paper's headline crunch: capacity halved, ready CPU (100)
        // below total demand (140), so the planner must sacrifice
        // low-criticality services — the admission controller's
        // plan-aware shed path fires.
        ScenarioSpec spec;
        spec.name = "cap50";
        spec.failureRate = 0.5;
        spec.options.seed = util::cellSeed(seed, 1);
        spec.scenario.failCapacityFraction(600.0, 0.5)
            .recoverAll(1500.0, 15.0);
        specs.push_back(std::move(spec));
    }
    return specs;
}

std::vector<ShapeSpec>
buildShapes()
{
    std::vector<ShapeSpec> shapes;
    shapes.push_back({"steady", apps::RateCurve()});
    shapes.push_back(
        {"diurnal",
         shiftCurve(apps::RateCurve::diurnal(kEndTime - kWarmupSec,
                                             0.6, 1.5),
                    kWarmupSec)});
    // Burst rides on top of the degraded period: ramp starts while
    // the failure is still being repaired.
    shapes.push_back({"burst", apps::RateCurve::burst(900.0, 450.0,
                                                      1.0, 2.0)});
    return shapes;
}

exp::ServeConfig
cellConfig(const ScenarioSpec &scenario, const ShapeSpec &shape,
           TestbedScheme scheme, uint64_t seed, size_t scenarioIndex,
           size_t shapeIndex)
{
    exp::ServeConfig config;
    config.scheme = scheme;
    config.scenario = scenario.scenario;
    config.scenarioOptions = scenario.options;
    config.warmupSec = kWarmupSec;
    config.endTime = kEndTime;
    config.frontend.curve = shape.curve;
    config.frontend.windowSec = 5.0;
    // Admission control is the cooperative half of the design; the
    // Default baseline serves whatever survives, unprotected.
    config.frontend.admission.enabled = scheme != TestbedScheme::Default;
    config.frontend.seed = util::cellSeed(
        seed, scenarioIndex, shapeIndex, static_cast<size_t>(scheme));
    return config;
}

/** Canonical byte string of one cell's deterministic outputs (exact
 * hex-float doubles); the smoke gate compares the parallel run
 * against a serial re-run to prove schedule-independence. */
std::string
canonicalResultString(const Cell &cell)
{
    std::ostringstream os;
    os << std::hexfloat;
    os << exp::testbedSchemeName(cell.scheme) << '|'
       << cell.result.offered << '|' << cell.result.served << '|'
       << cell.result.shed << '|' << cell.result.failed << '|'
       << cell.result.criticalViolationSeconds << '|'
       << cell.result.nonCriticalViolationSeconds << '|'
       << cell.result.replans << '|'
       << cell.result.invariantViolations << '\n';
    for (const serve::ClassReport &rep : cell.result.classes) {
        os << rep.meta.label() << '|' << rep.offered << '|'
           << rep.served << '|' << rep.shed << '|' << rep.failed
           << '|' << rep.p95Ms << '|' << rep.sloViolationSeconds
           << '\n';
    }
    return os.str();
}

/** Cell -> perfdiff-compatible sweep aggregate. The serving headline
 * numbers ride in the aggregate's "obs" object (name-sorted), always
 * present so the JSON diff tracks them with metrics off. */
exp::SweepAggregate
toAggregate(const ScenarioSpec &spec, const Cell &cell)
{
    exp::SweepAggregate agg;
    agg.scheme = exp::testbedSchemeName(cell.scheme);
    agg.failureRate = spec.failureRate;
    agg.trials = 1;
    // wallSeconds stays 0: BENCH_serve.json must be byte-identical
    // across --jobs values.

    const ServeResult &r = cell.result;
    agg.obs = r.obsMetrics;
    agg.obs.emplace_back("serve.offered",
                         static_cast<double>(r.offered));
    agg.obs.emplace_back("serve.served", static_cast<double>(r.served));
    agg.obs.emplace_back("serve.shed_total",
                         static_cast<double>(r.shed));
    agg.obs.emplace_back("serve.failed_total",
                         static_cast<double>(r.failed));
    agg.obs.emplace_back("serve.critical_violation_seconds",
                         r.criticalViolationSeconds);
    agg.obs.emplace_back("serve.noncritical_violation_seconds",
                         r.nonCriticalViolationSeconds);
    agg.obs.emplace_back("serve.critical_goodput", r.criticalGoodput);
    agg.obs.emplace_back("serve.shed_fraction", r.shedFraction);
    agg.obs.emplace_back(
        "kube.invariant_violations",
        static_cast<double>(r.invariantViolations));
    std::sort(agg.obs.begin(), agg.obs.end());

    agg.availability = [&] {
        exp::MetricStats s;
        s.mean = s.min = s.max = r.criticalGoodput;
        return s;
    }();
    agg.requestsServed = [&] {
        exp::MetricStats s;
        s.mean = s.min = s.max = static_cast<double>(r.served);
        return s;
    }();
    return agg;
}

/** Local report finish: same outputs as bench::finishReport but with
 * no "jobs" metadata, so the JSON is --jobs-independent. */
void
finishDeterministicReport(exp::Report &report,
                          const exp::Options &options)
{
    if (options.metrics) {
        util::Table table({"metric", "kind", "count", "value", "p50",
                           "p90", "p99"});
        for (const auto &m : obs::Registry::global().snapshot()) {
            const char *kind =
                m.kind == obs::MetricKind::Counter   ? "counter"
                : m.kind == obs::MetricKind::Gauge   ? "gauge"
                                                     : "histogram";
            table.row()
                .cell(m.name)
                .cell(kind)
                .cell(static_cast<size_t>(m.count))
                .cell(exp::jsonNumber(m.value))
                .cell(exp::jsonNumber(m.p50))
                .cell(exp::jsonNumber(m.p90))
                .cell(exp::jsonNumber(m.p99));
        }
        report.addTable("obs.metrics", table);
    }
    if (report.writeJsonFile(options.jsonPath))
        std::cout << "[report] JSON written to " << options.jsonPath
                  << "\n";
    if (report.writeCsvFile(options.csvPath))
        std::cout << "[report] CSV written to " << options.csvPath
                  << "\n";
    if (!options.traceOut.empty()) {
        std::ofstream trace(options.traceOut);
        if (trace) {
            obs::Tracer::global().exportChromeJson(trace);
            std::cout << "[trace] Chrome trace written to "
                      << options.traceOut << "\n";
        } else {
            std::cerr << "warning: cannot write trace to "
                      << options.traceOut << "\n";
        }
    }
}

bool
smokeMode()
{
    const char *env = std::getenv("SERVE_SMOKE");
    return env && std::string(env) == "1";
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = bench::parseOptions(argc, argv, "serve");
    bench::applyObs(options);
    const bool smoke = smokeMode();
    bench::banner(
        "Serving layer | live load + SLOs + admission control under "
        "degradation on the 25-node CloudLab testbed");

    const uint64_t seed = options.seedOr(42);
    const auto scenarios = buildScenarios(seed);
    const auto shapes = buildShapes();
    std::vector<TestbedScheme> schemes{TestbedScheme::PhoenixCost,
                                       TestbedScheme::PhoenixFair,
                                       TestbedScheme::Default};
    if (smoke)
        schemes = {TestbedScheme::PhoenixCost, TestbedScheme::Default};

    std::vector<Cell> cells;
    for (size_t s = 0; s < scenarios.size(); ++s) {
        for (size_t h = 0; h < shapes.size(); ++h) {
            if (smoke && shapes[h].name != "diurnal")
                continue;
            for (TestbedScheme scheme : schemes) {
                if (!options.filter.empty()) {
                    std::string name = exp::testbedSchemeName(scheme);
                    std::string filter = options.filter;
                    for (auto &c : name)
                        c = static_cast<char>(std::tolower(c));
                    for (auto &c : filter)
                        c = static_cast<char>(std::tolower(c));
                    if (name.find(filter) == std::string::npos)
                        continue;
                }
                Cell cell;
                cell.scenarioIndex = s;
                cell.shapeIndex = h;
                cell.scheme = scheme;
                cells.push_back(cell);
            }
        }
    }

    exp::parallelFor(options.jobs, cells.size(), [&](size_t i) {
        Cell &cell = cells[i];
        const ScenarioSpec &spec = scenarios[cell.scenarioIndex];
        const ShapeSpec &shape = shapes[cell.shapeIndex];
        // One trace track per cell, keyed by the canonical cell index
        // so the trace layout is identical for any --jobs value.
        obs::setCurrentTrack(static_cast<uint32_t>(i));
        if (obs::traceEnabled()) {
            obs::Tracer::global().nameTrack(
                static_cast<uint32_t>(i),
                spec.name + "/" + shape.name + "/" +
                    exp::testbedSchemeName(cell.scheme));
        }
        cell.result = exp::runServe(
            cellConfig(spec, shape, cell.scheme, seed,
                       cell.scenarioIndex, cell.shapeIndex));
    });

    // ---- Per-cell serving outcomes -------------------------------
    bench::banner("traffic outcome per (scenario, shape, scheme)");
    util::Table table({"scenario", "shape", "scheme", "offered",
                       "served", "shed", "failed", "shed%",
                       "crit_viol_s", "other_viol_s", "crit_goodput",
                       "replans", "violations"});
    for (const Cell &cell : cells) {
        const ServeResult &r = cell.result;
        table.row()
            .cell(scenarios[cell.scenarioIndex].name)
            .cell(shapes[cell.shapeIndex].name)
            .cell(exp::testbedSchemeName(cell.scheme))
            .cell(r.offered)
            .cell(r.served)
            .cell(r.shed)
            .cell(r.failed)
            .cell(100.0 * r.shedFraction, 1)
            .cell(r.criticalViolationSeconds, 0)
            .cell(r.nonCriticalViolationSeconds, 0)
            .cell(r.criticalGoodput, 3)
            .cell(r.replans)
            .cell(r.invariantViolations);
    }
    table.print(std::cout);

    // ---- Headline per-class view (cap50/diurnal, Phoenix) --------
    util::Table classes({"class", "crit", "offered", "served", "shed",
                         "failed", "p95_ms", "viol_s"});
    for (const Cell &cell : cells) {
        if (scenarios[cell.scenarioIndex].name != "cap50" ||
            shapes[cell.shapeIndex].name != "diurnal" ||
            cell.scheme != TestbedScheme::PhoenixCost)
            continue;
        for (const serve::ClassReport &rep : cell.result.classes) {
            classes.row()
                .cell(rep.meta.label())
                .cell(static_cast<size_t>(rep.meta.criticality))
                .cell(rep.offered)
                .cell(rep.served)
                .cell(rep.shed)
                .cell(rep.failed)
                .cell(rep.p95Ms, 1)
                .cell(rep.sloViolationSeconds, 0);
        }
    }
    bench::banner("cap50/diurnal per-class detail (PhoenixCost)");
    classes.print(std::cout);

    // ---- Report --------------------------------------------------
    exp::Report report("serve");
    report.meta("nodes",
                static_cast<int64_t>(apps::CloudLabConfig{}.nodeCount));
    report.meta("warmup_s", kWarmupSec);
    report.meta("end_s", kEndTime);
    report.meta("smoke", static_cast<int64_t>(smoke ? 1 : 0));
    for (const Cell &cell : cells) {
        const std::string prefix =
            scenarios[cell.scenarioIndex].name + "_" +
            shapes[cell.shapeIndex].name + "_" +
            exp::testbedSchemeName(cell.scheme);
        report.meta(prefix + "_crit_viol_s",
                    cell.result.criticalViolationSeconds);
        report.meta(prefix + "_shed_fraction",
                    cell.result.shedFraction);
    }
    report.addTable("serve_cells", table);
    report.addTable("classes_cap50_diurnal", classes);
    for (size_t s = 0; s < scenarios.size(); ++s) {
        for (size_t h = 0; h < shapes.size(); ++h) {
            std::vector<exp::SweepAggregate> sweep;
            for (const Cell &cell : cells) {
                if (cell.scenarioIndex == s && cell.shapeIndex == h)
                    sweep.push_back(
                        toAggregate(scenarios[s], cell));
            }
            if (!sweep.empty())
                report.addSweep(scenarios[s].name + "_" +
                                    shapes[h].name,
                                sweep);
        }
    }
    finishDeterministicReport(report, options);

    // ---- Smoke gate ----------------------------------------------
    if (smoke) {
        size_t failures = 0;
        auto expect = [&failures](bool ok, const std::string &what) {
            if (!ok) {
                std::cerr << "[smoke] FAIL: " << what << "\n";
                ++failures;
            }
        };

        // Schedule-independence: every smoke cell re-run serially
        // must reproduce the parallel run byte-for-byte.
        for (size_t i = 0; i < cells.size(); ++i) {
            Cell rerun = cells[i];
            const ScenarioSpec &spec =
                scenarios[rerun.scenarioIndex];
            obs::setCurrentTrack(static_cast<uint32_t>(i));
            rerun.result = exp::runServe(cellConfig(
                spec, shapes[rerun.shapeIndex], rerun.scheme, seed,
                rerun.scenarioIndex, rerun.shapeIndex));
            expect(canonicalResultString(rerun) ==
                       canonicalResultString(cells[i]),
                   spec.name + "/" +
                       exp::testbedSchemeName(rerun.scheme) +
                       " deterministic across schedules");
        }

        auto find = [&](const std::string &scenario,
                        TestbedScheme scheme) -> const Cell * {
            for (const Cell &cell : cells) {
                if (scenarios[cell.scenarioIndex].name == scenario &&
                    cell.scheme == scheme)
                    return &cell;
            }
            return nullptr;
        };

        for (const Cell &cell : cells) {
            const ServeResult &r = cell.result;
            const std::string tag =
                scenarios[cell.scenarioIndex].name + "/" +
                exp::testbedSchemeName(cell.scheme);
            expect(r.invariantViolations == 0,
                   "no kube invariant violations under " + tag);
            expect(r.offered == r.served + r.shed + r.failed,
                   "admission accounting exact under " + tag);
            expect(r.offered > 0, "traffic offered under " + tag);
        }

        for (const std::string scenario : {"zone", "cap50"}) {
            const Cell *phoenix =
                find(scenario, TestbedScheme::PhoenixCost);
            const Cell *fallback =
                find(scenario, TestbedScheme::Default);
            expect(phoenix && fallback,
                   scenario + ": both smoke cells ran");
            if (!phoenix || !fallback)
                continue;
            const ServeResult &p = phoenix->result;
            const ServeResult &d = fallback->result;
            expect(d.criticalViolationSeconds > 0.0,
                   scenario +
                       ": default takes critical SLO damage");
            expect(p.criticalViolationSeconds <
                       d.criticalViolationSeconds,
                   scenario + ": phoenix keeps critical "
                              "SLO-violation seconds strictly below "
                              "default");
            expect(d.shed == 0,
                   scenario + ": default never sheds (no admission)");
        }

        const Cell *crunch = find("cap50", TestbedScheme::PhoenixCost);
        if (crunch) {
            expect(crunch->result.shed > 0,
                   "cap50: phoenix admission sheds sacrificed "
                   "classes (plan-aware fail-fast)");
            expect(crunch->result.shedFraction < 0.5,
                   "cap50: phoenix sheds a minority of traffic");
        }

        if (failures > 0) {
            std::cerr << "[smoke] " << failures << " check(s) failed\n";
            return 1;
        }
        std::cout << "[smoke] serving bounds OK\n";
    }
    return 0;
}
