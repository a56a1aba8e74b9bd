/**
 * @file
 * End-to-end serving harness: the CloudLab testbed + a failure
 * scenario + a live request front end (src/serve), run under one
 * resilience scheme. The serving analogue of exp::runRecovery — where
 * that harness measures recovery *dynamics* (availability over time),
 * this one measures what live traffic experienced: per-class goodput,
 * SLO-violation seconds split critical/non-critical, and the
 * admission shed fraction.
 *
 * The kube invariant checker is force-enabled for every run.
 */

#ifndef PHOENIX_EXP_SERVING_H
#define PHOENIX_EXP_SERVING_H

#include <string>
#include <utility>
#include <vector>

#include "exp/testbed.h"
#include "serve/frontend.h"
#include "sim/scenario.h"

namespace phoenix::exp {

/** One serving run: testbed + scenario + front end + scheme. */
struct ServeConfig
{
    TestbedScheme scheme = TestbedScheme::PhoenixCost;
    apps::CloudLabConfig testbed;
    kube::KubeConfig kube; //!< validateInvariants is forced on
    sim::Scenario scenario;
    sim::ScenarioOptions scenarioOptions;
    /** Front-end knobs. startAt/endAt are overwritten from warmupSec
     * and endTime — the harness owns the serving window. */
    serve::FrontendConfig frontend;
    /** Serving starts here: initial placement needs to settle first
     * (scheduler binds + pod startup, ~60-100 s). */
    double warmupSec = 300.0;
    /** Simulation horizon (also the end of the serving window). */
    double endTime = 1800.0;
    /** Attach the forecast subsystem to the controller + admission
     * gate (predictive degradation; Default scheme has no controller
     * to attach to, so the flag is ignored there). */
    bool forecast = false;
    forecast::ForecastConfig forecastConfig;
};

/** Harness outcome. */
struct ServeResult
{
    std::vector<serve::ClassReport> classes;

    size_t offered = 0;
    size_t served = 0;
    size_t shed = 0;
    size_t failed = 0;

    /** SLO-violation seconds over critical (C1) classes — the paper's
     * protected traffic — and over everything else. */
    double criticalViolationSeconds = 0.0;
    double nonCriticalViolationSeconds = 0.0;

    /** served / offered over the critical classes (1.0 if idle). */
    double criticalGoodput = 1.0;
    double totalGoodput = 1.0;
    /** shed / offered over all classes. */
    double shedFraction = 0.0;

    double firstFailureAt = -1.0;
    size_t replans = 0;
    size_t invariantViolations = 0;
    /** Forecast subsystem counters (zero when forecast is off). */
    forecast::ForecastCounters forecast;

    /** obs counters/histogram-counts this run incremented (empty with
     * metrics disabled); exact under one-cell-one-thread. */
    std::vector<std::pair<std::string, double>> obsMetrics;
};

/** Run one serving scenario end to end. */
ServeResult runServe(const ServeConfig &config);

} // namespace phoenix::exp

#endif // PHOENIX_EXP_SERVING_H
