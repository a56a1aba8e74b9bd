/**
 * @file
 * End-to-end recovery harness (Fig 6, §6.1): runs a declarative
 * failure Scenario against the mini-Kubernetes substrate — with or
 * without a Phoenix controller — sampling a per-tick time series
 * (ready capacity, Running-critical count, availability, utility,
 * pending pods) and deriving the paper's headline recovery metrics:
 * time-to-critical-recovery (all C1 services Running again) and
 * time-to-full-recovery (pre-failure Running count restored), both
 * measured from the instant the first failure is injected — so they
 * include the ~100 s detection window, replanning, and pod startup.
 *
 * The kube invariant checker is force-enabled for every harness run:
 * a scenario that drives the cluster into an illegal lifecycle state
 * shows up as invariantViolations > 0 in the result.
 */

#ifndef PHOENIX_EXP_RECOVERY_H
#define PHOENIX_EXP_RECOVERY_H

#include <string>
#include <utility>
#include <vector>

#include "exp/testbed.h"
#include "sim/scenario.h"

namespace phoenix::exp {

/** One harness run: testbed + scenario + sampling cadence. */
struct RecoveryConfig
{
    TestbedScheme scheme = TestbedScheme::PhoenixCost;
    /** CloudLab-style testbed (five app instances, Fig 4 goals). */
    apps::CloudLabConfig testbed;
    kube::KubeConfig kube; //!< validateInvariants is forced on
    sim::Scenario scenario;
    sim::ScenarioOptions scenarioOptions;
    /** Time-series sampling period (seconds). */
    double samplePeriod = 15.0;
    /** Simulation horizon. */
    double endTime = 2400.0;
    /**
     * Zones the nodes are striped over (testbedZone); 0 keeps the
     * classic untopologied testbed. With >= 2 zones the C1 services
     * additionally get the spread/PDB overlay (applyTopologyOverlay),
     * so zone-correlated scenarios exercise constrained placement end
     * to end.
     */
    size_t zoneCount = 0;
    /** Attach the forecast subsystem to the controller: risks are
     * tracked over the observed capacity stream, and armed risks plan
     * projected post-fault states for proactive execution ahead of
     * the anticipated failure. Ignored for TestbedScheme::Default
     * (no controller to attach to). */
    bool forecast = false;
    forecast::ForecastConfig forecastConfig;
};

/** One point of the recovery time series. */
struct RecoverySample
{
    double t = 0.0;
    double readyCapacity = 0.0;
    /** Strict critical availability (fraction of apps with all C1
     * services Running). */
    double availability = 0.0;
    /** Mean served-RPS-weighted utility across the app instances. */
    double utility = 0.0;
    size_t runningCritical = 0; //!< Running C1 pods
    size_t running = 0;         //!< Running pods (any criticality)
    size_t pending = 0;         //!< Pending, not scaled down
};

/** Harness outcome: the series plus the derived recovery metrics. */
struct RecoveryResult
{
    std::vector<RecoverySample> samples;
    /** Instant the scenario injected its first failure; -1 if none. */
    double firstFailureAt = -1.0;
    /** Running pods just before the first failure. */
    size_t preFailureRunning = 0;
    /**
     * Seconds from first failure until critical availability is back
     * at 1.0 for good. 0 = never dropped; -1 = never recovered within
     * the horizon.
     */
    double timeToCriticalRecovery = -1.0;
    /** Same derivation for the pre-failure Running count. */
    double timeToFullRecovery = -1.0;
    double minAvailability = 1.0;
    double finalAvailability = 0.0;
    size_t maxPending = 0;
    /** Kube invariant-checker violations (0 in a healthy run). */
    size_t invariantViolations = 0;
    /** Controller activity (zero for TestbedScheme::Default). */
    size_t replans = 0;
    double planSecondsTotal = 0.0;
    size_t deletes = 0;
    size_t migrations = 0;
    size_t restarts = 0;
    /** Replans executed proactively before the fault (zero with
     * forecast off). */
    size_t proactiveReplans = 0;
    /** Forecast subsystem counters (zero with forecast off). */
    forecast::ForecastCounters forecast;
    /**
     * obs counters/histogram-counts this run incremented, as (name,
     * delta) pairs, name-sorted (empty with metrics disabled).
     * Captured via obs::ThreadMetricDelta — exact because one run
     * executes start-to-finish on one thread.
     */
    std::vector<std::pair<std::string, double>> obsMetrics;
};

/** Run one scenario end to end. */
RecoveryResult runRecovery(const RecoveryConfig &config);

} // namespace phoenix::exp

#endif // PHOENIX_EXP_RECOVERY_H
