#include "recovery.h"

#include <optional>
#include <set>

#include "core/chaos.h"
#include "exp/timeseries.h"
#include "sim/metrics.h"

namespace phoenix::exp {

using sim::PodRef;

namespace {

/** RecoverySample time accessor for the shared derivation. */
double
sampleTime(const RecoverySample &sample)
{
    return sample.t;
}

} // namespace

RecoveryResult
runRecovery(const RecoveryConfig &config)
{
    // Per-run metric capture (this thread's shard only; exact under
    // the exp engine's one-cell-one-thread contract).
    std::optional<obs::ThreadMetricDelta> delta;
    if (obs::metricsEnabled())
        delta.emplace();

    Testbed bed(config.scheme, config.testbed, config.kube,
                config.zoneCount,
                config.forecast ? &config.forecastConfig : nullptr);
    sim::EventQueue &events = bed.events;
    kube::KubeCluster &cluster = bed.cluster;
    const apps::CloudLabTestbed &testbed = bed.cloudlab;

    // C1 pod lookup (MsIds may be sparse: map, not vector index).
    std::set<PodRef> critical;
    for (const auto &app : cluster.apps()) {
        for (const auto &ms : app.services) {
            if (ms.criticality == sim::kC1)
                critical.insert(PodRef{app.id, ms.id});
        }
    }

    RecoveryResult result;
    sim::ScenarioRunner runner(events, cluster, config.scenario,
                               config.scenarioOptions);
    result.firstFailureAt = runner.firstFailureAt();

    auto sample = [&] {
        RecoverySample point;
        point.t = events.now();
        point.readyCapacity = cluster.readyCapacity();
        point.pending = cluster.pendingCount();

        sim::ActiveSet active = sim::emptyActiveSet(cluster.apps());
        const auto running = cluster.runningPods();
        point.running = running.size();
        for (const PodRef &pod : running) {
            active[pod.app][pod.ms] = true;
            if (critical.count(pod))
                ++point.runningCritical;
        }
        point.availability = sim::criticalServiceAvailability(
            cluster.apps(), active);

        // Metrics sampling is omniscient: read live state, not the
        // (possibly API-outage-frozen) observation surface.
        const double utilization = cluster.liveState().utilization();
        double utility = 0.0;
        for (const auto &sapp : testbed.serviceApps) {
            std::set<sim::MsId> up;
            for (const PodRef &pod : running) {
                if (pod.app == sapp.app.id)
                    up.insert(pod.ms);
            }
            utility += core::defaultUtility(
                apps::evaluateTraffic(sapp, up, utilization));
        }
        if (!testbed.serviceApps.empty())
            utility /= static_cast<double>(testbed.serviceApps.size());
        point.utility = utility;

        PHOENIX_TRACE_INSTANT(
            "recovery", "sample", point.t,
            (obs::TraceArg{"availability", point.availability}),
            (obs::TraceArg{"running",
                           static_cast<double>(point.running)}),
            (obs::TraceArg{"pending",
                           static_cast<double>(point.pending)}));
        result.samples.push_back(point);
    };
    for (double t = config.samplePeriod; t <= config.endTime;
         t += config.samplePeriod)
        events.schedule(t, sample);

    events.runUntil(config.endTime);

    // ---- Derivations ---------------------------------------------
    for (const RecoverySample &point : result.samples) {
        if (result.firstFailureAt >= 0.0 &&
            point.t < result.firstFailureAt) {
            result.preFailureRunning = point.running;
        }
        if (point.t >= result.firstFailureAt) {
            result.minAvailability =
                std::min(result.minAvailability, point.availability);
            result.maxPending =
                std::max(result.maxPending, point.pending);
        }
    }
    if (!result.samples.empty())
        result.finalAvailability = result.samples.back().availability;

    result.timeToCriticalRecovery = recoveryTimeSince(
        result.samples, result.firstFailureAt, sampleTime,
        [](const RecoverySample &s) {
            return s.availability >= 1.0 - 1e-9;
        });
    const size_t full = result.preFailureRunning;
    result.timeToFullRecovery = recoveryTimeSince(
        result.samples, result.firstFailureAt, sampleTime,
        [full](const RecoverySample &s) { return s.running >= full; });

    result.invariantViolations = cluster.invariantViolations();
    if (bed.controller) {
        result.replans = bed.controller->history().size();
        for (const auto &record : bed.controller->history()) {
            result.planSecondsTotal += record.planSeconds;
            result.deletes += record.deletes;
            result.migrations += record.migrations;
            result.restarts += record.restarts;
            if (record.proactive)
                ++result.proactiveReplans;
        }
    }
    if (bed.forecaster)
        result.forecast = bed.forecaster->counters();
    if (delta)
        result.obsMetrics = delta->finish();
    return result;
}

} // namespace phoenix::exp
