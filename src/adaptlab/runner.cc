#include "runner.h"

#include <algorithm>

#include "sim/failure.h"

namespace phoenix::adaptlab {

using sim::ActiveSet;

TrialMetrics
runFailureTrial(const Environment &env, core::ResilienceScheme &scheme,
                double failure_rate, uint64_t seed)
{
    TrialMetrics metrics;
    metrics.failureRate = failure_rate;

    // Pre-failure reference.
    const ActiveSet before =
        sim::activeSetFromCluster(env.apps, env.cluster);
    const double avail_before =
        sim::criticalFractionAvailability(env.apps, before);
    const double strict_before =
        sim::criticalServiceAvailability(env.apps, before);
    const double revenue_before = sim::revenue(env.apps, before);

    sim::ClusterState cluster = env.cluster;
    sim::FailureInjector injector{util::Rng(seed)};
    injector.failCapacityFraction(cluster, failure_rate);

    core::SchemeResult result = scheme.apply(env.apps, cluster);
    metrics.planSeconds = result.planSeconds;
    metrics.packSeconds = result.packSeconds;
    metrics.opsHeapPushes = static_cast<double>(
        result.planOps.heapPushes + result.pack.ops.heapPushes);
    metrics.opsBestFitProbes = static_cast<double>(
        result.planOps.bestFitProbes + result.pack.ops.bestFitProbes);
    metrics.opsPodScans = static_cast<double>(result.pack.ops.podScans);
    metrics.opsKvOps = static_cast<double>(result.pack.ops.kvOps);
    metrics.schemeFailed = result.failed;
    if (result.failed)
        return metrics;

    const ActiveSet after = result.activeSet(env.apps);
    metrics.availability =
        avail_before > 0.0
            ? sim::criticalFractionAvailability(env.apps, after) /
                  avail_before
            : 0.0;
    metrics.availabilityStrict =
        strict_before > 0.0
            ? sim::criticalServiceAvailability(env.apps, after) /
                  strict_before
            : 0.0;
    metrics.revenue = revenue_before > 0.0
                          ? sim::revenue(env.apps, after) / revenue_before
                          : 0.0;

    const auto deviation =
        sim::fairShareDeviationPlaced(env.apps, result.pack.state);
    metrics.fairnessPositive = deviation.positive;
    metrics.fairnessNegative = deviation.negative;
    metrics.utilization = result.pack.state.utilization();

    // Planner-only utilization (Fig 8c's "Phoenix planner" series):
    // the ranked list's full intended demand against healthy capacity,
    // capped at 1 (the planner reserves quorums and fills the rest
    // opportunistically, so its target can nominally exceed capacity).
    double planned = 0.0;
    for (const auto &pod : result.plan)
        planned += env.apps[pod.app].services[pod.ms].totalCpu();
    const double healthy = result.pack.state.healthyCapacity();
    metrics.plannerUtilization =
        healthy > 0.0 ? std::min(1.0, planned / healthy) : 0.0;

    metrics.requestsServed = env.requestsServed(after);
    return metrics;
}

TrialMetrics
averageTrials(const std::vector<TrialMetrics> &trials)
{
    TrialMetrics mean;
    if (trials.empty())
        return mean;
    double n = 0.0;
    for (const TrialMetrics &t : trials) {
        if (t.schemeFailed) {
            mean.schemeFailed = true;
            continue;
        }
        mean.failureRate += t.failureRate;
        mean.availability += t.availability;
        mean.availabilityStrict += t.availabilityStrict;
        mean.revenue += t.revenue;
        mean.fairnessPositive += t.fairnessPositive;
        mean.fairnessNegative += t.fairnessNegative;
        mean.plannerUtilization += t.plannerUtilization;
        mean.utilization += t.utilization;
        mean.planSeconds += t.planSeconds;
        mean.packSeconds += t.packSeconds;
        mean.requestsServed += t.requestsServed;
        mean.opsHeapPushes += t.opsHeapPushes;
        mean.opsBestFitProbes += t.opsBestFitProbes;
        mean.opsPodScans += t.opsPodScans;
        mean.opsKvOps += t.opsKvOps;
        n += 1.0;
    }
    if (n == 0.0)
        return mean;
    mean.failureRate /= n;
    mean.availability /= n;
    mean.availabilityStrict /= n;
    mean.revenue /= n;
    mean.fairnessPositive /= n;
    mean.fairnessNegative /= n;
    mean.plannerUtilization /= n;
    mean.utilization /= n;
    mean.planSeconds /= n;
    mean.packSeconds /= n;
    mean.requestsServed /= n;
    mean.opsHeapPushes /= n;
    mean.opsBestFitProbes /= n;
    mean.opsPodScans /= n;
    mean.opsKvOps /= n;
    return mean;
}

std::vector<SweepRow>
sweepScheme(const Environment &env, core::ResilienceScheme &scheme,
            const std::vector<double> &failure_rates, int trials,
            uint64_t seed_base)
{
    std::vector<SweepRow> rows;
    for (double rate : failure_rates) {
        std::vector<TrialMetrics> batch;
        for (int t = 0; t < trials; ++t) {
            batch.push_back(runFailureTrial(
                env, scheme, rate, trialSeed(seed_base, rate, t)));
        }
        rows.push_back(SweepRow{scheme.name(), averageTrials(batch)});
    }
    return rows;
}

} // namespace phoenix::adaptlab
