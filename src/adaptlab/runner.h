/**
 * @file
 * AdaptLab experiment runner: inject a failure of a target capacity
 * fraction, run a resilience scheme, and score the resulting state on
 * the paper's metrics (critical service availability, normalized
 * revenue, fair-share deviation, utilization, planning time). Sweeps
 * average across trials with independent failure draws, as §6.2 does
 * (5 trials).
 */

#ifndef PHOENIX_ADAPTLAB_RUNNER_H
#define PHOENIX_ADAPTLAB_RUNNER_H

#include <string>
#include <vector>

#include "adaptlab/environment.h"
#include "core/schemes.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace phoenix::adaptlab {

/**
 * Seed of the (failure-rate, trial) cell of a sweep grid: a SplitMix64
 * chain over the sweep's base seed and the cell coordinates. Every
 * sweep runner — serial or parallel — derives per-trial seeds through
 * this one function, so results are independent of execution order.
 * Schemes are deliberately NOT part of the seed: all schemes face the
 * same failure draws (common random numbers), as in the paper.
 */
inline uint64_t
trialSeed(uint64_t seed_base, double failure_rate, int trial)
{
    return util::cellSeed(seed_base, util::doubleBits(failure_rate),
                          static_cast<uint64_t>(trial));
}

/** Metrics of one (scheme, failure-rate, seed) trial. */
struct TrialMetrics
{
    double failureRate = 0.0;
    /** Graded critical availability (mean fraction of C1 containers
     * activated per app), normalized to the pre-failure state — the
     * Fig 7a metric. */
    double availability = 0.0;
    /** Strict availability: fraction of apps with ALL C1 active. */
    double availabilityStrict = 0.0;
    /** Revenue normalized to the pre-failure state. */
    double revenue = 0.0;
    double fairnessPositive = 0.0;
    double fairnessNegative = 0.0;
    /** Utilization of the planner's target (before placement). */
    double plannerUtilization = 0.0;
    /** Utilization of the packed (placed) state. */
    double utilization = 0.0;
    double planSeconds = 0.0;
    double packSeconds = 0.0;
    /** Requests served per second after recovery (trace metric). */
    double requestsServed = 0.0;
    /** Deterministic hot-path operation counts (planner + packer),
     * stored as doubles so trial averaging works uniformly. These
     * fingerprint implementation effort, not decisions, and are
     * excluded from exp::canonicalMetricString. */
    double opsHeapPushes = 0.0;
    double opsBestFitProbes = 0.0;
    double opsPodScans = 0.0;
    bool schemeFailed = false;
};

/** Run one failure trial of @p scheme at @p failure_rate. */
TrialMetrics runFailureTrial(const Environment &env,
                             core::ResilienceScheme &scheme,
                             double failure_rate, uint64_t seed);

/** Mean metrics across trials at one failure rate. */
TrialMetrics averageTrials(const std::vector<TrialMetrics> &trials);

/** Sweep result: one averaged row per failure rate. */
struct SweepRow
{
    std::string scheme;
    TrialMetrics metrics;
};

/**
 * Sweep a scheme across @p failure_rates with @p trials independent
 * failure draws each.
 */
std::vector<SweepRow> sweepScheme(const Environment &env,
                                  core::ResilienceScheme &scheme,
                                  const std::vector<double> &failure_rates,
                                  int trials, uint64_t seed_base = 100);

} // namespace phoenix::adaptlab

#endif // PHOENIX_ADAPTLAB_RUNNER_H
