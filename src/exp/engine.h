/**
 * @file
 * The experiment-orchestration engine: executes a SweepGridSpec's
 * cells on a work-stealing thread pool and aggregates per-(scheme,
 * failure-rate) statistics.
 *
 * Determinism contract: a cell's metrics depend only on (environment,
 * scheme spec, failure rate, trial seed). The engine gives every cell
 * a freshly constructed scheme and a private copy of the cluster
 * state (made inside runFailureTrial), shares the environment's
 * immutable application/workload descriptors read-only, and writes
 * each result into the cell's pre-assigned slot. Aggregation then
 * walks cells in canonical (scheme, rate, trial) order — so the
 * aggregated metrics are bit-identical for any --jobs value and any
 * thread schedule, and identical to the legacy serial
 * adaptlab::sweepScheme. Wall-clock fields (planSeconds, packSeconds,
 * wallSeconds) are measurements, not simulation outputs, and are the
 * only fields exempt from the contract.
 */

#ifndef PHOENIX_EXP_ENGINE_H
#define PHOENIX_EXP_ENGINE_H

#include <string>
#include <utility>
#include <vector>

#include "adaptlab/environment.h"
#include "adaptlab/runner.h"
#include "exp/grid.h"
#include "obs/obs.h"

namespace phoenix::exp {

/** Engine knobs (the shared --jobs flag lands here). */
struct EngineOptions
{
    /** Worker threads; 0 = hardware_concurrency, 1 = serial (no pool). */
    int jobs = 0;
};

/** Raw outcome of one executed cell. */
struct CellResult
{
    GridCell cell;
    adaptlab::TrialMetrics metrics;
    /** Wall-clock seconds this cell took end to end. */
    double wallSeconds = 0.0;
    /** obs counter/histogram-count deltas this cell incremented
     * (name-sorted; empty with metrics disabled). */
    std::vector<std::pair<std::string, double>> obsMetrics;
};

/** min/mean/max/stddev of one metric across a cell group's trials. */
struct MetricStats
{
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/** Aggregated statistics of one (scheme, failure-rate) group. */
struct SweepAggregate
{
    std::string scheme;
    double failureRate = 0.0;
    int trials = 0;
    int failedTrials = 0;
    /** Per-field means, summed in trial order — bit-identical to the
     * legacy averageTrials over the same batch. */
    adaptlab::TrialMetrics mean;
    MetricStats availability;
    MetricStats availabilityStrict;
    MetricStats revenue;
    MetricStats fairnessPositive;
    MetricStats fairnessNegative;
    MetricStats plannerUtilization;
    MetricStats utilization;
    MetricStats planSeconds;
    MetricStats packSeconds;
    MetricStats requestsServed;
    /** Deterministic hot-path operation counters. Like the wall-clock
     * fields these describe implementation effort, not scheduling
     * decisions, so they are exempt from the canonicalMetricString
     * contract (equal decisions, fewer ops is the whole point). */
    MetricStats opsHeapPushes;
    MetricStats opsBestFitProbes;
    MetricStats opsPodScans;
    MetricStats opsKvOps;
    /** Summed wall-clock of the group's cells (CPU-time proxy). */
    double wallSeconds = 0.0;
    /** Summed obs metric deltas of the group's cells, name-sorted
     * (exported as the aggregate's "obs" JSON object; empty with
     * metrics disabled). Integer counter sums in canonical cell
     * order, so schedule-independent like everything else here. */
    std::vector<std::pair<std::string, double>> obs;
};

/** Execute every cell of @p spec; results in canonical cell order. */
std::vector<CellResult> runGridCells(const adaptlab::Environment &env,
                                     const SweepGridSpec &spec,
                                     const EngineOptions &options = {});

/** Fold cell results into per-(scheme, rate) aggregates. */
std::vector<SweepAggregate>
aggregateGrid(const SweepGridSpec &spec,
              const std::vector<CellResult> &results);

/** runGridCells + aggregateGrid. */
std::vector<SweepAggregate> runGrid(const adaptlab::Environment &env,
                                    const SweepGridSpec &spec,
                                    const EngineOptions &options = {});

/** Aggregates as legacy SweepRows (scheme name + mean metrics). */
std::vector<adaptlab::SweepRow>
toSweepRows(const std::vector<SweepAggregate> &aggregates);

/**
 * Canonical byte string of everything deterministic in @p aggregates
 * (all fields except the wall-clock measurements), with doubles
 * rendered exactly (hex float). Two runs of the same grid agree on
 * this string if and only if their simulation outputs are
 * bit-identical — the determinism ctest compares it across --jobs 1,
 * 4 and 16.
 */
std::string
canonicalMetricString(const std::vector<SweepAggregate> &aggregates);

} // namespace phoenix::exp

#endif // PHOENIX_EXP_ENGINE_H
