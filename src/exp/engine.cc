#include "engine.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <optional>
#include <sstream>

#include "exp/pool.h"
#include "util/stats.h"

namespace phoenix::exp {

namespace {

MetricStats
statsOf(const std::vector<double> &sample)
{
    MetricStats stats;
    if (sample.empty())
        return stats;
    util::RunningStat running;
    for (double x : sample)
        running.add(x);
    stats.mean = running.mean();
    stats.stddev = running.stddev();
    stats.min = running.min();
    stats.max = running.max();
    return stats;
}

} // namespace

std::vector<CellResult>
runGridCells(const adaptlab::Environment &env, const SweepGridSpec &spec,
             const EngineOptions &options)
{
    const std::vector<GridCell> cells = enumerateCells(spec);
    std::vector<CellResult> results(cells.size());
    parallelFor(options.jobs, cells.size(), [&](size_t i) {
        const GridCell &cell = cells[i];
        const double rate = spec.failureRates[cell.rate];
        const auto started = std::chrono::steady_clock::now();
        // One trace track per cell: the cell index is canonical, so
        // the trace layout is independent of the thread schedule.
        obs::setCurrentTrack(static_cast<uint32_t>(i));
        std::optional<obs::ThreadMetricDelta> delta;
        if (obs::metricsEnabled())
            delta.emplace();
        // Fresh scheme per cell: no shared mutable state between
        // concurrently executing cells.
        const auto scheme = spec.schemes[cell.scheme].make();
        CellResult &out = results[i];
        out.cell = cell;
        out.metrics = adaptlab::runFailureTrial(
            env, *scheme, rate,
            adaptlab::trialSeed(spec.seedBase, rate, cell.trial));
        if (delta)
            out.obsMetrics = delta->finish();
        out.wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                .count();
    });
    return results;
}

std::vector<SweepAggregate>
aggregateGrid(const SweepGridSpec &spec,
              const std::vector<CellResult> &results)
{
    std::vector<SweepAggregate> aggregates;
    aggregates.reserve(spec.schemes.size() * spec.failureRates.size());
    // results are in canonical order: for each scheme, for each rate,
    // trials are contiguous — walk group by group.
    size_t index = 0;
    for (size_t s = 0; s < spec.schemes.size(); ++s) {
        for (size_t r = 0; r < spec.failureRates.size(); ++r) {
            SweepAggregate agg;
            agg.scheme = spec.schemes[s].name;
            agg.failureRate = spec.failureRates[r];
            agg.trials = spec.trials;

            std::map<std::string, double> obs_sums;
            std::vector<adaptlab::TrialMetrics> batch;
            batch.reserve(static_cast<size_t>(spec.trials));
            std::vector<double> availability, strict, revenue, fair_pos,
                fair_neg, planner_util, util, plan_s, pack_s, served,
                ops_push, ops_probe, ops_scan;
            for (int t = 0; t < spec.trials; ++t, ++index) {
                const CellResult &cell = results[index];
                agg.wallSeconds += cell.wallSeconds;
                for (const auto &[name, delta] : cell.obsMetrics)
                    obs_sums[name] += delta;
                batch.push_back(cell.metrics);
                if (cell.metrics.schemeFailed) {
                    ++agg.failedTrials;
                    continue;
                }
                availability.push_back(cell.metrics.availability);
                strict.push_back(cell.metrics.availabilityStrict);
                revenue.push_back(cell.metrics.revenue);
                fair_pos.push_back(cell.metrics.fairnessPositive);
                fair_neg.push_back(cell.metrics.fairnessNegative);
                planner_util.push_back(cell.metrics.plannerUtilization);
                util.push_back(cell.metrics.utilization);
                plan_s.push_back(cell.metrics.planSeconds);
                pack_s.push_back(cell.metrics.packSeconds);
                served.push_back(cell.metrics.requestsServed);
                ops_push.push_back(cell.metrics.opsHeapPushes);
                ops_probe.push_back(cell.metrics.opsBestFitProbes);
                ops_scan.push_back(cell.metrics.opsPodScans);
            }
            // Same fold as the serial path, in the same trial order.
            agg.mean = adaptlab::averageTrials(batch);
            agg.availability = statsOf(availability);
            agg.availabilityStrict = statsOf(strict);
            agg.revenue = statsOf(revenue);
            agg.fairnessPositive = statsOf(fair_pos);
            agg.fairnessNegative = statsOf(fair_neg);
            agg.plannerUtilization = statsOf(planner_util);
            agg.utilization = statsOf(util);
            agg.planSeconds = statsOf(plan_s);
            agg.packSeconds = statsOf(pack_s);
            agg.requestsServed = statsOf(served);
            agg.opsHeapPushes = statsOf(ops_push);
            agg.opsBestFitProbes = statsOf(ops_probe);
            agg.opsPodScans = statsOf(ops_scan);
            agg.obs.assign(obs_sums.begin(), obs_sums.end());
            aggregates.push_back(std::move(agg));
        }
    }
    return aggregates;
}

std::vector<SweepAggregate>
runGrid(const adaptlab::Environment &env, const SweepGridSpec &spec,
        const EngineOptions &options)
{
    return aggregateGrid(spec, runGridCells(env, spec, options));
}

std::vector<adaptlab::SweepRow>
toSweepRows(const std::vector<SweepAggregate> &aggregates)
{
    std::vector<adaptlab::SweepRow> rows;
    rows.reserve(aggregates.size());
    for (const SweepAggregate &agg : aggregates)
        rows.push_back(adaptlab::SweepRow{agg.scheme, agg.mean});
    return rows;
}

namespace {

/** Exact (round-trippable) rendering of a double. */
void
appendExact(std::string &out, double value)
{
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    out += buffer;
    out += ' ';
}

void
appendStats(std::string &out, const MetricStats &stats)
{
    appendExact(out, stats.mean);
    appendExact(out, stats.stddev);
    appendExact(out, stats.min);
    appendExact(out, stats.max);
}

} // namespace

std::string
canonicalMetricString(const std::vector<SweepAggregate> &aggregates)
{
    std::string out;
    for (const SweepAggregate &agg : aggregates) {
        out += agg.scheme;
        out += ' ';
        appendExact(out, agg.failureRate);
        out += std::to_string(agg.trials);
        out += ' ';
        out += std::to_string(agg.failedTrials);
        out += ' ';
        appendExact(out, agg.mean.availability);
        appendExact(out, agg.mean.availabilityStrict);
        appendExact(out, agg.mean.revenue);
        appendExact(out, agg.mean.fairnessPositive);
        appendExact(out, agg.mean.fairnessNegative);
        appendExact(out, agg.mean.plannerUtilization);
        appendExact(out, agg.mean.utilization);
        appendExact(out, agg.mean.requestsServed);
        appendStats(out, agg.availability);
        appendStats(out, agg.availabilityStrict);
        appendStats(out, agg.revenue);
        appendStats(out, agg.fairnessPositive);
        appendStats(out, agg.fairnessNegative);
        appendStats(out, agg.plannerUtilization);
        appendStats(out, agg.utilization);
        appendStats(out, agg.requestsServed);
        out += '\n';
    }
    return out;
}

} // namespace phoenix::exp
