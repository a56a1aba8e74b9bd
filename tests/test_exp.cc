/**
 * @file
 * Tests for the src/exp experiment-orchestration engine: the
 * work-stealing pool, cell-seed derivation (including the regression
 * for the old additive collision), engine/serial equivalence, the
 * determinism contract across --jobs 1/4/16, and the JSON/CSV report.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <set>
#include <sstream>

#include "adaptlab/environment.h"
#include "adaptlab/runner.h"
#include "check/reference.h"
#include "core/schemes.h"
#include "exp/engine.h"
#include "exp/grid.h"
#include "exp/pool.h"
#include "exp/report.h"
#include "util/rng.h"

using namespace phoenix;
using namespace phoenix::exp;

namespace {

adaptlab::EnvironmentConfig
tinyEnv(uint64_t seed = 1)
{
    adaptlab::EnvironmentConfig config;
    config.nodeCount = 60;
    config.nodeCapacity = 64.0;
    config.demandFraction = 0.8;
    config.seed = seed;
    config.alibaba.appCount = 4;
    config.alibaba.sizeScale = 0.05;
    return config;
}

SweepGridSpec
tinyGrid(int trials = 3)
{
    SweepGridSpec spec;
    spec.schemes = paperSchemeSpecs(false);
    spec.failureRates = {0.3, 0.7};
    spec.trials = trials;
    spec.seedBase = 100;
    return spec;
}

} // namespace

TEST(Pool, RunsEveryTaskExactlyOnce)
{
    WorkStealingPool pool(4);
    constexpr int kTasks = 500;
    std::vector<std::atomic<int>> hits(kTasks);
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&hits, i] { hits[i].fetch_add(1); });
    pool.wait();
    for (int i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(Pool, NestedSubmissionFromWorkers)
{
    WorkStealingPool pool(3);
    std::atomic<int> count{0};
    for (int i = 0; i < 20; ++i) {
        pool.submit([&pool, &count] {
            count.fetch_add(1);
            for (int j = 0; j < 5; ++j)
                pool.submit([&count] { count.fetch_add(1); });
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 20 * 6);
}

TEST(Pool, WaitIsReusable)
{
    WorkStealingPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { count.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(count.load(), 2);
}

TEST(Pool, ParallelForCoversAllIndexes)
{
    for (int jobs : {1, 4, 16}) {
        std::vector<std::atomic<int>> hits(257);
        parallelFor(jobs, hits.size(),
                    [&hits](size_t i) { hits[i].fetch_add(1); });
        for (size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1)
                << "jobs=" << jobs << " index=" << i;
    }
}

TEST(CellSeed, OldAdditiveFormulaCollides)
{
    // The pre-engine derivation was seed_base + t*7919 + rate*1000.
    // bench_fig8c used raw seeds 500+t with the same runner, so its
    // trial t=4 (seed 504) collided with the default sweep's
    // (base=100, rate=0.404, t=0) cell — two "independent" cells
    // sharing one failure draw.
    const auto legacy = [](uint64_t base, double rate, int t) {
        return base + static_cast<uint64_t>(t) * 7919 +
               static_cast<uint64_t>(rate * 1000);
    };
    EXPECT_EQ(legacy(100, 0.404, 0), 500u + 4u); // the collision
    EXPECT_NE(adaptlab::trialSeed(100, 0.404, 0),
              adaptlab::trialSeed(500, 0.404, 0));
}

TEST(CellSeed, UniqueAcrossRealisticGrids)
{
    // Every (base, rate, trial) cell of several overlapping sweeps
    // must map to a distinct seed.
    std::set<uint64_t> seeds;
    size_t cells = 0;
    for (uint64_t base : {100ull, 500ull, 900ull, 1234ull}) {
        for (int r = 1; r <= 99; ++r) {
            const double rate = static_cast<double>(r) / 100.0;
            for (int t = 0; t < 25; ++t) {
                seeds.insert(adaptlab::trialSeed(base, rate, t));
                ++cells;
            }
        }
    }
    EXPECT_EQ(seeds.size(), cells);
}

TEST(CellSeed, SensitiveToEveryCoordinate)
{
    const uint64_t seed = adaptlab::trialSeed(100, 0.5, 3);
    EXPECT_NE(seed, adaptlab::trialSeed(101, 0.5, 3));
    EXPECT_NE(seed, adaptlab::trialSeed(100, 0.5000001, 3));
    EXPECT_NE(seed, adaptlab::trialSeed(100, 0.5, 4));
}

TEST(Grid, EnumeratesCanonicalOrder)
{
    const SweepGridSpec spec = tinyGrid(2);
    const auto cells = enumerateCells(spec);
    ASSERT_EQ(cells.size(), spec.cellCount());
    // scheme-major, then rate, then trial
    EXPECT_EQ(cells[0].scheme, 0u);
    EXPECT_EQ(cells[0].rate, 0u);
    EXPECT_EQ(cells[0].trial, 0);
    EXPECT_EQ(cells[1].trial, 1);
    EXPECT_EQ(cells[2].rate, 1u);
    EXPECT_EQ(cells[4].scheme, 1u);
}

TEST(Grid, FilterKeepsMatchingSchemes)
{
    const auto spec = filterSchemes(tinyGrid(), "Phoenix");
    ASSERT_EQ(spec.schemes.size(), 2u);
    EXPECT_EQ(spec.schemes[0].name, "PhoenixFair");
    EXPECT_EQ(spec.schemes[1].name, "PhoenixCost");
    EXPECT_TRUE(filterSchemes(tinyGrid(), "nomatch").schemes.empty());
    EXPECT_EQ(filterSchemes(tinyGrid(), "").schemes.size(), 5u);
}

TEST(Grid, FilterIsCaseInsensitive)
{
    // `bench_fig8b --filter phoenix` must match PhoenixFair/Cost.
    EXPECT_EQ(filterSchemes(tinyGrid(), "phoenix").schemes.size(), 2u);
    EXPECT_EQ(filterSchemes(tinyGrid(), "PHOENIXfair").schemes.size(),
              1u);
    // PhoenixFair + Fair (tinyGrid excludes the LP schemes).
    EXPECT_EQ(filterSchemes(tinyGrid(), "fAIr").schemes.size(), 2u);
}

TEST(Engine, CanonicalStringIdenticalAcrossImplementations)
{
    // The flat hot path and the Alg. 1/2 reference in src/check must
    // agree on every deterministic byte of a whole sweep — the ops
    // counters and wall-clock fields are deliberately outside the
    // canonical string, everything else must match exactly.
    const adaptlab::Environment env =
        adaptlab::buildEnvironment(tinyEnv(7));

    const auto gridFor = [](bool reference) {
        const auto make =
            [reference](core::Objective objective)
            -> std::unique_ptr<core::ResilienceScheme> {
            if (reference)
                return std::make_unique<check::ReferencePhoenixScheme>(
                    objective);
            return std::make_unique<core::PhoenixScheme>(objective);
        };
        SweepGridSpec spec;
        spec.schemes = {
            SchemeSpec{"PhoenixFair",
                       [make] { return make(core::Objective::Fair); }},
            SchemeSpec{"PhoenixCost",
                       [make] { return make(core::Objective::Cost); }}};
        spec.failureRates = {0.2, 0.6};
        spec.trials = 3;
        spec.seedBase = 100;
        return spec;
    };

    const std::string flat =
        canonicalMetricString(runGrid(env, gridFor(false)));
    const std::string reference =
        canonicalMetricString(runGrid(env, gridFor(true)));
    EXPECT_FALSE(flat.empty());
    EXPECT_EQ(flat, reference);
}

TEST(Engine, MatchesLegacySerialSweep)
{
    const adaptlab::Environment env =
        adaptlab::buildEnvironment(tinyEnv());
    SweepGridSpec spec = tinyGrid();

    EngineOptions serial;
    serial.jobs = 1;
    const auto aggregates = runGrid(env, spec, serial);
    const auto rows = toSweepRows(aggregates);

    // The legacy path: one reused scheme instance, serial loops.
    std::vector<adaptlab::SweepRow> legacy;
    for (const auto &schemeSpec : spec.schemes) {
        const auto scheme = schemeSpec.make();
        const auto schemeRows = adaptlab::sweepScheme(
            env, *scheme, spec.failureRates, spec.trials,
            spec.seedBase);
        legacy.insert(legacy.end(), schemeRows.begin(),
                      schemeRows.end());
    }

    ASSERT_EQ(rows.size(), legacy.size());
    for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].scheme, legacy[i].scheme);
        // Bit-identical: same seeds, same fold order.
        EXPECT_EQ(rows[i].metrics.availability,
                  legacy[i].metrics.availability);
        EXPECT_EQ(rows[i].metrics.availabilityStrict,
                  legacy[i].metrics.availabilityStrict);
        EXPECT_EQ(rows[i].metrics.revenue, legacy[i].metrics.revenue);
        EXPECT_EQ(rows[i].metrics.fairnessPositive,
                  legacy[i].metrics.fairnessPositive);
        EXPECT_EQ(rows[i].metrics.fairnessNegative,
                  legacy[i].metrics.fairnessNegative);
        EXPECT_EQ(rows[i].metrics.utilization,
                  legacy[i].metrics.utilization);
        EXPECT_EQ(rows[i].metrics.requestsServed,
                  legacy[i].metrics.requestsServed);
    }
}

TEST(Engine, DeterministicAcrossJobCounts)
{
    const adaptlab::Environment env =
        adaptlab::buildEnvironment(tinyEnv());
    const SweepGridSpec spec = tinyGrid();

    std::string reference;
    for (int jobs : {1, 4, 16}) {
        EngineOptions options;
        options.jobs = jobs;
        const std::string canonical =
            canonicalMetricString(runGrid(env, spec, options));
        EXPECT_FALSE(canonical.empty());
        if (reference.empty())
            reference = canonical;
        else
            EXPECT_EQ(canonical, reference) << "jobs=" << jobs;
    }
}

TEST(Engine, AggregateStatsAreConsistent)
{
    const adaptlab::Environment env =
        adaptlab::buildEnvironment(tinyEnv());
    SweepGridSpec spec = tinyGrid(4);
    spec.schemes = {spec.schemes[0]}; // PhoenixFair only

    const auto aggregates = runGrid(env, spec, EngineOptions{4});
    ASSERT_EQ(aggregates.size(), spec.failureRates.size());
    for (const auto &agg : aggregates) {
        EXPECT_EQ(agg.trials, 4);
        EXPECT_EQ(agg.failedTrials, 0);
        EXPECT_LE(agg.availability.min, agg.availability.mean);
        EXPECT_LE(agg.availability.mean, agg.availability.max);
        EXPECT_GE(agg.availability.stddev, 0.0);
        EXPECT_GT(agg.wallSeconds, 0.0);
        // The stats' mean agrees with the legacy fold's mean (same
        // sample, different but exact summation — allow float slack).
        EXPECT_NEAR(agg.availability.mean, agg.mean.availability,
                    1e-12);
        EXPECT_NEAR(agg.revenue.mean, agg.mean.revenue, 1e-12);
    }
}

TEST(Report, JsonIsWellFormedAndEscaped)
{
    Report report("unit");
    report.meta("nodes", static_cast<int64_t>(60));
    report.meta("note", "quote \" backslash \\ newline \n done");

    util::Table table({"name", "value"});
    table.row().cell("alpha,beta").cell(1.5);
    report.addTable("tbl", table);

    SweepAggregate agg;
    agg.scheme = "PhoenixFair";
    agg.failureRate = 0.5;
    agg.trials = 3;
    agg.availability = MetricStats{0.9, 0.01, 0.89, 0.91};
    report.addSweep("sweep", {agg});

    std::ostringstream json;
    report.writeJson(json);
    const std::string text = json.str();
    EXPECT_NE(text.find("\"bench\":\"unit\""), std::string::npos);
    EXPECT_NE(text.find("\"nodes\":60"), std::string::npos);
    EXPECT_NE(text.find("quote \\\" backslash \\\\ newline \\n"),
              std::string::npos);
    EXPECT_NE(text.find("\"scheme\":\"PhoenixFair\""),
              std::string::npos);
    EXPECT_NE(text.find("\"availability\":{\"mean\":0.9"),
              std::string::npos);
    // Balanced braces/brackets (cheap well-formedness check; cells
    // with braces would need a real parser, which we avoid here).
    EXPECT_EQ(std::count(text.begin(), text.end(), '{'),
              std::count(text.begin(), text.end(), '}'));
    EXPECT_EQ(std::count(text.begin(), text.end(), '['),
              std::count(text.begin(), text.end(), ']'));
}

TEST(Report, CsvQuotesAndSections)
{
    Report report("unit");
    util::Table table({"name", "value"});
    table.row().cell("alpha,beta").cell("x\"y");
    report.addTable("tbl", table);

    SweepAggregate agg;
    agg.scheme = "Fair";
    agg.trials = 2;
    report.addSweep("sweep", {agg});

    std::ostringstream csv;
    report.writeCsv(csv);
    const std::string text = csv.str();
    EXPECT_NE(text.find("# unit | tbl"), std::string::npos);
    EXPECT_NE(text.find("# unit | sweep"), std::string::npos);
    EXPECT_NE(text.find("scheme,failure_rate"), std::string::npos);
}

TEST(Report, JsonNumbersRoundTrip)
{
    const double value = 0.1 + 0.2; // not exactly 0.3
    const std::string text = jsonNumber(value);
    EXPECT_EQ(std::stod(text), value);
    EXPECT_EQ(jsonNumber(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
}
