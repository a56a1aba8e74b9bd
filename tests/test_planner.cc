/**
 * @file
 * Tests for the Phoenix planner (Algorithm 1): the PriorityEstimator's
 * criticality/topology-aware per-app ordering and the GlobalRanking's
 * objective-driven merge under an aggregate capacity.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "check/reference.h"
#include "core/planner.h"
#include "sim/metrics.h"
#include "util/rng.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::Application;
using sim::Microservice;
using sim::MsId;
using sim::PodRef;

namespace {

/** Build an app with the given criticalities and optional edges. */
Application
makeApp(sim::AppId id, const std::vector<int> &tags,
        const std::vector<std::pair<MsId, MsId>> &edges = {},
        const std::vector<double> &cpus = {})
{
    Application app;
    app.id = id;
    app.name = "app" + std::to_string(id);
    app.services.resize(tags.size());
    for (MsId m = 0; m < tags.size(); ++m) {
        app.services[m].id = m;
        app.services[m].criticality = tags[m];
        app.services[m].cpu = m < cpus.size() ? cpus[m] : 1.0;
    }
    if (!edges.empty()) {
        app.hasDependencyGraph = true;
        app.dag = graph::DiGraph(tags.size());
        for (auto [u, v] : edges)
            app.dag.addEdge(u, v);
    }
    return app;
}

/** Position of each service in a rank list. */
std::map<MsId, size_t>
positions(const std::vector<MsId> &rank)
{
    std::map<MsId, size_t> pos;
    for (size_t i = 0; i < rank.size(); ++i)
        pos[rank[i]] = i;
    return pos;
}

} // namespace

TEST(PriorityEstimator, NoDgOrdersByCriticality)
{
    const auto apps = std::vector<Application>{
        makeApp(0, {3, 1, 2, 5, 1})};
    const AppRank ranks = Planner::priorityEstimator(apps);
    ASSERT_EQ(ranks.size(), 1u);
    ASSERT_EQ(ranks[0].size(), 5u);
    // Criticality order: ms1(C1), ms4(C1), ms2(C2), ms0(C3), ms3(C5).
    EXPECT_EQ(ranks[0], (std::vector<MsId>{1, 4, 2, 0, 3}));
}

TEST(PriorityEstimator, EveryServiceAppearsExactlyOnce)
{
    const auto apps = std::vector<Application>{
        makeApp(0, {1, 2, 3, 1, 2},
                {{0, 1}, {0, 2}, {1, 3}, {2, 4}})};
    const AppRank ranks = Planner::priorityEstimator(apps);
    std::set<MsId> seen(ranks[0].begin(), ranks[0].end());
    EXPECT_EQ(seen.size(), 5u);
    EXPECT_EQ(ranks[0].size(), 5u);
}

TEST(PriorityEstimator, TopologyBeforeCriticalityForReachability)
{
    // C1 node (3) reachable only through a C3 node (1): the C3 parent
    // must be ranked before the C1 child (Eq. 2 dominates locally).
    const auto apps = std::vector<Application>{
        makeApp(0, {1, 3, 2, 1}, {{0, 1}, {0, 2}, {1, 3}})};
    const AppRank ranks = Planner::priorityEstimator(apps);
    const auto pos = positions(ranks[0]);
    EXPECT_LT(pos.at(0), pos.at(1));
    EXPECT_LT(pos.at(1), pos.at(3));
}

TEST(PriorityEstimator, EveryPrefixHasActivePredecessors)
{
    // Property: any prefix of the per-app rank forms a valid active
    // set under the topological constraint.
    util::Rng rng(7);
    for (int trial = 0; trial < 30; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(3, 30));
        std::vector<int> tags;
        std::vector<std::pair<MsId, MsId>> edges;
        for (int m = 0; m < n; ++m) {
            tags.push_back(static_cast<int>(rng.uniformInt(1, 5)));
            if (m > 0) {
                const int parents =
                    rng.bernoulli(0.8)
                        ? 1
                        : static_cast<int>(rng.uniformInt(2, 3));
                std::set<MsId> chosen;
                for (int p = 0; p < parents; ++p) {
                    chosen.insert(static_cast<MsId>(
                        rng.uniformInt(0, m - 1)));
                }
                for (MsId p : chosen)
                    edges.emplace_back(p, static_cast<MsId>(m));
            }
        }
        auto apps = std::vector<Application>{makeApp(0, tags, edges)};
        const AppRank ranks = Planner::priorityEstimator(apps);
        ASSERT_EQ(ranks[0].size(), static_cast<size_t>(n));

        sim::ActiveSet active = sim::emptyActiveSet(apps);
        for (MsId m : ranks[0]) {
            active[0][m] = true;
            EXPECT_TRUE(sim::respectsDependencies(apps, active))
                << "trial " << trial << " at ms " << m;
        }
    }
}

TEST(PriorityEstimator, CriticalityOrderHoldsOnMonotoneDags)
{
    // When children are never more critical than parents (the shape
    // the tagging schemes produce), prefixes also respect criticality
    // order (Eq. 1).
    util::Rng rng(13);
    for (int trial = 0; trial < 30; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(3, 25));
        std::vector<int> tags(n, 1);
        std::vector<std::pair<MsId, MsId>> edges;
        for (int m = 1; m < n; ++m) {
            const MsId parent =
                static_cast<MsId>(rng.uniformInt(0, m - 1));
            tags[m] = std::min(
                5, tags[parent] + static_cast<int>(rng.uniformInt(0, 2)));
            edges.emplace_back(parent, static_cast<MsId>(m));
        }
        auto apps = std::vector<Application>{makeApp(0, tags, edges)};
        const AppRank ranks = Planner::priorityEstimator(apps);

        sim::ActiveSet active = sim::emptyActiveSet(apps);
        for (MsId m : ranks[0]) {
            active[0][m] = true;
            EXPECT_TRUE(sim::respectsCriticalityOrder(apps, active))
                << "trial " << trial;
        }
    }
}

TEST(GlobalRank, RespectsAggregateCapacity)
{
    auto apps = std::vector<Application>{
        makeApp(0, {1, 2, 3}, {}, {4, 4, 4}),
        makeApp(1, {1, 2}, {}, {4, 4})};
    Planner planner;
    FairObjective fair;
    const GlobalRank rank = planner.plan(apps, fair, 12.0);
    double total = 0.0;
    for (const PodRef &pod : rank)
        total += apps[pod.app].services[pod.ms].totalCpu();
    EXPECT_LE(total, 12.0 + 1e-9);
    EXPECT_EQ(rank.size(), 3u);
}

TEST(GlobalRank, PerAppOrderPreserved)
{
    auto apps = std::vector<Application>{
        makeApp(0, {1, 2, 3, 4}), makeApp(1, {2, 1, 3})};
    Planner planner;
    CostObjective cost;
    const GlobalRank rank = planner.plan(apps, cost, 1000.0);

    std::map<sim::AppId, std::vector<MsId>> per_app;
    for (const PodRef &pod : rank)
        per_app[pod.app].push_back(pod.ms);
    const AppRank expected = Planner::priorityEstimator(apps);
    EXPECT_EQ(per_app[0], expected[0]);
    EXPECT_EQ(per_app[1], expected[1]);
}

TEST(GlobalRank, CostObjectivePrefersExpensiveApps)
{
    auto cheap = makeApp(0, {1, 1}, {}, {2, 2});
    auto pricey = makeApp(1, {1, 1}, {}, {2, 2});
    cheap.pricePerUnit = 1.0;
    pricey.pricePerUnit = 5.0;
    auto apps = std::vector<Application>{cheap, pricey};

    Planner planner;
    CostObjective cost;
    // Capacity for three containers only.
    const GlobalRank rank = planner.plan(apps, cost, 6.0);
    ASSERT_EQ(rank.size(), 3u);
    EXPECT_EQ(rank[0].app, 1u);
    EXPECT_EQ(rank[1].app, 1u);
    // Third slot goes to the cheap app.
    EXPECT_EQ(rank[2].app, 0u);
}

TEST(GlobalRank, FairObjectiveBalancesApps)
{
    // Two identical apps, capacity for half the total demand: fair
    // ranking must split capacity evenly rather than serving one app.
    auto apps = std::vector<Application>{
        makeApp(0, {1, 1, 1, 1}, {}, {2, 2, 2, 2}),
        makeApp(1, {1, 1, 1, 1}, {}, {2, 2, 2, 2})};
    apps[0].pricePerUnit = 9.0; // fairness must ignore price

    Planner planner;
    FairObjective fair;
    const GlobalRank rank = planner.plan(apps, fair, 8.0);
    size_t app0 = 0;
    size_t app1 = 0;
    for (const PodRef &pod : rank) {
        if (pod.app == 0)
            ++app0;
        else
            ++app1;
    }
    EXPECT_EQ(app0, 2u);
    EXPECT_EQ(app1, 2u);
}

TEST(GlobalRank, FairObjectiveGrantsExcessAfterSaturation)
{
    // App 0 demands 2 units, app 1 demands 8; capacity 8. Water-fill
    // share: app0 -> 2, app1 -> 6. The relaxed criterion lets app1 use
    // the leftover beyond its share only after app0 saturates.
    auto apps = std::vector<Application>{
        makeApp(0, {1}, {}, {2}),
        makeApp(1, {1, 1, 1, 1}, {}, {2, 2, 2, 2})};
    Planner planner;
    FairObjective fair;
    const GlobalRank rank = planner.plan(apps, fair, 8.0);
    double app1_usage = 0.0;
    bool app0_served = false;
    for (const PodRef &pod : rank) {
        if (pod.app == 0)
            app0_served = true;
        else
            app1_usage += 2.0;
    }
    EXPECT_TRUE(app0_served);
    EXPECT_NEAR(app1_usage, 6.0, 1e-9);
}

TEST(GlobalRank, StopsAtFirstOverflowByDefault)
{
    // Head of the queue does not fit: Alg. 1 breaks even though a
    // smaller container from another app would fit.
    auto apps = std::vector<Application>{
        makeApp(0, {1}, {}, {10}), makeApp(1, {1}, {}, {1})};
    apps[0].pricePerUnit = 5.0;
    apps[1].pricePerUnit = 1.0;

    Planner stop_planner{PlannerOptions{true}};
    CostObjective cost;
    const GlobalRank stopped = stop_planner.plan(apps, cost, 5.0);
    EXPECT_TRUE(stopped.empty());

    Planner skip_planner{PlannerOptions{false}};
    const GlobalRank skipped = skip_planner.plan(apps, cost, 5.0);
    ASSERT_EQ(skipped.size(), 1u);
    EXPECT_EQ(skipped[0].app, 1u);
}

TEST(GlobalRank, FairObjectiveHandlesNonContiguousAppIds)
{
    // Regression: water-fill shares come back positional, but the
    // objectives look them up by app.id. With sparse ids the old code
    // silently treated any id >= apps.size() as a zero share, ranking
    // that app's every container last; begin() now scatters the shares
    // by id. Two identical apps with ids 7 and 2 must still split
    // capacity evenly.
    auto apps = std::vector<Application>{
        makeApp(7, {1, 1, 1, 1}, {}, {2, 2, 2, 2}),
        makeApp(2, {1, 1, 1, 1}, {}, {2, 2, 2, 2})};

    Planner planner;
    for (const bool reference : {false, true}) {
        FairObjective fair;
        const GlobalRank rank = reference
                                    ? check::referencePlan(apps, fair, 8.0)
                                    : planner.plan(apps, fair, 8.0);
        size_t first = 0;
        size_t second = 0;
        for (const PodRef &pod : rank) {
            // PodRef.app indexes the apps vector, not Application::id.
            (pod.app == 0 ? first : second) += 1;
        }
        EXPECT_EQ(first, 2u) << "reference=" << reference;
        EXPECT_EQ(second, 2u) << "reference=" << reference;
    }

    // WeightedFair shares the same id-indexed table; a 3:1 weight on
    // app id 7 must tilt the split even though id 7 sits at position 0.
    std::vector<double> weights(8, 1.0);
    weights[7] = 3.0;
    WeightedFairObjective weighted(weights);
    const GlobalRank rank = planner.plan(apps, weighted, 8.0);
    size_t heavy = 0;
    for (const PodRef &pod : rank)
        heavy += pod.app == 0 ? 1 : 0;
    EXPECT_EQ(heavy, 3u);
}

TEST(GlobalRank, EmptyInputs)
{
    Planner planner;
    FairObjective fair;
    EXPECT_TRUE(planner.plan({}, fair, 100.0).empty());

    auto apps = std::vector<Application>{makeApp(0, {1, 2})};
    EXPECT_TRUE(planner.plan(apps, fair, 0.0).empty());
}
