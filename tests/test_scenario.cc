/**
 * @file
 * Tests for the declarative failure-scenario engine: step semantics
 * against a recording FaultTarget, determinism of the seeded random
 * selections, and the kube integration paths — kubelet flaps inside
 * vs outside the node grace period, staggered recovery — with the
 * cluster invariant checker enabled throughout.
 */

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "kube/kube.h"
#include "sim/scenario.h"
#include "sim/scenario_json.h"

using namespace phoenix;
using namespace phoenix::sim;

namespace {

/** FaultTarget that just records injections. */
class FakeTarget : public FaultTarget
{
  public:
    FakeTarget(size_t nodes, double capacity = 8.0)
        : capacities_(nodes, capacity)
    {
    }

    /** Heterogeneous capacities. */
    explicit FakeTarget(std::vector<double> capacities)
        : capacities_(std::move(capacities))
    {
    }

    size_t nodeCount() const override { return capacities_.size(); }
    double
    nodeCapacity(NodeId node) const override
    {
        return capacities_.at(node);
    }
    void injectNodeFailure(NodeId node) override
    {
        injections.push_back({false, node});
    }
    void injectNodeRecovery(NodeId node) override
    {
        injections.push_back({true, node});
    }

    struct Injection
    {
        bool recovery = false;
        NodeId node = 0;
    };
    std::vector<Injection> injections;

  private:
    std::vector<double> capacities_;
};

kube::KubeConfig
checkedConfig()
{
    kube::KubeConfig config;
    config.validateInvariants = true;
    return config;
}

sim::Application
simpleApp(size_t services, double cpu)
{
    sim::Application app;
    app.name = "app";
    app.services.resize(services);
    for (sim::MsId m = 0; m < services; ++m) {
        app.services[m].id = m;
        app.services[m].cpu = cpu;
        app.services[m].criticality = 1;
    }
    return app;
}

} // namespace

TEST(Scenario, FailNodesFiresAtTheRightInstant)
{
    EventQueue events;
    FakeTarget target(4);
    Scenario scenario;
    scenario.failNodes(10.0, {1, 3});
    ScenarioRunner runner(events, target, scenario);

    events.runUntil(9.0);
    EXPECT_TRUE(target.injections.empty());
    events.runUntil(11.0);
    ASSERT_EQ(target.injections.size(), 2u);
    EXPECT_EQ(target.injections[0].node, 1u);
    EXPECT_EQ(target.injections[1].node, 3u);
    EXPECT_EQ(runner.downNodes(), (std::vector<NodeId>{1, 3}));
    EXPECT_DOUBLE_EQ(runner.firstFailureAt(), 10.0);
    ASSERT_EQ(runner.trace().size(), 2u);
    EXPECT_EQ(runner.trace()[0].action, ScenarioAction::Fail);
    EXPECT_DOUBLE_EQ(runner.trace()[0].at, 10.0);
}

TEST(Scenario, DoubleFailureOfANodeInjectsOnce)
{
    EventQueue events;
    FakeTarget target(2);
    Scenario scenario;
    scenario.failNodes(5.0, {0}).failNodes(6.0, {0, 1});
    ScenarioRunner runner(events, target, scenario);
    events.runUntil(10.0);
    // Node 0 only goes down once; the second step adds node 1.
    ASSERT_EQ(target.injections.size(), 2u);
    EXPECT_EQ(target.injections[0].node, 0u);
    EXPECT_EQ(target.injections[1].node, 1u);
    EXPECT_EQ(runner.downNodes().size(), 2u);
}

TEST(Scenario, FailCountIsDeterministicForASeed)
{
    Scenario scenario;
    scenario.failCount(10.0, 3);
    ScenarioOptions options;
    options.seed = 7;

    std::vector<NodeId> first;
    for (int run = 0; run < 2; ++run) {
        EventQueue events;
        FakeTarget target(10);
        ScenarioRunner runner(events, target, scenario, options);
        events.runUntil(20.0);
        ASSERT_EQ(runner.downNodes().size(), 3u);
        if (run == 0)
            first = runner.downNodes();
        else
            EXPECT_EQ(runner.downNodes(), first);
    }
}

TEST(Scenario, FailCapacityFractionIsCumulative)
{
    EventQueue events;
    FakeTarget target({4.0, 4.0, 4.0, 4.0, 16.0}); // total 32
    Scenario scenario;
    scenario.failNodes(5.0, {0})              // 4 CPU down (12.5%)
        .failCapacityFraction(10.0, 0.5);     // top up to >= 16 CPU
    ScenarioRunner runner(events, target, scenario);
    events.runUntil(20.0);
    EXPECT_GE(runner.downCapacity(), 16.0 - 1e-9);
    // The earlier explicit failure counts toward the fraction: the
    // step never needs to take the whole cluster down.
    EXPECT_LT(runner.downNodes().size(), 5u);
}

TEST(Scenario, FailZoneTakesExactlyTheZone)
{
    EventQueue events;
    FakeTarget target(10);
    Scenario scenario;
    scenario.failZone(10.0, 2);
    ScenarioOptions options;
    options.zoneCount = 5;
    ScenarioRunner runner(events, target, scenario, options);
    events.runUntil(20.0);
    EXPECT_EQ(runner.downNodes(), (std::vector<NodeId>{2, 7}));
}

TEST(Scenario, ZoneStepsUseExplicitZoneLabels)
{
    // Zones in blocks of three (0,1,2 | 3,4,5), off the id % zoneCount
    // stripe: every zone-scoped step must take exactly nodes 3-5.
    class BlockZones : public FakeTarget
    {
      public:
        BlockZones() : FakeTarget(6) {}
        int nodeZone(NodeId node) const override
        {
            return static_cast<int>(node / 3);
        }
    };
    EventQueue events;
    BlockZones target;
    Scenario scenario;
    scenario.failZone(10.0, 1).partitionZone(20.0, 1).degradeZone(
        30.0, 1, 0.5);
    ScenarioOptions options;
    options.zoneCount = 2;
    ScenarioRunner runner(events, target, scenario, options);
    events.runUntil(40.0);
    const std::vector<NodeId> zone{3, 4, 5};
    EXPECT_EQ(runner.downNodes(), zone);
    EXPECT_EQ(runner.partitionedNodes(), zone);
    std::vector<NodeId> degraded;
    for (const ScenarioTraceEntry &entry : runner.trace()) {
        if (entry.action == ScenarioAction::Degrade)
            degraded.push_back(entry.node);
    }
    EXPECT_EQ(degraded, zone);
}

TEST(Scenario, RollingFailSpacesFailures)
{
    EventQueue events;
    FakeTarget target(10);
    Scenario scenario;
    scenario.rollingFail(100.0, 3, 60.0);
    ScenarioRunner runner(events, target, scenario);
    events.runUntil(500.0);

    ASSERT_EQ(runner.trace().size(), 3u);
    EXPECT_DOUBLE_EQ(runner.trace()[0].at, 100.0);
    EXPECT_DOUBLE_EQ(runner.trace()[1].at, 160.0);
    EXPECT_DOUBLE_EQ(runner.trace()[2].at, 220.0);
    EXPECT_EQ(runner.downNodes().size(), 3u); // distinct nodes
}

TEST(Scenario, RollingFailStopsOnceNoNodeIsUp)
{
    // A count far above the node set used to re-arm once per unit of
    // count after every node was down; the chain now ends with the
    // last up node.
    EventQueue events;
    FakeTarget target(3);
    Scenario scenario;
    scenario.rollingFail(0.0, 1000, 1.0);
    ScenarioRunner runner(events, target, scenario);
    events.runUntil(10.0);

    EXPECT_EQ(runner.downNodes().size(), 3u);
    EXPECT_EQ(target.injections.size(), 3u);
    EXPECT_TRUE(events.empty()) << events.pending() << " events armed";
}

TEST(Scenario, RecoverAllStaggersAscending)
{
    EventQueue events;
    FakeTarget target(6);
    Scenario scenario;
    scenario.failNodes(10.0, {4, 1, 2}).recoverAll(100.0, 30.0);
    ScenarioRunner runner(events, target, scenario);
    events.runUntil(1000.0);

    EXPECT_TRUE(runner.downNodes().empty());
    std::vector<ScenarioTraceEntry> recoveries;
    for (const auto &entry : runner.trace()) {
        if (entry.action == ScenarioAction::Recover)
            recoveries.push_back(entry);
    }
    ASSERT_EQ(recoveries.size(), 3u);
    // Ascending node order, one every 30 s from t=100.
    EXPECT_EQ(recoveries[0].node, 1u);
    EXPECT_DOUBLE_EQ(recoveries[0].at, 100.0);
    EXPECT_EQ(recoveries[1].node, 2u);
    EXPECT_DOUBLE_EQ(recoveries[1].at, 130.0);
    EXPECT_EQ(recoveries[2].node, 4u);
    EXPECT_DOUBLE_EQ(recoveries[2].at, 160.0);
}

TEST(Scenario, FlapInjectsFailureThenRecovery)
{
    EventQueue events;
    FakeTarget target(3);
    Scenario scenario;
    scenario.flapKubelet(50.0, 1, 25.0);
    ScenarioRunner runner(events, target, scenario);
    events.runUntil(100.0);

    ASSERT_EQ(target.injections.size(), 2u);
    EXPECT_FALSE(target.injections[0].recovery);
    EXPECT_TRUE(target.injections[1].recovery);
    EXPECT_EQ(target.injections[1].node, 1u);
    ASSERT_EQ(runner.trace().size(), 2u);
    EXPECT_DOUBLE_EQ(runner.trace()[1].at, 75.0);
    EXPECT_TRUE(runner.downNodes().empty());
}

TEST(Scenario, FirstFailureAtIgnoresRecoverySteps)
{
    Scenario scenario;
    scenario.recoverAll(50.0).failCount(200.0, 1).failZone(150.0, 0);
    EXPECT_DOUBLE_EQ(scenario.firstFailureAt(), 150.0);

    Scenario quiet;
    quiet.recoverNodes(10.0, {0});
    EXPECT_DOUBLE_EQ(quiet.firstFailureAt(), -1.0);
}

// ---- Kube integration: flaps vs the node grace period -------------

TEST(ScenarioKube, FlapInsideGracePeriodIsInvisible)
{
    sim::EventQueue events;
    auto config = checkedConfig();
    config.nodeGracePeriod = 100.0;
    kube::KubeCluster cluster(events, config);
    const auto n0 = cluster.addNode(8.0);
    cluster.addNode(8.0);
    cluster.addApplication(simpleApp(4, 2.0));
    events.runUntil(200.0);
    ASSERT_EQ(cluster.runningPods().size(), 4u);

    Scenario scenario;
    scenario.flapKubelet(300.0, n0, 50.0); // well inside the 100 s grace
    ScenarioRunner runner(events, cluster, scenario);

    events.runUntil(340.0); // kubelet down, grace not expired
    EXPECT_TRUE(cluster.isReady(n0));
    events.runUntil(600.0);
    // The flap must be a non-event: no NotReady, no eviction sweep,
    // every pod still Running where it was.
    EXPECT_TRUE(cluster.isReady(n0));
    EXPECT_EQ(cluster.evictionEpisodes(n0), 0u);
    EXPECT_EQ(cluster.evictedPodCount(), 0u);
    EXPECT_EQ(cluster.runningPods().size(), 4u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(ScenarioKube, FlapOutsideGracePeriodEvictsExactlyOnce)
{
    sim::EventQueue events;
    auto config = checkedConfig();
    config.nodeGracePeriod = 100.0;
    config.heartbeatPeriod = 10.0;
    kube::KubeCluster cluster(events, config);
    const auto n0 = cluster.addNode(8.0);
    const auto n1 = cluster.addNode(8.0);
    cluster.addApplication(simpleApp(4, 2.0));
    events.runUntil(200.0);
    ASSERT_EQ(cluster.runningPods().size(), 4u);

    Scenario scenario;
    scenario.flapKubelet(300.0, n0, 300.0); // outage >> grace
    ScenarioRunner runner(events, cluster, scenario);

    // NotReady lands at the first node-controller tick after
    // t = 300 + grace; give it one heartbeat of slack.
    events.runUntil(300.0 + 100.0 + 2.0 * config.heartbeatPeriod);
    EXPECT_FALSE(cluster.isReady(n0));
    EXPECT_EQ(cluster.evictionEpisodes(n0), 1u);
    EXPECT_GT(cluster.evictedPodCount(), 0u);

    // Evicted pods re-place on the surviving node and restart.
    events.runUntil(550.0);
    EXPECT_EQ(cluster.runningPods().size(), 4u);
    for (const auto &ref : cluster.runningPods())
        EXPECT_EQ(cluster.pod(ref)->node, n1);

    // Kubelet restarts at t=600; the node must be Ready again within
    // a node-controller tick of the next heartbeat, with exactly the
    // one eviction episode on record.
    events.runUntil(600.0 + 2.0 * config.heartbeatPeriod);
    EXPECT_TRUE(cluster.isReady(n0));
    EXPECT_EQ(cluster.evictionEpisodes(n0), 1u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(ScenarioKube, StaggeredRecoveryRestoresCapacityStepwise)
{
    sim::EventQueue events;
    auto config = checkedConfig();
    kube::KubeCluster cluster(events, config);
    for (int i = 0; i < 4; ++i)
        cluster.addNode(8.0);
    cluster.addApplication(simpleApp(4, 2.0));
    events.runUntil(200.0);

    Scenario scenario;
    scenario.failNodes(300.0, {0, 1, 2}).recoverAll(700.0, 50.0);
    ScenarioRunner runner(events, cluster, scenario);

    events.runUntil(500.0);
    EXPECT_NEAR(cluster.readyCapacity(), 8.0, 1e-9);
    // Recoveries at 700 / 750 / 800; Ready follows within a
    // heartbeat + controller tick.
    events.runUntil(730.0);
    EXPECT_NEAR(cluster.readyCapacity(), 16.0, 1e-9);
    events.runUntil(780.0);
    EXPECT_NEAR(cluster.readyCapacity(), 24.0, 1e-9);
    events.runUntil(830.0);
    EXPECT_NEAR(cluster.readyCapacity(), 32.0, 1e-9);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
    // All pods find a home again.
    events.runUntil(1000.0);
    EXPECT_EQ(cluster.runningPods().size(), 4u);
}

// ---------------------------------------------------------------------
// Extended fault taxonomy: partitions, degrade, API outage, clock skew.
// ---------------------------------------------------------------------

namespace {

/** FakeTarget that also records the extended-taxonomy injections. */
class TaxonomyTarget : public FakeTarget
{
  public:
    using FakeTarget::FakeTarget;

    struct Extended
    {
        std::string kind;
        NodeId node = 0;
        double value = 0.0;
    };
    std::vector<Extended> extended;

    void injectPartition(NodeId node) override
    {
        extended.push_back({"partition", node, 0.0});
    }
    void injectPartitionHeal(NodeId node) override
    {
        extended.push_back({"heal", node, 0.0});
    }
    void injectDegrade(NodeId node, double factor) override
    {
        extended.push_back({"degrade", node, factor});
    }
    void injectClockSkew(NodeId node, double skew) override
    {
        extended.push_back({"skew", node, skew});
    }
    void injectApiOutageBegin() override
    {
        extended.push_back({"outage-begin", 0, 0.0});
    }
    void injectApiOutageEnd() override
    {
        extended.push_back({"outage-end", 0, 0.0});
    }
};

} // namespace

TEST(Scenario, PartitionWindowInjectsAndHeals)
{
    EventQueue events;
    TaxonomyTarget target(4);
    Scenario scenario;
    scenario.partitionNodes(10.0, {1, 2}, 50.0);
    ScenarioRunner runner(events, target, scenario);

    events.runUntil(20.0);
    EXPECT_EQ(runner.partitionedNodes(), (std::vector<NodeId>{1, 2}));
    ASSERT_EQ(target.extended.size(), 2u);
    EXPECT_EQ(target.extended[0].kind, "partition");

    events.runUntil(100.0);
    EXPECT_TRUE(runner.partitionedNodes().empty());
    ASSERT_EQ(target.extended.size(), 4u);
    EXPECT_EQ(target.extended[2].kind, "heal");
    // Partition counts as a failure instant; heal does not.
    EXPECT_DOUBLE_EQ(runner.firstFailureAt(), 10.0);
}

TEST(Scenario, PartitionZoneTakesExactlyTheZone)
{
    EventQueue events;
    TaxonomyTarget target(10);
    Scenario scenario;
    scenario.partitionZone(5.0, 2); // zoneCount 5: nodes 2 and 7
    ScenarioRunner runner(events, target, scenario);

    events.runUntil(6.0);
    EXPECT_EQ(runner.partitionedNodes(), (std::vector<NodeId>{2, 7}));
}

TEST(Scenario, DegradeClampsFactorIntoDomain)
{
    EventQueue events;
    TaxonomyTarget target(2);
    Scenario scenario;
    scenario.degradeNodes(1.0, {0}, 1e-9);  // clamps up to the floor
    scenario.degradeNodes(2.0, {1}, 42.0);  // clamps down to 1.0
    ScenarioRunner runner(events, target, scenario);
    events.runUntil(3.0);

    // A factor clamped to 1.0 is a restore; node 1 was never
    // degraded, so that step is a no-op and nothing reaches the
    // target for it.
    ASSERT_EQ(target.extended.size(), 1u);
    EXPECT_EQ(target.extended[0].kind, "degrade");
    EXPECT_DOUBLE_EQ(target.extended[0].value, kMinDegradeFactor);
    (void)runner;
}

TEST(Scenario, DegradeWindowRestoresAndTracesValues)
{
    EventQueue events;
    TaxonomyTarget target(3);
    Scenario scenario;
    scenario.degradeNodes(10.0, {0, 2}, 0.5, 40.0);
    ScenarioRunner runner(events, target, scenario);

    events.runUntil(60.0);
    ASSERT_EQ(target.extended.size(), 4u);
    EXPECT_DOUBLE_EQ(target.extended[0].value, 0.5);
    EXPECT_DOUBLE_EQ(target.extended[2].value, 1.0);

    size_t degrades = 0;
    size_t restores = 0;
    for (const auto &entry : runner.trace()) {
        if (entry.action == ScenarioAction::Degrade) {
            ++degrades;
            EXPECT_DOUBLE_EQ(entry.value, 0.5);
        }
        if (entry.action == ScenarioAction::Restore)
            ++restores;
    }
    EXPECT_EQ(degrades, 2u);
    EXPECT_EQ(restores, 2u);
}

TEST(Scenario, ApiOutageWindowsMerge)
{
    EventQueue events;
    TaxonomyTarget target(2);
    Scenario scenario;
    scenario.apiOutage(10.0, 50.0);  // [10, 60]
    scenario.apiOutage(30.0, 100.0); // [30, 130] — overlaps
    ScenarioRunner runner(events, target, scenario);

    events.runUntil(40.0);
    EXPECT_EQ(runner.apiOutageDepth(), 2u);
    events.runUntil(70.0);
    EXPECT_EQ(runner.apiOutageDepth(), 1u);
    events.runUntil(140.0);
    EXPECT_EQ(runner.apiOutageDepth(), 0u);

    // The target only ever sees the merged window: one begin, one end.
    std::vector<std::string> kinds;
    for (const auto &entry : target.extended)
        kinds.push_back(entry.kind);
    EXPECT_EQ(kinds,
              (std::vector<std::string>{"outage-begin", "outage-end"}));
}

TEST(Scenario, SkewClockRecordsValue)
{
    EventQueue events;
    TaxonomyTarget target(2);
    Scenario scenario;
    scenario.skewClock(5.0, 1, -42.0);
    scenario.skewClock(20.0, 1, 0.0);
    ScenarioRunner runner(events, target, scenario);
    events.runUntil(30.0);

    ASSERT_EQ(target.extended.size(), 2u);
    EXPECT_DOUBLE_EQ(target.extended[0].value, -42.0);
    EXPECT_DOUBLE_EQ(target.extended[1].value, 0.0);
    ASSERT_EQ(runner.trace().size(), 2u);
    EXPECT_EQ(runner.trace()[0].action, ScenarioAction::ClockSkew);
    EXPECT_DOUBLE_EQ(runner.trace()[0].value, -42.0);
    // Clock skew is not a failure instant.
    EXPECT_DOUBLE_EQ(runner.firstFailureAt(), -1.0);
}

TEST(Scenario, BuildersClampOutOfDomainInputs)
{
    EventQueue events;
    TaxonomyTarget target(4);
    Scenario scenario;
    scenario.failCapacityFraction(1.0, -0.5); // clamps to 0: no-op
    scenario.failCapacityFraction(2.0, 7.0);  // clamps to 1: everything
    scenario.rollingFail(10.0, 2, -5.0);      // interval clamps to 0
    scenario.flapKubelet(20.0, 0, -3.0);      // downtime clamps to 0
    ScenarioRunner runner(events, target, scenario);

    events.runUntil(1.5);
    EXPECT_TRUE(runner.downNodes().empty());
    events.runUntil(3.0);
    EXPECT_EQ(runner.downNodes().size(), 4u);

    // Steps carry the clamped values, deterministically.
    EXPECT_DOUBLE_EQ(scenario.steps()[0].fraction, 0.0);
    EXPECT_DOUBLE_EQ(scenario.steps()[1].fraction, 1.0);
    EXPECT_DOUBLE_EQ(scenario.steps()[2].interval, 0.0);
    EXPECT_DOUBLE_EQ(scenario.steps()[3].downtime, 0.0);
}

TEST(Scenario, NewFaultClassesAreDeterministicForASeed)
{
    // Identical seeds must produce identical injection traces across
    // independent runs — including every extended fault class and the
    // randomized selections interleaved between them.
    auto run = [](uint64_t seed) {
        EventQueue events;
        TaxonomyTarget target(12);
        Scenario scenario;
        scenario.failCount(10.0, 3);
        scenario.partitionNodes(20.0, {1, 4}, 60.0);
        scenario.degradeZone(30.0, 1, 0.5, 40.0);
        scenario.apiOutage(35.0, 30.0);
        scenario.skewClock(40.0, 7, -120.0);
        scenario.failCapacityFraction(50.0, 0.4);
        scenario.recoverAll(200.0, 5.0);
        ScenarioOptions options;
        options.seed = seed;
        ScenarioRunner runner(events, target, scenario, options);
        events.runUntil(300.0);
        return runner.trace();
    };

    const auto a = run(9);
    const auto b = run(9);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
        EXPECT_EQ(a[i].action, b[i].action);
        EXPECT_EQ(a[i].node, b[i].node);
        EXPECT_DOUBLE_EQ(a[i].value, b[i].value);
    }
    const auto c = run(10);
    bool same = a.size() == c.size();
    if (same) {
        for (size_t i = 0; i < a.size(); ++i) {
            if (a[i].action != c[i].action || a[i].node != c[i].node)
                same = false;
        }
    }
    EXPECT_FALSE(same);
}

// --- JSON codec (sim/scenario_json.h) --------------------------------

namespace {

/** One step parsed through the codec, for a target of @p nodes nodes
 * whose clock reads @p origin. */
std::optional<Scenario::Step>
parseStep(const std::string &text, size_t nodes, std::string *error,
          double origin = 0.0)
{
    util::JsonValue json;
    if (!util::parseJson("[" + text + "]", json))
        return std::nullopt;
    auto steps = scenarioStepsFromJson(json, nodes, origin, error);
    if (!steps)
        return std::nullopt;
    return steps->front();
}

} // namespace

TEST(ScenarioJson, EveryKindPrintsAndParsesBack)
{
    Scenario scenario;
    scenario.failNodes(1.0, {0, 2})
        .failCount(2.0, 3)
        .failCapacityFraction(3.0, 0.25)
        .failZone(4.0, 2)
        .rollingFail(5.0, 4, 7.5)
        .flapKubelet(6.0, 1, 40.0)
        .recoverNodes(7.0, {2})
        .recoverAll(8.0, 2.5)
        .partitionNodes(9.0, {3, 4}, 60.0)
        .partitionZone(10.0, 1)
        .healPartition(11.0, {3})
        .degradeNodes(12.0, {5}, 0.5, 120.0)
        .degradeZone(13.0, 0, 0.25)
        .apiOutage(14.0, 30.0)
        .skewClock(15.0, 6, -45.0);
    ASSERT_EQ(scenario.steps().size(), 15u);

    std::set<std::string> names;
    for (const Scenario::Step &step : scenario.steps()) {
        const std::string text = scenarioStepToJson(step);
        util::JsonValue json;
        ASSERT_TRUE(util::parseJson(text, json)) << text;
        names.insert(json.stringAt("kind"));
        std::string error;
        const auto parsed = parseStep(text, 8, &error);
        ASSERT_TRUE(parsed.has_value()) << text << ": " << error;
        EXPECT_EQ(parsed->kind, step.kind) << text;
        EXPECT_EQ(parsed->at, step.at) << text;
        EXPECT_EQ(parsed->nodes, step.nodes) << text;
        EXPECT_EQ(parsed->count, step.count) << text;
        EXPECT_EQ(parsed->fraction, step.fraction) << text;
        EXPECT_EQ(parsed->zone, step.zone) << text;
        EXPECT_EQ(parsed->interval, step.interval) << text;
        EXPECT_EQ(parsed->downtime, step.downtime) << text;
        EXPECT_EQ(parsed->factor, step.factor) << text;
        EXPECT_EQ(parsed->skew, step.skew) << text;
        EXPECT_EQ(scenarioStepToJson(*parsed), text);
    }
    EXPECT_EQ(names.size(), 15u);
    EXPECT_EQ(scenarioStepToJson(scenario.steps()[5]),
              R"({"at": 6, "kind": "flap", "nodes": [1], "downtime": 40})");
    EXPECT_EQ(scenarioStepToJson(scenario.steps()[13]),
              R"({"at": 14, "kind": "outage", "nodes": [], "downtime": 30})");
}

TEST(ScenarioJson, AbsentFieldsTakeTheirOneDefault)
{
    const auto parse = [](const std::string &text) {
        std::string error;
        auto step = parseStep(text, 4, &error);
        EXPECT_TRUE(step.has_value()) << text << ": " << error;
        return step.value_or(Scenario::Step{});
    };
    const Scenario::Step rolling = parse(R"({"kind":"rolling-fail"})");
    EXPECT_EQ(rolling.at, 0.0);
    EXPECT_EQ(rolling.count, 1u);
    EXPECT_EQ(rolling.interval, 60.0);
    EXPECT_EQ(parse(R"({"kind":"flap","nodes":[1]})").downtime, 0.0);
    EXPECT_EQ(parse(R"({"kind":"recover-all"})").interval, 0.0);
    const Scenario::Step degrade =
        parse(R"({"kind":"degrade-zone","zone":1})");
    EXPECT_EQ(degrade.factor, 1.0);
    EXPECT_EQ(degrade.downtime, 0.0);
    EXPECT_TRUE(parse(R"({"kind":"outage"})").nodes.empty());
}

TEST(ScenarioJson, RejectsEveryOutOfDomainField)
{
    const std::string ceiling = util::jsonNumber(kMaxScriptSeconds);
    for (const std::string &text : {
             std::string(R"([])"),
             std::string(R"({"at":1})"),
             std::string(R"({"kind":3})"),
             std::string(R"({"kind":"fail-nodes","nodes":[0]})"),
             std::string(R"({"kind":"fail"})"),
             std::string(R"({"kind":"fail","nodes":0})"),
             std::string(R"({"kind":"fail","nodes":[4]})"),
             std::string(R"({"kind":"fail","nodes":[0.5]})"),
             std::string(R"({"kind":"fail","nodes":[-1]})"),
             std::string(R"({"kind":"fail","nodes":[0],"downtime":5})"),
             std::string(R"({"kind":"flap","node":0})"),
             std::string(R"({"kind":"fail","nodes":[0],"at":-1})"),
             std::string(R"({"kind":"fail","nodes":[0],"at":1e999})"),
             R"({"kind":"fail","nodes":[0],"at":)" + ceiling + "1}",
             std::string(R"({"kind":"flap","nodes":[0],"downtime":1e300})"),
             std::string(R"({"kind":"partition","nodes":[0],"downtime":-5})"),
             std::string(R"({"kind":"fail-count","count":5})"),
             std::string(R"({"kind":"fail-count","count":1.5})"),
             std::string(R"({"kind":"rolling-fail","count":4294967295})"),
             std::string(R"({"kind":"rolling-fail","interval":-1})"),
             std::string(R"({"kind":"fail-capacity-fraction",)"
                         R"("fraction":-0.1})"),
             std::string(R"({"kind":"fail-zone","zone":"1"})"),
             std::string(R"({"kind":"degrade","nodes":[0],"factor":0.01})"),
             std::string(R"({"kind":"degrade","nodes":[0],"factor":1.5})"),
             std::string(R"({"kind":"skew","nodes":[0],"skew":-1e300})"),
             std::string(R"({"kind":"outage","nodes":[1]})"),
             std::string(R"({"kind":"recover-all","stagger":"2"})"),
         }) {
        std::string error;
        EXPECT_FALSE(parseStep(text, 4, &error).has_value()) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
    // At the ceiling itself, a step is still accepted.
    std::string error;
    EXPECT_TRUE(parseStep(R"({"kind":"flap","nodes":[0],"at":)" + ceiling +
                              R"(,"downtime":)" + ceiling + "}",
                          4, &error)
                    .has_value())
        << error;
    util::JsonValue notArray;
    ASSERT_TRUE(util::parseJson(R"({"kind":"fail","nodes":[0]})", notArray));
    EXPECT_FALSE(scenarioStepsFromJson(notArray, 4, 0.0).has_value());
}

TEST(ScenarioJson, InstantsAreBoundedFromTheCallersOrigin)
{
    // A target a week and 10 s old: an instant may lie up to the
    // ceiling past its clock, and one already past still parses (it
    // fires at once); below 0 or beyond the ceiling it does not.
    const double origin = kMaxScriptSeconds + 10.0;
    const auto at = [&](double instant) {
        std::string error;
        const auto step = parseStep(
            R"({"kind":"fail","nodes":[0],"at":)" +
                util::jsonNumber(instant) + "}",
            4, &error, origin);
        return step ? "" : error;
    };
    EXPECT_EQ(at(origin), "");
    EXPECT_EQ(at(0.0), "");
    EXPECT_EQ(at(origin + kMaxScriptSeconds), "");
    const std::string bound = "step 0: fail needs 'at' in [0, " +
                              util::jsonNumber(origin + kMaxScriptSeconds) +
                              "]";
    EXPECT_EQ(at(origin + kMaxScriptSeconds + 1.0), bound);
    EXPECT_EQ(at(-1.0), bound);
    // Windows keep their absolute ceiling whatever the origin.
    std::string error;
    EXPECT_FALSE(parseStep(R"({"kind":"flap","nodes":[0],"downtime":)" +
                               util::jsonNumber(kMaxScriptSeconds + 1.0) +
                               "}",
                           4, &error, origin)
                     .has_value());
}
