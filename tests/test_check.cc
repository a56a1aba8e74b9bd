/**
 * @file
 * Unit tests for the src/check subsystem itself: case serialization,
 * generator determinism and bounds, the oracle's fixed points, the
 * fault-injection knob, and the shrinker (the acceptance bar: an
 * injected fault shrinks to a repro of at most 8 nodes and 3
 * services).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>

#include "check/case.h"
#include "check/fuzzer.h"
#include "check/generator.h"
#include "check/oracle.h"
#include "check/shrink.h"
#include "util/rng.h"

using namespace phoenix;
using check::CheckCase;
using check::FuzzOptions;
using check::GeneratorOptions;
using check::OracleOptions;
using check::ShrinkOptions;
using Kind = sim::Scenario::Step::Kind;

namespace {

/** A handmade case that keeps every node completely full. */
CheckCase
fullClusterCase(int nodes)
{
    CheckCase c;
    c.name = "handmade-full";
    c.nodeCapacities.assign(nodes, 4.0);
    for (int a = 0; a < nodes; ++a) {
        sim::Application app;
        app.id = a;
        app.name = "app" + std::to_string(a);
        app.pricePerUnit = 1.0;
        app.services.resize(2);
        for (sim::MsId m = 0; m < 2; ++m) {
            app.services[m].id = m;
            app.services[m].criticality = 1 + static_cast<int>(m);
            app.services[m].cpu = 2.0;
        }
        c.apps.push_back(app);
    }
    return c;
}

} // namespace

// --- Case serialization ------------------------------------------------

TEST(CaseJson, RoundTripsGeneratedCases)
{
    for (uint64_t seed : {1ull, 17ull, 923ull}) {
        const CheckCase original = check::generateCase(seed);
        std::string error;
        const auto parsed =
            CheckCase::fromJson(original.toJson(), &error);
        ASSERT_TRUE(parsed.has_value()) << error;

        EXPECT_EQ(parsed->name, original.name);
        EXPECT_EQ(parsed->seed, original.seed);
        EXPECT_EQ(parsed->lifecycle, original.lifecycle);
        EXPECT_EQ(parsed->nodeCapacities, original.nodeCapacities);
        ASSERT_EQ(parsed->apps.size(), original.apps.size());
        for (size_t a = 0; a < original.apps.size(); ++a) {
            const auto &pa = parsed->apps[a];
            const auto &oa = original.apps[a];
            EXPECT_EQ(pa.id, oa.id);
            EXPECT_EQ(pa.phoenixEnabled, oa.phoenixEnabled);
            EXPECT_DOUBLE_EQ(pa.pricePerUnit, oa.pricePerUnit);
            ASSERT_EQ(pa.services.size(), oa.services.size());
            for (size_t m = 0; m < oa.services.size(); ++m) {
                EXPECT_DOUBLE_EQ(pa.services[m].cpu,
                                 oa.services[m].cpu);
                EXPECT_EQ(pa.services[m].criticality,
                          oa.services[m].criticality);
                EXPECT_EQ(pa.services[m].replicas,
                          oa.services[m].replicas);
                EXPECT_EQ(pa.services[m].quorum,
                          oa.services[m].quorum);
            }
            EXPECT_EQ(pa.hasDependencyGraph, oa.hasDependencyGraph);
            if (oa.hasDependencyGraph) {
                ASSERT_EQ(pa.dag.nodeCount(), oa.dag.nodeCount());
                for (size_t u = 0; u < oa.dag.nodeCount(); ++u) {
                    for (size_t v = 0; v < oa.dag.nodeCount(); ++v) {
                        EXPECT_EQ(pa.dag.hasEdge(u, v),
                                  oa.dag.hasEdge(u, v));
                    }
                }
            }
        }
        ASSERT_EQ(parsed->steps.size(), original.steps.size());
        for (size_t s = 0; s < original.steps.size(); ++s) {
            EXPECT_EQ(parsed->steps[s].kind, original.steps[s].kind);
            EXPECT_DOUBLE_EQ(parsed->steps[s].at,
                             original.steps[s].at);
            EXPECT_EQ(parsed->steps[s].nodes,
                      original.steps[s].nodes);
            EXPECT_DOUBLE_EQ(parsed->steps[s].downtime,
                             original.steps[s].downtime);
        }

        // Serialization is a fixed point: toJson(fromJson(x)) == x.
        EXPECT_EQ(parsed->toJson(), original.toJson());
    }
}

TEST(CaseJson, RejectsMalformedInput)
{
    std::string error;
    EXPECT_FALSE(CheckCase::fromJson("{", &error).has_value());
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(CheckCase::fromJson("[1,2]", &error).has_value());
    EXPECT_FALSE(CheckCase::fromJson("", &error).has_value());

    // A case file is outside input (fuzzcheck --replay reads it from
    // disk): every number goes through a checked reader. Each document
    // below is the valid base with one field broken; before the checks
    // they loaded as an infinite capacity, a zone wrapped to 0, node
    // 0, ... and the last two ran the lifecycle oracle until killed.
    const std::string base =
        R"({"seed": "7", "nodes": [4,4], "zones": [0,1], "apps": [)"
        R"({"id": 0, "price": 1, "groups": [{"id": 0, "max_per_node": 1}],)"
        R"( "services": [{"cpu": 1, "criticality": 1, "replicas": 2,)"
        R"( "quorum": 1, "group": 0},{"cpu": 1, "criticality": 2,)"
        R"( "replicas": 1, "quorum": 0}], "edges": [[0,1]]}],)"
        R"( "steps": [{"at": 10, "kind": "fail", "nodes": [1]}]})";
    ASSERT_TRUE(CheckCase::fromJson(base, &error).has_value()) << error;
    const auto broken = [&base](const std::string &from,
                                const std::string &to) {
        const size_t at = base.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return base.substr(0, at) + to + base.substr(at + from.size());
    };
    std::ifstream pr3(std::string(PHOENIX_CORPUS_DIR) +
                      "/pr3-migrate-while-starting.json");
    std::ostringstream pr3Text;
    pr3Text << pr3.rdbuf();
    const std::string flap = "\"downtime\": 40";
    ASSERT_NE(pr3Text.str().find(flap), std::string::npos);
    const auto pr3With = [&](const std::string &downtime) {
        std::string doc = pr3Text.str();
        return doc.replace(doc.find(flap), flap.size(),
                           "\"downtime\": " + downtime);
    };
    ASSERT_TRUE(CheckCase::fromJson(pr3With("41")).has_value());

    for (const std::string &doc : {
             broken("[4,4]", "[1e999,4]"),
             broken("[4,4]", "[-4,4]"),
             broken("[0,1]", "[4294967296,1]"),
             broken("[0,1]", "[0.5,1]"),
             broken("[0,1]", "[0]"),
             broken(R"("nodes": [1])", R"("nodes": [0.5])"),
             broken(R"("nodes": [1])", R"("nodes": [2])"),
             broken(R"("at": 10)", R"("at": 1e999)"),
             broken(R"("kind": "fail")", R"("kind": "fail-count")"),
             broken(R"("kind": "fail")", R"("kind": "explode")"),
             broken(R"("id": 0, "price")", R"("id": 0.5, "price")"),
             broken(R"("id": 0, "price")", R"("id": -1, "price")"),
             broken(R"("price": 1)", R"("price": 1e999)"),
             broken(R"("cpu": 1,)", R"("cpu": 1e999,)"),
             broken(R"("criticality": 2)", R"("criticality": 2.5)"),
             broken(R"("replicas": 2)", R"("replicas": 1e999)"),
             broken(R"("replicas": 2)", R"("replicas": 4294967296)"),
             broken(R"("replicas": 2)", R"("replicas": 1025)"),
             broken(R"("quorum": 1)", R"("quorum": "1")"),
             broken(R"("group": 0})", R"("group": 2147483648})"),
             broken(R"("max_per_node": 1)", R"("max_per_node": 0.5)"),
             broken("[[0,1]]", "[[0,1.5]]"),
             broken("[[0,1]]", "[[-1,1]]"),
             broken("[[0,1]]", "[[0,4294967297]]"),
             pr3With("1e300"),
             pr3With("1e999"),
         }) {
        error.clear();
        EXPECT_FALSE(CheckCase::fromJson(doc, &error).has_value()) << doc;
        EXPECT_FALSE(error.empty()) << doc;
    }
}

// --- Generator ---------------------------------------------------------

TEST(Generator, IsDeterministic)
{
    for (uint64_t seed : {2ull, 77ull, 4096ull}) {
        const CheckCase a = check::generateCase(seed);
        const CheckCase b = check::generateCase(seed);
        EXPECT_EQ(a.toJson(), b.toJson());
    }
    EXPECT_NE(check::generateCase(2).toJson(),
              check::generateCase(3).toJson());
}

TEST(Generator, RespectsBoundsAndGrids)
{
    GeneratorOptions options;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        const CheckCase c = check::generateCase(seed, options);
        ASSERT_GE(c.nodeCapacities.size(),
                  static_cast<size_t>(options.minNodes));
        ASSERT_LE(c.nodeCapacities.size(),
                  static_cast<size_t>(options.maxNodes));
        ASSERT_GE(c.apps.size(), static_cast<size_t>(options.minApps));
        ASSERT_LE(c.apps.size(), static_cast<size_t>(options.maxApps));
        for (double capacity : c.nodeCapacities) {
            EXPECT_LE(capacity, options.maxNodeCapacity);
            // 1.0 grid keeps the scale-by-2 metamorphic check exact.
            EXPECT_DOUBLE_EQ(capacity, std::round(capacity));
        }
        for (const auto &app : c.apps) {
            EXPECT_LE(app.services.size(),
                      static_cast<size_t>(options.maxServicesPerApp));
            for (const auto &ms : app.services) {
                EXPECT_GT(ms.cpu, 0.0);
                EXPECT_LE(ms.cpu, options.maxServiceCpu);
                // 0.25 grid.
                EXPECT_DOUBLE_EQ(ms.cpu * 4.0,
                                 std::round(ms.cpu * 4.0));
            }
        }
        for (const auto &step : c.steps) {
            for (sim::NodeId n : step.nodes)
                EXPECT_LT(n, c.nodeCapacities.size());
        }
    }
}

// --- Oracle ------------------------------------------------------------

TEST(Oracle, PostFailureStateFollowsTheScript)
{
    CheckCase c = fullClusterCase(3);
    c.steps = sim::Scenario().failNodes(10.0, {0}).steps();

    sim::ClusterState post = check::postFailureState(c);
    EXPECT_FALSE(post.isHealthy(0));
    EXPECT_TRUE(post.isHealthy(1));

    // A recover step nets the node back out.
    c.steps.push_back(
        {.at = 20.0, .kind = Kind::RecoverNodes, .nodes = {0}});
    post = check::postFailureState(c);
    EXPECT_TRUE(post.isHealthy(0));

    // A flap whose downtime has passed also ends healthy.
    c.steps = sim::Scenario().flapKubelet(10.0, 1, 30.0).steps();
    post = check::postFailureState(c);
    EXPECT_TRUE(post.isHealthy(1));

    // A partition heal does not restart a kubelet a fail step stopped:
    // the node stays failed, as the kube keeps it NotReady.
    c.steps = sim::Scenario()
                  .failNodes(10.0, {0})
                  .partitionNodes(20.0, {0}, 30.0)
                  .steps();
    post = check::postFailureState(c);
    EXPECT_FALSE(post.isHealthy(0));
    EXPECT_FALSE(c.replayFaults()[0].ready());
}

namespace {

/** FaultTarget that keeps what the runner injects as NodeFaults. */
class FaultStateTarget : public sim::FaultTarget
{
  public:
    explicit FaultStateTarget(size_t nodes) : nodes(nodes) {}

    size_t nodeCount() const override { return nodes.size(); }
    double nodeCapacity(sim::NodeId) const override { return 1.0; }
    void
    injectNodeFailure(sim::NodeId n) override
    {
        nodes[n].kubelet = false;
    }
    void
    injectNodeRecovery(sim::NodeId n) override
    {
        nodes[n].kubelet = true;
    }
    void
    injectPartition(sim::NodeId n) override
    {
        nodes[n].partitioned = true;
    }
    void
    injectPartitionHeal(sim::NodeId n) override
    {
        nodes[n].partitioned = false;
    }
    void
    injectDegrade(sim::NodeId n, double factor) override
    {
        nodes[n].factor = factor;
    }
    void
    injectClockSkew(sim::NodeId n, double) override
    {
        nodes[n].skewed = true;
    }

    std::vector<check::NodeFaults> nodes;
};

/** Node end states the ScenarioRunner leaves for @p c's script. */
std::vector<check::NodeFaults>
runnerEndStates(const CheckCase &c)
{
    sim::EventQueue events;
    FaultStateTarget target(c.nodeCapacities.size());
    sim::ScenarioRunner runner(events, target, sim::Scenario(c.steps));
    double horizon = 0.0;
    for (const auto &step : c.steps)
        horizon = std::max(horizon, step.at + step.downtime);
    events.runUntil(horizon + 1.0);
    return target.nodes;
}

} // namespace

TEST(Oracle, ReferenceExpansionMatchesTheScenarioRunner)
{
    // The static replay and the lifecycle oracle's expected end states
    // both come from replayFaults; it must leave every node exactly as
    // the runner does, ties included: a window's end fires after the
    // steps armed up front for its instant, whatever their script
    // position.
    CheckCase ties = fullClusterCase(3);
    ties.steps = sim::Scenario()
                     .flapKubelet(10.0, 0, 10.0)
                     .failNodes(20.0, {0})
                     .failNodes(20.0, {1})
                     .partitionNodes(10.0, {1}, 10.0)
                     .partitionNodes(20.0, {1})
                     .degradeNodes(10.0, {2}, 0.5, 10.0)
                     .degradeNodes(20.0, {2}, 0.25)
                     .steps();
    const std::vector<check::NodeFaults> end = ties.replayFaults();
    EXPECT_TRUE(end[0].ready()); // the flap's restart fires last
    EXPECT_FALSE(end[1].kubelet);
    EXPECT_FALSE(end[1].partitioned); // the heal fires last
    EXPECT_EQ(end[2].factor, 1.0);    // the restore fires last
    EXPECT_EQ(end, runnerEndStates(ties));

    for (double constraints : {0.0, 0.35}) {
        GeneratorOptions options;
        options.antiAffinityProbability = constraints;
        options.pdbProbability = constraints;
        options.zoneSpreadProbability = constraints;
        options.nodeCapProbability = constraints;
        for (uint64_t seed = 1; seed <= 400; ++seed) {
            const CheckCase c = check::generateCase(seed, options);
            ASSERT_EQ(c.replayFaults(), runnerEndStates(c))
                << "seed " << seed << " constraints " << constraints;
        }
    }
}

TEST(Oracle, GeneratedCasesPassWithoutLp)
{
    OracleOptions options;
    options.runLp = false;
    options.lifecycle = false;
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        const CheckCase c = check::generateCase(seed);
        const auto result = check::checkCase(c, options);
        for (const auto &violation : result.violations) {
            ADD_FAILURE() << "seed " << seed << ": "
                          << violation.property << " ["
                          << violation.scheme << "] "
                          << violation.detail;
        }
    }
}

TEST(Oracle, InjectedFaultFires)
{
    // Every node of the handmade case packs full, so asserting
    // used <= 0.5 * capacity must fail — this is the deliberately
    // wrong invariant the shrinker demo runs against.
    CheckCase c = fullClusterCase(4);
    OracleOptions options;
    options.runLp = false;
    options.metamorphic = false;
    options.lifecycle = false;
    EXPECT_TRUE(check::checkCase(c, options).ok());

    options.injectTightCapacityFraction = 0.5;
    const auto result = check::checkCase(c, options);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.hasProperty("injected-tight-capacity"));
}

// --- Shrinker ----------------------------------------------------------

TEST(Shrinker, ShrinksInjectedFaultToATinyRepro)
{
    // Start from a deliberately bloated failing case and require the
    // shrinker to land inside the acceptance envelope: <= 8 nodes and
    // <= 3 services, still violating the same property.
    CheckCase c = fullClusterCase(8);
    c.steps = sim::Scenario().failNodes(10.0, {7}).steps();

    OracleOptions oracle_options;
    oracle_options.runLp = false;
    oracle_options.metamorphic = false;
    oracle_options.lifecycle = false;
    oracle_options.injectTightCapacityFraction = 0.5;
    ASSERT_FALSE(check::checkCase(c, oracle_options).ok());

    const auto outcome = check::shrinkCase(c, oracle_options);
    EXPECT_GT(outcome.stepsApplied, 0u);
    EXPECT_LE(outcome.shrunk.nodeCapacities.size(), 8u);
    EXPECT_LE(outcome.shrunk.serviceCount(), 3u);
    ASSERT_FALSE(outcome.properties.empty());
    EXPECT_EQ(outcome.properties.front(), "injected-tight-capacity");

    // The shrunk case is a self-contained repro: it survives a JSON
    // round trip and still violates.
    std::string error;
    const auto parsed =
        CheckCase::fromJson(outcome.shrunk.toJson(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const auto replay = check::checkCase(*parsed, oracle_options);
    EXPECT_TRUE(replay.hasProperty("injected-tight-capacity"));
}

// --- Fuzzer loop -------------------------------------------------------

TEST(Fuzzer, RunIsDeterministicAndClean)
{
    FuzzOptions options;
    options.seed = 5;
    options.cases = 40;
    options.oracle.runLp = false;
    options.oracle.lifecycle = false;

    std::ostringstream log_a;
    std::ostringstream log_b;
    const auto a = check::runFuzz(options, log_a);
    const auto b = check::runFuzz(options, log_b);
    EXPECT_EQ(a.casesRun, 40u);
    EXPECT_EQ(a.failures, 0u);
    EXPECT_EQ(a.failures, b.failures);
    EXPECT_EQ(a.lpCostRuns, b.lpCostRuns);
    EXPECT_EQ(log_a.str(), log_b.str());
}

TEST(Fuzzer, InjectedFaultIsCaughtAndShrunk)
{
    FuzzOptions options;
    options.seed = 5;
    options.cases = 30;
    options.oracle.runLp = false;
    options.oracle.metamorphic = false;
    options.oracle.lifecycle = false;
    options.oracle.injectTightCapacityFraction = 0.05;

    std::ostringstream log;
    const auto stats = check::runFuzz(options, log);
    ASSERT_GT(stats.failures, 0u);
    const auto &failure = stats.failureList.front();
    EXPECT_EQ(failure.firstViolation.property,
              "injected-tight-capacity");
    EXPECT_FALSE(failure.shrunk.apps.empty());
    EXPECT_LE(failure.shrunk.serviceCount(),
              check::generateCase(failure.caseSeed).serviceCount());
    // cellSeed derivation makes the failing index re-runnable alone.
    EXPECT_EQ(failure.caseSeed,
              util::cellSeed(options.seed, failure.caseIndex));
}
