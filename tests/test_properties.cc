/**
 * @file
 * Cross-scheme property tests: for every resilience scheme, over
 * randomized environments and failure draws, the planned cluster
 * state must satisfy the structural invariants (capacity bounds,
 * healthy-node placement, replica/quorum consistency, replayable
 * action logs, and intra-app criticality monotonicity for the
 * criticality-aware schemes).
 */

#include <gtest/gtest.h>

#include <memory>

#include "adaptlab/environment.h"
#include "adaptlab/runner.h"
#include "check/case.h"
#include "check/generator.h"
#include "check/reference.h"
#include "core/preemption.h"
#include "core/schemes.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "util/rng.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::Application;
using sim::ClusterState;
using sim::PodRef;

namespace {

std::vector<std::unique_ptr<ResilienceScheme>>
allSchemes()
{
    auto schemes = makeAllSchemes(false);
    schemes.push_back(std::make_unique<KubePreemptionScheme>());
    return schemes;
}

/** Structural invariants every scheme's output must satisfy. */
void
checkStateInvariants(const std::vector<Application> &apps,
                     const ClusterState &state,
                     const std::string &scheme)
{
    for (size_t n = 0; n < state.nodeCount(); ++n) {
        const auto id = static_cast<sim::NodeId>(n);
        EXPECT_LE(state.used(id), state.node(id).capacity + 1e-6)
            << scheme << " overfills node " << n;
        if (!state.isHealthy(id)) {
            EXPECT_TRUE(state.podsOn(id).empty())
                << scheme << " placed pods on failed node " << n;
        }
    }
    for (const auto &[pod, node] : state.assignment()) {
        EXPECT_LT(pod.app, apps.size()) << scheme;
        EXPECT_LT(pod.ms, apps[pod.app].services.size()) << scheme;
        EXPECT_LT(static_cast<int>(pod.replica),
                  std::max(apps[pod.app].services[pod.ms].replicas, 1))
            << scheme;
        EXPECT_TRUE(state.isHealthy(node)) << scheme;
        // Recorded pod size matches the descriptor (per-replica cpu).
        EXPECT_NEAR(state.podCpu(pod),
                    apps[pod.app].services[pod.ms].cpu, 1e-9)
            << scheme;
    }
}

/** Replaying the action log on the input state gives the output. */
void
checkActionReplay(const std::vector<Application> &apps,
                  const ClusterState &before, const SchemeResult &result,
                  const std::string &scheme)
{
    ClusterState replay = before;
    for (const Action &action : result.pack.actions) {
        switch (action.kind) {
          case ActionKind::Delete:
            EXPECT_TRUE(replay.evict(action.pod)) << scheme;
            break;
          case ActionKind::Migrate: {
            const double cpu = replay.podCpu(action.pod);
            EXPECT_TRUE(replay.evict(action.pod)) << scheme;
            EXPECT_TRUE(replay.place(action.pod, action.to, cpu))
                << scheme;
            break;
          }
          case ActionKind::Restart:
            EXPECT_TRUE(replay.place(
                action.pod, action.to,
                apps[action.pod.app].services[action.pod.ms].cpu))
                << scheme;
            break;
        }
    }
    EXPECT_EQ(replay.assignment(), result.pack.state.assignment())
        << scheme << " action log does not reproduce its state";
}

} // namespace

class SchemeProperties : public ::testing::TestWithParam<int>
{
};

TEST_P(SchemeProperties, InvariantsAcrossRandomEnvironments)
{
    const int seed = GetParam();
    util::Rng rng(seed * 7001 + 5);

    adaptlab::EnvironmentConfig config;
    config.nodeCount = 30 + static_cast<size_t>(rng.uniformInt(0, 50));
    config.nodeCapacity = 32.0;
    config.demandFraction = rng.uniform(0.5, 0.9);
    config.seed = static_cast<uint64_t>(seed) + 1;
    config.alibaba.appCount = static_cast<int>(rng.uniformInt(3, 8));
    config.alibaba.sizeScale = 0.03;
    config.resources.maxCpu = 16.0;
    const adaptlab::Environment env =
        adaptlab::buildEnvironment(config);

    ClusterState failed = env.cluster;
    sim::FailureInjector injector{util::Rng(seed + 99)};
    injector.failCapacityFraction(failed, rng.uniform(0.1, 0.8));

    for (const auto &scheme : allSchemes()) {
        const SchemeResult result = scheme->apply(env.apps, failed);
        ASSERT_FALSE(result.failed) << scheme->name();
        checkStateInvariants(env.apps, result.pack.state,
                             scheme->name());
        checkActionReplay(env.apps, failed, result, scheme->name());

        // Quorum consistency: any microservice reported active has at
        // least its quorum of replicas placed (activeSetFromCluster
        // enforces this by construction; assert the placed counts
        // directly as a cross-check).
        const auto active = result.activeSet(env.apps);
        std::map<std::pair<sim::AppId, sim::MsId>, int> placed;
        for (const auto &[pod, node] :
             result.pack.state.assignment()) {
            (void)node;
            ++placed[{pod.app, pod.ms}];
        }
        for (size_t a = 0; a < env.apps.size(); ++a) {
            for (const auto &ms : env.apps[a].services) {
                if (!active[a][ms.id])
                    continue;
                const auto key = std::make_pair(
                    static_cast<sim::AppId>(a), ms.id);
                EXPECT_GE(placed[key], ms.quorumCount())
                    << scheme->name();
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemeProperties, ::testing::Range(0, 12));

class PhoenixMonotonicity : public ::testing::TestWithParam<int>
{
};

TEST_P(PhoenixMonotonicity, MoreCapacityNeverHurtsAvailability)
{
    // Phoenix availability is monotone in surviving capacity for a
    // fixed failure draw prefix (failing strictly more nodes cannot
    // improve the plan).
    const int seed = GetParam();
    adaptlab::EnvironmentConfig config;
    config.nodeCount = 60;
    config.nodeCapacity = 32.0;
    config.seed = static_cast<uint64_t>(seed) * 13 + 3;
    config.alibaba.appCount = 6;
    config.alibaba.sizeScale = 0.03;
    config.resources.maxCpu = 16.0;
    const adaptlab::Environment env =
        adaptlab::buildEnvironment(config);

    // One shuffled node order; fail growing prefixes of it.
    std::vector<sim::NodeId> order = env.cluster.healthyNodes();
    util::Rng rng(seed + 7);
    rng.shuffle(order);

    PhoenixScheme phoenix(Objective::Fair);
    double last_avail = 1.1;
    for (size_t kill = 0; kill <= 48; kill += 12) {
        ClusterState state = env.cluster;
        for (size_t k = 0; k < kill; ++k)
            state.failNode(order[k]);
        const double avail = sim::criticalFractionAvailability(
            env.apps, phoenix.apply(env.apps, state).activeSet(env.apps));
        EXPECT_LE(avail, last_avail + 0.05)
            << "availability rose when failing MORE nodes (kill="
            << kill << ")";
        last_avail = avail;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PhoenixMonotonicity,
                         ::testing::Range(0, 8));

namespace {

/** Field-wise action equality (Action carries no operator==). */
void
expectSameActions(const std::vector<Action> &flat,
                  const std::vector<Action> &ref, const char *what)
{
    ASSERT_EQ(flat.size(), ref.size()) << what;
    for (size_t i = 0; i < flat.size(); ++i) {
        EXPECT_EQ(flat[i].kind, ref[i].kind) << what << " action " << i;
        EXPECT_EQ(flat[i].pod, ref[i].pod) << what << " action " << i;
        EXPECT_EQ(flat[i].from, ref[i].from) << what << " action " << i;
        EXPECT_EQ(flat[i].to, ref[i].to) << what << " action " << i;
    }
}

} // namespace

/**
 * The flat hot path (CSR + indexed heaps + dense packer bookkeeping)
 * must be indistinguishable from the Alg. 1/2 reference in src/check
 * in every output byte: same global rank, same action sequence, same
 * final state. The op counters double as an algorithm-identity check:
 * both take the same number of queue operations and best-fit probes.
 */
class BitIdentity : public ::testing::TestWithParam<int>
{
};

TEST_P(BitIdentity, FlatMatchesReferenceImplementation)
{
    const int seed = GetParam();
    util::Rng rng(seed * 90001 + 17);

    adaptlab::EnvironmentConfig config;
    config.nodeCount = 20 + static_cast<size_t>(rng.uniformInt(0, 60));
    config.nodeCapacity = 32.0;
    config.demandFraction = rng.uniform(0.4, 0.95);
    config.seed = static_cast<uint64_t>(seed) * 3 + 11;
    config.alibaba.appCount = static_cast<int>(rng.uniformInt(2, 9));
    config.alibaba.sizeScale = 0.03;
    config.resources.maxCpu = 16.0;
    const adaptlab::Environment env =
        adaptlab::buildEnvironment(config);

    ClusterState failed = env.cluster;
    sim::FailureInjector injector{util::Rng(seed + 1234)};
    injector.failCapacityFraction(failed, rng.uniform(0.05, 0.85));

    // Cover the ablation knobs too: each must stay bit-identical.
    PlannerOptions planner_opts;
    planner_opts.eagerDfsDescend = seed % 2 == 0;
    planner_opts.stopAtFirstOverflow = seed % 5 == 0;
    PackingOptions packing_opts;
    packing_opts.abortOnUnplaceable = seed % 7 == 0;

    for (const Objective objective : {Objective::Fair, Objective::Cost}) {
        PhoenixScheme flat(objective, planner_opts, packing_opts);
        check::ReferencePhoenixScheme ref(objective, planner_opts,
                                          packing_opts);
        // Apply twice so the flat scheme's second pass runs entirely on
        // recycled scratch buffers — identity must survive reuse.
        (void)flat.apply(env.apps, failed);
        const SchemeResult a = flat.apply(env.apps, failed);
        const SchemeResult b = ref.apply(env.apps, failed);
        const char *what =
            objective == Objective::Fair ? "fair" : "cost";

        ASSERT_EQ(a.plan, b.plan) << what;
        expectSameActions(a.pack.actions, b.pack.actions, what);
        EXPECT_EQ(a.pack.state.assignment(),
                  b.pack.state.assignment())
            << what;
        EXPECT_EQ(a.pack.placed, b.pack.placed) << what;
        EXPECT_EQ(a.pack.complete, b.pack.complete) << what;

        // Algorithm identity: same queue traffic and probe counts,
        // while the flat book's futility bounds only ever skip pod
        // walks and its write-back index only ever skips index
        // writes.
        EXPECT_EQ(a.planOps.heapPushes, b.planOps.heapPushes) << what;
        EXPECT_EQ(a.planOps.heapPops, b.planOps.heapPops) << what;
        EXPECT_EQ(a.pack.ops.bestFitProbes, b.pack.ops.bestFitProbes)
            << what;
        EXPECT_LE(a.pack.ops.podScans, b.pack.ops.podScans) << what;
        EXPECT_LE(a.pack.ops.kvOps, b.pack.ops.kvOps) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BitIdentity, ::testing::Range(0, 50));

/**
 * Bit-identity must also hold when placement is constrained: generated
 * topologies with anti-affinity groups, PDBs, and zone-spread caps
 * route packing through the vacancy allocator's feasibility walk, and
 * that walk must visit (and count) identically under the reference
 * containers and the flat hot path, including a flat pass that runs
 * on recycled scratch buffers.
 */
class ConstrainedBitIdentity : public ::testing::TestWithParam<int>
{
};

TEST_P(ConstrainedBitIdentity, ConstrainedPackingIsBitIdentical)
{
    const int seed = GetParam();
    check::GeneratorOptions gen;
    gen.antiAffinityProbability = 0.5;
    gen.pdbProbability = 0.5;
    gen.zoneSpreadProbability = 0.5;
    gen.nodeCapProbability = 0.5;
    gen.maxNodes = 16;
    gen.maxApps = 5;
    const check::CheckCase c =
        check::generateCase(static_cast<uint64_t>(seed) * 61 + 5, gen);

    // Seed an initial placement epoch, then replay the failure script
    // over it, so the schemes replan against a cluster that already
    // holds constrained placements (the vacancy allocator's
    // build-from-assignment path).
    PhoenixScheme seeder(Objective::Cost);
    ClusterState failed =
        seeder.apply(c.apps, c.emptyCluster()).pack.state;
    c.replaySteps(failed);

    for (const Objective objective : {Objective::Fair, Objective::Cost}) {
        PhoenixScheme flat(objective);
        check::ReferencePhoenixScheme ref(objective);
        // Apply twice so the second pass runs on recycled buffers.
        (void)flat.apply(c.apps, failed);
        const SchemeResult a = flat.apply(c.apps, failed);
        const SchemeResult b = ref.apply(c.apps, failed);
        const char *what =
            objective == Objective::Fair ? "fair" : "cost";

        ASSERT_EQ(a.plan, b.plan) << what;
        expectSameActions(a.pack.actions, b.pack.actions, what);
        EXPECT_EQ(a.pack.state.assignment(),
                  b.pack.state.assignment())
            << what;
        EXPECT_EQ(a.pack.placed, b.pack.placed) << what;
        EXPECT_EQ(a.pack.complete, b.pack.complete) << what;
        EXPECT_EQ(a.planOps.heapPushes, b.planOps.heapPushes) << what;
        EXPECT_EQ(a.planOps.heapPops, b.planOps.heapPops) << what;
        EXPECT_EQ(a.pack.ops.bestFitProbes, b.pack.ops.bestFitProbes)
            << what;
        EXPECT_LE(a.pack.ops.podScans, b.pack.ops.podScans) << what;
        EXPECT_LE(a.pack.ops.kvOps, b.pack.ops.kvOps) << what;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstrainedBitIdentity,
                         ::testing::Range(0, 50));

/**
 * The Default and K8sPreemption baselines' decisions, pinned. Both
 * schemes replan 50 generated cases, without and with placement
 * constraints, after an initial Phoenix placement epoch and the case's
 * failure script (as ConstrainedBitIdentity replays it). Every action
 * they emit is folded into one digest per (scheme, constraints) pair.
 * The digests pin how both break ties between equal-capacity nodes:
 * in the (remaining, id) order of a std::multiset of those pairs, which
 * util::BucketedKv keeps. A tie broken in another order changes them.
 * They also pin the script replay: since a partition heal stopped
 * restoring a node an earlier fail step stopped, 6 unconstrained and 5
 * constrained seeds start from a different input state; the digest over
 * the other seeds did not move.
 */
TEST(BaselineDecisions, DefaultAndPreemptionActionsArePinned)
{
    struct Pinned
    {
        bool constrained;
        const char *scheme;
        uint64_t digest;
    };
    const Pinned pinned[] = {
        {false, "Default", 0xb2afb88e0707835dull},
        {false, "K8sPreemption", 0xa91b013eafc0257bull},
        {true, "Default", 0x4da2940e0139b5acull},
        {true, "K8sPreemption", 0x102391117982f7e6ull},
    };
    for (const Pinned &expect : pinned) {
        check::GeneratorOptions gen;
        if (expect.constrained) {
            gen.antiAffinityProbability = 0.5;
            gen.pdbProbability = 0.5;
            gen.zoneSpreadProbability = 0.5;
            gen.nodeCapProbability = 0.5;
            gen.maxNodes = 16;
            gen.maxApps = 5;
        }
        std::unique_ptr<ResilienceScheme> scheme;
        if (std::string(expect.scheme) == "Default")
            scheme = std::make_unique<DefaultScheme>();
        else
            scheme = std::make_unique<KubePreemptionScheme>();

        uint64_t digest = 0;
        const auto fold = [&](uint64_t value) {
            digest = util::splitmix64Mix(digest ^ value);
        };
        size_t actions = 0;
        for (uint64_t seed = 0; seed < 50; ++seed) {
            const check::CheckCase c =
                check::generateCase(seed * 61 + 5, gen);
            PhoenixScheme seeder(Objective::Cost);
            ClusterState failed =
                seeder.apply(c.apps, c.emptyCluster()).pack.state;
            c.replaySteps(failed);
            const SchemeResult result = scheme->apply(c.apps, failed);
            fold(result.pack.actions.size());
            for (const Action &action : result.pack.actions) {
                fold(static_cast<uint64_t>(action.kind));
                fold(action.pod.app);
                fold(action.pod.ms);
                fold(action.pod.replica);
                fold(action.from);
                fold(action.to);
            }
            actions += result.pack.actions.size();
        }
        const std::string what =
            std::string(expect.scheme) +
            (expect.constrained ? " constrained" : " unconstrained");
        EXPECT_GT(actions, 50u) << what;
        EXPECT_EQ(digest, expect.digest)
            << what << ": 0x" << std::hex << digest << std::dec << " over "
            << actions << " actions";
    }
}
