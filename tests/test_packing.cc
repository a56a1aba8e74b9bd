/**
 * @file
 * Tests for the Phoenix packing scheduler (Algorithm 2): best-fit,
 * repacking/migration, deletion of lower-ranked containers, and the
 * capacity/consistency invariants of the produced plans.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "check/reference.h"
#include "core/packing.h"
#include "core/planner.h"
#include "util/rng.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::Application;
using sim::ClusterState;
using sim::MsId;
using sim::NodeId;
using sim::PodRef;

namespace {

Application
makeApp(sim::AppId id, const std::vector<double> &cpus)
{
    Application app;
    app.id = id;
    app.services.resize(cpus.size());
    for (MsId m = 0; m < cpus.size(); ++m) {
        app.services[m].id = m;
        app.services[m].cpu = cpus[m];
        app.services[m].criticality = 1;
    }
    return app;
}

/** Validate plan/state consistency: capacities honoured, actions sane. */
void
checkInvariants(const std::vector<Application> &apps,
                const ClusterState &before, const PackResult &result)
{
    (void)apps;
    // No node over capacity; placements only on healthy nodes.
    for (size_t n = 0; n < result.state.nodeCount(); ++n) {
        const auto id = static_cast<NodeId>(n);
        EXPECT_LE(result.state.used(id),
                  result.state.node(id).capacity + 1e-6);
        if (!result.state.isHealthy(id)) {
            EXPECT_TRUE(result.state.podsOn(id).empty());
        }
    }
    // Replaying the action log on `before` reproduces the final state.
    ClusterState replay = before;
    for (const Action &action : result.actions) {
        switch (action.kind) {
          case ActionKind::Delete:
            EXPECT_TRUE(replay.evict(action.pod));
            break;
          case ActionKind::Migrate: {
            const double cpu = replay.podCpu(action.pod);
            EXPECT_TRUE(replay.evict(action.pod));
            EXPECT_TRUE(replay.place(action.pod, action.to, cpu));
            break;
          }
          case ActionKind::Restart:
            EXPECT_TRUE(replay.place(
                action.pod, action.to,
                apps[action.pod.app].services[action.pod.ms].totalCpu()));
            break;
        }
    }
    EXPECT_EQ(replay.assignment(), result.state.assignment());
}

/**
 * Pack with the packer's flat bookkeeping and with the reference
 * (check::referencePack). The flat book's futility bounds may skip pod
 * walks but nothing else: actions, final assignment and best-fit
 * probes must match the reference. Returns both results (flat first).
 */
std::pair<PackResult, PackResult>
packBothBooks(const std::vector<Application> &apps,
              const ClusterState &cluster, const GlobalRank &ranked,
              PackingOptions options = PackingOptions())
{
    PackResult flat = PackingScheduler(options).pack(apps, cluster, ranked);
    PackResult ref = check::referencePack(apps, cluster, ranked, options);
    EXPECT_EQ(flat.actions.size(), ref.actions.size());
    for (size_t i = 0;
         i < std::min(flat.actions.size(), ref.actions.size()); ++i) {
        EXPECT_EQ(flat.actions[i].kind, ref.actions[i].kind) << i;
        EXPECT_EQ(flat.actions[i].pod, ref.actions[i].pod) << i;
        EXPECT_EQ(flat.actions[i].from, ref.actions[i].from) << i;
        EXPECT_EQ(flat.actions[i].to, ref.actions[i].to) << i;
    }
    EXPECT_EQ(flat.state.assignment(), ref.state.assignment());
    EXPECT_EQ(flat.ops.bestFitProbes, ref.ops.bestFitProbes);
    EXPECT_LE(flat.ops.podScans, ref.ops.podScans);
    return {std::move(flat), std::move(ref)};
}

size_t
countActions(const PackResult &result, ActionKind kind)
{
    size_t n = 0;
    for (const Action &action : result.actions)
        n += action.kind == kind ? 1 : 0;
    return n;
}

} // namespace

TEST(Packing, BestFitPrefersTightestNode)
{
    auto apps = std::vector<Application>{makeApp(0, {3.0})};
    ClusterState cluster;
    cluster.addNode(10.0);
    cluster.addNode(4.0); // tightest node that fits
    cluster.addNode(8.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 0}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.state.nodeOf(PodRef{0, 0}), NodeId{1});
    checkInvariants(apps, cluster, result);
}

TEST(Packing, KeepsAlreadyRunningContainers)
{
    auto apps = std::vector<Application>{makeApp(0, {3.0, 2.0})};
    ClusterState cluster;
    cluster.addNode(10.0);
    cluster.place(PodRef{0, 0}, 0, 3.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    ASSERT_TRUE(result.complete);
    EXPECT_EQ(result.placed, 2u);
    EXPECT_EQ(result.state.nodeOf(PodRef{0, 0}), NodeId{0});
    // No action should touch the already-running pod.
    for (const Action &action : result.actions)
        EXPECT_FALSE(action.pod == (PodRef{0, 0}));
    checkInvariants(apps, cluster, result);
}

TEST(Packing, MigrationFreesFragmentedCapacity)
{
    // Node 0 (cap 6) holds pods 2+2; node 1 (cap 7) holds a 3.
    // Incoming container of size 5 fits nowhere by best-fit (free
    // space is 2 and 4) but fits on node 0 after migrating its two
    // 2-unit pods onto node 1.
    auto apps = std::vector<Application>{makeApp(0, {2.0, 2.0, 3.0, 5.0})};
    ClusterState cluster;
    cluster.addNode(6.0);
    cluster.addNode(7.0);
    cluster.place(PodRef{0, 0}, 0, 2.0);
    cluster.place(PodRef{0, 1}, 0, 2.0);
    cluster.place(PodRef{0, 2}, 1, 3.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 3}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    ASSERT_TRUE(result.complete);
    EXPECT_TRUE(result.state.isActive(PodRef{0, 3}));
    // All previously running pods must still be active (migrated, not
    // deleted).
    EXPECT_TRUE(result.state.isActive(PodRef{0, 0}));
    EXPECT_TRUE(result.state.isActive(PodRef{0, 1}));
    EXPECT_TRUE(result.state.isActive(PodRef{0, 2}));
    bool saw_migration = false;
    for (const Action &action : result.actions)
        saw_migration |= action.kind == ActionKind::Migrate;
    EXPECT_TRUE(saw_migration);
    checkInvariants(apps, cluster, result);
}

TEST(Packing, MigrationDisabledFallsBackToDeletion)
{
    auto apps = std::vector<Application>{makeApp(0, {2.0, 2.0, 3.0, 5.0})};
    ClusterState cluster;
    cluster.addNode(6.0);
    cluster.addNode(6.0);
    cluster.place(PodRef{0, 0}, 0, 2.0);
    cluster.place(PodRef{0, 1}, 0, 2.0);
    cluster.place(PodRef{0, 2}, 1, 3.0);

    PackingOptions options;
    options.allowMigrations = false;
    PackingScheduler packer(options);
    // Rank the incoming pod above the small ones so deletion targets
    // the unranked/lower-ranked pods.
    const GlobalRank ranked{PodRef{0, 3}, PodRef{0, 0}, PodRef{0, 1},
                            PodRef{0, 2}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    EXPECT_TRUE(result.state.isActive(PodRef{0, 3}));
    bool saw_delete = false;
    for (const Action &action : result.actions)
        saw_delete |= action.kind == ActionKind::Delete;
    EXPECT_TRUE(saw_delete);
    checkInvariants(apps, cluster, result);
}

TEST(Packing, DeletesLowestRankedFirst)
{
    // Node of size 10 holds ranked pods A(4, rank1), B(4, rank2) and
    // unranked U(2). Incoming I(4, rank0) must evict U then B, not A.
    auto apps = std::vector<Application>{
        makeApp(0, {4.0, 4.0, 2.0, 4.0})};
    ClusterState cluster;
    cluster.addNode(10.0);
    cluster.place(PodRef{0, 0}, 0, 4.0); // A
    cluster.place(PodRef{0, 1}, 0, 4.0); // B
    cluster.place(PodRef{0, 2}, 0, 2.0); // U (unranked)

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 3}, PodRef{0, 0}, PodRef{0, 1}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    EXPECT_TRUE(result.state.isActive(PodRef{0, 3}));
    EXPECT_TRUE(result.state.isActive(PodRef{0, 0}));
    EXPECT_FALSE(result.state.isActive(PodRef{0, 2})); // U deleted first
    EXPECT_FALSE(result.state.isActive(PodRef{0, 1})); // then B
    checkInvariants(apps, cluster, result);
}

TEST(Packing, NeverDeletesHigherRankedForLower)
{
    // Capacity for one pod only; rank order must win.
    auto apps = std::vector<Application>{makeApp(0, {4.0, 4.0})};
    ClusterState cluster;
    cluster.addNode(4.0);
    cluster.place(PodRef{0, 0}, 0, 4.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    EXPECT_TRUE(result.state.isActive(PodRef{0, 0}));
    EXPECT_FALSE(result.state.isActive(PodRef{0, 1}));
    EXPECT_FALSE(result.complete);
    checkInvariants(apps, cluster, result);
}

TEST(Packing, IncompleteWhenTrulyOverCapacity)
{
    auto apps = std::vector<Application>{makeApp(0, {4.0, 4.0, 4.0})};
    ClusterState cluster;
    cluster.addNode(9.0);

    PackingScheduler packer;
    const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}, PodRef{0, 2}};
    const PackResult result = packer.pack(apps, cluster, ranked);
    EXPECT_FALSE(result.complete);
    EXPECT_EQ(result.placed, 2u);
    checkInvariants(apps, cluster, result);
}

TEST(Packing, EmptyRankIsNoop)
{
    auto apps = std::vector<Application>{makeApp(0, {1.0})};
    ClusterState cluster;
    cluster.addNode(4.0);
    cluster.place(PodRef{0, 0}, 0, 1.0);

    PackingScheduler packer;
    const PackResult result = packer.pack(apps, cluster, {});
    EXPECT_TRUE(result.complete);
    EXPECT_TRUE(result.actions.empty());
    EXPECT_TRUE(result.state.isActive(PodRef{0, 0}));
}

// The flat book's "no pod can move" bound must cover services the
// input state does not hold. The smallest service (s, 1 CPU) is
// placed by pass 1; a later repack can only succeed by moving it,
// while every pod of the input state is 2 CPUs and no node has 2 free.
TEST(PackingBounds, SizeBoundCoversServicesPlacedInPassOne)
{
    // s, Q and P are ranked in that order; X is unranked.
    auto apps = std::vector<Application>{makeApp(0, {1.0, 2.0, 2.0, 2.0})};
    ClusterState cluster;
    cluster.addNode(4.0);
    cluster.addNode(3.0);
    cluster.place(PodRef{0, 3}, 0, 2.0); // X
    const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}, PodRef{0, 2}};

    const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
    // s -> node 0 and Q -> node 1 by best fit leave 1 CPU free on
    // each; P fits only once s migrates to node 1.
    ASSERT_TRUE(flat.complete);
    EXPECT_EQ(countActions(flat, ActionKind::Migrate), 1u);
    EXPECT_EQ(countActions(flat, ActionKind::Delete), 0u);
    EXPECT_EQ(flat.state.nodeOf(PodRef{0, 0}), NodeId{1});
    EXPECT_EQ(flat.state.nodeOf(PodRef{0, 2}), NodeId{0});
    EXPECT_TRUE(flat.state.isActive(PodRef{0, 3}));
    checkInvariants(apps, cluster, flat);
}

// A node within 1e-9 of fitting is accepted before either bound is
// consulted: repack returns it with no moves, and targeted delete
// with no victims, even though both bounds hold for it.
TEST(PackingBounds, NearFitCandidateAcceptedWhenBoundsFire)
{
    // C, A and B are ranked in that order; W is unranked. Every pod
    // is 1 CPU. Node 0 holds C with 1 - 5e-10 free, node 1 holds W
    // with 0.5 free, so nothing fits by best fit and no pod can move.
    auto apps =
        std::vector<Application>{makeApp(0, {1.0, 1.0, 1.0, 1.0})};
    ClusterState cluster;
    cluster.addNode(2.0 - 5e-10);
    cluster.addNode(1.5);
    cluster.place(PodRef{0, 0}, 0, 1.0); // C
    cluster.place(PodRef{0, 3}, 1, 1.0); // W
    const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}, PodRef{0, 2}};

    {
        // Repack only: A lands on node 0 with no migration; B then
        // fails with both candidate walks skipped.
        PackingOptions options;
        options.allowDeletions = false;
        const auto [flat, ref] =
            packBothBooks(apps, cluster, ranked, options);
        ASSERT_FALSE(flat.actions.empty());
        EXPECT_EQ(flat.actions[0].kind, ActionKind::Restart);
        EXPECT_EQ(flat.actions[0].pod, (PodRef{0, 1}));
        EXPECT_EQ(flat.actions[0].to, NodeId{0});
        EXPECT_EQ(countActions(flat, ActionKind::Migrate), 0u);
        EXPECT_FALSE(flat.state.isActive(PodRef{0, 2}));
        EXPECT_EQ(flat.ops.podScans, 0u);
        EXPECT_GT(ref.ops.podScans, 0u);
    }
    {
        // Targeted delete only: node 0 holds only committed pods, yet
        // it takes A with zero victims; W dies only for B.
        PackingOptions options;
        options.allowMigrations = false;
        const auto [flat, ref] =
            packBothBooks(apps, cluster, ranked, options);
        ASSERT_EQ(flat.actions.size(), 3u);
        EXPECT_EQ(flat.actions[0].kind, ActionKind::Restart);
        EXPECT_EQ(flat.actions[0].pod, (PodRef{0, 1}));
        EXPECT_EQ(flat.actions[0].to, NodeId{0});
        EXPECT_EQ(flat.actions[1].kind, ActionKind::Delete);
        EXPECT_EQ(flat.actions[1].pod, (PodRef{0, 3}));
        EXPECT_TRUE(flat.complete);
        EXPECT_LT(flat.ops.podScans, ref.ops.podScans);
        checkInvariants(apps, cluster, flat);
    }
}

// A below-quorum rollback re-places its victims and uncommits the
// failed service's survivor before deleting it; the per-node count of
// uncommitted pods must come back with them, or a later targeted
// delete skips the node whose survivor it needs.
TEST(PackingBounds, TargetedDeleteAfterRollbackSeesUncommittedPods)
{
    Application app0 = makeApp(0, {2.0, 1.0}); // S (2 replicas), V
    app0.services[0].replicas = 2;
    auto apps = std::vector<Application>{app0, makeApp(1, {3.0}),
                                         makeApp(2, {1.0})}; // T, W
    ClusterState cluster;
    cluster.addNode(3.5);
    cluster.addNode(1.0);
    cluster.place(PodRef{0, 0, 0}, 0, 2.0); // S's lone survivor
    cluster.place(PodRef{0, 1}, 0, 1.0);    // V
    cluster.place(PodRef{2, 0}, 1, 1.0);    // W
    // S needs both replicas but its second fits nowhere, even after
    // deleting V and W, so its attempt rolls back and S is deleted.
    // T then fits on node 0 only by deleting V.
    const GlobalRank ranked{PodRef{0, 0}, PodRef{1, 0}};

    const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
    ASSERT_EQ(flat.actions.size(), 3u);
    EXPECT_EQ(flat.actions[0].kind, ActionKind::Delete);
    EXPECT_EQ(flat.actions[0].pod, (PodRef{0, 0, 0}));
    EXPECT_EQ(flat.actions[1].kind, ActionKind::Delete);
    EXPECT_EQ(flat.actions[1].pod, (PodRef{0, 1}));
    EXPECT_EQ(flat.actions[2].kind, ActionKind::Restart);
    EXPECT_EQ(flat.actions[2].pod, (PodRef{1, 0}));
    EXPECT_EQ(flat.actions[2].to, NodeId{0});
    EXPECT_TRUE(flat.state.isActive(PodRef{2, 0}));
}

// A targeted delete that evicts a node's only uncommitted pod leaves
// the node holding committed pods only. The state has already dropped
// the victim when the book hears of the eviction, so the book must take
// the node from the packer: a later targeted delete then skips the
// node's victim walk. Only the pod-scan count can tell.
TEST(PackingBounds, EvictedVictimLeavesNoUncommittedPodBehind)
{
    // C, P and Q are ranked in that order; V is unranked.
    auto apps =
        std::vector<Application>{makeApp(0, {2.0, 1.0, 3.0, 1.0})};
    ClusterState cluster(sim::PodIndex::of(apps));
    cluster.addNode(3.0);
    cluster.place(PodRef{0, 0}, 0, 2.0); // C
    cluster.place(PodRef{0, 3}, 0, 1.0); // V
    const GlobalRank ranked{PodRef{0, 0}, PodRef{0, 1}, PodRef{0, 2}};

    const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
    // P fits only by deleting V; Q fits nowhere.
    ASSERT_EQ(flat.actions.size(), 2u);
    EXPECT_EQ(flat.actions[0].kind, ActionKind::Delete);
    EXPECT_EQ(flat.actions[0].pod, (PodRef{0, 3}));
    EXPECT_EQ(flat.actions[1].kind, ActionKind::Restart);
    EXPECT_EQ(flat.actions[1].pod, (PodRef{0, 1}));
    EXPECT_FALSE(flat.complete);
    // P's targeted delete walks C and V; Q's finds node 0 committed
    // through and walks nothing.
    EXPECT_EQ(flat.ops.podScans, 2u);
    EXPECT_GT(ref.ops.podScans, flat.ops.podScans);
    checkInvariants(apps, cluster, flat);
}

// The deletion order is built when a pack first reaches the deletion
// cascade, but it must be the order of the start placement, sorted by
// (rank, pod). Here the state has moved away from the start by then:
// pass 1 restarted A, and repack migrated the uncommitted Ud to make
// room for B. C's first replica reaches the cascade (the order is built
// there), which deletes every lower-ranked pod and still leaves C below
// quorum, so C's attempt rolls back and pushes its victims back onto
// the order. D's cascade then deletes from that order: unranked pods
// by descending PodRef, then ranked ones by descending rank, where the
// ranked services' rows run in a different order from their ranks.
TEST(PackingBounds, DeletionOrderIsBuiltFromTheStartPlacement)
{
    // App 0: A, B, C (2 replicas, quorum 2), P, Q, Uc, Ud, L. App 1: D.
    Application app0 =
        makeApp(0, {2.0, 6.0, 9.0, 4.0, 4.0, 3.0, 2.0, 3.0});
    app0.services[2].replicas = 2;
    auto apps = std::vector<Application>{app0, makeApp(1, {9.0})};
    const PodRef A{0, 0}, B{0, 1}, P{0, 3}, Q{0, 4}, Uc{0, 5}, Ud{0, 6},
        L{0, 7}, D{1, 0};
    ClusterState cluster(sim::PodIndex::of(apps));
    cluster.addNode(10.0); // node 0: P, Q (2 free)
    cluster.addNode(8.0);  // node 1: Uc, L (2 free)
    cluster.addNode(6.0);  // node 2: Ud (4 free)
    // Sixteen nodes with room for no pod: they are the emptiest, so
    // every repack and targeted delete looks at them only, and C and D
    // reach the cascade.
    for (int n = 0; n < 16; ++n)
        cluster.addNode(1.0);
    cluster.place(P, 0, 4.0);
    cluster.place(Q, 0, 4.0);
    cluster.place(Uc, 1, 3.0);
    cluster.place(L, 1, 3.0);
    cluster.place(Ud, 2, 2.0);
    // Ranks: A 0, B 1, C 2, D 3, Q 4, P 5, L 6; Uc and Ud unranked.
    const GlobalRank ranked{A, B, PodRef{0, 2}, D, Q, P, L};

    const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
    const std::vector<Action> expect{
        {ActionKind::Restart, A, 0, 0},
        {ActionKind::Migrate, Ud, 2, 1},
        {ActionKind::Restart, B, 0, 2},
        // D's cascade, in start-placement order from the back.
        {ActionKind::Delete, Ud, 1, 0},
        {ActionKind::Delete, Uc, 1, 0},
        {ActionKind::Delete, L, 1, 0},
        {ActionKind::Delete, P, 0, 0},
        {ActionKind::Delete, Q, 0, 0},
        // The order is spent: repack moves A off node 0 for D.
        {ActionKind::Migrate, A, 0, 1},
        {ActionKind::Restart, D, 0, 0},
    };
    ASSERT_EQ(flat.actions.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(flat.actions[i].kind, expect[i].kind) << i;
        EXPECT_EQ(flat.actions[i].pod, expect[i].pod) << i;
        EXPECT_EQ(flat.actions[i].from, expect[i].from) << i;
        EXPECT_EQ(flat.actions[i].to, expect[i].to) << i;
    }
    EXPECT_FALSE(flat.state.isActive(PodRef{0, 2, 0}));
    EXPECT_FALSE(flat.state.isActive(PodRef{0, 2, 1}));
    EXPECT_FALSE(flat.complete);
    checkInvariants(apps, cluster, flat);
}

class PackingRandomized : public ::testing::TestWithParam<int>
{
};

TEST_P(PackingRandomized, InvariantsHoldUnderRandomFailures)
{
    util::Rng rng(GetParam() * 2654435761u + 3);

    // Random apps.
    const int app_count = static_cast<int>(rng.uniformInt(1, 4));
    std::vector<Application> apps;
    for (int a = 0; a < app_count; ++a) {
        const int services = static_cast<int>(rng.uniformInt(2, 12));
        std::vector<double> cpus;
        for (int m = 0; m < services; ++m)
            cpus.push_back(rng.uniform(0.5, 4.0));
        apps.push_back(makeApp(static_cast<sim::AppId>(a), cpus));
        for (auto &ms : apps.back().services) {
            ms.criticality =
                static_cast<int>(rng.uniformInt(1, 5));
        }
    }

    // Random cluster, initial placement of everything via a planner
    // pass, then random node failures.
    ClusterState cluster;
    const int nodes = static_cast<int>(rng.uniformInt(3, 12));
    for (int n = 0; n < nodes; ++n)
        cluster.addNode(rng.uniform(4.0, 12.0));

    Planner planner;
    FairObjective fair;
    const GlobalRank initial =
        planner.plan(apps, fair, cluster.healthyCapacity());
    PackingScheduler packer;
    PackResult placed = packer.pack(apps, cluster, initial);

    ClusterState failed = placed.state;
    const int kill = static_cast<int>(rng.uniformInt(0, nodes - 1));
    std::vector<NodeId> ids = failed.healthyNodes();
    rng.shuffle(ids);
    for (int k = 0; k < kill; ++k)
        failed.failNode(ids[k]);

    // Replan on the degraded cluster.
    const GlobalRank replan =
        planner.plan(apps, fair, failed.healthyCapacity());
    const PackResult result = packer.pack(apps, failed, replan);

    checkInvariants(apps, failed, result);
    // placed counts ranked pods only and never exceeds the rank size.
    EXPECT_LE(result.placed, replan.size());
    // Every pod the plan kept or placed is on a healthy node.
    for (const auto &[pod, node] : result.state.assignment()) {
        (void)pod;
        EXPECT_TRUE(result.state.isHealthy(node));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PackingRandomized,
                         ::testing::Range(0, 40));
