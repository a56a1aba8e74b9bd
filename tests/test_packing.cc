/**
 * @file
 * Tests for the Phoenix packing scheduler (Algorithm 2): best-fit,
 * repacking/migration, deletion of lower-ranked containers, and the
 * capacity/consistency invariants of the produced plans.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "adaptlab/environment.h"
#include "check/reference.h"
#include "core/packing.h"
#include "core/planner.h"
#include "sim/failure.h"
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
            // One replica: the service's per-replica size.
            EXPECT_TRUE(replay.place(
                action.pod, action.to,
                apps[action.pod.app].services[action.pod.ms].cpu));
            break;
        }
    }
    EXPECT_EQ(replay.assignment(), result.state.assignment());
}

/**
 * Pack with the packer's flat bookkeeping and with the reference
 * (check::referencePack). The flat book's futility bounds may skip pod
 * walks and its write-back index may skip index writes, but nothing
 * else: actions, final assignment and best-fit probes must match the
 * reference. Returns both results (flat first).
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
    EXPECT_LE(flat.ops.kvOps, ref.ops.kvOps);
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

// The flat book writes a node's key back to its capacity index only
// when another node is touched or a scan needs the whole index, so the
// index lags the state by one node. Replica 0 and 1 of S fill node 0
// while it is pending; replica 2 must see node 0 full and spill to the
// next best fit, node 2, which writes node 0 back. T then needs the
// emptiest node: node 0's old key must be gone from the index.
TEST(PackingBounds, ReplicasFillThePendingNodeThenSpill)
{
    Application app0 = makeApp(0, {2.0});
    app0.services[0].replicas = 3;
    auto apps = std::vector<Application>{app0, makeApp(1, {4.0})};
    ClusterState cluster;
    cluster.addNode(4.0);
    cluster.addNode(6.0);
    cluster.addNode(5.0);
    const GlobalRank ranked{PodRef{0, 0}, PodRef{1, 0}};

    const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
    ASSERT_TRUE(flat.complete);
    ASSERT_EQ(flat.actions.size(), 4u);
    EXPECT_EQ(flat.actions[0].to, NodeId{0});
    EXPECT_EQ(flat.actions[1].to, NodeId{0});
    EXPECT_EQ(flat.actions[2].to, NodeId{2});
    EXPECT_EQ(flat.actions[3].pod, (PodRef{1, 0}));
    EXPECT_EQ(flat.actions[3].to, NodeId{1});
    // Three loaded keys, then two write-backs (node 0 when S spills,
    // node 2 when T lands); T's node stays pending. The reference
    // erases and inserts for each of the four placements.
    EXPECT_EQ(flat.ops.kvOps, 3u + 4u);
    EXPECT_EQ(ref.ops.kvOps, 3u + 8u);
    checkInvariants(apps, cluster, flat);
}

// A probe compares the pending node's current key with the index's
// best other pair in (key, node) order, so on a key tie the lower node
// id wins whether or not it is the pending one.
TEST(PackingBounds, PendingNodeTiesBreakByNodeId)
{
    {
        // A lands on node 0 (pending, 5 -> 2) and ties nodes 1 and 2:
        // B takes node 0 again, C and D take nodes 1 and 2.
        auto apps = std::vector<Application>{
            makeApp(0, {3.0}), makeApp(1, {2.0, 2.0, 2.0})};
        ClusterState cluster;
        cluster.addNode(5.0);
        cluster.addNode(2.0);
        cluster.addNode(2.0);
        const GlobalRank ranked{PodRef{0, 0}, PodRef{1, 0}, PodRef{1, 1},
                                PodRef{1, 2}};
        const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
        ASSERT_EQ(flat.actions.size(), 4u);
        EXPECT_EQ(flat.actions[0].to, NodeId{0});
        EXPECT_EQ(flat.actions[1].to, NodeId{0});
        EXPECT_EQ(flat.actions[2].to, NodeId{1});
        EXPECT_EQ(flat.actions[3].to, NodeId{2});
    }
    {
        // A lands on node 1 (pending, 5 -> 2) and ties node 0: B takes
        // node 0, the lower id, not the pending node.
        auto apps = std::vector<Application>{makeApp(0, {3.0}),
                                             makeApp(1, {2.0})};
        ClusterState cluster;
        cluster.addNode(2.0);
        cluster.addNode(5.0);
        const GlobalRank ranked{PodRef{0, 0}, PodRef{1, 0}};
        const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
        ASSERT_EQ(flat.actions.size(), 2u);
        EXPECT_EQ(flat.actions[0].to, NodeId{1});
        EXPECT_EQ(flat.actions[1].to, NodeId{0});
    }
}

// A targeted delete that evicts a pod and places one of the same size
// on the same node leaves the node's key where the index has it, so
// nothing is written, neither when the next probe merges the node nor
// when the next scan would write it back. Q's repack scan and targeted
// delete then run over an index that holds every key as loaded.
TEST(PackingBounds, KeyThatComesBackIsNeverWritten)
{
    // P and Q are ranked; V, Y and the 1-CPU R are not. R is placed
    // nowhere, but it lowers the smallest pod size to 1, so node 2's
    // free CPU keeps repack from being futile.
    auto apps =
        std::vector<Application>{makeApp(0, {2.0, 2.0, 2.0, 2.0, 1.0})};
    const PodRef P{0, 0}, Q{0, 1}, V{0, 2}, Y{0, 3};
    ClusterState cluster;
    cluster.addNode(2.0); // node 0: V
    cluster.addNode(2.0); // node 1: Y
    cluster.addNode(1.0); // node 2: empty
    cluster.place(V, 0, 2.0);
    cluster.place(Y, 1, 2.0);
    const GlobalRank ranked{P, Q};

    const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
    const std::vector<Action> expect{
        {ActionKind::Delete, Y, 1, 0},
        {ActionKind::Restart, P, 0, 1},
        {ActionKind::Delete, V, 0, 0},
        {ActionKind::Restart, Q, 0, 0},
    };
    ASSERT_EQ(flat.actions.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(flat.actions[i].kind, expect[i].kind) << i;
        EXPECT_EQ(flat.actions[i].pod, expect[i].pod) << i;
        EXPECT_EQ(flat.actions[i].from, expect[i].from) << i;
        EXPECT_EQ(flat.actions[i].to, expect[i].to) << i;
    }
    EXPECT_TRUE(flat.complete);
    // P's and Q's repacks walked nodes 1 and 0 over the index as
    // loaded.
    EXPECT_GT(flat.ops.podScans, 0u);
    EXPECT_EQ(flat.ops.kvOps, 3u);
    EXPECT_EQ(ref.ops.kvOps, 3u + 8u);
    checkInvariants(apps, cluster, flat);
}

// A below-quorum rollback replays its journal through the book while
// a node is pending: S's replicas land on nodes 0 and 1, the third
// fits nowhere, and the rollback evicts both, leaving node 0 pending
// with its key back at 2. T's probe must merge that key.
TEST(PackingBounds, RollbackWhileANodeIsPending)
{
    Application app0 = makeApp(0, {2.0});
    app0.services[0].replicas = 3;
    auto apps = std::vector<Application>{app0, makeApp(1, {2.0})};
    ClusterState cluster;
    cluster.addNode(2.0);
    cluster.addNode(3.0);
    const GlobalRank ranked{PodRef{0, 0}, PodRef{1, 0}};

    const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
    ASSERT_EQ(flat.actions.size(), 1u);
    EXPECT_EQ(flat.actions[0].kind, ActionKind::Restart);
    EXPECT_EQ(flat.actions[0].pod, (PodRef{1, 0}));
    EXPECT_EQ(flat.actions[0].to, NodeId{0});
    EXPECT_FALSE(flat.complete);
    EXPECT_FALSE(flat.state.isActive(PodRef{0, 0, 0}));
    checkInvariants(apps, cluster, flat);
}

// A constrained pod's best fit walks the index instead of probing it,
// and the walk must see the key an unconstrained placement just left
// on the pending node: U takes node 0 (3 -> 1), so C, which allows one
// replica per node, must go to node 1.
TEST(PackingBounds, ConstrainedWalkAfterAnUnconstrainedPlacement)
{
    Application app1 = makeApp(1, {2.0});
    app1.services[0].maxPerNode = 1;
    auto apps = std::vector<Application>{makeApp(0, {2.0}), app1};
    ClusterState cluster;
    cluster.addNode(3.0);
    cluster.addNode(4.0);
    const GlobalRank ranked{PodRef{0, 0}, PodRef{1, 0}};

    const auto [flat, ref] = packBothBooks(apps, cluster, ranked);
    ASSERT_EQ(flat.actions.size(), 2u);
    EXPECT_EQ(flat.actions[0].to, NodeId{0});
    EXPECT_EQ(flat.actions[1].pod, (PodRef{1, 0}));
    EXPECT_EQ(flat.actions[1].to, NodeId{1});
    EXPECT_TRUE(flat.complete);
    checkInvariants(apps, cluster, flat);
}

// The flat book skips a targeted delete that must fail as the last
// failed one did (clearFutile). S's fails: the 16 emptiest nodes have
// 1 CPU free each, and node 0's 1-CPU victim u is not enough. The
// cascade then deletes v, outside those 16, and S takes its place, so
// the index holds the same keys again. T is smaller: its targeted
// delete must run and take u, where a skipped one would fall through
// to the cascade and delete z first.
TEST(PackingBounds, FailedTargetedDeleteBoundsOnlyLargerPods)
{
    auto apps = std::vector<Application>{
        makeApp(0, {3.0}), makeApp(1, {2.0}), makeApp(2, {1.0, 1.0, 3.0})};
    const PodRef S{0, 0}, T{1, 0}, U{2, 0}, Z{2, 1}, V{2, 2};
    ClusterState cluster;
    cluster.addNode(2.0); // node 0: u
    for (int n = 1; n < 16; ++n)
        cluster.addNode(1.0);
    cluster.addNode(3.0); // node 16: v
    cluster.addNode(1.0); // node 17: z
    cluster.place(U, 0, 1.0);
    cluster.place(V, 16, 3.0);
    cluster.place(Z, 17, 1.0);
    PackingOptions options;
    options.allowMigrations = false;

    const auto [flat, ref] =
        packBothBooks(apps, cluster, GlobalRank{S, T}, options);
    const std::vector<Action> expect{
        {ActionKind::Delete, V, 16, 0},
        {ActionKind::Restart, S, 0, 16},
        {ActionKind::Delete, U, 0, 0},
        {ActionKind::Restart, T, 0, 0},
    };
    ASSERT_EQ(flat.actions.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(flat.actions[i].kind, expect[i].kind) << i;
        EXPECT_EQ(flat.actions[i].pod, expect[i].pod) << i;
        EXPECT_EQ(flat.actions[i].to, expect[i].to) << i;
    }
    EXPECT_TRUE(flat.complete);
    checkInvariants(apps, cluster, flat);
}

// The bound reads the index after the pending node's write-back. S's
// targeted delete fails on the 16 emptiest nodes; its cascade deletes
// v from node 16, outside them, and S lands there, raising node 16's
// key into the 16 while it is still pending. T's targeted delete must
// run and take u1 there; a skipped one would leave T to the cascade,
// which deletes u2.
TEST(PackingBounds, FailedTargetedDeleteSeesThePendingWriteBack)
{
    auto apps = std::vector<Application>{
        makeApp(0, {2.0}), makeApp(1, {2.0}), makeApp(2, {1.0, 1.0, 3.0})};
    const PodRef S{0, 0}, T{1, 0}, U1{2, 0}, U2{2, 1}, V{2, 2};
    ClusterState cluster;
    for (int n = 0; n < 16; ++n)
        cluster.addNode(1.0);
    cluster.addNode(5.0); // node 16: u1, u2, v
    cluster.place(U1, 16, 1.0);
    cluster.place(U2, 16, 1.0);
    cluster.place(V, 16, 3.0);
    PackingOptions options;
    options.allowMigrations = false;

    const auto [flat, ref] =
        packBothBooks(apps, cluster, GlobalRank{S, T}, options);
    const std::vector<Action> expect{
        {ActionKind::Delete, V, 16, 0},
        {ActionKind::Restart, S, 0, 16},
        {ActionKind::Delete, U1, 16, 0},
        {ActionKind::Restart, T, 0, 16},
    };
    ASSERT_EQ(flat.actions.size(), expect.size());
    for (size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(flat.actions[i].kind, expect[i].kind) << i;
        EXPECT_EQ(flat.actions[i].pod, expect[i].pod) << i;
        EXPECT_EQ(flat.actions[i].to, expect[i].to) << i;
    }
    checkInvariants(apps, cluster, flat);
}

// A rollback puts victims back without writing the index: S's replica
// 0 deletes v and takes node 0, replica 1's targeted delete fails, its
// cascade deletes w and fails too, and the rollback restores v and w,
// each node's key coming back to what the index holds. T must still
// find v by a targeted delete; a skipped one would leave T to the
// cascade, which no longer holds v.
TEST(PackingBounds, VictimsPutBackByARollbackAreSeen)
{
    Application app0 = makeApp(0, {2.0});
    app0.services[0].replicas = 2;
    auto apps = std::vector<Application>{app0, makeApp(1, {2.0}),
                                         makeApp(2, {2.0, 1.0})};
    const PodRef T{1, 0}, V{2, 0}, W{2, 1};
    ClusterState cluster;
    cluster.addNode(2.0); // node 0: v
    cluster.addNode(1.0); // node 1: w
    cluster.place(V, 0, 2.0);
    cluster.place(W, 1, 1.0);
    PackingOptions options;
    options.allowMigrations = false;

    const auto [flat, ref] =
        packBothBooks(apps, cluster, GlobalRank{PodRef{0, 0}, T}, options);
    ASSERT_EQ(flat.actions.size(), 2u);
    EXPECT_EQ(flat.actions[0].kind, ActionKind::Delete);
    EXPECT_EQ(flat.actions[0].pod, V);
    EXPECT_EQ(flat.actions[1].pod, T);
    EXPECT_EQ(flat.actions[1].to, NodeId{0});
    EXPECT_TRUE(flat.state.isActive(W));
    EXPECT_FALSE(flat.complete);
    checkInvariants(apps, cluster, flat);
}

// A service ranked twice sorts at its last rank, so ranks can fall
// along pass 1. X (last ranked 3) fails with nothing to delete, its
// cascade dropping y (rank 2) from the deletion order. S (rank 1) may
// delete y: its targeted delete must run, though nothing changed
// since X's failed.
TEST(PackingBounds, FailedTargetedDeleteBoundsOnlyLowerRanks)
{
    auto apps = std::vector<Application>{makeApp(0, {2.0}),
                                         makeApp(1, {2.0}),
                                         makeApp(2, {2.0})};
    const PodRef X{0, 0}, S{1, 0}, Y{2, 0};
    ClusterState cluster;
    cluster.addNode(2.0);
    cluster.place(Y, 0, 2.0);
    PackingOptions options;
    options.allowMigrations = false;

    const auto [flat, ref] =
        packBothBooks(apps, cluster, GlobalRank{X, S, Y, X}, options);
    ASSERT_EQ(flat.actions.size(), 2u);
    EXPECT_EQ(flat.actions[0].kind, ActionKind::Delete);
    EXPECT_EQ(flat.actions[0].pod, Y);
    EXPECT_EQ(flat.actions[1].pod, S);
    EXPECT_EQ(flat.actions[1].to, NodeId{0});
    checkInvariants(apps, cluster, flat);
}

// The write-back index is written per node visit, not per pod: at the
// Fig 8(b) scale point's settings (18 apps, 16-CPU nodes, 0.5-8 CPU
// pods, demand 0.8) on 1,000 nodes at 50% failure, the flat book must
// write at most half the index operations of the reference, which
// erases and inserts on every placement and eviction (an eager index
// reads 1.0).
TEST(PackingBounds, IndexWritesFollowNodesNotPods)
{
    adaptlab::EnvironmentConfig config;
    config.nodeCount = 1000;
    config.seed = 1;
    config.demandFraction = 0.8;
    config.nodeCapacity = 16.0;
    config.alibaba.appCount = 18;
    config.alibaba.sizeScale = 0.05;
    config.resources.model = workloads::ResourceModel::CallsPerMinute;
    config.resources.minCpu = 0.5;
    config.resources.maxCpu = 8.0;
    config.tagging.scheme = workloads::TaggingScheme::ServiceLevel;
    config.tagging.percentile = 0.9;
    const adaptlab::Environment env = adaptlab::buildEnvironment(config);
    ClusterState failed = env.cluster;
    sim::FailureInjector injector{util::Rng(3)};
    injector.failCapacityFraction(failed, 0.5);

    Planner planner;
    CostObjective cost;
    const GlobalRank ranked =
        planner.plan(env.apps, cost, failed.healthyCapacity());
    const auto [flat, ref] = packBothBooks(env.apps, failed, ranked);
    ASSERT_GT(flat.actions.size(), 100u);
    EXPECT_LE(2 * flat.ops.kvOps, ref.ops.kvOps)
        << flat.ops.kvOps << " against " << ref.ops.kvOps;
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
