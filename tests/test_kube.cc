/**
 * @file
 * Tests for the mini-Kubernetes substrate: pod lifecycle, default
 * scheduler behaviour (checked against a linear-scan model, and its
 * per-tick work), kubelet-failure detection via missed heartbeats, and
 * the agent verbs (delete / migrate / restart).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <tuple>

#include "kube/kube.h"
#include "obs/registry.h"
#include "util/rng.h"

using namespace phoenix;
using namespace phoenix::kube;
using sim::PodRef;

namespace {

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

/** Per-zone capacities summed in node order from a full
 * observedState() snapshot — the derivation observedZoneCapacities
 * must reproduce bit for bit without building one. */
std::vector<KubeCluster::ZoneCapacity>
zoneCapacitiesFromSnapshot(const KubeCluster &cluster, size_t fallback)
{
    std::vector<KubeCluster::ZoneCapacity> zones(
        cluster.forecastZoneCount(fallback));
    const sim::ClusterState observed = cluster.observedState();
    for (sim::NodeId id = 0; id < cluster.nodeCount(); ++id) {
        KubeCluster::ZoneCapacity &zone =
            zones[cluster.forecastZoneOf(id, fallback)];
        zone.staticCapacity += cluster.nodeCapacity(id);
        if (id < observed.nodeCount() && observed.isHealthy(id))
            zone.readyCapacity += observed.node(id).capacity;
    }
    return zones;
}

/** Every pod of every registered app has a slot in @p snapshot's
 * index, and pod() resolves it to itself. */
void
expectEveryPodResolves(const KubeCluster &cluster,
                       const sim::ClusterState &snapshot)
{
    const auto &apps = cluster.apps();
    size_t pods = 0;
    for (sim::AppId a = 0; a < apps.size(); ++a) {
        for (const auto &ms : apps[a].services) {
            for (int r = 0; r < std::max(ms.replicas, 1); ++r) {
                const PodRef ref{a, ms.id, static_cast<uint32_t>(r)};
                const Pod *pod = cluster.pod(ref);
                ASSERT_NE(pod, nullptr);
                EXPECT_EQ(pod->ref, ref);
                EXPECT_NE(snapshot.podIndex()->slotOf(ref), sim::kNoSlot);
                ++pods;
            }
        }
    }
    EXPECT_EQ(snapshot.podIndex()->slotCount(), pods);
}

using Placement = std::vector<std::pair<PodRef, sim::NodeId>>;

Placement
placementOf(const sim::ClusterState &state)
{
    return Placement(state.assignment().begin(), state.assignment().end());
}

void
expectZonesMatchSnapshot(const KubeCluster &cluster, size_t fallback)
{
    const auto fast = cluster.observedZoneCapacities(fallback);
    const auto slow = zoneCapacitiesFromSnapshot(cluster, fallback);
    ASSERT_EQ(fast.size(), slow.size());
    for (size_t z = 0; z < fast.size(); ++z) {
        EXPECT_EQ(fast[z].staticCapacity, slow[z].staticCapacity)
            << "zone " << z;
        EXPECT_EQ(fast[z].readyCapacity, slow[z].readyCapacity)
            << "zone " << z;
    }
}

} // namespace

TEST(Kube, PodsScheduleAndStart)
{
    sim::EventQueue events;
    KubeCluster cluster(events);
    cluster.addNode(8.0);
    cluster.addNode(8.0);
    cluster.addApplication(simpleApp(3, 2.0));

    events.runUntil(5.0);
    // Scheduler has bound the pods; they are Starting, not Running.
    EXPECT_EQ(cluster.runningPods().size(), 0u);
    events.runUntil(120.0);
    EXPECT_EQ(cluster.runningPods().size(), 3u);
    EXPECT_EQ(cluster.pendingCount(), 0u);
}

TEST(Kube, SpreadPlacementBalancesNodes)
{
    sim::EventQueue events;
    KubeCluster cluster(events);
    cluster.addNode(8.0);
    cluster.addNode(8.0);
    cluster.addApplication(simpleApp(4, 2.0));
    events.runUntil(120.0);

    const auto state = cluster.observedState();
    EXPECT_NEAR(state.used(0), 4.0, 1e-9);
    EXPECT_NEAR(state.used(1), 4.0, 1e-9);
}

TEST(Kube, OverCommittedPodsStayPending)
{
    sim::EventQueue events;
    KubeCluster cluster(events);
    cluster.addNode(4.0);
    cluster.addApplication(simpleApp(3, 2.0));
    events.runUntil(120.0);
    EXPECT_EQ(cluster.runningPods().size(), 2u);
    EXPECT_EQ(cluster.pendingCount(), 1u);
}

TEST(Kube, KubeletStopTriggersNotReadyAfterGrace)
{
    sim::EventQueue events;
    KubeConfig config;
    config.nodeGracePeriod = 100.0;
    KubeCluster cluster(events, config);
    const auto n0 = cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 2.0));
    events.runUntil(120.0);
    ASSERT_EQ(cluster.runningPods().size(), 2u);

    cluster.stopKubelet(n0);
    const double t_stop = events.now();
    events.runUntil(t_stop + 50.0);
    EXPECT_TRUE(cluster.isReady(n0)); // within grace

    events.runUntil(t_stop + 130.0);
    EXPECT_FALSE(cluster.isReady(n0));
    EXPECT_NEAR(cluster.readyCapacity(), 0.0, 1e-9);
    // Pods evicted back to Pending, nowhere to go.
    EXPECT_EQ(cluster.runningPods().size(), 0u);
    EXPECT_EQ(cluster.pendingCount(), 2u);
}

TEST(Kube, KubeletRestartRecoversNodeAndPods)
{
    sim::EventQueue events;
    KubeCluster cluster(events);
    const auto n0 = cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 2.0));
    events.runUntil(120.0);

    cluster.stopKubelet(n0);
    events.runUntil(events.now() + 150.0);
    ASSERT_FALSE(cluster.isReady(n0));

    cluster.startKubelet(n0);
    events.runUntil(events.now() + 30.0);
    EXPECT_TRUE(cluster.isReady(n0));
    // Default scheduler re-places and pods restart.
    events.runUntil(events.now() + 120.0);
    EXPECT_EQ(cluster.runningPods().size(), 2u);
}

TEST(Kube, DeleteDrainsGracefully)
{
    sim::EventQueue events;
    KubeConfig config;
    config.podTerminationSeconds = 10.0;
    KubeCluster cluster(events, config);
    cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 2.0));
    events.runUntil(120.0);

    const PodRef ref{0, 1};
    cluster.deletePod(ref);
    EXPECT_EQ(cluster.pod(ref)->phase, PodPhase::Terminating);
    // Still occupying capacity during drain.
    EXPECT_NEAR(cluster.observedState().used(0), 4.0, 1e-9);

    events.runUntil(events.now() + 15.0);
    EXPECT_NE(cluster.pod(ref)->phase, PodPhase::Terminating);
    EXPECT_NEAR(cluster.observedState().used(0), 2.0, 1e-9);
    // Scaled down: the scheduler must not bring it back.
    events.runUntil(events.now() + 60.0);
    EXPECT_EQ(cluster.runningPods().count(ref), 0u);
}

TEST(Kube, StartPodAfterDeleteRevives)
{
    sim::EventQueue events;
    KubeCluster cluster(events);
    cluster.addNode(8.0);
    cluster.addApplication(simpleApp(1, 2.0));
    events.runUntil(120.0);

    cluster.deletePod(PodRef{0, 0});
    events.runUntil(events.now() + 30.0);
    ASSERT_EQ(cluster.runningPods().size(), 0u);

    cluster.startPod(PodRef{0, 0});
    events.runUntil(events.now() + 120.0);
    EXPECT_EQ(cluster.runningPods().size(), 1u);
}

TEST(Kube, NonContiguousServiceIdsAreRejected)
{
    // Pod slots follow PodRef order only when every ms.id is its index.
    sim::EventQueue events;
    KubeCluster cluster(events);
    cluster.addNode(8.0);
    sim::Application app = simpleApp(3, 1.0);
    app.services[2].id = 5;
    EXPECT_THROW(cluster.addApplication(app), std::invalid_argument);
    EXPECT_TRUE(cluster.apps().empty());
    EXPECT_EQ(cluster.pod(PodRef{0, 0}), nullptr);

    cluster.addApplication(simpleApp(2, 1.0));
    EXPECT_NE(cluster.pod(PodRef{0, 1}), nullptr);
    EXPECT_EQ(cluster.pod(PodRef{0, 2}), nullptr);
    EXPECT_EQ(cluster.pod(PodRef{0, 1, 1}), nullptr);
    EXPECT_EQ(cluster.pod(PodRef{1, 0}), nullptr);
}

TEST(Kube, PinnedPlacementHonoursTarget)
{
    sim::EventQueue events;
    KubeConfig config;
    config.enableDefaultScheduler = false; // only pinned placement
    KubeCluster cluster(events, config);
    cluster.addNode(8.0);
    const auto n1 = cluster.addNode(8.0);
    cluster.addApplication(simpleApp(1, 2.0));
    events.runUntil(60.0);
    EXPECT_EQ(cluster.runningPods().size(), 0u); // nothing schedules

    cluster.startPod(PodRef{0, 0}, n1);
    events.runUntil(events.now() + 120.0);
    ASSERT_EQ(cluster.runningPods().size(), 1u);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->node, n1);
}

TEST(Kube, MigrationMovesRunningPodWithoutDowntime)
{
    sim::EventQueue events;
    KubeCluster cluster(events);
    cluster.addNode(8.0);
    const auto n1 = cluster.addNode(8.0);
    cluster.addApplication(simpleApp(1, 2.0));
    events.runUntil(120.0);
    const auto from = cluster.pod(PodRef{0, 0})->node;

    cluster.migratePod(PodRef{0, 0}, from == n1 ? 0 : n1);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->phase, PodPhase::Running);
    EXPECT_NE(cluster.pod(PodRef{0, 0})->node, from);
}

// ---- migratePod regressions (target validation + startup clock) ----

namespace {

/** Config with the invariant checker on regardless of build type. */
KubeConfig
checkedConfig()
{
    KubeConfig config;
    config.validateInvariants = true;
    return config;
}

} // namespace

TEST(Kube, PinToNonexistentNodeIsIgnored)
{
    // The scheduler indexes nodes_ by the pin; a pin past the last
    // node must never reach it.
    sim::EventQueue events;
    KubeConfig config = checkedConfig();
    config.enableDefaultScheduler = false;
    KubeCluster cluster(events, config);
    cluster.addNode(8.0);
    cluster.addApplication(simpleApp(1, 2.0));
    cluster.deletePod(PodRef{0, 0});

    cluster.startPod(PodRef{0, 0}, 7);
    EXPECT_FALSE(cluster.pod(PodRef{0, 0})->pinnedNode.has_value());
    EXPECT_TRUE(cluster.pod(PodRef{0, 0})->scaledDown);
    events.runUntil(60.0);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->phase, PodPhase::Pending);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, MigrateToFullNodeIsRejected)
{
    sim::EventQueue events;
    KubeCluster cluster(events, checkedConfig());
    const auto n0 = cluster.addNode(8.0);
    const auto n1 = cluster.addNode(4.0);
    // 6 CPU lands on n0 (spread prefers the bigger node), 3 CPU on n1.
    sim::Application app = simpleApp(2, 0.0);
    app.services[0].cpu = 6.0;
    app.services[1].cpu = 3.0;
    cluster.addApplication(app);
    events.runUntil(120.0);
    ASSERT_EQ(cluster.pod(PodRef{0, 0})->node, n0);
    ASSERT_EQ(cluster.pod(PodRef{0, 1})->node, n1);

    // n1 has 1 CPU free: moving the 6-CPU pod there must be refused,
    // not silently overcommit the node.
    cluster.migratePod(PodRef{0, 0}, n1);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->node, n0);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->phase, PodPhase::Running);
    EXPECT_LE(cluster.observedState().used(n1), 4.0 + 1e-9);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, MigrateToNotReadyNodeIsRejected)
{
    sim::EventQueue events;
    KubeCluster cluster(events, checkedConfig());
    const auto n0 = cluster.addNode(8.0);
    const auto n1 = cluster.addNode(8.0);
    sim::Application app = simpleApp(1, 2.0);
    cluster.addApplication(app);
    events.runUntil(120.0);
    const auto home = cluster.pod(PodRef{0, 0})->node;
    const auto other = home == n0 ? n1 : n0;

    cluster.stopKubelet(other);
    events.runUntil(events.now() + 150.0); // grace expires
    ASSERT_FALSE(cluster.isReady(other));

    cluster.migratePod(PodRef{0, 0}, other);
    // The pod must not land on a NotReady node; the pin is kept so a
    // later replan (or the node coming back) can honour it.
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->node, home);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->phase, PodPhase::Running);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, MigrateWhileStartingRestartsTheClock)
{
    sim::EventQueue events;
    KubeConfig config = checkedConfig();
    config.podStartupMin = 20.0;
    config.podStartupMax = 20.0; // deterministic startup
    config.enableDefaultScheduler = false;
    KubeCluster cluster(events, config);
    const auto n0 = cluster.addNode(8.0);
    const auto n1 = cluster.addNode(8.0);
    cluster.addApplication(simpleApp(1, 2.0));

    events.runUntil(1.0);
    cluster.startPod(PodRef{0, 0}, n0); // binds at the t=5 tick
    events.runUntil(12.0);
    ASSERT_EQ(cluster.pod(PodRef{0, 0})->phase, PodPhase::Starting);

    // Mid-startup move: the old start-completion timer (armed for
    // t=25) must not finish the pod on the new node for free.
    cluster.migratePod(PodRef{0, 0}, n1);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->node, n1);
    events.runUntil(27.0);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->phase, PodPhase::Starting);
    // The restarted clock (t=12+20=32) completes on the target.
    events.runUntil(40.0);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->phase, PodPhase::Running);
    EXPECT_EQ(cluster.pod(PodRef{0, 0})->node, n1);
    // Capacity was never double-counted across the two nodes.
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

// ---- evictPodsOn regression (graceful drain survives a failure) ----

TEST(Kube, DeleteThenNodeFailureKeepsTheDrain)
{
    sim::EventQueue events;
    KubeConfig config = checkedConfig();
    config.nodeGracePeriod = 50.0;
    config.podTerminationSeconds = 200.0; // drain outlives the grace
    KubeCluster cluster(events, config);
    cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 2.0));
    events.runUntil(120.0);
    ASSERT_EQ(cluster.runningPods().size(), 2u);

    const PodRef victim{0, 0};
    cluster.deletePod(victim);
    ASSERT_EQ(cluster.pod(victim)->phase, PodPhase::Terminating);
    const double drain_done = events.now() + 200.0;

    // Node fails mid-drain; the eviction sweep lands ~50-60 s later.
    cluster.stopKubelet(0);
    events.runUntil(events.now() + 80.0);
    ASSERT_EQ(cluster.evictionEpisodes(0), 1u);
    // The Running pod was evicted to Pending; the Terminating pod is
    // still draining — eviction must not cut the drain short.
    EXPECT_EQ(cluster.pod(PodRef{0, 1})->phase, PodPhase::Pending);
    EXPECT_EQ(cluster.pod(victim)->phase, PodPhase::Terminating);

    // The drain completes on schedule and, being scaled down, the pod
    // parks in Pending without rescheduling.
    events.runUntil(drain_done + 10.0);
    EXPECT_EQ(cluster.pod(victim)->phase, PodPhase::Pending);
    EXPECT_TRUE(cluster.pod(victim)->scaledDown);
    events.runUntil(events.now() + 60.0);
    EXPECT_EQ(cluster.runningPods().count(victim), 0u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, ObservedStateReflectsFailuresAndPlacement)
{
    sim::EventQueue events;
    KubeCluster cluster(events);
    const auto n0 = cluster.addNode(8.0);
    cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 3.0));
    events.runUntil(120.0);

    cluster.stopKubelet(n0);
    events.runUntil(events.now() + 150.0);

    const auto state = cluster.observedState();
    EXPECT_FALSE(state.isHealthy(n0));
    EXPECT_TRUE(state.isHealthy(1));
    EXPECT_NEAR(state.healthyCapacity(), 8.0, 1e-9);
    for (const auto &[pod, node] : state.assignment()) {
        (void)pod;
        EXPECT_EQ(node, 1u);
    }
}

// ---------------------------------------------------------------------
// NotReady boundary + extended fault taxonomy semantics.
// ---------------------------------------------------------------------

TEST(Kube, HeartbeatAgeExactlyAtGraceStaysReady)
{
    // Satellite regression: a heartbeat whose age is *exactly*
    // nodeGracePeriod must still count as fresh (<=, not <). With the
    // kubelet stopped right after addNode (last heartbeat at t=0), the
    // controller tick at t=100 computes age == 100 and must keep the
    // node Ready; the tick at t=110 crosses the boundary. A flipped
    // comparison marks the node NotReady one full tick early and this
    // test fails.
    sim::EventQueue events;
    KubeConfig config;
    config.validateInvariants = true;
    KubeCluster cluster(events, config);
    const auto node = cluster.addNode(8.0);
    cluster.stopKubelet(node);

    events.runUntil(105.0);
    EXPECT_TRUE(cluster.isReady(node));
    events.runUntil(115.0);
    EXPECT_FALSE(cluster.isReady(node));
}

TEST(Kube, SkewAtGraceMinusHeartbeatPinsTheBoundary)
{
    // Clock skew of -(grace - heartbeatPeriod) = -90 puts *every* age
    // the controller computes exactly on the boundary: heartbeats land
    // at t and stamp t-90; the next tick at t+10 sees age 100. Under
    // the pinned <= comparison the node stays Ready forever; under the
    // flipped one it permanently flaps NotReady.
    sim::EventQueue events;
    KubeConfig config;
    config.validateInvariants = true;
    KubeCluster cluster(events, config);
    const auto node = cluster.addNode(8.0);
    cluster.setClockSkew(node, -90.0);
    cluster.addApplication(simpleApp(2, 2.0));

    events.runUntil(500.0);
    EXPECT_TRUE(cluster.isReady(node));
    EXPECT_EQ(cluster.runningPods().size(), 2u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, PartitionSuppressesHeartbeatsUntilHealed)
{
    sim::EventQueue events;
    KubeConfig config;
    config.validateInvariants = true;
    KubeCluster cluster(events, config);
    const auto a = cluster.addNode(8.0);
    const auto b = cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 2.0));
    events.runUntil(200.0);
    ASSERT_EQ(cluster.runningPods().size(), 2u);

    // Partition at 200 (last stamped heartbeat 200): ages cross the
    // grace boundary at the t=310 tick (age 110).
    cluster.partitionNode(a);
    events.runUntil(305.0);
    EXPECT_TRUE(cluster.isReady(a));
    events.runUntil(315.0);
    EXPECT_FALSE(cluster.isReady(a));
    EXPECT_TRUE(cluster.isPartitioned(a));
    // The control plane evicted node a's pods; they reschedule onto b.
    events.runUntil(500.0);
    for (const PodRef &pod : cluster.runningPods())
        EXPECT_EQ(cluster.observedState().nodeOf(pod), b);

    // Heal: no artificial heartbeat bump — readiness returns only once
    // the next *natural* heartbeat lands and the controller ticks.
    cluster.healPartition(a);
    EXPECT_FALSE(cluster.isReady(a));
    events.runUntil(530.0);
    EXPECT_TRUE(cluster.isReady(a));
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, DegradedNodeShrinksCapacityAndNeverEvicts)
{
    sim::EventQueue events;
    KubeConfig config;
    config.validateInvariants = true;
    KubeCluster cluster(events, config);
    const auto node = cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 3.0));
    events.runUntil(120.0);
    ASSERT_EQ(cluster.runningPods().size(), 2u);
    EXPECT_DOUBLE_EQ(cluster.readyCapacity(), 8.0);

    // Degrade to half capacity: schedulable capacity shrinks below
    // current usage, but degradation is slow-not-dead — nothing is
    // evicted.
    cluster.degradeNode(node, 0.5);
    EXPECT_DOUBLE_EQ(cluster.effectiveCapacity(node), 4.0);
    EXPECT_DOUBLE_EQ(cluster.readyCapacity(), 4.0);
    EXPECT_EQ(cluster.runningPods().size(), 2u);

    // No room for new work while degraded.
    cluster.addApplication(simpleApp(1, 1.0));
    events.runUntil(240.0);
    EXPECT_EQ(cluster.pendingCount(), 1u);

    // The observed surface stays representable: a degraded node with
    // pods beyond its effective capacity reports max(effective, used).
    EXPECT_DOUBLE_EQ(cluster.observedState().node(node).capacity, 6.0);

    cluster.degradeNode(node, 1.0);
    events.runUntil(400.0);
    EXPECT_EQ(cluster.pendingCount(), 0u);
    EXPECT_EQ(cluster.runningPods().size(), 3u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, ApiOutageFreezesObservationWhileClusterEvolves)
{
    sim::EventQueue events;
    KubeConfig config;
    config.validateInvariants = true;
    KubeCluster cluster(events, config);
    cluster.addNode(8.0);
    const auto b = cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 2.0));
    events.runUntil(200.0);

    cluster.beginApiOutage();
    const uint64_t frozen = cluster.observedReadyFingerprint();
    cluster.stopKubelet(b);
    events.runUntil(400.0); // well past the grace period

    // Live truth moved; the observed surface did not.
    EXPECT_FALSE(cluster.isReady(b));
    EXPECT_DOUBLE_EQ(cluster.readyCapacity(), 8.0);
    EXPECT_DOUBLE_EQ(cluster.observedReadyCapacity(), 16.0);
    EXPECT_EQ(cluster.observedReadyFingerprint(), frozen);
    EXPECT_TRUE(cluster.observedState().isHealthy(b));
    EXPECT_FALSE(cluster.liveState().isHealthy(b));

    // Thaw: observation converges to live truth immediately.
    cluster.endApiOutage();
    EXPECT_DOUBLE_EQ(cluster.observedReadyCapacity(), 8.0);
    EXPECT_FALSE(cluster.observedState().isHealthy(b));
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, SnapshotKeepsItsIndexAcrossAddApplication)
{
    sim::EventQueue events;
    KubeCluster cluster(events);
    cluster.addNode(8.0);
    cluster.addNode(8.0);
    sim::Application a = simpleApp(2, 1.0);
    a.services[1].replicas = 3;
    cluster.addApplication(a);
    events.runUntil(60.0);

    const sim::ClusterState held = cluster.observedState();
    const size_t slots = held.podIndex()->slotCount();
    const Placement placed = placementOf(held);
    ASSERT_EQ(placed.size(), 4u);

    cluster.addApplication(simpleApp(3, 0.5));
    EXPECT_EQ(held.podIndex()->slotCount(), slots);
    EXPECT_EQ(placementOf(held), placed);
    // The index takes app 1 on its next use: here.
    const sim::ClusterState fresh = cluster.observedState();
    EXPECT_EQ(fresh.podIndex()->slotCount(), slots + 3);
    expectEveryPodResolves(cluster, fresh);
    EXPECT_EQ(held.podIndex()->slotCount(), slots);
    EXPECT_EQ(placementOf(held), placed);

    events.runUntil(300.0);
    EXPECT_EQ(cluster.runningPods().size(), 7u);
}

TEST(Kube, SnapshotKeepsItsIndexAcrossConstrainedAddApplication)
{
    // The vacancy allocator and the invariant sweep's allocator hold the
    // index too; they are rebuilt over the grown one.
    sim::EventQueue events;
    KubeConfig config;
    config.validateInvariants = true;
    KubeCluster cluster(events, config);
    for (int n = 0; n < 3; ++n)
        cluster.addNode(8.0);
    sim::Application a = simpleApp(1, 1.0);
    a.services[0].replicas = 3;
    a.services[0].maxPerNode = 1;
    cluster.addApplication(a);
    events.runUntil(60.0);

    const sim::ClusterState held = cluster.observedState();
    const size_t slots = held.podIndex()->slotCount();
    const Placement placed = placementOf(held);
    ASSERT_EQ(placed.size(), 3u);

    sim::Application b = simpleApp(1, 1.0);
    b.services[0].replicas = 3;
    b.services[0].maxPerNode = 1;
    cluster.addApplication(b);
    EXPECT_EQ(held.podIndex()->slotCount(), slots);
    EXPECT_EQ(placementOf(held), placed);

    events.runUntil(300.0);
    const sim::ClusterState fresh = cluster.observedState();
    expectEveryPodResolves(cluster, fresh);
    // Both apps spread one replica per node.
    for (sim::AppId app = 0; app < 2; ++app) {
        std::vector<sim::NodeId> nodes;
        for (uint32_t r = 0; r < 3; ++r)
            nodes.push_back(cluster.pod(PodRef{app, 0, r})->node);
        std::sort(nodes.begin(), nodes.end());
        EXPECT_EQ(nodes, (std::vector<sim::NodeId>{0, 1, 2}));
    }
    EXPECT_EQ(cluster.runningPods().size(), 6u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, FrozenStateKeepsItsIndexAcrossAddApplication)
{
    sim::EventQueue events;
    KubeConfig config;
    config.validateInvariants = true;
    KubeCluster cluster(events, config);
    cluster.addNode(8.0);
    cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 2.0));
    events.runUntil(60.0);

    // Only the outage-frozen state holds the index while app 1 lands.
    cluster.beginApiOutage();
    const size_t slots = cluster.observedState().podIndex()->slotCount();
    const Placement placed = placementOf(cluster.observedState());
    ASSERT_EQ(placed.size(), 2u);
    cluster.addApplication(simpleApp(1, 1.0));
    events.runUntil(120.0);

    const sim::ClusterState frozen = cluster.observedState();
    EXPECT_EQ(frozen.podIndex()->slotCount(), slots);
    EXPECT_EQ(placementOf(frozen), placed);
    expectEveryPodResolves(cluster, cluster.liveState());
    EXPECT_EQ(placementOf(cluster.liveState()).size(), 3u);
    // The live state brought the index up to app 1; the frozen state
    // kept the one it was built on.
    EXPECT_EQ(frozen.podIndex()->slotCount(), slots);
    EXPECT_EQ(placementOf(frozen), placed);

    cluster.endApiOutage();
    expectEveryPodResolves(cluster, cluster.observedState());
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, PositiveSkewMasksAKubeletDeath)
{
    // Fresh-from-the-future heartbeats: with skew +300 the last
    // heartbeat before the kubelet dies is stamped ~t+300, so the node
    // controller keeps the node Ready long past the real death — the
    // hazard class the chaos soak's clock-skew waves exercise.
    sim::EventQueue events;
    KubeConfig config;
    config.validateInvariants = true;
    KubeCluster cluster(events, config);
    const auto node = cluster.addNode(8.0);
    cluster.setClockSkew(node, 300.0);
    events.runUntil(12.0); // one skewed heartbeat (stamped ~310)
    cluster.stopKubelet(node);

    events.runUntil(400.0);
    EXPECT_TRUE(cluster.isReady(node)); // masked
    events.runUntil(420.0);
    EXPECT_FALSE(cluster.isReady(node)); // finally past 310 + grace
}

TEST(Kube, ShortFlapKeepsTheOldHeartbeatChain)
{
    // A kubelet stopped at t=12 and started at t=15 keeps the chain
    // armed at t=0: its beat at t=20 finds the kubelet running again.
    // The node then beats on two chains until the stop at t=31, and
    // the old one stamped 30 last: Ready at the t=130 tick (age 100),
    // NotReady at t=140. Restarted at t=25 instead, the old chain died
    // at t=20 and the new one's first beat (t=35) comes after the
    // stop, so the last stamp is the restart's own 25.
    for (const double restart : {15.0, 25.0}) {
        sim::EventQueue events;
        KubeCluster cluster(events, checkedConfig());
        const auto node = cluster.addNode(8.0);
        events.schedule(12.0, [&] { cluster.stopKubelet(node); });
        events.schedule(restart, [&] { cluster.startKubelet(node); });
        events.schedule(31.0, [&] { cluster.stopKubelet(node); });
        if (restart == 15.0) {
            events.runUntil(16.0);
            // Two controller loops, the stop at t=31, two beat chains.
            EXPECT_EQ(events.pending(), 5u);
            events.runUntil(135.0);
            EXPECT_TRUE(cluster.isReady(node));
            events.runUntil(140.0);
            EXPECT_FALSE(cluster.isReady(node));
        } else {
            events.runUntil(125.0);
            EXPECT_TRUE(cluster.isReady(node));
            events.runUntil(130.0);
            EXPECT_FALSE(cluster.isReady(node));
        }
        EXPECT_EQ(cluster.invariantViolations(), 0u);
    }
}

TEST(Kube, RestartOnEitherSideOfATickKeepsBeatOrder)
{
    // Skew -100 puts every age the controller computes on the grace
    // boundary, so a node's readiness depends on whether its beats
    // fire before or after the controller tick of the same instant.
    // Both kubelets stop before their first beat (last stamp t=0).
    // Node a is restarted by an event armed at t=0 for t=400, which
    // fires before the t=400 tick (armed at t=390): its chain beats
    // ahead of every later tick, so a is Ready from t=400 on. Node b
    // is restarted by an event armed at t=395 for t=400, which fires
    // after that tick: b's chain beats after every tick and b never
    // looks fresh. Merging b's chain into a's because both are due at
    // t=410 would turn b Ready at t=410.
    sim::EventQueue events;
    KubeCluster cluster(events, checkedConfig());
    const auto a = cluster.addNode(8.0);
    const auto b = cluster.addNode(8.0);
    for (const sim::NodeId node : {a, b}) {
        cluster.setClockSkew(node, -100.0);
        cluster.stopKubelet(node);
    }
    events.schedule(400.0, [&] { cluster.startKubelet(a); });
    events.schedule(395.0, [&] {
        events.schedule(400.0, [&] { cluster.startKubelet(b); });
    });

    events.runUntil(395.0);
    EXPECT_FALSE(cluster.isReady(a));
    EXPECT_FALSE(cluster.isReady(b));
    for (double t = 400.0; t <= 600.0; t += 10.0) {
        events.runUntil(t);
        EXPECT_TRUE(cluster.isReady(a)) << "t=" << t;
        EXPECT_FALSE(cluster.isReady(b)) << "t=" << t;
    }
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, HeartbeatsCostOneEventPerGroup)
{
    // Nodes added at one instant with nothing scheduled in between
    // beat in one group: one event per period for all 2,000, so the
    // queue holds the node controller, the scheduler and that group.
    // Per-node chains would hold 2,002 events and run 200,300 by
    // t=1000.
    sim::EventQueue events;
    KubeCluster cluster(events, checkedConfig());
    for (int n = 0; n < 2000; ++n)
        cluster.addNode(8.0);
    EXPECT_EQ(events.pending(), 3u);

    size_t ran = 0;
    while (!events.empty() && events.nextEventAt() <= 1000.0) {
        events.step();
        ++ran;
    }
    // 100 beats, 100 node controller ticks, 200 scheduler ticks.
    EXPECT_EQ(ran, 400u);
    for (sim::NodeId n = 0; n < 2000; ++n)
        ASSERT_TRUE(cluster.isReady(n)) << "node " << n;
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, ZoneCapacitiesMatchTheSnapshotDerivation)
{
    // Six nodes striped over three fallback zones (node n -> n % 3).
    sim::EventQueue events;
    KubeConfig config;
    config.validateInvariants = true;
    KubeCluster cluster(events, config);
    for (int n = 0; n < 6; ++n)
        cluster.addNode(8.0);
    cluster.addApplication(simpleApp(6, 3.0));
    events.runUntil(120.0);
    ASSERT_EQ(cluster.runningPods().size(), 6u);
    expectZonesMatchSnapshot(cluster, 3);

    // A degraded node under its usage reports the usage, one above it
    // the degraded capacity; a NotReady node reports nothing.
    cluster.degradeNode(1, 0.25);
    cluster.degradeNode(4, 0.75);
    cluster.stopKubelet(2);
    events.runUntil(300.0);
    ASSERT_FALSE(cluster.isReady(2));
    expectZonesMatchSnapshot(cluster, 3);
    const auto live = cluster.observedZoneCapacities(3);
    EXPECT_DOUBLE_EQ(live[1].staticCapacity, 16.0);
    EXPECT_DOUBLE_EQ(live[1].readyCapacity,
                     cluster.observedState().node(1).capacity + 6.0);
    EXPECT_DOUBLE_EQ(live[2].readyCapacity, 8.0);

    // During an API outage the ready side stays frozen while the
    // cluster moves on; a node added after the freeze counts only
    // towards its zone's nameplate.
    cluster.beginApiOutage();
    cluster.stopKubelet(3);
    cluster.degradeNode(5, 0.5);
    cluster.addNode(8.0);
    events.runUntil(500.0);
    ASSERT_FALSE(cluster.isReady(3));
    expectZonesMatchSnapshot(cluster, 3);
    const auto frozen = cluster.observedZoneCapacities(3);
    EXPECT_DOUBLE_EQ(frozen[0].staticCapacity, 24.0);
    EXPECT_DOUBLE_EQ(frozen[0].readyCapacity, live[0].readyCapacity);
    EXPECT_DOUBLE_EQ(frozen[2].readyCapacity, live[2].readyCapacity);

    cluster.endApiOutage();
    expectZonesMatchSnapshot(cluster, 3);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, ProjectionsAreEmptyWhenNothingFails)
{
    // Four nodes over two fallback zones: zone 0 = {0, 2}, 1 = {1, 3}.
    sim::EventQueue events;
    KubeCluster cluster(events);
    for (int n = 0; n < 4; ++n)
        cluster.addNode(8.0);
    cluster.addApplication(simpleApp(2, 2.0));
    events.runUntil(120.0);

    ASSERT_TRUE(cluster.projectedZoneLossState(0, 2).has_value());
    // Nothing is degraded yet.
    EXPECT_FALSE(cluster.projectedDecayState().has_value());

    // Zone 0 with no Ready node has nothing left to fail.
    cluster.stopKubelet(0);
    cluster.stopKubelet(2);
    events.runUntil(300.0);
    ASSERT_FALSE(cluster.isReady(0));
    ASSERT_FALSE(cluster.isReady(2));
    EXPECT_FALSE(cluster.projectedZoneLossState(0, 2).has_value());
    const auto zone1 = cluster.projectedZoneLossState(1, 2);
    ASSERT_TRUE(zone1.has_value());
    EXPECT_FALSE(zone1->isHealthy(1));
    EXPECT_FALSE(zone1->isHealthy(3));
    EXPECT_TRUE(zone1->assignment().empty());

    // A degraded node that is already NotReady is not a decay target;
    // a Ready degraded one is, and only it fails.
    cluster.degradeNode(0, 0.5);
    EXPECT_FALSE(cluster.projectedDecayState().has_value());
    cluster.degradeNode(1, 0.5);
    const auto decay = cluster.projectedDecayState();
    ASSERT_TRUE(decay.has_value());
    EXPECT_FALSE(decay->isHealthy(1));
    EXPECT_TRUE(decay->isHealthy(3));
}

// ---------------------------------------------------------------------
// Spread scheduler: differential check against a linear scan, and the
// work it does per tick.
// ---------------------------------------------------------------------

namespace {

/**
 * The binds one scheduler tick makes, recomputed by a linear scan over
 * public observations. Pending, not scaled-down pods are visited in
 * PodRef order. A pinned pod binds to its target when the target is
 * Ready, fits the pod and has a vacancy. Any other pod binds to the
 * Ready node with the most free effective capacity that fits and has a
 * vacancy, the lowest id among equals. Vacancy applies the apps' whole
 * placement policy, counting every occupying pod (Starting, Running
 * and Terminating) of the pod's app: its service's maxPerNode and
 * effective zone cap (minZoneSpread folded in), and its anti-affinity
 * group's node and zone caps over every member service.
 * @p ties counts binds whose winner tied another candidate on free
 * capacity, so the caller can check the tie-break was exercised.
 */
std::map<PodRef, sim::NodeId>
predictTick(const KubeCluster &cluster, const std::vector<PodRef> &refs,
            size_t &ties)
{
    constexpr double eps = 1e-9;
    const size_t nodes = cluster.nodeCount();
    std::vector<double> used(nodes, 0.0);
    // A scope of a pod: (scope key, node cap, zone cap). The key is the
    // service id, or -1 - group id for an anti-affinity group.
    using Scope = std::tuple<int64_t, int, int>;
    const auto scopes_of = [&](const PodRef &ref) {
        const sim::Application &app = cluster.apps()[ref.app];
        const sim::Microservice &ms = app.services[ref.ms];
        std::vector<Scope> scopes{
            {ref.ms, ms.maxPerNode, ms.effectiveZoneCap()}};
        for (const sim::PlacementGroup &g : app.placementGroups) {
            if (g.id == ms.antiAffinityGroup)
                scopes.emplace_back(-1 - g.id, g.maxPerNode, g.maxPerZone);
        }
        return scopes;
    };
    // Occupying members per (app, scope key, place); the place is a
    // node id, or -1 - zone for a zone.
    std::map<std::tuple<sim::AppId, int64_t, int64_t>, int> members;
    const auto zone_place = [&](sim::NodeId node) {
        return -1 - static_cast<int64_t>(cluster.nodeZone(node));
    };
    const auto occupy = [&](const PodRef &ref, sim::NodeId node) {
        for (const auto &[key, node_cap, zone_cap] : scopes_of(ref)) {
            ++members[{ref.app, key, node}];
            ++members[{ref.app, key, zone_place(node)}];
        }
    };
    const auto vacancy = [&](const PodRef &ref,
                             const std::vector<Scope> &scopes,
                             sim::NodeId node) {
        for (const auto &[key, node_cap, zone_cap] : scopes) {
            if (node_cap > 0 && members[{ref.app, key, node}] >= node_cap)
                return false;
            if (zone_cap > 0 &&
                members[{ref.app, key, zone_place(node)}] >= zone_cap)
                return false;
        }
        return true;
    };
    for (const PodRef &ref : refs) {
        const Pod &pod = *cluster.pod(ref);
        if (pod.phase != PodPhase::Pending) {
            used[pod.node] += pod.cpu;
            occupy(ref, pod.node);
        }
    }

    std::map<PodRef, sim::NodeId> binds;
    for (const PodRef &ref : refs) {
        const Pod &pod = *cluster.pod(ref);
        if (pod.phase != PodPhase::Pending || pod.scaledDown)
            continue;
        const std::vector<Scope> scopes = scopes_of(ref);
        std::optional<sim::NodeId> chosen;
        if (pod.pinnedNode) {
            const sim::NodeId target = *pod.pinnedNode;
            if (cluster.isReady(target) &&
                used[target] + pod.cpu <=
                    cluster.effectiveCapacity(target) + eps &&
                vacancy(ref, scopes, target))
                chosen = target;
        } else {
            sim::NodeId best = 0;
            double best_free = -1.0;
            bool tied = false;
            for (sim::NodeId n = 0; n < nodes; ++n) {
                if (!cluster.isReady(n) || !vacancy(ref, scopes, n))
                    continue;
                const double free = cluster.effectiveCapacity(n) - used[n];
                if (free < pod.cpu - eps)
                    continue;
                if (free > best_free) {
                    best_free = free;
                    best = n;
                    tied = false;
                } else if (free == best_free) {
                    tied = true;
                }
            }
            if (best_free >= 0.0) {
                chosen = best;
                ties += tied ? 1 : 0;
            }
        }
        if (chosen) {
            binds[ref] = *chosen;
            used[*chosen] += pod.cpu;
            occupy(ref, *chosen);
        }
    }
    return binds;
}

/** Enables metrics for one test and restores the disabled default. */
struct MetricsOn
{
    MetricsOn() { obs::setMetricsEnabled(true); }
    ~MetricsOn() { obs::setMetricsEnabled(false); }
};

uint64_t
counterValue(const char *name)
{
    return obs::Registry::global().counter(name).value();
}

} // namespace

TEST(Kube, SpreadSchedulerMatchesALinearScan)
{
    sim::EventQueue events;
    KubeCluster cluster(events, checkedConfig());
    util::Rng rng(20251017);

    // 50 nodes of mixed nameplates striped over five zones, a few
    // degraded; every capacity and CPU size is a multiple of 0.25, so
    // every sum below is exact.
    const double nameplates[] = {4.0, 8.0, 8.0, 12.0, 16.0};
    for (int n = 0; n < 50; ++n)
        cluster.addNode(nameplates[rng.uniformInt(0, 4)], n % 5);
    for (const sim::NodeId n : {3u, 11u, 27u, 40u})
        cluster.degradeNode(n, 0.5);

    // About as much demand as supply, so nodes fill up and fits fail.
    const double sizes[] = {0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0};
    for (int a = 0; a < 10; ++a) {
        sim::Application app = simpleApp(12, 0.0);
        for (auto &ms : app.services) {
            ms.cpu = sizes[rng.uniformInt(0, 6)];
            ms.replicas = static_cast<int>(rng.uniformInt(1, 4));
        }
        cluster.addApplication(app);
    }
    // One replica per node at most, and more replicas than nodes: the
    // surplus stays Pending and every tick walks past full nodes.
    const sim::AppId first_capped =
        static_cast<sim::AppId>(cluster.apps().size());
    sim::Application spread = simpleApp(1, 2.0);
    spread.services[0].replicas = 60;
    spread.services[0].maxPerNode = 1;
    cluster.addApplication(spread);
    // Spanning 21 zones implies at most 24 - 21 + 1 = 4 replicas per
    // zone: 20 fit the five zones, the rest stay Pending.
    sim::Application zonal = simpleApp(1, 0.5);
    zonal.services[0].replicas = 24;
    zonal.services[0].minZoneSpread = 21;
    cluster.addApplication(zonal);
    // Two services in one anti-affinity group: one member per node and
    // three per zone across both, and at most two of the second
    // service per zone.
    sim::Application grouped = simpleApp(2, 0.25);
    grouped.placementGroups.push_back({7, 1, 3});
    for (auto &ms : grouped.services) {
        ms.replicas = 9;
        ms.antiAffinityGroup = 7;
    }
    grouped.services[1].maxPerZone = 2;
    cluster.addApplication(grouped);

    std::vector<PodRef> refs;
    for (const auto &app : cluster.apps()) {
        for (const auto &ms : app.services) {
            for (int r = 0; r < std::max(ms.replicas, 1); ++r)
                refs.push_back({app.id, ms.id, static_cast<uint32_t>(r)});
        }
    }

    const sim::NodeId flapping = 17;
    size_t binds = 0;
    size_t pinned_binds = 0;
    size_t ties = 0;
    // Scheduler ticks land every 5 s and node-controller ticks and
    // heartbeats every 10 s, so no other periodic event shares an odd
    // multiple of 5. The test acts 2.5 s before each checked tick, so
    // its pins are first tried there, and drains and restarted
    // heartbeat chains stay off those instants.
    for (int k = 0; k < 100; ++k) {
        const double tick = 5.0 + 10.0 * k;
        while (events.nextEventAt() >= 0.0 && events.nextEventAt() < tick)
            events.step();
        const auto predicted = predictTick(cluster, refs, ties);
        std::vector<PodPhase> before;
        for (const PodRef &ref : refs)
            before.push_back(cluster.pod(ref)->phase);
        events.runUntil(tick);
        size_t pending_after = 0;
        for (size_t i = 0; i < refs.size(); ++i) {
            const PodRef &ref = refs[i];
            const Pod &pod = *cluster.pod(ref);
            const auto it = predicted.find(ref);
            if (it == predicted.end()) {
                // No bind predicted: a Pending pod stays Pending.
                if (before[i] == PodPhase::Pending) {
                    ASSERT_EQ(pod.phase, PodPhase::Pending)
                        << "t=" << tick << " pod " << ref.app << "/"
                        << ref.ms << "/" << ref.replica;
                    ++pending_after;
                }
                continue;
            }
            ASSERT_EQ(pod.phase, PodPhase::Starting)
                << "t=" << tick << " pod " << ref.app << "/" << ref.ms
                << "/" << ref.replica;
            ASSERT_EQ(pod.node, it->second)
                << "t=" << tick << " pod " << ref.app << "/" << ref.ms
                << "/" << ref.replica;
            ++binds;
            pinned_binds += pod.pinnedNode ? 1 : 0;
        }
        ASSERT_GT(pending_after, 0u) << "t=" << tick;

        events.runUntil(tick + 7.5);
        if (k == 10)
            cluster.stopKubelet(flapping); // NotReady + eviction at 220
        if (k == 40)
            cluster.startKubelet(flapping); // Ready again at 420
        if (k == 25)
            cluster.degradeNode(11, 1.0);
        if (k == 30)
            cluster.degradeNode(5, 0.75);
        if (k % 5 == 3) {
            // Scale a pod down, revive a scaled-down one (pinned half
            // the time), and pin a Pending one; pins to a full or
            // NotReady node keep the pod Pending.
            std::vector<PodRef> running, parked, pending;
            for (const PodRef &ref : refs) {
                const Pod &pod = *cluster.pod(ref);
                if (pod.scaledDown)
                    parked.push_back(ref);
                else if (pod.phase == PodPhase::Running)
                    running.push_back(ref);
                else if (pod.phase == PodPhase::Pending && !pod.pinnedNode)
                    pending.push_back(ref);
            }
            const auto pick = [&rng](const std::vector<PodRef> &from) {
                return from[static_cast<size_t>(rng.uniformInt(
                    0, static_cast<int64_t>(from.size()) - 1))];
            };
            const auto any_node = [&rng] {
                return static_cast<sim::NodeId>(rng.uniformInt(0, 49));
            };
            if (!running.empty())
                cluster.deletePod(pick(running));
            // A draining pod of a capped service still holds its
            // place in its node's and zone's counts.
            std::vector<PodRef> capped;
            for (const PodRef &ref : running) {
                if (ref.app >= first_capped)
                    capped.push_back(ref);
            }
            if (!capped.empty())
                cluster.deletePod(pick(capped));
            if (!parked.empty()) {
                if (rng.bernoulli(0.5))
                    cluster.startPod(pick(parked), any_node());
                else
                    cluster.startPod(pick(parked));
            }
            if (!pending.empty()) {
                // Pin to the emptiest Ready node (lowest id) half the
                // time, so some pins fit.
                const PodRef ref = pick(pending);
                sim::NodeId target = any_node();
                if (rng.bernoulli(0.5)) {
                    const sim::ClusterState live = cluster.liveState();
                    double most = -1.0;
                    for (sim::NodeId n = 0; n < 50; ++n) {
                        const double free =
                            cluster.effectiveCapacity(n) - live.used(n);
                        if (cluster.isReady(n) && free > most) {
                            most = free;
                            target = n;
                        }
                    }
                }
                cluster.startPod(ref, target);
            }
        }
    }
    EXPECT_GT(binds, 300u);
    EXPECT_GT(pinned_binds, 0u);
    EXPECT_GT(ties, 10u);
    EXPECT_EQ(cluster.evictionEpisodes(flapping), 1u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(Kube, SchedulerTickProbesOneNodePerBind)
{
    // The spread scheduler reads its capacity index from the front: on
    // unconstrained pods the first entry always fits, so a tick costs
    // one probe per bind, not one per (pod, node) pair (12M here).
    MetricsOn metrics;
    sim::EventQueue events;
    KubeCluster cluster(events);
    for (int n = 0; n < 2000; ++n)
        cluster.addNode(16.0);
    sim::Application app = simpleApp(1, 1.0);
    app.services[0].replicas = 6000;
    cluster.addApplication(app);

    const uint64_t probes0 = counterValue("kube.scheduler.node_probes");
    const uint64_t binds0 = counterValue("kube.scheduler.binds");
    events.runUntil(5.0);
    EXPECT_EQ(counterValue("kube.scheduler.binds") - binds0, 6000u);
    EXPECT_EQ(counterValue("kube.scheduler.node_probes") - probes0, 6000u);
    EXPECT_EQ(cluster.pendingCount(), 0u);
    // Spread: 6000 pods over 2000 equal nodes is three per node.
    const sim::ClusterState state = cluster.liveState();
    for (sim::NodeId n = 0; n < 2000; ++n)
        ASSERT_EQ(state.used(n), 3.0) << "node " << n;
}

TEST(Kube, UnplaceablePodCostsOneProbePerTick)
{
    MetricsOn metrics;
    sim::EventQueue events;
    KubeCluster cluster(events);
    for (int n = 0; n < 100; ++n)
        cluster.addNode(8.0);
    cluster.addApplication(simpleApp(1, 100.0));

    const uint64_t probes0 = counterValue("kube.scheduler.node_probes");
    events.runUntil(50.0); // ten ticks
    EXPECT_EQ(counterValue("kube.scheduler.node_probes") - probes0, 10u);
    EXPECT_EQ(cluster.pendingCount(), 1u);
}

namespace {

/** Runs @p ticks scheduler ticks (period 5 s, from t=0) and returns
 * pendingCount() summed just before each. */
size_t
pendingSummedOverTicks(sim::EventQueue &events, const KubeCluster &cluster,
                       int ticks)
{
    size_t sum = 0;
    for (int i = 0; i < ticks; ++i) {
        const double tick = (std::floor(events.now() / 5.0) + 1.0) * 5.0;
        events.runUntil(tick - 0.5);
        sum += cluster.pendingCount();
        events.runUntil(tick);
    }
    return sum;
}

} // namespace

TEST(Kube, SchedulerTickVisitsOnlyPendingPods)
{
    // The tick walks the pending bitset: it visits exactly the pods
    // that are Pending and not scaled down, so a fully bound cluster
    // costs no visit at all, however many pods it runs.
    MetricsOn metrics;
    const char *visits = "kube.scheduler.pending_visits";
    {
        sim::EventQueue events;
        KubeCluster cluster(events);
        for (int n = 0; n < 2000; ++n)
            cluster.addNode(16.0);
        sim::Application app = simpleApp(1, 1.0);
        app.services[0].replicas = 6000;
        cluster.addApplication(app);

        const uint64_t visits0 = counterValue(visits);
        EXPECT_EQ(pendingSummedOverTicks(events, cluster, 1), 6000u);
        EXPECT_EQ(counterValue(visits) - visits0, 6000u);
        const uint64_t bound = counterValue(visits);
        EXPECT_EQ(pendingSummedOverTicks(events, cluster, 100), 0u);
        EXPECT_EQ(counterValue(visits) - bound, 0u);
    }
    {
        // One pod larger than any node: one visit per tick.
        sim::EventQueue events;
        KubeCluster cluster(events);
        for (int n = 0; n < 100; ++n)
            cluster.addNode(8.0);
        cluster.addApplication(simpleApp(1, 100.0));

        const uint64_t visits0 = counterValue(visits);
        EXPECT_EQ(pendingSummedOverTicks(events, cluster, 10), 10u);
        EXPECT_EQ(counterValue(visits) - visits0, 10u);
    }
}
