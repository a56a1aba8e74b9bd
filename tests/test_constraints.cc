/**
 * @file
 * Topology-aware packing tests: vacancy-allocator unit coverage,
 * constraint-respecting placement through the full Phoenix scheme and
 * the kube spread scheduler, PodDisruptionBudget bookkeeping, the
 * manifest constraint dialect (structured errors + round-trip), the
 * constraint-feasibility oracle on handmade and generated cases, and
 * the pinned end-to-end zone-kill demo: a minZoneSpread=2 critical
 * service keeps >= 1 replica serving through a full zone failure that
 * silences the unconstrained baseline.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "check/case.h"
#include "check/generator.h"
#include "check/oracle.h"
#include "core/controller.h"
#include "core/schemes.h"
#include "kube/kube.h"
#include "kube/manifest.h"
#include "sim/vacancy.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::PodRef;
using sim::VacancyAllocator;

namespace {

sim::Application
oneServiceApp(double cpu, int replicas, int criticality = 1,
              double price = 1.0)
{
    sim::Application app;
    app.id = 0;
    app.name = "app";
    app.pricePerUnit = price;
    sim::Microservice ms;
    ms.id = 0;
    ms.name = "svc";
    ms.cpu = cpu;
    ms.criticality = criticality;
    ms.replicas = replicas;
    app.services.push_back(ms);
    return app;
}

} // namespace

// ---------------------------------------------------------------------
// VacancyAllocator
// ---------------------------------------------------------------------

TEST(VacancyAllocator, UnconstrainedAppsLeaveItEmpty)
{
    sim::ClusterState state;
    state.addNode(8.0);
    const std::vector<sim::Application> apps = {
        oneServiceApp(1.0, 2)};

    VacancyAllocator vacancy;
    vacancy.build(apps, state);
    EXPECT_TRUE(vacancy.empty());
    EXPECT_FALSE(vacancy.constrained(PodRef{0, 0, 0}));
    EXPECT_TRUE(vacancy.canPlace(PodRef{0, 0, 0}, 0, 0));
    EXPECT_TRUE(vacancy.pdbAllows(PodRef{0, 0, 0}));
}

TEST(VacancyAllocator, PerNodeCapBlocksCohabitation)
{
    sim::ClusterState state;
    state.addNode(8.0);
    state.addNode(8.0);
    auto app = oneServiceApp(1.0, 2);
    app.services[0].maxPerNode = 1;
    const std::vector<sim::Application> apps = {app};
    state.coverApps(apps);

    VacancyAllocator vacancy;
    vacancy.build(apps, state);
    EXPECT_FALSE(vacancy.empty());
    EXPECT_TRUE(vacancy.constrained(PodRef{0, 0, 0}));

    EXPECT_TRUE(vacancy.canPlace(PodRef{0, 0, 0}, 0, 0));
    vacancy.onPlace(PodRef{0, 0, 0}, 0, 0);
    EXPECT_FALSE(vacancy.canPlace(PodRef{0, 0, 1}, 0, 0));
    EXPECT_TRUE(vacancy.canPlace(PodRef{0, 0, 1}, 1, 0));

    // Eviction restores the vacancy.
    vacancy.onEvict(PodRef{0, 0, 0}, 0, 0);
    EXPECT_TRUE(vacancy.canPlace(PodRef{0, 0, 1}, 0, 0));
}

TEST(VacancyAllocator, MinZoneSpreadImpliesPerZoneCap)
{
    // 3 replicas spanning >= 2 zones implies at most 3-2+1 = 2 per
    // zone.
    sim::ClusterState state;
    state.addNode(8.0, 0);
    state.addNode(8.0, 0);
    state.addNode(8.0, 1);
    state.addNode(8.0, 1);
    auto app = oneServiceApp(1.0, 3);
    app.services[0].minZoneSpread = 2;
    EXPECT_EQ(app.services[0].effectiveZoneCap(), 2);
    const std::vector<sim::Application> apps = {app};
    state.coverApps(apps);

    VacancyAllocator vacancy;
    vacancy.build(apps, state);
    vacancy.onPlace(PodRef{0, 0, 0}, 0, 0);
    vacancy.onPlace(PodRef{0, 0, 1}, 1, 0);
    // Zone 0 is at its cap of 2; zone 1 still has vacancy.
    EXPECT_FALSE(vacancy.canPlace(PodRef{0, 0, 2}, 0, 0));
    EXPECT_FALSE(vacancy.canPlace(PodRef{0, 0, 2}, 1, 0));
    EXPECT_TRUE(vacancy.canPlace(PodRef{0, 0, 2}, 2, 1));
}

TEST(VacancyAllocator, GroupCapSpansServices)
{
    sim::ClusterState state;
    state.addNode(8.0);
    state.addNode(8.0);

    sim::Application app;
    app.id = 0;
    app.name = "grouped";
    sim::PlacementGroup group;
    group.id = 3;
    group.maxPerNode = 1;
    app.placementGroups.push_back(group);
    for (sim::MsId m = 0; m < 2; ++m) {
        sim::Microservice ms;
        ms.id = m;
        ms.name = m == 0 ? "web" : "api";
        ms.cpu = 1.0;
        ms.antiAffinityGroup = 3;
        app.services.push_back(ms);
    }
    const std::vector<sim::Application> apps = {app};
    state.coverApps(apps);

    VacancyAllocator vacancy;
    vacancy.build(apps, state);
    vacancy.onPlace(PodRef{0, 0, 0}, 0, 0);
    // A *different service* of the same group is blocked on node 0.
    EXPECT_FALSE(vacancy.canPlace(PodRef{0, 1, 0}, 0, 0));
    EXPECT_TRUE(vacancy.canPlace(PodRef{0, 1, 0}, 1, 0));
}

TEST(VacancyAllocator, BuildSeedsCountsFromExistingAssignment)
{
    sim::ClusterState state;
    state.addNode(8.0);
    state.addNode(8.0);
    auto app = oneServiceApp(1.0, 2);
    app.services[0].maxPerNode = 1;
    const std::vector<sim::Application> apps = {app};
    state.coverApps(apps);
    ASSERT_TRUE(state.place(PodRef{0, 0, 0}, 0, 1.0));

    VacancyAllocator vacancy;
    vacancy.build(apps, state);
    // The pre-existing replica on node 0 already consumed the cap.
    EXPECT_FALSE(vacancy.canPlace(PodRef{0, 0, 1}, 0, 0));
    EXPECT_TRUE(vacancy.canPlace(PodRef{0, 0, 1}, 1, 0));
}

TEST(VacancyAllocator, PdbLedgerConsumesAndNeverRefunds)
{
    sim::ClusterState state;
    state.addNode(8.0);
    auto app = oneServiceApp(1.0, 3);
    app.services[0].pdbMaxUnavailable = 1;
    const std::vector<sim::Application> apps = {app};
    state.coverApps(apps);

    VacancyAllocator vacancy;
    vacancy.build(apps, state);
    // A PDB alone bounds disruption, not placement.
    EXPECT_FALSE(vacancy.constrained(PodRef{0, 0, 0}));
    EXPECT_TRUE(vacancy.pdbAllows(PodRef{0, 0, 0}));
    EXPECT_EQ(vacancy.pdbRemaining(PodRef{0, 0, 0}), 1);
    vacancy.consumePdb(PodRef{0, 0, 0});
    EXPECT_FALSE(vacancy.pdbAllows(PodRef{0, 0, 1}));
    EXPECT_EQ(vacancy.pdbRemaining(PodRef{0, 0, 1}), 0);
}

// ---------------------------------------------------------------------
// Constrained packing through the full Phoenix scheme
// ---------------------------------------------------------------------

TEST(ConstrainedPacking, PhoenixSpreadsReplicasAcrossZones)
{
    sim::ClusterState state;
    state.addNode(8.0, 0);
    state.addNode(8.0, 0);
    state.addNode(8.0, 1);
    state.addNode(8.0, 1);
    auto app = oneServiceApp(2.0, 2);
    app.services[0].minZoneSpread = 2;
    const std::vector<sim::Application> apps = {app};

    PhoenixScheme phoenix(Objective::Cost);
    const SchemeResult result = phoenix.apply(apps, state);
    ASSERT_TRUE(result.pack.complete);

    std::set<uint32_t> zones;
    for (const auto &[pod, node] : result.pack.state.assignment())
        zones.insert(result.pack.state.zoneOf(node));
    EXPECT_EQ(zones.size(), 2u);
}

TEST(ConstrainedPacking, PhoenixHonorsAntiAffinityMaxPerNode)
{
    sim::ClusterState state;
    for (int n = 0; n < 4; ++n)
        state.addNode(8.0);
    auto app = oneServiceApp(1.0, 3);
    app.services[0].maxPerNode = 1;
    const std::vector<sim::Application> apps = {app};

    PhoenixScheme phoenix(Objective::Fair);
    const SchemeResult result = phoenix.apply(apps, state);
    ASSERT_TRUE(result.pack.complete);

    std::set<sim::NodeId> nodes;
    for (const auto &[pod, node] : result.pack.state.assignment())
        nodes.insert(node);
    // 3 replicas, cap 1 per node -> 3 distinct nodes even though one
    // node could hold all of them by capacity.
    EXPECT_EQ(nodes.size(), 3u);
}

TEST(ConstrainedPacking, DeletesStayWithinDisruptionBudget)
{
    // A capacity crunch that forces the packer to preempt a budgeted
    // low-criticality service: the resulting action stream must obey
    // the oracle's PDB predicate (deletes per service <= budget unless
    // the service ends fully down).
    sim::ClusterState state;
    state.addNode(4.0);
    state.addNode(4.0);

    sim::Application victim = oneServiceApp(1.0, 4, 5, 0.5);
    victim.id = 0;
    victim.name = "victim";
    victim.services[0].pdbMaxUnavailable = 1;
    victim.services[0].quorum = 1;
    ASSERT_TRUE(state.place(PodRef{0, 0, 0}, 0, 1.0));
    ASSERT_TRUE(state.place(PodRef{0, 0, 1}, 0, 1.0));
    ASSERT_TRUE(state.place(PodRef{0, 0, 2}, 1, 1.0));
    ASSERT_TRUE(state.place(PodRef{0, 0, 3}, 1, 1.0));

    sim::Application critical = oneServiceApp(3.0, 1, 1, 5.0);
    critical.id = 1;
    critical.name = "critical";

    const std::vector<sim::Application> apps = {victim, critical};
    PhoenixScheme phoenix(Objective::Cost);
    const SchemeResult result = phoenix.apply(apps, state);

    size_t victim_deletes = 0;
    for (const Action &action : result.pack.actions) {
        if (action.kind == ActionKind::Delete &&
            action.pod.app == 0 && action.pod.ms == 0)
            ++victim_deletes;
    }
    size_t victim_placed = 0;
    for (const auto &[pod, node] : result.pack.state.assignment()) {
        (void)node;
        if (pod.app == 0 && pod.ms == 0)
            ++victim_placed;
    }
    if (victim_placed > 0) {
        EXPECT_LE(victim_deletes, 1u)
            << "preemption exceeded pdbMaxUnavailable";
    }
    // The critical service must have won its slot.
    EXPECT_TRUE(result.pack.state.isActive(PodRef{1, 0, 0}));
}

// ---------------------------------------------------------------------
// Kube scheduler + migration validation
// ---------------------------------------------------------------------

TEST(ConstrainedKube, SpreadSchedulerHonorsZoneSpread)
{
    sim::EventQueue events;
    kube::KubeConfig config;
    config.validateInvariants = true;
    kube::KubeCluster cluster(events, config);
    cluster.addNode(8.0, 0);
    cluster.addNode(8.0, 0);
    cluster.addNode(8.0, 1);
    cluster.addNode(8.0, 1);

    auto app = oneServiceApp(1.0, 2);
    app.services[0].minZoneSpread = 2;
    cluster.addApplication(app);
    events.runUntil(100.0);

    ASSERT_EQ(cluster.runningPods().size(), 2u);
    std::set<int> zones;
    for (const PodRef &pod : cluster.runningPods())
        zones.insert(cluster.nodeZone(cluster.pod(pod)->node));
    // Least-allocated scoring alone would pick nodes 0 and 1 (both
    // zone 0); the vacancy filter forces the second replica out.
    EXPECT_EQ(zones, (std::set<int>{0, 1}));
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(ConstrainedKube, MigrationWithoutVacancyIsRejected)
{
    sim::EventQueue events;
    kube::KubeConfig config;
    config.validateInvariants = true;
    kube::KubeCluster cluster(events, config);
    cluster.addNode(8.0, 0);
    cluster.addNode(8.0, 0);
    cluster.addNode(8.0, 1);

    auto app = oneServiceApp(1.0, 2);
    app.services[0].minZoneSpread = 2;
    cluster.addApplication(app);
    events.runUntil(100.0);
    ASSERT_EQ(cluster.runningPods().size(), 2u);

    // Find the replica serving from zone 1 and try to drag it into
    // zone 0, which already holds its sibling (zone cap is 1).
    PodRef zone1_pod{};
    for (const PodRef &pod : cluster.runningPods()) {
        if (cluster.nodeZone(cluster.pod(pod)->node) == 1)
            zone1_pod = pod;
    }
    const sim::NodeId before = cluster.pod(zone1_pod)->node;
    cluster.migratePod(zone1_pod, 1);
    events.runUntil(160.0);

    const kube::Pod *pod = cluster.pod(zone1_pod);
    ASSERT_NE(pod, nullptr);
    EXPECT_EQ(pod->phase, kube::PodPhase::Running);
    EXPECT_EQ(pod->node, before);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(ConstrainedKube, MigrationWithinZoneAtCapIsAccepted)
{
    sim::EventQueue events;
    kube::KubeConfig config;
    config.validateInvariants = true;
    kube::KubeCluster cluster(events, config);
    cluster.addNode(8.0, 0);
    cluster.addNode(8.0, 0);
    cluster.addNode(8.0, 1);

    auto app = oneServiceApp(1.0, 2);
    app.services[0].minZoneSpread = 2; // zone cap 1
    cluster.addApplication(app);
    events.runUntil(100.0);
    ASSERT_EQ(cluster.runningPods().size(), 2u);

    // Zone 0 is at its cap with this replica; moving it to the other
    // zone-0 node leaves the zone's count unchanged, so the move is
    // legal: the pod must not count against its own target.
    PodRef zone0_pod{};
    for (const PodRef &pod : cluster.runningPods()) {
        if (cluster.nodeZone(cluster.pod(pod)->node) == 0)
            zone0_pod = pod;
    }
    const sim::NodeId target = cluster.pod(zone0_pod)->node == 0 ? 1 : 0;
    cluster.migratePod(zone0_pod, target);
    events.runUntil(160.0);

    const kube::Pod *pod = cluster.pod(zone0_pod);
    ASSERT_NE(pod, nullptr);
    EXPECT_EQ(pod->phase, kube::PodPhase::Running);
    EXPECT_EQ(pod->node, target);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(ConstrainedKube, NodeAddedAfterAppsCountsTowardZoneCap)
{
    sim::EventQueue events;
    kube::KubeConfig config;
    config.validateInvariants = true;
    kube::KubeCluster cluster(events, config);
    cluster.addNode(8.0, 0);

    auto app = oneServiceApp(1.0, 6);
    app.services[0].maxPerZone = 2;
    cluster.addApplication(app);
    // Zone 1 arrives after the app was registered, with the most free
    // capacity, so the spread scheduler tries it first.
    for (int n = 0; n < 3; ++n)
        cluster.addNode(16.0, 1);
    events.runUntil(100.0);

    std::vector<int> per_zone(2, 0);
    for (const PodRef &pod : cluster.runningPods())
        ++per_zone[cluster.nodeZone(cluster.pod(pod)->node)];
    EXPECT_EQ(per_zone, (std::vector<int>{2, 2}));
    EXPECT_EQ(cluster.pendingCount(), 2u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

TEST(ConstrainedKube, AddApplicationReseedsOccupyingPods)
{
    // phoenixd's ingest-manifest registers apps on a live cluster: the
    // rebuilt allocator must still count the pods already placed.
    sim::EventQueue events;
    kube::KubeConfig config;
    config.validateInvariants = true;
    kube::KubeCluster cluster(events, config);
    for (int n = 0; n < 3; ++n)
        cluster.addNode(8.0);

    auto app = oneServiceApp(1.0, 3);
    app.services[0].maxPerNode = 1;
    cluster.addApplication(app);
    events.runUntil(100.0);
    ASSERT_EQ(cluster.runningPods().size(), 3u);

    auto late = oneServiceApp(1.0, 1);
    late.name = "late";
    cluster.addApplication(late);
    // Every node holds a replica, so no move has a vacancy.
    const PodRef mover{0, 0, 0};
    const sim::NodeId before = cluster.pod(mover)->node;
    cluster.migratePod(mover, (before + 1) % 3);
    events.runUntil(200.0);
    EXPECT_EQ(cluster.pod(mover)->node, before);
    EXPECT_EQ(cluster.runningPods().size(), 4u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

// ---------------------------------------------------------------------
// The pinned end-to-end demo: zone kill vs minZoneSpread
// ---------------------------------------------------------------------

namespace {

/** Two-zone rig: zone 0 is the *tightest* best-fit target, so an
 * unconstrained Phoenix packs both replicas there; only the spread
 * constraint pushes a replica into zone 1. The default scheduler is
 * off — placement flows exclusively through Phoenix pins. */
struct ZoneKillRig
{
    sim::EventQueue events;
    std::unique_ptr<kube::KubeCluster> cluster;
    std::unique_ptr<PhoenixController> controller;

    explicit ZoneKillRig(int min_zone_spread)
    {
        kube::KubeConfig config;
        config.enableDefaultScheduler = false;
        config.validateInvariants = true;
        cluster = std::make_unique<kube::KubeCluster>(events, config);
        cluster->addNode(2.0, 0);
        cluster->addNode(2.0, 0);
        cluster->addNode(8.0, 1);
        cluster->addNode(8.0, 1);

        auto app = oneServiceApp(1.5, 2, 1, 2.0);
        app.services[0].quorum = 1;
        app.services[0].minZoneSpread = min_zone_spread;
        cluster->addApplication(app);

        controller = std::make_unique<PhoenixController>(
            events, *cluster,
            std::make_unique<PhoenixScheme>(Objective::Cost));
    }

    /** Replicas actually serving: Running on a node whose kubelet is
     * alive (a Running pod on a dead node serves nothing). */
    size_t
    servingReplicas() const
    {
        size_t serving = 0;
        for (const PodRef &pod : cluster->runningPods()) {
            if (cluster->kubeletRunning(cluster->pod(pod)->node))
                ++serving;
        }
        return serving;
    }

    void
    killZone0()
    {
        cluster->stopKubelet(0);
        cluster->stopKubelet(1);
    }
};

} // namespace

TEST(ZoneKillDemo, UnconstrainedBaselineLosesEveryReplica)
{
    ZoneKillRig rig(/*min_zone_spread=*/0);
    rig.events.runUntil(200.0);
    ASSERT_EQ(rig.cluster->runningPods().size(), 2u);

    // Best-fit packs both replicas onto the tight zone-0 nodes.
    std::set<int> zones;
    for (const PodRef &pod : rig.cluster->runningPods())
        zones.insert(
            rig.cluster->nodeZone(rig.cluster->pod(pod)->node));
    ASSERT_EQ(zones, (std::set<int>{0}));

    rig.killZone0();
    rig.events.runUntil(205.0);
    // The whole service went dark with the zone.
    EXPECT_EQ(rig.servingReplicas(), 0u);

    // Phoenix eventually restores service on the surviving zone.
    rig.events.runUntil(800.0);
    EXPECT_GE(rig.servingReplicas(), 1u);
    EXPECT_EQ(rig.cluster->invariantViolations(), 0u);
}

TEST(ZoneKillDemo, MinZoneSpreadKeepsServingThroughZoneKill)
{
    ZoneKillRig rig(/*min_zone_spread=*/2);
    rig.events.runUntil(200.0);
    ASSERT_EQ(rig.cluster->runningPods().size(), 2u);

    // The spread constraint forced one replica into each zone.
    std::set<int> zones;
    for (const PodRef &pod : rig.cluster->runningPods())
        zones.insert(
            rig.cluster->nodeZone(rig.cluster->pod(pod)->node));
    ASSERT_EQ(zones, (std::set<int>{0, 1}));

    rig.killZone0();
    // Continuity: the zone-1 replica keeps serving at every instant —
    // through detection, the replan, and the drain window. The
    // implied per-zone cap (replicas - spread + 1 = 1) also means
    // Phoenix must NOT pile both replicas into the surviving zone.
    for (double t = 205.0; t <= 800.0; t += 10.0) {
        rig.events.runUntil(t);
        ASSERT_GE(rig.servingReplicas(), 1u) << "went dark at t=" << t;
        ASSERT_LE(rig.cluster->runningPods().size(), 2u);
    }
    EXPECT_EQ(rig.servingReplicas(), 1u);

    // Zone recovery: the second replica returns and the replica set
    // spans two zones again.
    rig.cluster->startKubelet(0);
    rig.cluster->startKubelet(1);
    rig.events.runUntil(1100.0);
    EXPECT_EQ(rig.servingReplicas(), 2u);
    std::set<int> after;
    for (const PodRef &pod : rig.cluster->runningPods())
        after.insert(
            rig.cluster->nodeZone(rig.cluster->pod(pod)->node));
    EXPECT_EQ(after, (std::set<int>{0, 1}));
    EXPECT_EQ(rig.cluster->invariantViolations(), 0u);
}

// ---------------------------------------------------------------------
// Manifest: structured errors + round-trip for the constraint dialect
// ---------------------------------------------------------------------

TEST(ConstraintManifest, UnknownZoneIsAStructuredError)
{
    const std::string text = "topology: t\n"
                             "zones: [east, west]\n"
                             "nodes:\n"
                             "  - count: 2\n"
                             "    cpus: 8.0\n"
                             "    zone: nowhere\n";
    const auto parse = kube::parseManifestStructured(text);
    ASSERT_EQ(parse.errors.size(), 1u);
    EXPECT_EQ(parse.errors[0].line, 6u);
    EXPECT_EQ(parse.errors[0].field, "zone");
    EXPECT_EQ(parse.errors[0].message, "unknown zone 'nowhere'");
    EXPECT_TRUE(parse.topology.empty());
}

TEST(ConstraintManifest, SpreadBeyondZoneCountIsAStructuredError)
{
    const std::string text = "topology: t\n"
                             "zones: [east, west]\n"
                             "nodes:\n"
                             "  - count: 2\n"
                             "    cpus: 8.0\n"
                             "---\n"
                             "application: a\n"
                             "services:\n"
                             "  - name: web\n"
                             "    cpu: 1.0\n"
                             "    replicas: 3\n"
                             "    minZoneSpread: 3\n";
    const auto parse = kube::parseManifestStructured(text);
    ASSERT_EQ(parse.errors.size(), 1u);
    EXPECT_EQ(parse.errors[0].line, 12u);
    EXPECT_EQ(parse.errors[0].field, "minZoneSpread");
    EXPECT_EQ(parse.errors[0].message,
              "minZoneSpread 3 of service 'web' exceeds zone count 2");
    // The offending app is rejected; the topology itself is fine.
    EXPECT_TRUE(parse.apps.empty());
    EXPECT_EQ(parse.topology.zones.size(), 2u);
}

TEST(ConstraintManifest, PdbBeyondReplicasIsAStructuredError)
{
    const std::string text = "application: a\n"
                             "services:\n"
                             "  - name: web\n"
                             "    cpu: 1.0\n"
                             "    replicas: 2\n"
                             "    pdbMaxUnavailable: 3\n";
    const auto parse = kube::parseManifestStructured(text);
    ASSERT_EQ(parse.errors.size(), 1u);
    EXPECT_EQ(parse.errors[0].line, 6u);
    EXPECT_EQ(parse.errors[0].field, "pdbMaxUnavailable");
    EXPECT_EQ(parse.errors[0].message,
              "pdbMaxUnavailable 3 exceeds replicas 2 of service "
              "'web'");
    EXPECT_TRUE(parse.apps.empty());
}

TEST(ConstraintManifest, DuplicateGroupIdIsAStructuredError)
{
    const std::string text = "application: a\n"
                             "groups:\n"
                             "  - id: 1\n"
                             "    maxPerNode: 1\n"
                             "  - id: 1\n"
                             "    maxPerNode: 2\n"
                             "services:\n"
                             "  - name: web\n"
                             "    cpu: 1.0\n";
    const auto parse = kube::parseManifestStructured(text);
    ASSERT_EQ(parse.errors.size(), 1u);
    EXPECT_EQ(parse.errors[0].line, 5u);
    EXPECT_EQ(parse.errors[0].field, "id");
    EXPECT_EQ(parse.errors[0].message, "duplicate group id 1");
    EXPECT_TRUE(parse.apps.empty());
}

TEST(ConstraintManifest, ConstrainedCloudLabManifestRoundTrips)
{
    // A CloudLab-shaped constrained deployment: explicit topology plus
    // every constraint key the dialect supports.
    const std::string text = "topology: cloudlab\n"
                             "zones: [east, west, central]\n"
                             "nodes:\n"
                             "  - count: 9\n"
                             "    cpus: 8.0\n"
                             "    zone: east\n"
                             "  - count: 8\n"
                             "    cpus: 8.0\n"
                             "    zone: west\n"
                             "  - count: 8\n"
                             "    cpus: 8.0\n"
                             "    zone: central\n"
                             "---\n"
                             "application: overleaf\n"
                             "price: 2.0\n"
                             "groups:\n"
                             "  - id: 1\n"
                             "    maxPerNode: 1\n"
                             "    maxPerZone: 2\n"
                             "services:\n"
                             "  - name: web\n"
                             "    cpu: 2.0\n"
                             "    criticality: 1\n"
                             "    replicas: 3\n"
                             "    group: 1\n"
                             "    minZoneSpread: 2\n"
                             "    pdbMaxUnavailable: 1\n"
                             "  - name: chat\n"
                             "    cpu: 0.5\n"
                             "    criticality: 5\n"
                             "    maxPerNode: 2\n"
                             "    maxPerZone: 3\n"
                             "    upstream: [web]\n"
                             "---\n"
                             "application: hotel\n"
                             "price: 1.4\n"
                             "phoenix: disabled\n"
                             "services:\n"
                             "  - name: search\n"
                             "    cpu: 1.25\n"
                             "    replicas: 2\n"
                             "    pdbMaxUnavailable: 2\n";
    const auto first = kube::parseManifestStructured(text);
    ASSERT_TRUE(first.ok()) << first.errors[0].toString();
    ASSERT_EQ(first.apps.size(), 2u);
    ASSERT_EQ(first.topology.zones.size(), 3u);
    ASSERT_EQ(first.topology.nodes.size(), 3u);

    const std::string rendered =
        kube::renderManifest(first.apps, first.topology);
    const auto second = kube::parseManifestStructured(rendered);
    ASSERT_TRUE(second.ok()) << rendered;

    // Topology survives.
    EXPECT_EQ(second.topology.zones, first.topology.zones);
    ASSERT_EQ(second.topology.nodes.size(),
              first.topology.nodes.size());
    for (size_t n = 0; n < first.topology.nodes.size(); ++n) {
        EXPECT_EQ(second.topology.nodes[n].count,
                  first.topology.nodes[n].count);
        EXPECT_EQ(second.topology.nodes[n].cpus,
                  first.topology.nodes[n].cpus);
        EXPECT_EQ(second.topology.nodes[n].zone,
                  first.topology.nodes[n].zone);
    }

    // Every constraint field survives.
    ASSERT_EQ(second.apps.size(), first.apps.size());
    for (size_t a = 0; a < first.apps.size(); ++a) {
        const auto &fa = first.apps[a];
        const auto &sa = second.apps[a];
        EXPECT_EQ(sa.name, fa.name);
        EXPECT_EQ(sa.pricePerUnit, fa.pricePerUnit);
        EXPECT_EQ(sa.phoenixEnabled, fa.phoenixEnabled);
        ASSERT_EQ(sa.placementGroups.size(),
                  fa.placementGroups.size());
        for (size_t g = 0; g < fa.placementGroups.size(); ++g) {
            EXPECT_EQ(sa.placementGroups[g].id,
                      fa.placementGroups[g].id);
            EXPECT_EQ(sa.placementGroups[g].maxPerNode,
                      fa.placementGroups[g].maxPerNode);
            EXPECT_EQ(sa.placementGroups[g].maxPerZone,
                      fa.placementGroups[g].maxPerZone);
        }
        ASSERT_EQ(sa.services.size(), fa.services.size());
        for (size_t m = 0; m < fa.services.size(); ++m) {
            const auto &fm = fa.services[m];
            const auto &sm = sa.services[m];
            EXPECT_EQ(sm.name, fm.name);
            EXPECT_EQ(sm.cpu, fm.cpu);
            EXPECT_EQ(sm.criticality, fm.criticality);
            EXPECT_EQ(sm.replicas, fm.replicas);
            EXPECT_EQ(sm.antiAffinityGroup, fm.antiAffinityGroup);
            EXPECT_EQ(sm.maxPerNode, fm.maxPerNode);
            EXPECT_EQ(sm.maxPerZone, fm.maxPerZone);
            EXPECT_EQ(sm.minZoneSpread, fm.minZoneSpread);
            EXPECT_EQ(sm.pdbMaxUnavailable, fm.pdbMaxUnavailable);
        }
        EXPECT_EQ(sa.hasDependencyGraph, fa.hasDependencyGraph);
    }
}

// ---------------------------------------------------------------------
// Constraint-feasibility oracle
// ---------------------------------------------------------------------

TEST(ConstraintOracle, HandmadeZoneSpreadCaseIsClean)
{
    check::CheckCase c;
    c.name = "constraints-zone-spread";
    c.lifecycle = true;
    c.nodeCapacities = {8, 8, 8, 8};
    c.nodeZones = {0, 0, 1, 1};
    auto app = oneServiceApp(2.0, 2, 1, 2.0);
    app.services[0].minZoneSpread = 2;
    app.services[0].quorum = 1;
    c.apps.push_back(app);
    c.steps = sim::Scenario().failNodes(200.0, {0, 1}).steps();

    const auto result = check::checkCase(c);
    EXPECT_TRUE(result.ok())
        << (result.violations.empty()
                ? ""
                : result.violations[0].property + ": " +
                      result.violations[0].detail);
}

TEST(ConstraintOracle, GeneratedConstrainedCasesAreClean)
{
    // A tier-1 slice of the constrained fuzz sweep (the long run is
    // the constraint_fuzz_long ctest target): every generated case
    // with placement policies must pass the constraint-feasibility
    // and pdb-budget dimensions across all schemes.
    check::GeneratorOptions gen;
    gen.antiAffinityProbability = 0.5;
    gen.pdbProbability = 0.5;
    gen.zoneSpreadProbability = 0.5;
    gen.nodeCapProbability = 0.5;
    check::OracleOptions oracle;
    oracle.runLp = false; // keep the tier-1 run fast

    size_t constrained_cases = 0;
    for (uint64_t seed = 1; seed <= 25; ++seed) {
        const check::CheckCase c = check::generateCase(seed, gen);
        if (c.constrained())
            ++constrained_cases;
        const auto result = check::checkCase(c, oracle);
        EXPECT_TRUE(result.ok())
            << "seed " << seed << ": "
            << (result.violations.empty()
                    ? ""
                    : result.violations[0].property + " [" +
                          result.violations[0].scheme + "] " +
                          result.violations[0].detail);
    }
    // The probabilities above make unconstrained cases vanishingly
    // rare; make sure the dimension actually exercised something.
    EXPECT_GE(constrained_cases, 20u);
}
