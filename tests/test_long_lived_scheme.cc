/**
 * @file
 * Long-lived scheme tests: the controller keeps one PhoenixScheme for
 * its whole life, and that scheme's planner and packer recycle their
 * scratch buffers from one epoch to the next. Fed KubeCluster's
 * observed state across realistic failure histories, the long-lived
 * scheme must produce output bit-identical to a fresh scheme applied
 * to the same observed state at every epoch — nothing a previous
 * epoch left in the buffers may leak into the next plan.
 *
 * Nodes are small (5 CPU) so that a failure leaves kube unable to
 * re-home every evicted pod: each failure epoch makes the packer
 * restart, migrate and delete pods, and stale packer state shows up
 * as a diverging action sequence. On roomy nodes kube re-homes
 * everything first and every epoch packs to zero actions.
 *
 * Four histories:
 *  - a kubelet flap inside the grace period (observed state never
 *    changes — a no-op epoch between two real ones);
 *  - a zone failing, partially recovering, then failing again (the
 *    same nodes leave, rejoin and leave the healthy set);
 *  - a constrained zone failing and recovering (the vacancy allocator
 *    and the capacity index it filters are both rebuilt per epoch);
 *  - recovery of a node whose pods were re-homed elsewhere in the
 *    meantime (the node returns empty).
 */

#include <gtest/gtest.h>

#include "core/schemes.h"
#include "kube/kube.h"

using namespace phoenix;
using namespace phoenix::core;
using namespace phoenix::kube;

namespace {

sim::Application
makeApp(const std::string &name, size_t services, double cpu,
        double price)
{
    sim::Application app;
    app.name = name;
    app.pricePerUnit = price;
    app.services.resize(services);
    for (sim::MsId m = 0; m < services; ++m) {
        app.services[m].id = m;
        app.services[m].cpu = cpu;
        app.services[m].criticality =
            1 + static_cast<int>(m % 5); // C1..C5 spread
    }
    return app;
}

/** A 12-node, 60-CPU cluster with three apps (49 CPU) of mixed size
 * and price. */
struct Fixture
{
    sim::EventQueue events;
    KubeCluster cluster;

    Fixture() : cluster(events)
    {
        for (int n = 0; n < 12; ++n)
            cluster.addNode(5.0);
        cluster.addApplication(makeApp("a", 8, 2.0, 3.0));
        cluster.addApplication(makeApp("b", 6, 3.0, 1.0));
        cluster.addApplication(makeApp("c", 10, 1.5, 5.0));
        // Let the default scheduler place everything.
        events.runUntil(120.0);
    }
};

void
expectSameActions(const std::vector<Action> &got,
                  const std::vector<Action> &want, const char *when)
{
    ASSERT_EQ(got.size(), want.size()) << when;
    for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].kind, want[i].kind) << when << " action " << i;
        EXPECT_EQ(got[i].pod, want[i].pod) << when << " action " << i;
        EXPECT_EQ(got[i].from, want[i].from) << when << " action " << i;
        EXPECT_EQ(got[i].to, want[i].to) << when << " action " << i;
    }
}

/**
 * One controller epoch: apply the long-lived scheme to the observed
 * state and assert its outputs are bit-identical to a fresh scheme on
 * the same state.
 */
void
epochIdentity(PhoenixScheme &scheme, KubeCluster &cluster,
              Objective objective, const char *when)
{
    const sim::ClusterState state = cluster.observedState();
    const auto &apps = cluster.apps();

    const SchemeResult got = scheme.apply(apps, state);
    PhoenixScheme fresh(objective);
    const SchemeResult ref = fresh.apply(apps, state);

    ASSERT_EQ(got.plan, ref.plan) << when;
    expectSameActions(got.pack.actions, ref.pack.actions, when);
    EXPECT_EQ(got.pack.state.assignment(), ref.pack.state.assignment())
        << when;
    EXPECT_EQ(got.pack.placed, ref.pack.placed) << when;
    EXPECT_EQ(got.pack.complete, ref.pack.complete) << when;
}

} // namespace

TEST(LongLivedScheme, NodeFlapInsideGracePeriod)
{
    Fixture f;
    PhoenixScheme scheme(Objective::Fair);
    epochIdentity(scheme, f.cluster, Objective::Fair, "baseline");

    // Kubelet flaps but recovers before the 100 s grace period: the
    // node never goes NotReady and no pod moves, so the observed state
    // at the next epoch is unchanged.
    f.cluster.stopKubelet(3);
    f.events.runUntil(f.events.now() + 40.0);
    f.cluster.startKubelet(3);
    f.events.runUntil(f.events.now() + 40.0);
    EXPECT_EQ(f.cluster.evictionEpisodes(3), 0u);
    epochIdentity(scheme, f.cluster, Objective::Fair, "after flap");

    // And a genuine failure afterwards still plans correctly.
    f.cluster.stopKubelet(3);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(scheme, f.cluster, Objective::Fair, "after real fail");
}

TEST(LongLivedScheme, ZoneFailPartialRecoverRefail)
{
    Fixture f;
    PhoenixScheme scheme(Objective::Cost);
    epochIdentity(scheme, f.cluster, Objective::Cost, "baseline");

    // "Zone" = nodes 0..3. Fail the whole zone.
    for (sim::NodeId n = 0; n <= 3; ++n)
        f.cluster.stopKubelet(n);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(scheme, f.cluster, Objective::Cost, "zone down");

    // Partial recovery: half the zone comes back.
    f.cluster.startKubelet(0);
    f.cluster.startKubelet(1);
    f.events.runUntil(f.events.now() + 60.0);
    epochIdentity(scheme, f.cluster, Objective::Cost, "partial recover");

    // Refail one of the recovered nodes.
    f.cluster.stopKubelet(1);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(scheme, f.cluster, Objective::Cost, "refail");
}

TEST(LongLivedScheme, ConstrainedZoneFailRecoverDoesNotDrift)
{
    // Explicit zones + placement policies: a full zone failing and
    // recovering must not drift constrained placements between the
    // long-lived scheme and a fresh one.
    sim::EventQueue events;
    KubeCluster cluster(events);
    for (int n = 0; n < 12; ++n)
        cluster.addNode(5.0, static_cast<uint32_t>(n % 3));

    auto spread = makeApp("spread", 6, 2.0, 3.0);
    for (auto &ms : spread.services) {
        ms.replicas = 3;
        ms.quorum = 2;
        ms.minZoneSpread = 2;
        ms.pdbMaxUnavailable = 1;
    }
    cluster.addApplication(spread);

    auto grouped = makeApp("grouped", 4, 1.5, 1.5);
    sim::PlacementGroup group;
    group.id = 0;
    group.maxPerNode = 1;
    grouped.placementGroups.push_back(group);
    for (auto &ms : grouped.services)
        ms.antiAffinityGroup = 0;
    cluster.addApplication(grouped);

    cluster.addApplication(makeApp("free", 6, 1.0, 2.0));
    events.runUntil(120.0);

    PhoenixScheme scheme(Objective::Cost);
    epochIdentity(scheme, cluster, Objective::Cost, "baseline");

    // Zone 0 = nodes 0,3,6,9. Fail the whole failure domain.
    for (sim::NodeId n = 0; n < 12; n += 3)
        cluster.stopKubelet(n);
    events.runUntil(events.now() + 150.0);
    epochIdentity(scheme, cluster, Objective::Cost, "zone down");

    // Let re-homing settle, then recover the zone.
    events.runUntil(events.now() + 120.0);
    epochIdentity(scheme, cluster, Objective::Cost, "re-homed");
    for (sim::NodeId n = 0; n < 12; n += 3)
        cluster.startKubelet(n);
    events.runUntil(events.now() + 60.0);
    epochIdentity(scheme, cluster, Objective::Cost, "zone recovered");
}

TEST(LongLivedScheme, RecoveryAfterPodsRehomed)
{
    Fixture f;
    PhoenixScheme scheme(Objective::Fair);
    epochIdentity(scheme, f.cluster, Objective::Fair, "baseline");

    // Fail a node and give the default scheduler time to re-home its
    // evicted pods onto the survivors.
    f.cluster.stopKubelet(5);
    f.events.runUntil(f.events.now() + 150.0);
    epochIdentity(scheme, f.cluster, Objective::Fair, "node down");
    f.events.runUntil(f.events.now() + 120.0);
    epochIdentity(scheme, f.cluster, Objective::Fair, "pods re-homed");

    // The node recovers empty: its remaining capacity is full again
    // while the re-homed pods keep their new homes.
    f.cluster.startKubelet(5);
    f.events.runUntil(f.events.now() + 60.0);
    epochIdentity(scheme, f.cluster, Objective::Fair, "recovered empty");
}
