/**
 * @file
 * End-to-end tests of the Phoenix controller atop the mini-Kubernetes
 * substrate: failure detection through missed heartbeats, criticality-
 * aware replanning, targeted recovery of critical services within the
 * paper's time envelope, and restoration of non-critical services when
 * capacity returns (the Fig 6 storyline at unit-test scale).
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "apps/cloudlab.h"
#include "core/controller.h"
#include "core/schemes.h"
#include "kube/kube.h"
#include "sim/metrics.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::PodRef;

namespace {

struct Rig
{
    sim::EventQueue events;
    std::unique_ptr<kube::KubeCluster> cluster;
    std::unique_ptr<PhoenixController> controller;
    apps::CloudLabTestbed testbed;

    explicit Rig(Objective objective = Objective::Cost,
                 size_t nodes = 10, double per_node = 8.0)
    {
        kube::KubeConfig config;
        cluster = std::make_unique<kube::KubeCluster>(events, config);
        for (size_t n = 0; n < nodes; ++n)
            cluster->addNode(per_node);

        apps::CloudLabConfig cfg;
        cfg.nodeCount = nodes;
        cfg.cpusPerNode = per_node;
        testbed = apps::makeCloudLabTestbed(cfg);
        for (const auto &sapp : testbed.serviceApps)
            cluster->addApplication(sapp.app);

        controller = std::make_unique<PhoenixController>(
            events, *cluster,
            std::make_unique<PhoenixScheme>(objective));
    }

    sim::ActiveSet
    runningActiveSet() const
    {
        sim::ActiveSet active = sim::emptyActiveSet(cluster->apps());
        for (const PodRef &pod : cluster->runningPods())
            active[pod.app][pod.ms] = true;
        return active;
    }
};

} // namespace

TEST(Controller, SteadyStateRunsEverything)
{
    Rig rig;
    rig.events.runUntil(200.0);
    EXPECT_NEAR(sim::criticalServiceAvailability(rig.cluster->apps(),
                                                 rig.runningActiveSet()),
                1.0, 1e-9);
    EXPECT_EQ(rig.cluster->pendingCount(), 0u);
}

TEST(Controller, DetectsFailureWithinGracePlusPoll)
{
    Rig rig;
    rig.events.runUntil(200.0);

    // Stop kubelet on 4 of 10 nodes at t=200.
    for (sim::NodeId n = 0; n < 4; ++n)
        rig.cluster->stopKubelet(n);
    rig.events.runUntil(400.0);

    // history[0] is the initial-placement plan; the failure replan
    // follows it.
    ASSERT_GE(rig.controller->history().size(), 2u);
    const auto &record = rig.controller->history().back();
    // Detection = node grace (~100 s) + poll period (15 s) + slack.
    EXPECT_GE(record.detectedAt, 300.0);
    EXPECT_LE(record.detectedAt, 340.0);
    EXPECT_LT(record.capacityAfter, record.capacityBefore);
    EXPECT_GT(record.planSeconds, 0.0);
    EXPECT_LT(record.planSeconds, 1.0);
}

TEST(Controller, CriticalServicesRecoverUnderFourMinutes)
{
    Rig rig;
    rig.events.runUntil(200.0);

    // Fail 50% of capacity (above the ~42% breaking point below
    // which not all C1 services can fit).
    for (sim::NodeId n = 0; n < 5; ++n)
        rig.cluster->stopKubelet(n);
    rig.events.runUntil(1200.0);

    // All five applications retain their critical availability.
    const double availability = sim::criticalServiceAvailability(
        rig.cluster->apps(), rig.runningActiveSet());
    EXPECT_NEAR(availability, 1.0, 1e-9);

    // Recovery time from detection to target state under 4 minutes.
    ASSERT_GE(rig.controller->history().size(), 2u);
    const auto &record = rig.controller->history().back();
    ASSERT_GT(record.recoveredAt, 0.0);
    EXPECT_LE(record.recoveredAt - record.detectedAt, 240.0);
    EXPECT_GT(record.deletes + record.migrations + record.restarts, 0u);
}

TEST(Controller, NonCriticalServicesReturnAfterRecovery)
{
    Rig rig;
    rig.events.runUntil(200.0);
    const size_t full_count = rig.cluster->runningPods().size();

    for (sim::NodeId n = 0; n < 5; ++n)
        rig.cluster->stopKubelet(n);
    rig.events.runUntil(1000.0);
    const size_t degraded_count = rig.cluster->runningPods().size();
    EXPECT_LT(degraded_count, full_count);

    // Nodes come back (the paper restarts kubelet after 10 minutes).
    for (sim::NodeId n = 0; n < 5; ++n)
        rig.cluster->startKubelet(n);
    rig.events.runUntil(1600.0);
    EXPECT_EQ(rig.cluster->runningPods().size(), full_count);
    // A second replan (capacity increase) must have fired.
    EXPECT_GE(rig.controller->history().size(), 2u);
}

TEST(Controller, DefaultBaselineCannotProtectCriticalServices)
{
    // Same failure, no Phoenix: pods stay pending until nodes return.
    sim::EventQueue events;
    kube::KubeCluster cluster(events);
    for (size_t n = 0; n < 10; ++n)
        cluster.addNode(8.0);
    apps::CloudLabConfig cfg;
    cfg.nodeCount = 10;
    cfg.cpusPerNode = 8.0;
    const auto testbed = apps::makeCloudLabTestbed(cfg);
    for (const auto &sapp : testbed.serviceApps)
        cluster.addApplication(sapp.app);
    events.runUntil(200.0);

    for (sim::NodeId n = 0; n < 6; ++n)
        cluster.stopKubelet(n);
    events.runUntil(1200.0);

    sim::ActiveSet active = sim::emptyActiveSet(cluster.apps());
    for (const PodRef &pod : cluster.runningPods())
        active[pod.app][pod.ms] = true;
    const double availability =
        sim::criticalServiceAvailability(cluster.apps(), active);
    // Default satisfies only a strict subset of the apps (2/5 in the
    // paper's run).
    EXPECT_LT(availability, 1.0);
    EXPECT_GT(cluster.pendingCount(), 0u);
}

TEST(Controller, PhoenixBeatsDefaultDuringFailure)
{
    Rig rig;
    rig.events.runUntil(200.0);
    for (sim::NodeId n = 0; n < 5; ++n)
        rig.cluster->stopKubelet(n);
    rig.events.runUntil(1200.0);
    const double phoenix_avail = sim::criticalServiceAvailability(
        rig.cluster->apps(), rig.runningActiveSet());

    sim::EventQueue events;
    kube::KubeCluster def(events);
    for (size_t n = 0; n < 10; ++n)
        def.addNode(8.0);
    apps::CloudLabConfig cfg;
    cfg.nodeCount = 10;
    cfg.cpusPerNode = 8.0;
    for (const auto &sapp : apps::makeCloudLabTestbed(cfg).serviceApps)
        def.addApplication(sapp.app);
    events.runUntil(200.0);
    for (sim::NodeId n = 0; n < 5; ++n)
        def.stopKubelet(n);
    events.runUntil(1200.0);
    sim::ActiveSet active = sim::emptyActiveSet(def.apps());
    for (const PodRef &pod : def.runningPods())
        active[pod.app][pod.ms] = true;
    const double default_avail =
        sim::criticalServiceAvailability(def.apps(), active);

    EXPECT_GT(phoenix_avail, default_avail);
}

TEST(Controller, EqualCapacitySwapStillTriggersReplan)
{
    // Satellite regression for the observation->execution race: node 1
    // goes NotReady in the *same* node-controller tick that brings an
    // equal-capacity node back Ready, so the aggregate ready capacity
    // the controller polls never moves. A capacity-only replan trigger
    // misses the swap and leaves the pods evicted from node 1 pinned
    // to it — Pending forever. The ready-set fingerprint trigger
    // catches it.
    Rig rig;
    rig.events.runUntil(250.0);
    ASSERT_EQ(rig.cluster->pendingCount(), 0u);

    // Take node 1 down the ordinary way and let Phoenix replan.
    rig.cluster->stopKubelet(1);
    rig.events.runUntil(305.0);

    // Arrange the swap: partition node 0 at t=305 (last heartbeat
    // 300, NotReady at the t=410 tick) and restart node 1's kubelet
    // at t=402 (fresh heartbeat, Ready at the same t=410 tick).
    rig.cluster->partitionNode(0);
    rig.events.schedule(402.0, [&rig] { rig.cluster->startKubelet(1); });
    rig.events.runUntil(405.0);
    const size_t replans_at_swap = rig.controller->history().size();

    rig.events.runUntil(420.0);
    EXPECT_FALSE(rig.cluster->isReady(0));
    EXPECT_TRUE(rig.cluster->isReady(1));
    rig.events.runUntil(900.0);

    // The swap forced a replan even though capacity never moved...
    EXPECT_GT(rig.controller->history().size(), replans_at_swap);
    // ...and no pod is stranded: everything the plan wants is Running
    // and nothing sits Pending pinned to the dead node.
    EXPECT_EQ(rig.cluster->pendingCount(), 0u);
    const double availability = sim::criticalServiceAvailability(
        rig.cluster->apps(), rig.runningActiveSet());
    EXPECT_GE(availability, 1.0 - 1e-9);
    EXPECT_EQ(rig.cluster->invariantViolations(), 0u);
}

namespace {

/**
 * Scheme stub: apply() call i returns plans[i]; once they run out it
 * keeps the last planned state and issues nothing.
 */
class ScriptedScheme : public ResilienceScheme
{
  public:
    explicit ScriptedScheme(std::vector<SchemeResult> plans)
        : plans_(std::move(plans))
    {
    }

    std::string name() const override { return "Scripted"; }

    SchemeResult
    apply(const std::vector<sim::Application> &apps,
          const sim::ClusterState &current) override
    {
        (void)apps;
        (void)current;
        if (next_ < plans_.size())
            return plans_[next_++];
        SchemeResult idle = plans_.back();
        idle.pack.actions.clear();
        return idle;
    }

  private:
    std::vector<SchemeResult> plans_;
    size_t next_ = 0;
};

/**
 * One app on four 8-CPU nodes: service 0 has three replicas and a
 * PodDisruptionBudget of one, service 1 has no budget, service 2 is
 * the first plan's delete. The controller's first poll (t = 15) runs
 * a plan that deletes service 2 and migrates every replica of
 * services 0 and 1 to node 3; later replans run @p replans in order.
 */
struct DrainRig
{
    static kube::KubeConfig
    checked()
    {
        kube::KubeConfig config;
        config.validateInvariants = true;
        return config;
    }

    sim::EventQueue events;
    kube::KubeCluster cluster{events, checked()};
    std::unique_ptr<PhoenixController> controller;

    static constexpr sim::NodeId kTarget = 3;
    const std::vector<PodRef> budgeted{
        {0, 0, 0}, {0, 0, 1}, {0, 0, 2}};
    const PodRef unbudgeted{0, 1, 0};
    const PodRef victim{0, 2, 0};

    explicit DrainRig(std::vector<std::vector<Action>> replans = {})
    {
        for (int n = 0; n < 4; ++n)
            cluster.addNode(8.0);
        sim::Application app;
        app.name = "drain";
        app.services.resize(3);
        for (sim::MsId m = 0; m < 3; ++m) {
            app.services[m].id = m;
            app.services[m].cpu = 1.0;
            app.services[m].criticality = sim::kC1;
        }
        app.services[0].replicas = 3;
        app.services[0].pdbMaxUnavailable = 1;
        cluster.addApplication(app);

        // Every plan keeps all pods but the victim, so execute()
        // scales nothing else down.
        SchemeResult plan;
        plan.pack.state = sim::ClusterState(sim::PodIndex::of({app}));
        for (int n = 0; n < 4; ++n)
            plan.pack.state.addNode(8.0);
        for (const PodRef &pod : budgeted)
            plan.pack.state.place(pod, kTarget, 1.0);
        plan.pack.state.place(unbudgeted, kTarget, 1.0);

        std::vector<SchemeResult> plans(1 + replans.size(), plan);
        plans[0].pack.actions.push_back(
            {ActionKind::Delete, victim, 0, 0});
        for (const PodRef &pod : budgeted)
            plans[0].pack.actions.push_back(
                {ActionKind::Migrate, pod, 0, kTarget});
        plans[0].pack.actions.push_back(
            {ActionKind::Migrate, unbudgeted, 0, kTarget});
        for (size_t i = 0; i < replans.size(); ++i)
            plans[i + 1].pack.actions = std::move(replans[i]);
        controller = std::make_unique<PhoenixController>(
            events, cluster,
            std::make_unique<ScriptedScheme>(std::move(plans)));
    }

    /** The controller asked kube to move @p pod to @p node
     * (migratePod pins it there). */
    bool
    issued(const PodRef &pod, sim::NodeId node = kTarget) const
    {
        const kube::Pod *rec = cluster.pod(pod);
        return rec && rec->pinnedNode == node;
    }

    bool
    pinned(const PodRef &pod) const
    {
        const kube::Pod *rec = cluster.pod(pod);
        return rec && rec->pinnedNode.has_value();
    }
};

} // namespace

TEST(ControllerDrain, BudgetedMigrationsRideOneWavePerWindow)
{
    // The plan deletes at t = 15, so wave w lands at 15 + 11 (w + 1):
    // the deletes drain first, then the budget of one lets a single
    // replica of service 0 move per 11 s window. The unbudgeted move
    // rides the first window.
    DrainRig rig;
    rig.events.runUntil(25.5);
    ASSERT_EQ(rig.controller->history().size(), 1u);
    EXPECT_EQ(rig.controller->history()[0].deletes, 1u);
    EXPECT_EQ(rig.controller->history()[0].migrations, 4u);
    EXPECT_FALSE(rig.pinned(rig.unbudgeted));
    for (const PodRef &pod : rig.budgeted)
        EXPECT_FALSE(rig.pinned(pod));

    rig.events.runUntil(26.5);
    EXPECT_TRUE(rig.issued(rig.unbudgeted));
    EXPECT_TRUE(rig.issued(rig.budgeted[0]));
    EXPECT_FALSE(rig.pinned(rig.budgeted[1]));
    EXPECT_FALSE(rig.pinned(rig.budgeted[2]));

    rig.events.runUntil(36.5);
    EXPECT_FALSE(rig.pinned(rig.budgeted[1]));
    rig.events.runUntil(37.5);
    EXPECT_TRUE(rig.issued(rig.budgeted[1]));
    EXPECT_FALSE(rig.pinned(rig.budgeted[2]));

    rig.events.runUntil(47.5);
    EXPECT_FALSE(rig.pinned(rig.budgeted[2]));
    rig.events.runUntil(48.5);
    EXPECT_TRUE(rig.issued(rig.budgeted[2]));
    EXPECT_EQ(rig.controller->history().size(), 1u);
    EXPECT_EQ(rig.cluster.invariantViolations(), 0u);
}

TEST(ControllerDrain, ReplanDropsWavesStillPending)
{
    // A node joins at t = 20, so the poll at t = 30 replans. The new
    // plan deletes nothing and moves the two replicas still waiting
    // to node 2: its wave 0 fires at once, its wave 1 at t = 41. The
    // first plan's waves 1 and 2, due at t = 37 and 48, never fire.
    constexpr sim::NodeId kOther = 2;
    DrainRig rig({{{ActionKind::Migrate, {0, 0, 1}, 0, kOther},
                   {ActionKind::Migrate, {0, 0, 2}, 0, kOther}}});
    rig.events.schedule(20.0, [&rig] { rig.cluster.addNode(8.0); });

    rig.events.runUntil(30.5);
    ASSERT_EQ(rig.controller->history().size(), 2u);
    EXPECT_DOUBLE_EQ(rig.controller->history()[1].detectedAt, 30.0);
    EXPECT_TRUE(rig.issued(rig.unbudgeted));
    EXPECT_TRUE(rig.issued(rig.budgeted[0]));
    EXPECT_TRUE(rig.issued(rig.budgeted[1], kOther));
    EXPECT_FALSE(rig.pinned(rig.budgeted[2]));

    // t = 37 passes without the first plan's wave 1.
    rig.events.runUntil(40.5);
    EXPECT_TRUE(rig.issued(rig.budgeted[1], kOther));
    EXPECT_FALSE(rig.pinned(rig.budgeted[2]));

    rig.events.runUntil(41.5);
    EXPECT_TRUE(rig.issued(rig.budgeted[2], kOther));

    // t = 48 passes without the first plan's wave 2.
    rig.events.runUntil(60.0);
    EXPECT_EQ(rig.controller->history().size(), 2u);
    EXPECT_TRUE(rig.issued(rig.budgeted[1], kOther));
    EXPECT_TRUE(rig.issued(rig.budgeted[2], kOther));
    EXPECT_EQ(rig.cluster.invariantViolations(), 0u);
}
