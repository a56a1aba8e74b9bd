/**
 * @file
 * Tests for the cluster substrate: state bookkeeping, failure
 * injection, operator metrics, and the discrete-event engine.
 */

#include <gtest/gtest.h>

#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "util/rng.h"

using namespace phoenix;
using namespace phoenix::sim;

namespace {

Application
taggedApp(AppId id, const std::vector<int> &tags,
          const std::vector<double> &cpus = {})
{
    Application app;
    app.id = id;
    app.services.resize(tags.size());
    for (MsId m = 0; m < tags.size(); ++m) {
        app.services[m].id = m;
        app.services[m].criticality = tags[m];
        app.services[m].cpu = m < cpus.size() ? cpus[m] : 1.0;
    }
    return app;
}

} // namespace

TEST(ClusterState, PlacementBookkeeping)
{
    ClusterState cluster;
    const NodeId n0 = cluster.addNode(10.0);
    const NodeId n1 = cluster.addNode(5.0);

    EXPECT_TRUE(cluster.place(PodRef{0, 0}, n0, 4.0));
    EXPECT_TRUE(cluster.place(PodRef{0, 1}, n0, 6.0));
    EXPECT_FALSE(cluster.place(PodRef{0, 2}, n0, 0.5)); // full
    EXPECT_FALSE(cluster.place(PodRef{0, 0}, n1, 1.0)); // already placed

    EXPECT_NEAR(cluster.used(n0), 10.0, 1e-9);
    EXPECT_NEAR(cluster.remaining(n0), 0.0, 1e-9);
    EXPECT_EQ(cluster.nodeOf(PodRef{0, 1}), n0);
    EXPECT_NEAR(cluster.podCpu(PodRef{0, 1}), 6.0, 1e-9);

    EXPECT_TRUE(cluster.evict(PodRef{0, 0}));
    EXPECT_FALSE(cluster.evict(PodRef{0, 0}));
    EXPECT_NEAR(cluster.remaining(n0), 4.0, 1e-9);
}

TEST(ClusterState, FailAndRestore)
{
    ClusterState cluster;
    const NodeId n0 = cluster.addNode(10.0);
    cluster.addNode(10.0);
    cluster.place(PodRef{0, 0}, n0, 3.0);
    cluster.place(PodRef{0, 1}, n0, 2.0);

    const auto evicted = cluster.failNode(n0);
    EXPECT_EQ(evicted.size(), 2u);
    EXPECT_FALSE(cluster.isHealthy(n0));
    EXPECT_FALSE(cluster.isActive(PodRef{0, 0}));
    EXPECT_NEAR(cluster.remaining(n0), 0.0, 1e-9);
    EXPECT_NEAR(cluster.healthyCapacity(), 10.0, 1e-9);
    EXPECT_FALSE(cluster.place(PodRef{0, 0}, n0, 1.0));

    cluster.restoreNode(n0);
    EXPECT_TRUE(cluster.isHealthy(n0));
    EXPECT_TRUE(cluster.place(PodRef{0, 0}, n0, 1.0));
    // Double-fail is a no-op.
    cluster.failNode(n0);
    EXPECT_TRUE(cluster.failNode(n0).empty());
}

TEST(ClusterState, UtilizationExcludesFailedNodes)
{
    ClusterState cluster;
    cluster.addNode(10.0);
    cluster.addNode(10.0);
    cluster.place(PodRef{0, 0}, 0, 5.0);
    EXPECT_NEAR(cluster.utilization(), 0.25, 1e-9);
    cluster.failNode(1);
    EXPECT_NEAR(cluster.utilization(), 0.5, 1e-9);
}

TEST(FailureInjector, HitsCapacityTarget)
{
    ClusterState cluster;
    for (int n = 0; n < 100; ++n)
        cluster.addNode(10.0);
    FailureInjector injector{util::Rng(3)};
    const auto event = injector.failCapacityFraction(cluster, 0.4);
    EXPECT_GE(event.failedCapacity, 0.4 * 1000.0 - 1e-9);
    // At 10 units per node, no more than one node of overshoot.
    EXPECT_LE(event.failedCapacity, 0.4 * 1000.0 + 10.0 + 1e-9);
    EXPECT_NEAR(cluster.healthyCapacity(),
                1000.0 - event.failedCapacity, 1e-9);

    const auto restored = injector.restoreAll(cluster);
    EXPECT_EQ(restored.size(), event.failedNodes.size());
    EXPECT_NEAR(cluster.healthyCapacity(), 1000.0, 1e-9);
}

TEST(FailureInjector, NodeCountVariant)
{
    ClusterState cluster;
    for (int n = 0; n < 10; ++n)
        cluster.addNode(5.0);
    FailureInjector injector{util::Rng(4)};
    const auto event = injector.failNodeCount(cluster, 3);
    EXPECT_EQ(event.failedNodes.size(), 3u);
    EXPECT_EQ(cluster.healthyNodes().size(), 7u);
    // Requesting more than available fails everything.
    const auto rest = injector.failNodeCount(cluster, 100);
    EXPECT_EQ(rest.failedNodes.size(), 7u);
}

TEST(Metrics, CriticalAvailabilityAllOrNothing)
{
    auto apps = std::vector<Application>{taggedApp(0, {1, 1, 2}),
                                         taggedApp(1, {1, 3})};
    ActiveSet active = emptyActiveSet(apps);
    EXPECT_NEAR(criticalServiceAvailability(apps, active), 0.0, 1e-9);

    active[0][0] = true;
    active[0][1] = true; // both C1 of app0 up
    active[1][0] = true; // app1's single C1 up
    EXPECT_NEAR(criticalServiceAvailability(apps, active), 1.0, 1e-9);

    active[0][1] = false; // one C1 down -> app0 unavailable
    EXPECT_NEAR(criticalServiceAvailability(apps, active), 0.5, 1e-9);
}

TEST(Metrics, RevenueNormalization)
{
    auto app0 = taggedApp(0, {1, 2}, {2.0, 2.0});
    auto app1 = taggedApp(1, {1}, {4.0});
    app0.pricePerUnit = 2.0; // full revenue 8
    app1.pricePerUnit = 1.0; // full revenue 4
    auto apps = std::vector<Application>{app0, app1};

    ActiveSet active = emptyActiveSet(apps);
    active[0][0] = true;
    active[1][0] = true;
    EXPECT_NEAR(revenue(apps, active), 8.0, 1e-9);
    EXPECT_NEAR(revenueNormalized(apps, active), 8.0 / 12.0, 1e-9);
}

TEST(Metrics, FairShareDeviationSplitsSign)
{
    auto apps = std::vector<Application>{
        taggedApp(0, {1, 1}, {5.0, 5.0}), taggedApp(1, {1}, {10.0})};
    // Capacity 10: water-fill share 5 each.
    ActiveSet active = emptyActiveSet(apps);
    active[0][0] = true;
    active[0][1] = true; // app0 uses 10 (5 above share)
    const auto dev = fairShareDeviation(apps, active, 10.0);
    EXPECT_NEAR(dev.positive, 0.5, 1e-9); // +5 normalized by 10
    EXPECT_NEAR(dev.negative, 0.5, 1e-9); // app1 5 below share
}

TEST(Metrics, DependencyCheck)
{
    Application app = taggedApp(0, {1, 2, 2});
    app.hasDependencyGraph = true;
    app.dag = graph::DiGraph(3);
    app.dag.addEdge(0, 1);
    app.dag.addEdge(1, 2);
    auto apps = std::vector<Application>{app};

    ActiveSet active = emptyActiveSet(apps);
    active[0][2] = true; // active with no active predecessor
    EXPECT_FALSE(respectsDependencies(apps, active));
    active[0][1] = true;
    EXPECT_FALSE(respectsDependencies(apps, active)); // 1 lacks pred
    active[0][0] = true;
    EXPECT_TRUE(respectsDependencies(apps, active));
}

TEST(EventQueue, OrderingAndTime)
{
    EventQueue queue;
    std::vector<int> fired;
    queue.schedule(5.0, [&] { fired.push_back(2); });
    queue.schedule(1.0, [&] { fired.push_back(1); });
    queue.schedule(5.0, [&] { fired.push_back(3); }); // FIFO tie-break
    queue.runAll();
    EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
    EXPECT_NEAR(queue.now(), 5.0, 1e-9);
}

TEST(EventQueue, HandlersScheduleMoreEvents)
{
    EventQueue queue;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 5)
            queue.scheduleAfter(10.0, tick);
    };
    queue.scheduleAfter(10.0, tick);
    queue.runUntil(35.0);
    EXPECT_EQ(count, 3);
    EXPECT_NEAR(queue.now(), 35.0, 1e-9);
    queue.runUntil(100.0);
    EXPECT_EQ(count, 5);
}

TEST(EventQueue, PastEventsClampToNow)
{
    EventQueue queue;
    queue.schedule(10.0, [] {});
    queue.runAll();
    bool fired = false;
    queue.schedule(1.0, [&] { fired = true; }); // in the past
    queue.runAll();
    EXPECT_TRUE(fired);
    EXPECT_NEAR(queue.now(), 10.0, 1e-9);
}

TEST(EventQueue, SameTimestampFifo)
{
    // Events scheduled for the same instant fire in schedule order —
    // the contract src/serve leans on: the capacity refresh is armed
    // before the arrival streams, so a request arriving at a refresh
    // instant sees that instant's ready state.
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        queue.schedule(5.0, [&order, i] { order.push_back(i); });
    // One sequence number per scheduled event; firing takes none.
    EXPECT_EQ(queue.nextSeq(), 8u);
    queue.runAll();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(queue.nextSeq(), 8u);
}

TEST(EventQueue, HandlerScheduledSameInstantRunsAfterExisting)
{
    // A handler scheduling another event *at the current instant*
    // runs it after everything already queued for that instant, and
    // still within the same runUntil call.
    EventQueue queue;
    std::vector<std::string> order;
    queue.schedule(5.0, [&] {
        order.push_back("first");
        queue.schedule(5.0, [&] { order.push_back("nested"); });
    });
    queue.schedule(5.0, [&] { order.push_back("second"); });
    queue.runUntil(5.0);
    EXPECT_EQ(order, (std::vector<std::string>{"first", "second",
                                               "nested"}));
    EXPECT_LT(queue.nextEventAt(), 0.0);
}
