/**
 * @file
 * End-to-end integration: applications enter through the deployment
 * manifest (§5), survive a Phoenix controller crash by being saved
 * and reloaded as manifest text (§5 Fault Tolerance), run on the
 * mini-Kubernetes substrate through a failure/recovery cycle, and
 * their per-level RTOs (§3.1) are evaluated from the observed
 * timeline.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/controller.h"
#include "core/rto.h"
#include "core/schemes.h"
#include "kube/kube.h"
#include "kube/manifest.h"
#include "sim/metrics.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::PodRef;

namespace {

const char *const kManifest = R"(application: shop
price: 2.0
phoenix: enabled
services:
  - name: front
    cpu: 2.0
    criticality: 1
  - name: checkout
    cpu: 2.0
    criticality: 1
    upstream: [front]
  - name: search
    cpu: 2.0
    criticality: 2
    upstream: [front]
  - name: recs
    cpu: 2.0
    criticality: 5
    upstream: [search]
---
application: blog
price: 1.0
phoenix: enabled
services:
  - name: nginx
    cpu: 2.0
    criticality: 1
  - name: render
    cpu: 2.0
    criticality: 2
    upstream: [nginx]
  - name: analytics
    cpu: 2.0
    criticality: 5
    upstream: [nginx]
)";

} // namespace

TEST(Integration, ManifestThroughStoreThroughControllerToRto)
{
    // 1. Ingest the manifest.
    std::string error;
    auto parsed = kube::parseManifest(kManifest, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    ASSERT_EQ(parsed->size(), 2u);

    // 2. Round-trip through the persisted manifest text (the
    // crash-restart path: tags and DGs come back from storage, not
    // memory).
    const auto restored =
        kube::parseManifest(kube::renderManifest(*parsed), &error);
    ASSERT_TRUE(restored.has_value()) << error;

    // 3. Deploy on the mini-Kubernetes cluster with the controller.
    sim::EventQueue events;
    kube::KubeCluster cluster(events);
    for (int n = 0; n < 4; ++n)
        cluster.addNode(4.0); // 16 CPUs; demand 14
    for (const auto &app : *restored)
        cluster.addApplication(app);
    PhoenixController controller(
        events, cluster,
        std::make_unique<PhoenixScheme>(Objective::Fair));

    // 4. Observe the timeline into the RTO tracker.
    RtoTracker tracker(cluster.apps());
    for (double t = 15.0; t <= 1200.0; t += 15.0) {
        events.schedule(t, [&, t] {
            sim::ActiveSet active =
                sim::emptyActiveSet(cluster.apps());
            for (const PodRef &pod : cluster.runningPods())
                active[pod.app][pod.ms] = true;
            tracker.record(t, active);
        });
    }

    // 5. Fail half the cluster at t=300.
    events.schedule(300.0, [&] {
        cluster.stopKubelet(0);
        cluster.stopKubelet(1);
    });
    events.runUntil(1200.0);

    // Steady state held before the failure, and the C1 level of both
    // apps recovered afterwards within the paper's 4-minute envelope.
    ASSERT_GT(tracker.sampleCount(), 0u);
    std::map<sim::AppId, RtoPolicy> policies;
    policies[0].maxSeconds = {{1, 240.0}};
    policies[1].maxSeconds = {{1, 240.0}};
    const auto outcomes = tracker.evaluate(policies, 420.0);
    ASSERT_EQ(outcomes.size(), 2u);
    for (const auto &outcome : outcomes) {
        EXPECT_FALSE(outcome.violated)
            << "app " << outcome.app << " level " << outcome.level
            << " recovery " << outcome.recoverySeconds;
    }

    // The C5 services are the degraded ones (8 CPUs cannot hold 14).
    sim::ActiveSet active = sim::emptyActiveSet(cluster.apps());
    for (const PodRef &pod : cluster.runningPods())
        active[pod.app][pod.ms] = true;
    EXPECT_FALSE(active[0][3]); // shop/recs
    EXPECT_FALSE(active[1][2]); // blog/analytics
    EXPECT_TRUE(active[0][0]);
    EXPECT_TRUE(active[0][1]);
    EXPECT_TRUE(active[1][0]);

    // Replans were recorded: initial placement + failure.
    EXPECT_GE(controller.history().size(), 2u);
}

TEST(Integration, ControllerCrashRestartResumesFromStore)
{
    // Phase 1: a controller persists its inputs, then "crashes".
    std::string error;
    auto apps = kube::parseManifest(kManifest, &error);
    ASSERT_TRUE(apps.has_value()) << error;
    const std::string path = "/tmp/phoenix_integration_store.yaml";
    ASSERT_TRUE(kube::saveManifestFile(*apps, path));

    // Phase 2: a fresh controller on a fresh event loop loads the
    // saved manifest and manages a degraded cluster correctly.
    auto loaded = kube::loadManifestFile(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;

    sim::EventQueue events;
    kube::KubeCluster cluster(events);
    for (int n = 0; n < 4; ++n)
        cluster.addNode(4.0);
    for (const auto &app : *loaded)
        cluster.addApplication(app);
    cluster.stopKubelet(0); // restart lands on an already-sick cluster
    PhoenixController controller(
        events, cluster,
        std::make_unique<PhoenixScheme>(Objective::Fair));
    events.runUntil(600.0);

    sim::ActiveSet active = sim::emptyActiveSet(cluster.apps());
    for (const PodRef &pod : cluster.runningPods())
        active[pod.app][pod.ms] = true;
    // 12 healthy CPUs, 14 demanded: every C1/C2 runs, C5 degraded by
    // tag, exactly as the persisted criticalities dictate.
    EXPECT_NEAR(sim::criticalServiceAvailability(cluster.apps(),
                                                 active),
                1.0, 1e-9);
    std::remove(path.c_str());
}
