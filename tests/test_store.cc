/**
 * @file
 * Tests for §5's crash-restart persistence (application descriptors
 * saved and reloaded as manifest text), the manifest loader
 * (kube/manifest.h), the RTO tracker (core/rto.h) and the §5 partial
 * tagging / subscription semantics.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "apps/overleaf.h"
#include "core/planner.h"
#include "core/rto.h"
#include "core/schemes.h"
#include "kube/manifest.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::Application;
using sim::MsId;

namespace {

std::vector<Application>
sampleApps()
{
    apps::ServiceApp overleaf = apps::makeOverleaf(1);
    apps::assignCpuByTraffic(overleaf, 25.0, 0.5);
    overleaf.app.id = 0;
    overleaf.app.pricePerUnit = 1.75;

    Application plain;
    plain.id = 1;
    plain.name = "legacy app"; // a space inside the name
    plain.phoenixEnabled = false;
    plain.services.resize(2);
    for (MsId m = 0; m < 2; ++m) {
        plain.services[m].id = m;
        plain.services[m].name = "svc" + std::to_string(m);
        plain.services[m].cpu = 1.5 + m;
        plain.services[m].criticality = 3;
        plain.services[m].replicas = 2 + static_cast<int>(m);
        plain.services[m].quorum = 1;
    }

    // Every placement-policy field off its default.
    Application spread;
    spread.id = 2;
    spread.name = "spread";
    spread.placementGroups.push_back({4, 1, 2});
    sim::Microservice db;
    db.id = 0;
    db.name = "db";
    db.cpu = 2.0;
    db.replicas = 3;
    db.antiAffinityGroup = 4;
    db.maxPerNode = 1;
    db.maxPerZone = 2;
    db.minZoneSpread = 2;
    db.pdbMaxUnavailable = 1;
    spread.services.push_back(db);
    return {overleaf.app, plain, spread};
}

/** Every persisted field of @p out equals @p in's. */
void
expectSameApps(const std::vector<Application> &out,
               const std::vector<Application> &in)
{
    ASSERT_EQ(out.size(), in.size());
    for (size_t a = 0; a < in.size(); ++a) {
        const Application &x = in[a];
        const Application &y = out[a];
        EXPECT_EQ(y.id, x.id);
        EXPECT_EQ(y.name, x.name);
        EXPECT_EQ(y.pricePerUnit, x.pricePerUnit);
        EXPECT_EQ(y.phoenixEnabled, x.phoenixEnabled);
        EXPECT_EQ(y.hasDependencyGraph, x.hasDependencyGraph);
        ASSERT_EQ(y.placementGroups.size(), x.placementGroups.size());
        for (size_t g = 0; g < x.placementGroups.size(); ++g) {
            EXPECT_EQ(y.placementGroups[g].id, x.placementGroups[g].id);
            EXPECT_EQ(y.placementGroups[g].maxPerNode,
                      x.placementGroups[g].maxPerNode);
            EXPECT_EQ(y.placementGroups[g].maxPerZone,
                      x.placementGroups[g].maxPerZone);
        }
        ASSERT_EQ(y.services.size(), x.services.size());
        for (MsId m = 0; m < x.services.size(); ++m) {
            const sim::Microservice &u = x.services[m];
            const sim::Microservice &v = y.services[m];
            EXPECT_EQ(v.id, u.id);
            EXPECT_EQ(v.name, u.name);
            EXPECT_EQ(v.cpu, u.cpu);
            EXPECT_EQ(v.criticality, u.criticality);
            EXPECT_EQ(v.replicas, u.replicas);
            EXPECT_EQ(v.quorum, u.quorum);
            EXPECT_EQ(v.antiAffinityGroup, u.antiAffinityGroup);
            EXPECT_EQ(v.maxPerNode, u.maxPerNode);
            EXPECT_EQ(v.maxPerZone, u.maxPerZone);
            EXPECT_EQ(v.minZoneSpread, u.minZoneSpread);
            EXPECT_EQ(v.pdbMaxUnavailable, u.pdbMaxUnavailable);
        }
        if (x.hasDependencyGraph) {
            EXPECT_EQ(y.dag.edgeCount(), x.dag.edgeCount());
            for (MsId u = 0; u < x.dag.nodeCount(); ++u) {
                for (MsId v : x.dag.successors(u))
                    EXPECT_TRUE(y.dag.hasEdge(u, v));
            }
        }
    }
}

} // namespace

TEST(Store, RoundTripPreservesEverything)
{
    const auto apps = sampleApps();
    ASSERT_TRUE(apps[0].hasDependencyGraph);
    ASSERT_TRUE(apps[2].topologyConstrained());
    std::string error;
    const auto loaded =
        kube::parseManifest(kube::renderManifest(apps), &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    expectSameApps(*loaded, apps);
}

TEST(Store, FileRoundTrip)
{
    const auto apps = sampleApps();
    const std::string path = "/tmp/phoenix_store_test.yaml";
    ASSERT_TRUE(kube::saveManifestFile(apps, path));
    std::string error;
    const auto loaded = kube::loadManifestFile(path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    expectSameApps(*loaded, apps);
    std::remove(path.c_str());
    EXPECT_FALSE(kube::loadManifestFile(path).has_value());
    EXPECT_FALSE(kube::saveManifestFile(apps, "/nonexistent/dir/x"));
}

TEST(Manifest, ParsesApplications)
{
    const std::string text = R"(# sample manifest
application: shop
price: 2.5
phoenix: enabled
services:
  - name: front
    cpu: 2.0
    criticality: 1
    replicas: 2
  - name: api
    cpu: 1.5
    criticality: 2
    upstream: [front]
  - name: recs
    cpu: 0.5
    criticality: 5
    upstream: [api]
---
application: legacy
phoenix: disabled
services:
  - name: monolith
    cpu: 4.0
)";
    std::string error;
    const auto apps = kube::parseManifest(text, &error);
    ASSERT_TRUE(apps.has_value()) << error;
    ASSERT_EQ(apps->size(), 2u);

    const auto &shop = (*apps)[0];
    EXPECT_EQ(shop.name, "shop");
    EXPECT_NEAR(shop.pricePerUnit, 2.5, 1e-9);
    EXPECT_TRUE(shop.phoenixEnabled);
    ASSERT_EQ(shop.services.size(), 3u);
    EXPECT_EQ(shop.services[0].replicas, 2);
    EXPECT_TRUE(shop.hasDependencyGraph);
    EXPECT_TRUE(shop.dag.hasEdge(0, 1));
    EXPECT_TRUE(shop.dag.hasEdge(1, 2));

    const auto &legacy = (*apps)[1];
    EXPECT_FALSE(legacy.phoenixEnabled);
    EXPECT_FALSE(legacy.hasDependencyGraph);
    // Untagged service defaults to C1.
    EXPECT_EQ(legacy.services[0].criticality, sim::kC1);
}

TEST(Manifest, RejectsBrokenInput)
{
    std::string error;
    EXPECT_FALSE(kube::parseManifest("application: x\n", &error)
                     .has_value()); // no services
    EXPECT_FALSE(
        kube::parseManifest("application: x\nservices:\n"
                            "  - name: a\n    cpu: 1\n"
                            "  - name: a\n    cpu: 1\n",
                            &error)
            .has_value()); // duplicate name
    EXPECT_FALSE(
        kube::parseManifest("application: x\nservices:\n"
                            "  - name: a\n    cpu: 1\n"
                            "    upstream: [ghost]\n",
                            &error)
            .has_value()); // unknown upstream
    EXPECT_FALSE(
        kube::parseManifest("application: x\nservices:\n"
                            "  - name: a\n",
                            &error)
            .has_value()); // missing cpu
}

TEST(PartialTagging, UnsubscribedAppsAreNeverDegradedFirst)
{
    // App 0 subscribed with a C5 service; app 1 unsubscribed with a
    // (nominally) C5 service. Capacity for three containers: the
    // subscribed app's C5 must be the one left out.
    Application subscribed;
    subscribed.id = 0;
    subscribed.services = {{0, "front", 2.0, 1, 1, 0},
                           {1, "extras", 2.0, 5, 1, 0}};
    Application legacy = subscribed;
    legacy.id = 1;
    legacy.phoenixEnabled = false;

    std::vector<Application> apps{subscribed, legacy};
    sim::ClusterState cluster;
    cluster.addNode(6.0);

    PhoenixScheme phoenix(Objective::Cost);
    const auto active = phoenix.apply(apps, cluster).activeSet(apps);
    EXPECT_TRUE(active[0][0]);
    EXPECT_FALSE(active[0][1]); // subscribed C5 degraded
    EXPECT_TRUE(active[1][0]);
    EXPECT_TRUE(active[1][1]); // unsubscribed treated as critical
}

TEST(Rto, TracksPerLevelRecovery)
{
    Application app;
    app.id = 0;
    app.services = {{0, "a", 1.0, 1, 1, 0},
                    {1, "b", 1.0, 2, 1, 0},
                    {2, "c", 1.0, 5, 1, 0}};
    std::vector<Application> apps{app};
    RtoTracker tracker(apps);

    auto snapshot = [&](bool a, bool b, bool c) {
        sim::ActiveSet active = sim::emptyActiveSet(apps);
        active[0][0] = a;
        active[0][1] = b;
        active[0][2] = c;
        return active;
    };

    tracker.record(0.0, snapshot(true, true, true));
    // Failure at t=100; C1 back at 160, C2 at 220, C5 never.
    tracker.record(120.0, snapshot(false, false, false));
    tracker.record(160.0, snapshot(true, false, false));
    tracker.record(220.0, snapshot(true, true, false));
    tracker.record(400.0, snapshot(true, true, false));

    EXPECT_NEAR(tracker.recoveryTime(0, 1, 100.0), 60.0, 1e-9);
    EXPECT_NEAR(tracker.recoveryTime(0, 2, 100.0), 120.0, 1e-9);
    EXPECT_LT(tracker.recoveryTime(0, 5, 100.0), 0.0);

    std::map<sim::AppId, RtoPolicy> policies;
    policies[0].maxSeconds = {{1, 90.0}, {2, 100.0}, {5, 600.0}};
    const auto outcomes = tracker.evaluate(policies, 100.0);
    ASSERT_EQ(outcomes.size(), 3u);
    EXPECT_FALSE(outcomes[0].violated); // C1: 60 <= 90
    EXPECT_TRUE(outcomes[1].violated);  // C2: 120 > 100
    EXPECT_TRUE(outcomes[2].violated);  // C5: never recovered
}

TEST(Manifest, StructuredErrorsCarryLineAndField)
{
    // Three documents: a good one, one with a bad numeric cpu, and a
    // duplicate of the first. The structured parser keeps the good
    // app and reports both errors with their line and field.
    const std::string text = "application: good\n"   // line 1
                             "services:\n"           // line 2
                             "  - name: web\n"       // line 3
                             "    cpu: 2.0\n"        // line 4
                             "---\n"                 // line 5
                             "application: broken\n" // line 6
                             "services:\n"           // line 7
                             "  - name: a\n"         // line 8
                             "    cpu: nope\n"       // line 9
                             "---\n"                 // line 10
                             "application: good\n"   // line 11
                             "services:\n"           // line 12
                             "  - name: web\n"       // line 13
                             "    cpu: 1.0\n";       // line 14
    const kube::ManifestParse parsed =
        kube::parseManifestStructured(text);
    ASSERT_EQ(parsed.apps.size(), 1u);
    EXPECT_EQ(parsed.apps[0].name, "good");
    ASSERT_EQ(parsed.errors.size(), 2u);

    EXPECT_EQ(parsed.errors[0].line, 9u);
    EXPECT_EQ(parsed.errors[0].field, "cpu");
    EXPECT_NE(parsed.errors[0].message.find("nope"),
              std::string::npos);

    // The duplicate fires when the last document finalizes (EOF).
    EXPECT_EQ(parsed.errors[1].line, 14u);
    EXPECT_EQ(parsed.errors[1].field, "application");
    EXPECT_NE(parsed.errors[1].message.find("duplicate application"),
              std::string::npos);
    EXPECT_NE(parsed.errors[1].toString().find("line 14"),
              std::string::npos);
}

TEST(Manifest, StructuredDuplicateServicePointsAtEntry)
{
    // The duplicate-name error blames the second declaration line,
    // not the document separator or EOF.
    const std::string text = "application: x\n" // line 1
                             "services:\n"      // line 2
                             "  - name: a\n"    // line 3
                             "    cpu: 1\n"     // line 4
                             "  - name: a\n"    // line 5
                             "    cpu: 1\n";    // line 6
    const kube::ManifestParse parsed =
        kube::parseManifestStructured(text);
    EXPECT_TRUE(parsed.apps.empty());
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_EQ(parsed.errors[0].line, 5u);
    EXPECT_EQ(parsed.errors[0].field, "name");
}

TEST(Manifest, StructuredRecoversAcrossDocuments)
{
    // A malformed middle document (missing cpu) must not poison the
    // documents on either side, and the error points at the entry's
    // declaration line.
    const std::string text = "application: one\n" // line 1
                             "services:\n"        // line 2
                             "  - name: a\n"      // line 3
                             "    cpu: 1\n"       // line 4
                             "---\n"              // line 5
                             "application: two\n" // line 6
                             "services:\n"        // line 7
                             "  - name: b\n"      // line 8
                             "---\n"              // line 9
                             "application: three\n"
                             "services:\n"
                             "  - name: c\n"
                             "    cpu: 3\n";
    const kube::ManifestParse parsed =
        kube::parseManifestStructured(text);
    ASSERT_EQ(parsed.apps.size(), 2u);
    EXPECT_EQ(parsed.apps[0].name, "one");
    EXPECT_EQ(parsed.apps[1].name, "three");
    // Ids are contiguous over the accepted apps.
    EXPECT_EQ(parsed.apps[0].id, 0u);
    EXPECT_EQ(parsed.apps[1].id, 1u);
    ASSERT_EQ(parsed.errors.size(), 1u);
    EXPECT_EQ(parsed.errors[0].line, 8u);
    EXPECT_EQ(parsed.errors[0].field, "cpu");
}
