/**
 * @file
 * Tests for the application models (Overleaf, HotelReservation) and the
 * request-level load evaluation: throughput under degradation, the
 * harvest/yield utility model, the latency model, and the CloudLab
 * testbed resource mix (Fig 4, Fig 9, Table 1 shapes).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "apps/cloudlab.h"
#include "apps/hotel.h"
#include "apps/loadgen.h"
#include "apps/overleaf.h"
#include "apps/service_app.h"

using namespace phoenix;
using namespace phoenix::apps;
using sim::MsId;

namespace {

std::set<MsId>
allServices(const ServiceApp &sapp)
{
    std::set<MsId> running;
    for (const auto &ms : sapp.app.services)
        running.insert(ms.id);
    return running;
}

const TrafficPoint &
point(const std::vector<TrafficPoint> &points, const std::string &name)
{
    for (const auto &p : points) {
        if (p.request == name)
            return p;
    }
    static TrafficPoint missing;
    return missing;
}

} // namespace

TEST(Overleaf, FourteenServicesAndValidDag)
{
    const ServiceApp sapp = makeOverleaf(0);
    EXPECT_EQ(sapp.app.services.size(), overleaf::kServiceCount);
    EXPECT_TRUE(sapp.app.hasDependencyGraph);
    EXPECT_TRUE(sapp.app.dag.isAcyclic());
    EXPECT_TRUE(sapp.crashProof);
    // web is the single entry.
    EXPECT_EQ(sapp.app.dag.sources(),
              (std::vector<graph::NodeId>{overleaf::kWeb}));
}

TEST(Overleaf, InstanceGoalsFollowFig4)
{
    EXPECT_EQ(makeOverleaf(0).criticalRequest, "edits");
    EXPECT_EQ(makeOverleaf(1).criticalRequest, "versioning");
    EXPECT_EQ(makeOverleaf(2).criticalRequest, "downloads");

    // Critical-path services are C1.
    const ServiceApp v = makeOverleaf(1);
    EXPECT_EQ(v.app.services[overleaf::kTrackChanges].criticality, 1);
    EXPECT_EQ(v.app.services[overleaf::kWeb].criticality, 1);
    // Chat stays good-to-have everywhere.
    EXPECT_EQ(v.app.services[overleaf::kChat].criticality, 5);
}

TEST(Overleaf, WorksWithNonCriticalServicesOff)
{
    // The §3.2 demonstration: turn off C5 services; edits unaffected.
    const ServiceApp sapp = makeOverleaf(0);
    std::set<MsId> running = allServices(sapp);
    for (const auto &ms : sapp.app.services) {
        if (ms.criticality == 5)
            running.erase(ms.id);
    }
    EXPECT_TRUE(criticalGoalMet(sapp, running));
    const auto traffic = evaluateTraffic(sapp, running, 0.5);
    EXPECT_GT(point(traffic, "edits").servedRps, 0.0);
    EXPECT_NEAR(point(traffic, "chat").servedRps, 0.0, 1e-9);
}

TEST(Overleaf, EditsP95MatchesTable1Before)
{
    const ServiceApp sapp = makeOverleaf(0);
    const auto traffic = evaluateTraffic(sapp, allServices(sapp), 0.5);
    EXPECT_NEAR(point(traffic, "edits").p95Ms, 141.0, 1.0);
    EXPECT_NEAR(point(traffic, "compile").p95Ms, 4317.9, 5.0);
    EXPECT_NEAR(point(traffic, "spell_check").p95Ms, 2296.7, 5.0);
}

TEST(Overleaf, EditsLatencyRisesSlightlyUnderLoad)
{
    // Table 1 after-scaling shape: 141 -> ~144 ms at high utilization.
    const ServiceApp sapp = makeOverleaf(0);
    std::set<MsId> degraded = allServices(sapp);
    degraded.erase(overleaf::kSpelling);
    degraded.erase(overleaf::kClsi);
    const auto traffic = evaluateTraffic(sapp, degraded, 0.95);
    const double after = point(traffic, "edits").p95Ms;
    EXPECT_GT(after, 141.0);
    EXPECT_LT(after, 155.0);
    // Pruned services report no latency.
    EXPECT_LT(point(traffic, "spell_check").p95Ms, 0.0);
    EXPECT_LT(point(traffic, "compile").p95Ms, 0.0);
}

TEST(Hotel, InstanceGoalsAndTags)
{
    const ServiceApp search = makeHotelReservation(0);
    EXPECT_EQ(search.criticalRequest, "search");
    EXPECT_EQ(search.app.services[hotel::kSearch].criticality, 1);
    EXPECT_EQ(search.app.services[hotel::kRecommendation].criticality,
              5);

    const ServiceApp reserve = makeHotelReservation(1);
    EXPECT_EQ(reserve.criticalRequest, "reserve");
    EXPECT_EQ(reserve.app.services[hotel::kReservation].criticality, 1);
}

TEST(Hotel, StockHrCrashesWhenHardDepsDown)
{
    // Non-compliant HR: turning recommendation off breaks everything.
    const ServiceApp stock = makeHotelReservation(1, false);
    std::set<MsId> running = allServices(stock);
    running.erase(hotel::kRecommendation);
    const auto traffic = evaluateTraffic(stock, running, 0.5);
    for (const auto &p : traffic)
        EXPECT_NEAR(p.servedRps, 0.0, 1e-9) << p.request;
}

TEST(Hotel, RetrofittedHrDegradesGracefully)
{
    const ServiceApp compliant = makeHotelReservation(1, true);
    std::set<MsId> running = allServices(compliant);
    running.erase(hotel::kRecommendation);
    EXPECT_TRUE(criticalGoalMet(compliant, running));
}

TEST(Hotel, GuestReservationsDropUtilityToPoint8)
{
    // Fig 6(f): pruning the user service keeps reserve throughput but
    // drops its utility to 0.8.
    const ServiceApp sapp = makeHotelReservation(1);
    std::set<MsId> running = allServices(sapp);
    running.erase(hotel::kUser);
    const auto traffic = evaluateTraffic(sapp, running, 0.5);
    const auto &reserve = point(traffic, "reserve");
    EXPECT_GT(reserve.servedRps, 0.0);
    EXPECT_NEAR(reserve.utility, 0.8, 1e-9);
    // Login hard-requires user.
    EXPECT_NEAR(point(traffic, "login").servedRps, 0.0, 1e-9);
}

TEST(Hotel, ReserveLatencyDropsWhenUserPruned)
{
    // Table 1: reserve 55.33 ms -> ~50 ms (gRPC fail-fast).
    const ServiceApp sapp = makeHotelReservation(1);
    const auto before =
        point(evaluateTraffic(sapp, allServices(sapp), 0.5), "reserve");
    EXPECT_NEAR(before.p95Ms, 55.33, 0.5);

    std::set<MsId> running = allServices(sapp);
    running.erase(hotel::kUser);
    const auto after =
        point(evaluateTraffic(sapp, running, 0.5), "reserve");
    EXPECT_LT(after.p95Ms, before.p95Ms);
    EXPECT_NEAR(after.p95Ms, 50.1, 1.0);
}

TEST(CloudLab, FiveInstancesWithPaperGoals)
{
    const CloudLabTestbed testbed = makeCloudLabTestbed();
    ASSERT_EQ(testbed.serviceApps.size(), 5u);
    EXPECT_EQ(testbed.serviceApps[0].criticalRequest, "edits");
    EXPECT_EQ(testbed.serviceApps[1].criticalRequest, "versioning");
    EXPECT_EQ(testbed.serviceApps[2].criticalRequest, "downloads");
    EXPECT_EQ(testbed.serviceApps[3].criticalRequest, "search");
    EXPECT_EQ(testbed.serviceApps[4].criticalRequest, "reserve");
    EXPECT_NEAR(testbed.totalCapacity(), 200.0, 1e-9);
    EXPECT_EQ(testbed.makeCluster().nodeCount(), 25u);
}

TEST(CloudLab, ResourceMixMatchesAppendixF1)
{
    // Demand ~70% of 200 CPUs; C1 ~57% of that, i.e. ~40% of the
    // cluster — the App. F.1 operating point, so failures down to 42%
    // capacity stay just above the breaking point.
    const CloudLabTestbed testbed = makeCloudLabTestbed();
    double total = 0.0;
    double critical = 0.0;
    for (const auto &sapp : testbed.serviceApps) {
        total += sapp.app.totalDemand();
        critical += sapp.app.criticalDemand();
    }
    // The per-node container clamp (no pod above 95% of a node) trims
    // a sliver from groups whose members all hit the clamp.
    EXPECT_NEAR(total, 140.0, 1.5);
    EXPECT_NEAR(critical / total, 0.57, 0.01);
    EXPECT_NEAR(critical / testbed.totalCapacity(), 0.40, 0.01);
}

TEST(CloudLab, ApplicationsViewIsConsistent)
{
    const CloudLabTestbed testbed = makeCloudLabTestbed();
    const auto apps = testbed.applications();
    ASSERT_EQ(apps.size(), 5u);
    for (size_t a = 0; a < apps.size(); ++a) {
        EXPECT_EQ(apps[a].id, a);
        EXPECT_EQ(apps[a].services.size(),
                  testbed.serviceApps[a].app.services.size());
        EXPECT_GT(apps[a].pricePerUnit, 0.0);
    }
}

TEST(ServiceApp, AssignCpuByTrafficRespectsBudget)
{
    ServiceApp sapp = makeOverleaf(0);
    assignCpuByTraffic(sapp, 30.0, 0.6);
    EXPECT_NEAR(sapp.app.totalDemand(), 30.0, 1e-9);
    EXPECT_NEAR(sapp.app.criticalDemand(), 18.0, 1e-9);
    for (const auto &ms : sapp.app.services)
        EXPECT_GT(ms.cpu, 0.0);
}

TEST(RateCurve, EmptyCurveIsNeutral)
{
    const RateCurve curve;
    EXPECT_TRUE(curve.empty());
    EXPECT_NEAR(curve.at(-5.0), 1.0, 1e-12);
    EXPECT_NEAR(curve.at(0.0), 1.0, 1e-12);
    EXPECT_NEAR(curve.at(1e9), 1.0, 1e-12);
    EXPECT_NEAR(curve.maxValue(), 1.0, 1e-12);
}

TEST(RateCurve, SinglePointIsConstant)
{
    RateCurve curve;
    curve.point(100.0, 0.75);
    EXPECT_NEAR(curve.at(0.0), 0.75, 1e-12);   // holds before
    EXPECT_NEAR(curve.at(100.0), 0.75, 1e-12);
    EXPECT_NEAR(curve.at(5000.0), 0.75, 1e-12); // holds after
    EXPECT_NEAR(curve.maxValue(), 0.75, 1e-12);
}

TEST(RateCurve, InterpolatesAndClampsNegatives)
{
    RateCurve curve;
    curve.point(10.0, 0.0).point(0.0, 2.0); // out-of-order add
    EXPECT_NEAR(curve.at(5.0), 1.0, 1e-12); // re-sorted, linear
    curve.point(20.0, -3.0);                // clamps to 0
    EXPECT_NEAR(curve.at(20.0), 0.0, 1e-12);
    EXPECT_NEAR(curve.maxValue(), 2.0, 1e-12);
}

TEST(RateCurve, DiurnalShapeHitsLowAndHigh)
{
    const RateCurve curve = RateCurve::diurnal(1200.0, 0.5, 1.5);
    EXPECT_NEAR(curve.at(0.0), 0.5, 1e-6);
    EXPECT_NEAR(curve.at(600.0), 1.5, 1e-2); // cosine sampled
    EXPECT_NEAR(curve.at(1200.0), 0.5, 1e-6);
    EXPECT_NEAR(curve.at(5000.0), 0.5, 1e-6); // holds past the day
    EXPECT_LE(curve.maxValue(), 1.5 + 1e-9);
}

TEST(RateCurve, BurstRampsUpAndBack)
{
    const RateCurve curve = RateCurve::burst(100.0, 400.0, 1.0, 2.0);
    EXPECT_NEAR(curve.at(0.0), 1.0, 1e-9);   // before the burst
    EXPECT_NEAR(curve.at(300.0), 2.0, 1e-9); // holding at peak
    EXPECT_NEAR(curve.at(500.0), 1.0, 1e-9); // back to baseline
    EXPECT_NEAR(curve.at(900.0), 1.0, 1e-9);
    EXPECT_NEAR(curve.maxValue(), 2.0, 1e-9);
}

TEST(OpenLoopArrivals, DeterministicUnderCellSeed)
{
    OpenLoopConfig config;
    config.baseRps = 4.0;
    config.curve = RateCurve::diurnal(600.0, 0.5, 1.5);
    config.seed = phoenix::util::cellSeed(42, 7);

    auto drain = [&] {
        OpenLoopArrivals stream(config);
        std::vector<double> times;
        double t = 0.0;
        while ((t = stream.next(t)) >= 0.0 && t <= 600.0)
            times.push_back(t);
        return times;
    };
    const auto a = drain();
    const auto b = drain();
    ASSERT_FALSE(a.empty());
    EXPECT_EQ(a, b); // bit-identical replay
    for (size_t i = 1; i < a.size(); ++i)
        EXPECT_GT(a[i], a[i - 1]); // strictly increasing

    // A different stream index yields a different sequence.
    config.seed = phoenix::util::cellSeed(42, 8);
    EXPECT_NE(drain(), a);
}

TEST(OpenLoopArrivals, RealizedCountTracksExpectedCount)
{
    OpenLoopConfig config;
    config.baseRps = 10.0;
    config.curve = RateCurve::burst(200.0, 300.0, 1.0, 2.0);
    config.seed = 1234;
    OpenLoopArrivals stream(config);

    const double horizon = 800.0;
    size_t realized = 0;
    double t = 0.0;
    while ((t = stream.next(t)) >= 0.0 && t <= horizon)
        ++realized;

    const double expected = stream.expectedCount(0.0, horizon);
    EXPECT_GT(expected, 0.0);
    // Poisson: keep 5 sigma around the mean.
    const double slack = 5.0 * std::sqrt(expected) + 1.0;
    EXPECT_NEAR(static_cast<double>(realized), expected, slack);
}

TEST(OpenLoopArrivals, ZeroRateStreamIsExhausted)
{
    OpenLoopConfig config;
    config.baseRps = 0.0;
    OpenLoopArrivals silent(config);
    EXPECT_LT(silent.next(0.0), 0.0);

    // A curve pinned at zero silences a positive base rate too.
    config.baseRps = 5.0;
    config.curve.point(0.0, 0.0);
    OpenLoopArrivals pinned(config);
    EXPECT_LT(pinned.next(0.0), 0.0);
}
