/**
 * @file
 * Tests for the forecast subsystem (src/forecast): trend-model
 * determinism, hysteresis boundary behavior, long-lived-scheme purity
 * (a scheme that planned a projection still returns the cold plan)
 * over seeded fuzz environments, the proactive-candidacy contract, the
 * end-to-end precursor storyline through the recovery harness, and the
 * shared time-series derivation both harnesses (recovery, soak) are
 * pinned to.
 */

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/cloudlab.h"
#include "check/generator.h"
#include "check/oracle.h"
#include "core/controller.h"
#include "core/schemes.h"
#include "exp/recovery.h"
#include "exp/timeseries.h"
#include "forecast/detector.h"
#include "forecast/forecaster.h"
#include "forecast/model.h"
#include "kube/kube.h"
#include "sim/scenario.h"

using namespace phoenix;
using exp::RecoveryConfig;
using exp::RecoveryResult;
using exp::TestbedScheme;
using forecast::Forecaster;
using forecast::HysteresisConfig;
using forecast::HysteresisGate;
using forecast::TrendModel;
using forecast::TrendModelConfig;

namespace {

/** The bench's "decayzone" anticipated fault: three of fallback zone
 * 0's nodes die as precursors before the whole zone goes at t=900. */
RecoveryConfig
decayZoneConfig(bool forecastOn)
{
    RecoveryConfig config;
    config.scheme = TestbedScheme::PhoenixCost;
    config.scenarioOptions.zoneCount = 5;
    config.scenario.failNodes(400.0, {0, 5})
        .failNodes(500.0, {10})
        .failZone(900.0, 0)
        .recoverAll(1500.0, 30.0);
    config.endTime = 2400.0;
    config.forecast = forecastOn;
    return config;
}

/** PhoenixScheme that counts its apply() calls. */
class CountingScheme final : public core::ResilienceScheme
{
  public:
    CountingScheme(core::Objective objective, size_t &applies)
        : inner_(objective), applies_(applies)
    {
    }

    std::string name() const override { return inner_.name(); }

    core::SchemeResult
    apply(const std::vector<sim::Application> &apps,
          const sim::ClusterState &current) override
    {
        ++applies_;
        return inner_.apply(apps, current);
    }

  private:
    core::PhoenixScheme inner_;
    size_t &applies_;
};

} // namespace

// --- Trend model -----------------------------------------------------

TEST(TrendModel, ExactLinearFitAndProjection)
{
    TrendModel model;
    // value = 100 - 0.5 * t: the least-squares fit of noiseless linear
    // data recovers the line exactly.
    for (int i = 0; i < 8; ++i) {
        const double t = 15.0 * static_cast<double>(i);
        model.observe(t, 100.0 - 0.5 * t);
    }
    EXPECT_NEAR(model.slope(), -0.5, 1e-9);
    EXPECT_DOUBLE_EQ(model.last(), 100.0 - 0.5 * 105.0);
    EXPECT_NEAR(model.project(60.0), model.last() - 30.0, 1e-9);
}

TEST(TrendModel, ProjectionClampsAtZero)
{
    TrendModel model;
    for (int i = 0; i < 6; ++i)
        model.observe(10.0 * i, 50.0 - 10.0 * i);
    // Trend hits zero before the horizon: capacity cannot go negative.
    EXPECT_DOUBLE_EQ(model.project(1000.0), 0.0);
}

TEST(TrendModel, IdenticalStreamsFitBitIdenticalModels)
{
    // The determinism contract behind --jobs-invariant sweeps: a model
    // is a pure function of its observation stream, so two instances
    // fed the same (t, value) sequence agree bit for bit.
    TrendModelConfig config;
    config.window = 6;
    config.ewmaHalfLife = 45.0;
    TrendModel a(config);
    TrendModel b(config);
    uint64_t x = 0x9e3779b97f4a7c15ull; // splitmix-style scramble
    for (int i = 0; i < 200; ++i) {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 27;
        const double value =
            static_cast<double>(x % 10000ull) / 100.0;
        const double t = 5.0 * static_cast<double>(i);
        a.observe(t, value);
        b.observe(t, value);
        ASSERT_EQ(a.ewma(), b.ewma());
        ASSERT_EQ(a.slope(), b.slope());
        ASSERT_EQ(a.project(120.0), b.project(120.0));
    }
    EXPECT_EQ(a.sampleCount(), b.sampleCount());
    EXPECT_EQ(a.last(), b.last());
}

// --- Hysteresis gate -------------------------------------------------

TEST(Hysteresis, ExactlyAtEnterThresholdNeverArms)
{
    const HysteresisConfig config{0.25, 0.10, 2};
    HysteresisGate gate(config);
    for (int i = 0; i < 100; ++i) {
        gate.observe(config.enter); // exactly at, not strictly above
        ASSERT_FALSE(gate.armed());
        ASSERT_EQ(gate.streak(), 0);
    }
    EXPECT_EQ(gate.armCount(), 0u);
}

TEST(Hysteresis, ArmsOnStreakAndExactlyAtExitNeverClears)
{
    const HysteresisConfig config{0.25, 0.10, 3};
    HysteresisGate gate(config);
    EXPECT_FALSE(gate.observe(0.30));
    EXPECT_FALSE(gate.observe(0.30));
    EXPECT_TRUE(gate.observe(0.30)); // armTicks-th consecutive sample
    for (int i = 0; i < 100; ++i) {
        gate.observe(config.exit); // exactly at exit: state untouched
        ASSERT_TRUE(gate.armed());
    }
    EXPECT_FALSE(gate.observe(config.exit - 1e-9));
    EXPECT_EQ(gate.armCount(), 1u);
    EXPECT_EQ(gate.clearCount(), 1u);
}

TEST(Hysteresis, InterruptedStreakDoesNotArm)
{
    HysteresisGate gate(HysteresisConfig{0.25, 0.10, 3});
    gate.observe(0.30);
    gate.observe(0.30);
    gate.observe(0.20); // between exit and enter: streak resets
    gate.observe(0.30);
    gate.observe(0.30);
    EXPECT_FALSE(gate.armed());
    EXPECT_TRUE(gate.observe(0.30));
}

TEST(Hysteresis, BoundaryRidingSignalNeverFlaps)
{
    const HysteresisConfig config{0.25, 0.10, 2};
    HysteresisGate gate(config);
    // A signal riding exactly on either threshold changes nothing, no
    // matter how it alternates.
    for (int i = 0; i < 200; ++i) {
        gate.observe((i % 2) ? config.enter : config.exit);
        ASSERT_FALSE(gate.armed());
    }
    EXPECT_EQ(gate.armCount(), 0u);
    EXPECT_EQ(gate.clearCount(), 0u);
}

// --- Long-lived scheme purity ---------------------------------------

TEST(Forecast, WarmPlanIsBitIdenticalToColdPlanOnSeededEnvs)
{
    // The purity both long-lived schemes rest on — the controller's,
    // and the forecaster's projection scheme, which replans every
    // tick: a scheme that just planned a *projection* must produce the
    // byte-identical cold answer when asked to plan the real
    // post-failure state — scheme output is a pure function of (apps,
    // state). 50 seeded fuzz environments, both objectives.
    for (uint64_t seed = 1; seed <= 50; ++seed) {
        const check::CheckCase c = check::generateCase(seed);
        const sim::ClusterState post = check::postFailureState(c);

        sim::ClusterState projection = post;
        const std::vector<sim::NodeId> healthy = post.healthyNodes();
        if (!healthy.empty())
            projection.failNode(healthy.front());

        for (const core::Objective objective :
             {core::Objective::Fair, core::Objective::Cost}) {
            core::PhoenixScheme longLived(objective);
            (void)longLived.apply(c.apps, projection);
            const core::SchemeResult warm = longLived.apply(c.apps, post);

            core::PhoenixScheme cold(objective);
            const core::SchemeResult reference =
                cold.apply(c.apps, post);

            const std::string where =
                "seed " + std::to_string(seed) + " objective " +
                (objective == core::Objective::Fair ? "Fair" : "Cost");
            ASSERT_EQ(warm.failed, reference.failed) << where;
            ASSERT_EQ(warm.plan, reference.plan) << where;
            ASSERT_EQ(warm.pack.actions.size(),
                      reference.pack.actions.size())
                << where;
            for (size_t i = 0; i < warm.pack.actions.size(); ++i) {
                const core::Action &x = warm.pack.actions[i];
                const core::Action &y = reference.pack.actions[i];
                ASSERT_TRUE(x.kind == y.kind && x.pod == y.pod &&
                            x.from == y.from && x.to == y.to)
                    << where << " action " << i;
            }
            ASSERT_EQ(warm.pack.complete, reference.pack.complete)
                << where;
            ASSERT_EQ(warm.pack.state.assignment(),
                      reference.pack.state.assignment())
                << where;
        }
    }
}

// --- Proactive candidacy ---------------------------------------------

TEST(Forecast, ExecutedRiskIsNotReplannedWhileArmed)
{
    // The decayzone precursor (zone 0 = nodes 0, 5, 10, 15, 20 under
    // the fallback striping loses three nodes) arms the zone-loss risk
    // and the forecaster executes its projection plan proactively.
    // From then until the risk clears, nothing is left to offer for
    // it, so the projection scheme must not run again — although the
    // proactive moves and the later zone kill keep changing the
    // observed state.
    sim::EventQueue events;
    kube::KubeConfig kubeConfig;
    kubeConfig.validateInvariants = true;
    kube::KubeCluster cluster(events, kubeConfig);
    const apps::CloudLabTestbed testbed =
        apps::makeCloudLabTestbed(apps::CloudLabConfig{});
    for (size_t n = 0; n < testbed.config.nodeCount; ++n)
        cluster.addNode(testbed.config.cpusPerNode);
    for (const sim::Application &app : testbed.applications())
        cluster.addApplication(app);

    core::PhoenixController controller(
        events, cluster,
        std::make_unique<core::PhoenixScheme>(core::Objective::Cost));
    size_t applies = 0;
    Forecaster forecaster(cluster, [&applies] {
        return std::make_unique<CountingScheme>(core::Objective::Cost,
                                                applies);
    });
    controller.attachForecast(&forecaster);

    sim::Scenario scenario;
    scenario.failNodes(400.0, {0, 5})
        .failNodes(500.0, {10})
        .failZone(900.0, 0)
        .recoverAll(1500.0, 30.0);
    sim::ScenarioOptions options;
    options.zoneCount = 5;
    sim::ScenarioRunner runner(events, cluster, scenario, options);

    auto zoneZero = [&forecaster] {
        for (const forecast::RiskStatus &risk : forecaster.risks()) {
            if (risk.cls == forecast::FaultClass::ZoneLoss &&
                risk.zone == 0)
                return risk;
        }
        return forecast::RiskStatus{};
    };

    // Step poll by poll until the proactive execution lands.
    double t = 0.0;
    while (forecaster.counters().proactiveApplies == 0 && t < 900.0) {
        t += 15.0;
        events.runUntil(t);
    }
    ASSERT_EQ(forecaster.counters().proactiveApplies, 1u);
    ASSERT_LT(t, 900.0) << "proactive execution must precede the kill";
    ASSERT_TRUE(zoneZero().armed);
    ASSERT_TRUE(zoneZero().executed);
    const size_t appliesAtExecution = applies;
    const uint64_t plansAtExecution =
        forecaster.counters().prestagedPlans;
    EXPECT_GE(appliesAtExecution, 1u);

    // Through the zone kill and up to the recovery, the risk stays
    // armed and executed, and no further projection plan is derived.
    while (t < 1485.0) {
        t += 15.0;
        events.runUntil(t);
        ASSERT_TRUE(zoneZero().armed) << "t=" << t;
        ASSERT_TRUE(zoneZero().executed) << "t=" << t;
        ASSERT_EQ(applies, appliesAtExecution) << "t=" << t;
    }
    EXPECT_EQ(forecaster.counters().prestagedPlans, plansAtExecution);
    EXPECT_EQ(forecaster.counters().proactiveApplies, 1u);
    EXPECT_GT(controller.history().size(), 2u);
    EXPECT_EQ(cluster.invariantViolations(), 0u);
}

// --- End-to-end through the recovery harness -------------------------

TEST(Forecast, PrecursorScenarioPrestagesAndActsBeforeTheFault)
{
    const RecoveryResult reactive =
        exp::runRecovery(decayZoneConfig(false));
    const RecoveryResult forecast =
        exp::runRecovery(decayZoneConfig(true));

    // Reactive pays a real recovery after the zone kill.
    EXPECT_GT(reactive.timeToCriticalRecovery, 0.0);
    EXPECT_EQ(reactive.proactiveReplans, 0u);

    // The forecast run plans against the projected zone loss and acts
    // on the armed risk before the kill lands.
    EXPECT_GE(forecast.forecast.prestagedPlans, 1u);
    EXPECT_GE(forecast.proactiveReplans, 1u);
    ASSERT_GE(forecast.timeToCriticalRecovery, 0.0);
    EXPECT_LT(forecast.timeToCriticalRecovery,
              reactive.timeToCriticalRecovery);

    // Proaction must never cost correctness.
    EXPECT_EQ(forecast.invariantViolations, 0u);
    EXPECT_DOUBLE_EQ(forecast.finalAvailability, 1.0);
}

TEST(Forecast, RecoveryRunsAreDeterministicWithForecastOn)
{
    const RecoveryResult a = exp::runRecovery(decayZoneConfig(true));
    const RecoveryResult b = exp::runRecovery(decayZoneConfig(true));

    ASSERT_EQ(a.samples.size(), b.samples.size());
    for (size_t i = 0; i < a.samples.size(); ++i) {
        ASSERT_EQ(a.samples[i].t, b.samples[i].t);
        ASSERT_EQ(a.samples[i].readyCapacity,
                  b.samples[i].readyCapacity);
        ASSERT_EQ(a.samples[i].availability,
                  b.samples[i].availability);
        ASSERT_EQ(a.samples[i].running, b.samples[i].running);
        ASSERT_EQ(a.samples[i].pending, b.samples[i].pending);
    }
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.proactiveReplans, b.proactiveReplans);
    EXPECT_EQ(a.forecast.prestagedPlans, b.forecast.prestagedPlans);
    EXPECT_EQ(a.forecast.proactiveApplies, b.forecast.proactiveApplies);
    EXPECT_EQ(a.timeToCriticalRecovery, b.timeToCriticalRecovery);
    EXPECT_EQ(a.timeToFullRecovery, b.timeToFullRecovery);
}

// --- Shared time-series derivation (recovery + soak) -----------------

TEST(Timeseries, SharedDerivationConventions)
{
    using exp::SeriesPoint;
    // Never dropped after the failure: 0.
    EXPECT_DOUBLE_EQ(exp::recoveryTimeSince(
                         {{10.0, true}, {20.0, true}, {30.0, true}},
                         5.0),
                     0.0);
    // Horizon ends still broken: -1.
    EXPECT_DOUBLE_EQ(exp::recoveryTimeSince(
                         {{10.0, true}, {20.0, false}, {30.0, false}},
                         5.0),
                     -1.0);
    // Recovered for good: first sample after the last bad one,
    // relative to the failure instant.
    EXPECT_DOUBLE_EQ(
        exp::recoveryTimeSince({{10.0, false},
                                {20.0, true},
                                {30.0, false},
                                {40.0, true},
                                {50.0, true}},
                               5.0),
        35.0);
    // No failure injected: 0 regardless of the series.
    EXPECT_DOUBLE_EQ(
        exp::recoveryTimeSince({{10.0, false}}, -1.0), 0.0);
}

TEST(Timeseries, AdapterMatchesPointForm)
{
    // The recovery harness calls the template adapter over its sample
    // type; the soak pushes SeriesPoints directly. Both forms must
    // derive the same number from the same series.
    struct Sample
    {
        double t;
        double availability;
    };
    const std::vector<Sample> samples = {{15.0, 1.0},  {30.0, 0.5},
                                         {45.0, 0.25}, {60.0, 1.0},
                                         {75.0, 1.0},  {90.0, 1.0}};
    std::vector<exp::SeriesPoint> points;
    for (const Sample &s : samples)
        points.push_back({s.t, s.availability >= 1.0 - 1e-9});

    const double failureAt = 20.0;
    const double viaAdapter = exp::recoveryTimeSince(
        samples, failureAt, [](const Sample &s) { return s.t; },
        [](const Sample &s) { return s.availability >= 1.0 - 1e-9; });
    EXPECT_DOUBLE_EQ(viaAdapter,
                     exp::recoveryTimeSince(points, failureAt));
    EXPECT_DOUBLE_EQ(viaAdapter, 40.0);
}

// --- Satellite regression: the sampling cadence stays configurable
// --- without moving the default.

TEST(Recovery, SamplePeriodDefaultUnchanged)
{
    EXPECT_DOUBLE_EQ(RecoveryConfig{}.samplePeriod, 15.0);
}
