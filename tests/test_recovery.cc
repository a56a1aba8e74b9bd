/**
 * @file
 * Tests for the end-to-end recovery harness: time-series sampling,
 * ttcr/ttfr derivation, and the Fig 6 storyline — Phoenix restores
 * every critical service well before capacity returns while the
 * Default baseline has to wait for the nodes to come back. The kube
 * invariant checker is force-enabled inside runRecovery; every test
 * asserts it saw nothing.
 */

#include <gtest/gtest.h>

#include "exp/recovery.h"

using namespace phoenix;
using exp::RecoveryConfig;
using exp::RecoveryResult;
using exp::TestbedScheme;

namespace {

/** The bench's headline scenario: half the capacity fails at t=600,
 * nodes return one by one from t=1500. */
RecoveryConfig
cap50Config(TestbedScheme scheme)
{
    RecoveryConfig config;
    config.scheme = scheme;
    config.scenario.failCapacityFraction(600.0, 0.5)
        .recoverAll(1500.0, 30.0);
    config.endTime = 2400.0;
    return config;
}

} // namespace

TEST(Recovery, QuietScenarioNeverDegrades)
{
    RecoveryConfig config;
    config.scheme = TestbedScheme::PhoenixCost;
    config.endTime = 900.0;
    const RecoveryResult result = exp::runRecovery(config);

    EXPECT_DOUBLE_EQ(result.firstFailureAt, -1.0);
    EXPECT_DOUBLE_EQ(result.timeToCriticalRecovery, 0.0);
    EXPECT_DOUBLE_EQ(result.timeToFullRecovery, 0.0);
    EXPECT_DOUBLE_EQ(result.finalAvailability, 1.0);
    EXPECT_EQ(result.invariantViolations, 0u);
}

TEST(Recovery, SamplesFollowTheConfiguredCadence)
{
    RecoveryConfig config = cap50Config(TestbedScheme::Default);
    config.samplePeriod = 30.0;
    config.endTime = 1200.0;
    const RecoveryResult result = exp::runRecovery(config);

    ASSERT_EQ(result.samples.size(), 40u); // 30, 60, ..., 1200
    for (size_t i = 0; i < result.samples.size(); ++i) {
        EXPECT_DOUBLE_EQ(result.samples[i].t,
                         30.0 * static_cast<double>(i + 1));
    }
    EXPECT_DOUBLE_EQ(result.firstFailureAt, 600.0);
    // Ready capacity halves after the failure is detected.
    EXPECT_NEAR(result.samples.back().readyCapacity,
                result.samples.front().readyCapacity / 2.0, 8.0 + 1e-9);
    EXPECT_EQ(result.invariantViolations, 0u);
}

TEST(Recovery, PhoenixRestoresCriticalServicesBeforeCapacityReturns)
{
    const RecoveryResult result =
        exp::runRecovery(cap50Config(TestbedScheme::PhoenixCost));

    // Availability dips while the failure is detected (~100 s grace),
    // then Phoenix replans and brings every critical service back long
    // before the first node recovers at t=1500.
    EXPECT_LT(result.minAvailability, 1.0);
    EXPECT_GT(result.timeToCriticalRecovery, 0.0);
    EXPECT_LE(result.timeToCriticalRecovery, 420.0);
    EXPECT_GT(result.replans, 0u);
    EXPECT_GT(result.maxPending, 0u);
    // Full recovery needs the capacity back: after t=1500 but within
    // the horizon.
    EXPECT_GT(result.timeToFullRecovery,
              result.timeToCriticalRecovery);
    EXPECT_DOUBLE_EQ(result.finalAvailability, 1.0);
    EXPECT_EQ(result.invariantViolations, 0u);
}

TEST(Recovery, DefaultWaitsForCapacityPhoenixDoesNot)
{
    const RecoveryResult phoenix =
        exp::runRecovery(cap50Config(TestbedScheme::PhoenixCost));
    const RecoveryResult fallback =
        exp::runRecovery(cap50Config(TestbedScheme::Default));

    // The Default scheduler has no notion of criticality: critical
    // availability stays broken until nodes return at t=1500+.
    const double capacity_back = 1500.0 - 600.0;
    EXPECT_GT(phoenix.timeToCriticalRecovery, 0.0);
    EXPECT_LT(phoenix.timeToCriticalRecovery, capacity_back);
    EXPECT_TRUE(fallback.timeToCriticalRecovery < 0.0 ||
                fallback.timeToCriticalRecovery > capacity_back);
    EXPECT_EQ(fallback.replans, 0u);
    EXPECT_EQ(phoenix.invariantViolations, 0u);
    EXPECT_EQ(fallback.invariantViolations, 0u);
}
