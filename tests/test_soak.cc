/**
 * @file
 * Tests for the continuous chaos soak (src/exp/soak.h): schedule
 * generation (determinism, per-node exclusivity, bounded disturbance),
 * clean soaks across schemes, run-to-run determinism of the full
 * harness, and the injected-fault path through the src/check oracle
 * and shrinker.
 */

#include <gtest/gtest.h>

#include <set>

#include "check/oracle.h"
#include "check/shrink.h"
#include "exp/soak.h"

using namespace phoenix;
using exp::SoakConfig;
using exp::SoakResult;
using exp::SoakWave;
using exp::SoakWaveKind;

namespace {

SoakConfig
smokeConfig(uint64_t seed = 7)
{
    SoakConfig config;
    config.seed = seed;
    config.hours = 0.6;
    config.meanWaveGap = 120.0;
    return config;
}

} // namespace

TEST(SoakWaves, ScheduleIsDeterministicAndBounded)
{
    SoakConfig config;
    config.seed = 11;
    config.hours = 2.0;
    config.meanWaveGap = 120.0;
    const auto a = exp::generateSoakWaves(config);
    const auto b = exp::generateSoakWaves(config);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].kind, b[i].kind);
        EXPECT_DOUBLE_EQ(a[i].at, b[i].at);
        EXPECT_DOUBLE_EQ(a[i].duration, b[i].duration);
        EXPECT_EQ(a[i].nodes, b[i].nodes);
        EXPECT_DOUBLE_EQ(a[i].factor, b[i].factor);
        EXPECT_DOUBLE_EQ(a[i].skew, b[i].skew);
    }

    // The disturbance bound holds at every wave boundary (the extreme
    // points of the step function).
    const auto max_disturbed = static_cast<size_t>(
        exp::kSoakMaxDisturbedFraction *
        static_cast<double>(config.testbed.nodeCount));
    for (const SoakWave &wave : a) {
        EXPECT_LE(exp::disturbedNodesAt(a, wave.at + 1e-9),
                  max_disturbed);
    }

    // Windows never overlap per node: claims are exclusive.
    for (size_t i = 0; i < a.size(); ++i) {
        for (size_t j = i + 1; j < a.size(); ++j) {
            if (a[i].at + a[i].duration <= a[j].at ||
                a[j].at + a[j].duration <= a[i].at)
                continue;
            for (sim::NodeId n : a[i].nodes) {
                EXPECT_EQ(std::count(a[j].nodes.begin(),
                                     a[j].nodes.end(), n),
                          0);
            }
        }
    }
}

TEST(SoakWaves, LongScheduleCoversTheTaxonomy)
{
    SoakConfig config;
    config.seed = 7;
    config.hours = 4.0;
    config.meanWaveGap = 120.0;
    const auto waves = exp::generateSoakWaves(config);
    std::set<SoakWaveKind> kinds;
    for (const SoakWave &wave : waves)
        kinds.insert(wave.kind);
    // Every fault class of the taxonomy shows up in a long soak.
    EXPECT_EQ(kinds.size(), 6u);
}

TEST(SoakWaves, ZoneScheduleEmitsCorrelatedZoneFailures)
{
    SoakConfig config;
    config.seed = 7;
    config.hours = 4.0;
    config.meanWaveGap = 120.0;
    config.zoneCount = 5;
    const auto waves = exp::generateSoakWaves(config);

    const size_t zone_size =
        config.testbed.nodeCount / config.zoneCount;
    size_t zone_waves = 0;
    for (const SoakWave &wave : waves) {
        if (wave.kind != SoakWaveKind::ZoneFail)
            continue;
        ++zone_waves;
        // A zone-correlated wave takes down one whole failure domain
        // (every node of one zone), never a partial one.
        ASSERT_EQ(wave.nodes.size(), zone_size);
        const auto zone = wave.nodes.front() % config.zoneCount;
        for (sim::NodeId n : wave.nodes)
            EXPECT_EQ(n % config.zoneCount, zone);
    }
    EXPECT_GT(zone_waves, 0u);

    // The guarded draw keeps the classic stream free of zone waves.
    SoakConfig classic = config;
    classic.zoneCount = 0;
    for (const SoakWave &wave : exp::generateSoakWaves(classic))
        EXPECT_NE(wave.kind, SoakWaveKind::ZoneFail);
}

TEST(Soak, ConstrainedZoneSoakRunsClean)
{
    // Zone-correlated failures against the spread/PDB-constrained
    // testbed: the whole convergence battery plus the constraint-cap
    // and stranded-constraint dimensions must stay quiet — after
    // every zone kill heals, the constrained C1 pairs must span two
    // zones again.
    SoakConfig config = smokeConfig();
    config.zoneCount = 5;
    const SoakResult result = exp::runSoak(config);
    EXPECT_TRUE(result.ok())
        << result.violationCount << " violations, first: "
        << (result.violations.empty()
                ? "-"
                : result.violations.front().property + " " +
                      result.violations.front().detail);
    EXPECT_GT(result.waves.size(), 0u);
    EXPECT_GT(result.checkTicks, 0u);
}

TEST(Soak, ConstrainedReproCarriesTopology)
{
    SoakConfig config = smokeConfig();
    config.zoneCount = 5;
    const auto waves = exp::generateSoakWaves(config);
    ASSERT_FALSE(waves.empty());
    const check::CheckCase repro = exp::makeSoakRepro(
        config, waves, config.hours * 3600.0);

    // Zone labels and the constrained overlay survive the bridge into
    // the differential oracle, so a soak violation shrinks under the
    // same placement policies it was found with.
    EXPECT_EQ(repro.nodeZones.size(), config.testbed.nodeCount);
    EXPECT_TRUE(repro.constrained());
    bool spread_seen = false;
    for (const auto &app : repro.apps) {
        for (const auto &ms : app.services)
            spread_seen = spread_seen || ms.minZoneSpread == 2;
    }
    EXPECT_TRUE(spread_seen);

    const auto parsed = check::CheckCase::fromJson(repro.toJson());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->toJson(), repro.toJson());
    EXPECT_EQ(parsed->nodeZones, repro.nodeZones);
}

TEST(Soak, SmokeRunsCleanAcrossSchemes)
{
    for (const auto scheme :
         {exp::TestbedScheme::PhoenixCost,
          exp::TestbedScheme::Default}) {
        SoakConfig config = smokeConfig();
        config.scheme = scheme;
        const SoakResult result = exp::runSoak(config);
        EXPECT_TRUE(result.ok())
            << testbedSchemeName(scheme) << ": "
            << result.violationCount << " violations, first: "
            << (result.violations.empty()
                    ? "-"
                    : result.violations.front().property + " " +
                          result.violations.front().detail);
        EXPECT_GT(result.waves.size(), 0u);
        EXPECT_GT(result.checkTicks, 0u);
        EXPECT_EQ(result.waveRecords.size(), result.waves.size());
    }
}

TEST(Soak, RunIsDeterministicForASeed)
{
    const SoakConfig config = smokeConfig(13);
    const SoakResult a = exp::runSoak(config);
    const SoakResult b = exp::runSoak(config);
    EXPECT_EQ(a.waves.size(), b.waves.size());
    EXPECT_EQ(a.violationCount, b.violationCount);
    EXPECT_EQ(a.evictedPods, b.evictedPods);
    EXPECT_EQ(a.replans, b.replans);
    EXPECT_EQ(a.maxPending, b.maxPending);
    EXPECT_DOUBLE_EQ(a.minAvailability, b.minAvailability);
    EXPECT_DOUBLE_EQ(a.meanAvailability, b.meanAvailability);
    ASSERT_EQ(a.waveRecords.size(), b.waveRecords.size());
    for (size_t i = 0; i < a.waveRecords.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.waveRecords[i].readyCapacityStart,
                         b.waveRecords[i].readyCapacityStart);
        EXPECT_DOUBLE_EQ(a.waveRecords[i].readyCapacityEnd,
                         b.waveRecords[i].readyCapacityEnd);
        EXPECT_EQ(a.waveRecords[i].evictionsDuring,
                  b.waveRecords[i].evictionsDuring);
    }
}

TEST(Soak, InjectedFaultIsCaughtAndShrinks)
{
    // Zoned too: the shrinker must drop a node's zone label with the
    // node, or the shrunk repro no longer loads.
    for (const size_t zones : {size_t{0}, size_t{3}}) {
        SCOPED_TRACE("zoneCount " + std::to_string(zones));
        SoakConfig config = smokeConfig();
        config.hours = 0.3;
        config.zoneCount = zones;
        config.injectFault = true;
        config.injectTightCapacityFraction = 0.3;
        const SoakResult result = exp::runSoak(config);
        ASSERT_FALSE(result.ok());
        ASSERT_FALSE(result.violations.empty());
        EXPECT_EQ(result.violations.front().property,
                  "injected-tight-capacity");
        EXPECT_GE(result.firstViolationAt, 0.0);

        // The soak's fault script bridges into the differential oracle:
        // the repro violates the same injected invariant there, and the
        // shrinker reduces it while preserving the violation.
        check::CheckCase repro = exp::makeSoakRepro(
            config, result.waves, result.firstViolationAt);
        repro.name = "soak-injected";
        check::OracleOptions oracle;
        oracle.runLp = false;
        oracle.lifecycle = false;
        oracle.injectTightCapacityFraction =
            config.injectTightCapacityFraction;
        const auto checked = check::checkCase(repro, oracle);
        ASSERT_FALSE(checked.ok());

        const auto shrunk = check::shrinkCase(repro, oracle);
        EXPECT_FALSE(shrunk.properties.empty());
        EXPECT_LE(shrunk.shrunk.serviceCount(), repro.serviceCount());
        const auto recheck = check::checkCase(shrunk.shrunk, oracle);
        EXPECT_FALSE(recheck.ok());

        // Round-trips through the corpus format.
        std::string error;
        const auto parsed =
            check::CheckCase::fromJson(shrunk.shrunk.toJson(), &error);
        ASSERT_TRUE(parsed.has_value()) << error;
        EXPECT_EQ(parsed->toJson(), shrunk.shrunk.toJson());
        EXPECT_EQ(parsed->nodeZones.size(),
                  zones > 0 ? parsed->nodeCapacities.size() : 0u);
    }
}
