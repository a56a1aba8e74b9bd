/**
 * @file
 * Continuous chaos soak: hours of simulated time against the
 * mini-Kubernetes substrate with overlapping, seeded waves drawn from
 * the full fault taxonomy — clean node failures, kubelet flaps,
 * network partitions, degraded (slow-not-dead) nodes, API-server
 * outage windows, and heartbeat clock skew.
 *
 * Unlike the recovery harness (one declarative scenario, one metric
 * derivation), the soak is an *oracle*: the kube invariant checker is
 * force-enabled, and a battery of convergence properties runs on a
 * fixed cadence for the whole run —
 *
 *  - stale-observation-vs-fresh: outside an API-outage window the
 *    observation surface must equal live truth; inside one it must
 *    not drift (frozen means frozen);
 *  - per-node convergence: a node no fault wave has touched for the
 *    settle window must be Ready, undegraded, unpartitioned, and
 *    honest-clocked again (every wave heals by construction);
 *  - stranded-pod detection: a cluster that has been fault-quiet for
 *    the settle window must have drained its pending set — the
 *    observation→execution races of satellite faults must degrade
 *    into deferred work, never lost pods;
 *  - constrained placement (zoneCount > 0): after a fault-quiet
 *    settle window, running replicas must respect every per-node /
 *    per-zone / group cap and spread-constrained services must span
 *    their required zones again — topology restored, not merely pods
 *    restarted somewhere;
 *  - optionally an injected, deliberately wrong invariant
 *    (used <= fraction * capacity) that a busy cluster violates —
 *    the end-to-end demo that a violation produces a Perfetto trace
 *    window and a shrunk CheckCase repro.
 *
 * The wave schedule is generated up front from the seed (pure
 * function: same seed + config => identical schedule, checks, and
 * records), with per-node exclusive claims and a bounded
 * concurrently-disturbed capacity fraction so the cluster is stressed
 * but never fully razed.
 */

#ifndef PHOENIX_EXP_SOAK_H
#define PHOENIX_EXP_SOAK_H

#include <string>
#include <utility>
#include <vector>

#include "apps/cloudlab.h"
#include "check/case.h"
#include "exp/testbed.h"
#include "kube/kube.h"

namespace phoenix::exp {

/** One fault class of the taxonomy (one wave injects one class). */
enum class SoakWaveKind {
    Fail,      //!< kubelet stop, restart at window end
    Flap,      //!< stop + restart inside/outside the grace period
    Partition, //!< heartbeats suppressed, pods keep running
    Degrade,   //!< capacity * factor, slow-not-dead
    ApiOutage, //!< observation frozen for the window
    ClockSkew, //!< heartbeats stamped now + skew for the window
    ZoneFail,  //!< zone-correlated: a whole failure domain at once
};

const char *soakWaveKindName(SoakWaveKind kind);

/** One scheduled wave: a window of one fault class on a node set. */
struct SoakWave
{
    SoakWaveKind kind = SoakWaveKind::Fail;
    double at = 0.0;
    double duration = 0.0; //!< window length; every wave heals
    std::vector<sim::NodeId> nodes; //!< empty for ApiOutage
    double factor = 1.0;            //!< Degrade only
    double skew = 0.0;              //!< ClockSkew only
};

/** Fault-quiet time a node (or the cluster) needs before the
 * convergence / stranded-pod properties are asserted. Covers grace +
 * heartbeat + controller poll + pod startup. */
constexpr double kSoakSettleSeconds = 600.0;
/** Cap on the fraction of nodes disturbed at any instant. */
constexpr double kSoakMaxDisturbedFraction = 0.4;
/** Quiet lead-in before the first wave (lets every pod start). */
constexpr double kSoakWarmupSeconds = 300.0;
/** Probability a wave becomes a zone-correlated failure (every node
 * of one zone fails together); only with SoakConfig::zoneCount > 0. */
constexpr double kSoakZoneFailProbability = 0.3;

struct SoakConfig
{
    TestbedScheme scheme = TestbedScheme::PhoenixCost;
    apps::CloudLabConfig testbed;
    kube::KubeConfig kube; //!< validateInvariants is forced on
    uint64_t seed = 7;
    /** Simulated soak length in hours. */
    double hours = 2.0;
    /** Mean seconds between wave starts (actual gaps are uniform in
     * [0.5, 1.5) of this). */
    double meanWaveGap = 240.0;
    /** Convergence-check cadence (seconds). */
    double checkPeriod = 60.0;
    /** Inject a deliberately wrong invariant (used <= fraction *
     * capacity on live state) to demo the violation->repro path. */
    bool injectFault = false;
    double injectTightCapacityFraction = 0.5;
    /**
     * Zones the nodes are striped over (testbedZone).
     * 0 (default) keeps the classic untopologied soak and its wave
     * stream byte-identical. With >= 2 zones the testbed gets the
     * spread/PDB overlay (exp::applyTopologyOverlay), the schedule may
     * upgrade waves to zone-correlated failures, and the
     * constraint-cap / stranded-constraint properties arm.
     */
    size_t zoneCount = 0;
};

/** One failed soak property. */
struct SoakViolation
{
    double at = 0.0;
    /** Stable property id ("kube-invariant", "stale-observation",
     * "frozen-observation-drift", "unconverged-node",
     * "stranded-pending", "constraint-cap", "stranded-constraint",
     * "injected-tight-capacity"). */
    std::string property;
    std::string detail;
};

/** Counter deltas across one wave's window (start -> end + 1s). */
struct SoakWaveRecord
{
    size_t wave = 0; //!< index into SoakResult::waves
    double readyCapacityStart = 0.0;
    double readyCapacityEnd = 0.0;
    size_t pendingStart = 0;
    size_t pendingEnd = 0;
    size_t evictionsDuring = 0;
    size_t invariantViolationsDuring = 0;
};

struct SoakResult
{
    double simSeconds = 0.0;
    std::vector<SoakWave> waves; //!< the generated schedule
    std::vector<SoakWaveRecord> waveRecords;
    size_t checkTicks = 0;
    std::vector<SoakViolation> violations; //!< capped at 64 entries
    size_t violationCount = 0;             //!< uncapped
    double firstViolationAt = -1.0;
    size_t invariantViolations = 0;
    size_t evictedPods = 0;
    size_t replans = 0;
    size_t deletes = 0;
    size_t migrations = 0;
    size_t restarts = 0;
    double minAvailability = 1.0;
    double meanAvailability = 0.0;
    /** Seconds from the first wave until critical availability holds
     * at 1.0 for good (exp::recoveryTimeSince conventions: 0 = never
     * dropped, -1 = still degraded at the horizon). */
    double timeToAvailabilityRecovery = 0.0;
    size_t maxPending = 0;
    /** obs counter deltas for the whole run (see RecoveryResult). */
    std::vector<std::pair<std::string, double>> obsMetrics;

    bool
    ok() const
    {
        return violationCount == 0 && invariantViolations == 0;
    }
};

/** Pure function of (config): the wave schedule runSoak will use. */
std::vector<SoakWave> generateSoakWaves(const SoakConfig &config);

/** Nodes disturbed by some wave at instant @p t. */
size_t disturbedNodesAt(const std::vector<SoakWave> &waves, double t);

/** Run the soak end to end. */
SoakResult runSoak(const SoakConfig &config);

/**
 * Self-contained CheckCase reproducing the soak's fault script up to
 * @p upTo seconds (every wave starting by then, with its full healing
 * window): the bridge from a soak violation to the src/check
 * shrinker and the regression corpus. runSoak arms the scenario of
 * this case over the whole horizon, so a repro is by construction
 * the script the soak ran.
 */
check::CheckCase makeSoakRepro(const SoakConfig &config,
                               const std::vector<SoakWave> &waves,
                               double upTo);

} // namespace phoenix::exp

#endif // PHOENIX_EXP_SOAK_H
