/**
 * @file
 * Seeded random case generation for the differential oracle.
 *
 * generateCase(seed) is a pure function of its arguments: the same
 * (seed, options) pair produces the same CheckCase on every build and
 * machine, because all randomness flows through util::Rng (xoshiro
 * seeded via splitmix64) and the fuzzer derives per-case seeds with
 * util::cellSeed. That makes "fuzz run 1234, case 57" a stable name
 * for a test case even before it is serialized.
 *
 * Sizes are grid-quantized on purpose: service cpu demands are
 * multiples of 0.25 and node capacities multiples of 1.0, so the
 * scale-by-2 metamorphic check (see oracle.h) is exact in binary
 * floating point and cannot flip an epsilon comparison inside the
 * planner between the two runs.
 */

#ifndef PHOENIX_CHECK_GENERATOR_H
#define PHOENIX_CHECK_GENERATOR_H

#include <cstdint>

#include "check/case.h"

namespace phoenix::check {

struct GeneratorOptions
{
    int minNodes = 2;
    int maxNodes = 10;
    int minApps = 1;
    int maxApps = 4;
    int maxServicesPerApp = 6;
    /** Service cpu ceiling; demands land on a 0.25 grid. */
    double maxServiceCpu = 4.0;
    /** Node capacity ceiling; capacities land on a 1.0 grid. */
    double maxNodeCapacity = 16.0;

    /** Probability that an app carries a dependency graph. */
    double dagProbability = 0.6;
    /** Per-(i,j) edge probability inside a DAG (i < j only). */
    double edgeProbability = 0.35;
    /** Probability that app ids are sparse/non-contiguous. */
    double sparseAppIdProbability = 0.25;
    /** Probability that an app opts out of Phoenix tagging. */
    double partialTaggingProbability = 0.15;
    /** Probability that a service runs more than one replica. */
    double multiReplicaProbability = 0.15;
    /** Probability that a case also exercises the kube lifecycle. */
    double lifecycleProbability = 0.35;
    /** Probability of a recover step following the failure. */
    double recoverProbability = 0.35;
    /** Probability of a kubelet flap instead of a clean failure. */
    double flapProbability = 0.2;

    /** Probability of a network-partition wave layered on top of the
     * base failure script (always healed after a window). */
    double partitionProbability = 0.25;
    /** Probability of a degraded (slow-not-dead) node wave. */
    double degradeProbability = 0.25;
    /** Probability of an API-server outage window. */
    double outageProbability = 0.2;
    /** Probability of a heartbeat clock-skew fault on one node. */
    double skewProbability = 0.15;

    /**
     * Placement-policy emission (topology-aware packing). All four
     * default to 0 so the classic rng stream is untouched — a draw is
     * only consumed when the probability is positive, keeping every
     * historical (seed, options) case byte-identical.
     */
    /** Per-app probability of an anti-affinity group (per-node and
     * sometimes per-zone caps) enrolling a subset of its services. */
    double antiAffinityProbability = 0.0;
    /** Per-service probability of a PodDisruptionBudget (forces
     * replicas >= 2). */
    double pdbProbability = 0.0;
    /** Per-service probability of a minZoneSpread constraint (forces
     * replicas >= 2; spread <= topologyZones). */
    double zoneSpreadProbability = 0.0;
    /** Per-service probability of a standalone maxPerNode cap. */
    double nodeCapProbability = 0.0;
    /** Explicit zone count for constrained cases: when any placement
     * policy was emitted, nodes get explicit zone labels
     * (id % topologyZones) so spread constraints are meaningful. */
    int topologyZones = 3;

    /** Probability that the failure step is zone-local: every failed
     * node shares one residue id % zoneFailureZones, so the case loses
     * one correlated failure domain rather than a scattered set of
     * nodes. */
    double zoneFailureProbability = 0.3;
    /** Zone count used to pick zone-local failure targets. */
    int zoneFailureZones = 3;
};

/** Deterministically expand @p seed into a complete CheckCase. */
CheckCase generateCase(uint64_t seed,
                       const GeneratorOptions &options = {});

} // namespace phoenix::check

#endif // PHOENIX_CHECK_GENERATOR_H
