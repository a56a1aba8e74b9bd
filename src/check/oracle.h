/**
 * @file
 * Differential oracle: every property a scheme result must satisfy on
 * a generated case, with the exact ILP stack as the reference
 * implementation where one exists.
 *
 * Property classes, and why each is sound:
 *
 *  - Structural: planned states never exceed node capacity, never
 *    place on unhealthy nodes, never reference pods outside the app
 *    descriptors, and record the descriptor's cpu for every pod.
 *  - Replay: the emitted action sequence (deletes, migrations,
 *    restarts), applied to the post-failure state, reproduces the
 *    planned state exactly — the agent executes actions, not states.
 *  - Order: checked where it is actually an invariant. The heuristic
 *    planner guarantees order on its *per-app activation ranking*
 *    (every prefix respects dependencies; effective-criticality
 *    sorted when no DG exists) — not on the final state, where
 *    surviving pods of partially evicted apps and the planner's
 *    capacity skip legitimately break pairwise tag order. The LP
 *    schemes encode Eq. 1/Eq. 2 as hard constraints, so for them the
 *    active-set versions are asserted directly.
 *  - Differential: when the case is small enough, LPCost/LPFair solve
 *    the exact Appendix-C MILPs. A heuristic activation that is
 *    feasible for the MILP (raw-tag order + dependencies hold) cannot
 *    earn more than a *proven optimal* solve; gap floors assert the
 *    heuristic is not arbitrarily worse either — modulo one largest
 *    item of slack, since the planner's aggregate-capacity admission
 *    is a greedy knapsack whose gap is otherwise unbounded. Incumbents
 *    cut off by the time limit skip the comparisons (provenOptimal
 *    gates them).
 *  - Metamorphic: doubling every capacity and demand is exact in
 *    binary floating point (the generator quantizes sizes), so plans,
 *    actions, and assignments must be bit-identical; relabeling nodes
 *    of the post-failure state permutes best-fit-only packing's
 *    remaining-capacity multiset without changing it (asserted only
 *    on eviction-free runs: below-quorum cleanup frees cpu on a
 *    survivor's tie-break-dependent host), so the active
 *    set and revenue must match; restoring a failed node must not
 *    regress a scheme's *own* objective (Fair: availability, Cost:
 *    normalized revenue on uniform-criticality cases — on mixed tags
 *    the lexicographic key legally trades unbounded revenue for
 *    criticality coverage) beyond an indivisibility slack — greedy
 *    packing is not point-wise monotone under fragmentation, and each
 *    scheme freely sacrifices the other metric by design.
 *  - Long-lived scheme soundness (warm-cold-divergence): a scheme
 *    instance that just planned a projected further-degraded state
 *    must return the byte-identical cold answer for the real
 *    post-failure state — scheme output is a pure function of (apps,
 *    state) regardless of what the instance planned before. The
 *    controller's scheme and the forecaster's projection scheme (which
 *    replans every tick) both live across epochs and rely on this.
 *  - Lifecycle: replaying the failure script against the
 *    mini-Kubernetes cluster with a Phoenix controller loop must
 *    produce zero kube invariant violations, and no pod may reach
 *    Running sooner than the minimum startup delay after (re)binding
 *    to its node — the "free startup" class a migrate-while-Starting
 *    bug produces.
 *  - Fault convergence (one dimension per taxonomy class): after the
 *    horizon runs past every fault window, the observation surface
 *    must equal live truth again (stale-observation-vs-fresh — an
 *    API outage that never thaws is a bug), every node's readiness
 *    must match what the failure/partition script implies (nodes a
 *    clock-skew fault touched are exempt: detaching readiness from
 *    kubelet health is that fault's point), and degrade factors must
 *    match the script's end state.
 */

#ifndef PHOENIX_CHECK_ORACLE_H
#define PHOENIX_CHECK_ORACLE_H

#include <string>
#include <vector>

#include "check/case.h"

namespace phoenix::check {

struct OracleOptions
{
    /** Run the LPCost/LPFair differential on small instances. */
    bool runLp = true;
    /** Skip the LP when services x healthy-nodes exceeds this. */
    size_t lpMaxCells = 160;
    double lpTimeLimitSec = 2.0;
    /** Heuristic revenue must reach this fraction of LPCost's proven
     * optimum — asserted only on like-for-like cases (uniform
     * criticality tags, every service fits some node), since
     * PhoenixCost subordinates revenue to criticality by design. */
    double costGapFraction = 0.5;
    /** PhoenixFair's minimum per-app allocation must reach this
     * fraction of LPFair's proven F*, minus one largest-service slack
     * for indivisibility. */
    double fairGapFraction = 0.4;

    /** Run the scale/permutation/monotonicity relations. */
    bool metamorphic = true;
    /** Extra availability / normalized-revenue drop allowed when a
     * failed node is restored, on top of the structural
     * indivisibility slack (one app of availability, one largest item
     * of revenue) the oracle always grants. */
    double monotonicityTolerance = 0.051;

    /** Run the kube-lifecycle oracle for lifecycle-flagged cases. */
    bool lifecycle = true;

    /**
     * Fault-injection knob for testing the checker itself: when > 0,
     * additionally assert used(node) <= fraction * capacity — a
     * deliberately wrong invariant every reasonably full plan
     * violates. Used to demo/exercise the shrinker.
     */
    double injectTightCapacityFraction = 0.0;
};

/** One failed property. */
struct Violation
{
    /** Stable property id ("capacity", "action-replay", ...). The
     * shrinker matches candidates on this. */
    std::string property;
    /** Scheme that produced the state, or "" for case-level checks. */
    std::string scheme;
    std::string detail;
};

struct OracleResult
{
    std::vector<Violation> violations;
    bool lpCostRan = false;
    bool lpFairRan = false;
    bool lifecycleRan = false;
    /** Heuristic revenue / LPCost proven optimum (0 when LP not run). */
    double costGap = 0.0;

    /** Host-wall seconds spent per oracle tier on this case (also
     * recorded as check.phase_seconds{phase=...} obs histograms, so
     * bench_fuzzcheck reports them per cell). */
    double schemesSeconds = 0.0;     //!< structural/replay/flat-vs-ref
    double lpSeconds = 0.0;          //!< LP differential
    double metamorphicSeconds = 0.0; //!< metamorphic relations
    double lifecycleSeconds = 0.0;   //!< kube lifecycle replay

    bool ok() const { return violations.empty(); }

    bool
    hasProperty(const std::string &property) const
    {
        for (const auto &v : violations) {
            if (v.property == property)
                return true;
        }
        return false;
    }
};

/**
 * The seed placement every check starts from: DefaultScheme (spread)
 * placement of all apps on the empty healthy cluster, then the case's
 * failure script replayed on top. Exposed for tests.
 */
sim::ClusterState postFailureState(const CheckCase &c);

/** Run every applicable property on one case. */
OracleResult checkCase(const CheckCase &c,
                       const OracleOptions &options = {});

} // namespace phoenix::check

#endif // PHOENIX_CHECK_ORACLE_H
