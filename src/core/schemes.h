/**
 * @file
 * Resilience schemes evaluated in §6 behind one interface:
 *
 *  - PhoenixScheme (Fair / Cost objectives): planner + packing scheduler.
 *  - FairScheme: non-cooperative fair redistribution, criticality-blind.
 *  - PriorityScheme: criticality tags without operator-level inter-app
 *    prioritization (no per-app quotas).
 *  - DefaultScheme: Kubernetes default behaviour — restart what failed,
 *    spread placement, no criticality/dependency/packing awareness.
 *  - LpScheme (LPFair / LPCost): the exact ILP formulations of §4 and
 *    Appendix C solved with the in-tree MILP solver.
 *
 * Every scheme consumes the application set plus the (post-failure)
 * cluster state and produces a target state, the agent action sequence
 * that reaches it, and its own planning time.
 */

#ifndef PHOENIX_CORE_SCHEMES_H
#define PHOENIX_CORE_SCHEMES_H

#include <memory>
#include <string>
#include <vector>

#include "core/packing.h"
#include "lp/model.h"
#include "core/planner.h"
#include "obs/registry.h"
#include "sim/cluster.h"
#include "sim/metrics.h"

namespace phoenix::core {

/** Output of one scheme invocation. */
struct SchemeResult
{
    /** Ranked activation list (empty for schemes with no notion of
     * ranking, e.g. Default). */
    GlobalRank plan;
    /** Packing outcome: final planned state + action sequence. */
    PackResult pack;
    /** Wall-clock seconds spent planning (planner or LP solve). */
    double planSeconds = 0.0;
    /** Wall-clock seconds spent in placement. */
    double packSeconds = 0.0;
    /** The scheme failed to produce any plan (e.g. LP timeout). */
    bool failed = false;
    /** LP schemes only: the solve proved optimality (not just a
     * feasible incumbent cut off by a time/node limit). Differential
     * checks that compare against "the optimum" must gate on this. */
    bool provenOptimal = false;
    /** Deterministic planner operation counts (packing counts live in
     * pack.ops). Zero for schemes that bypass the planner. */
    OpCounters planOps;

    sim::ActiveSet
    activeSet(const std::vector<sim::Application> &apps) const
    {
        return sim::activeSetFromCluster(apps, pack.state);
    }
};

/** Common interface for all resilience schemes. */
class ResilienceScheme
{
  public:
    virtual ~ResilienceScheme() = default;

    virtual std::string name() const = 0;

    /** Plan (and virtually place) against the post-failure state. */
    virtual SchemeResult apply(const std::vector<sim::Application> &apps,
                               const sim::ClusterState &current) = 0;

    /**
     * No-op with no caller in the library: every scheme plans from the
     * full observed state, so none needs a changed-node hint. Kept
     * only so decorators built against the older interface still
     * compile; slated for removal.
     *
     * The epoch benchmark's decorators, which override this, also
     * keep two forecast leftovers alive: ForecastHook's cached-plan
     * query (a no-op the controller never calls) and
     * ForecastCounters' warmApplies / stalePlans (always 0). All three
     * go in the next change that may edit that benchmark.
     */
    virtual void
    noteDirtyNodes(const std::vector<sim::NodeId> &nodes)
    {
        (void)nodes;
    }
};

/** Which operator objective a Phoenix/LP scheme optimizes. */
enum class Objective { Fair, Cost };

/** Phoenix: criticality-aware planner + three-stage packing. */
class PhoenixScheme : public ResilienceScheme
{
  public:
    explicit PhoenixScheme(Objective objective,
                           PlannerOptions planner_options = {},
                           PackingOptions packing_options = {});

    std::string name() const override
    {
        return objective_ == Objective::Fair ? "PhoenixFair"
                                             : "PhoenixCost";
    }

    SchemeResult apply(const std::vector<sim::Application> &apps,
                       const sim::ClusterState &current) override;

  private:
    Objective objective_;
    // Long-lived so their scratch arenas survive across apply() calls
    // (one controller epoch after another): steady-state planning and
    // packing allocate nothing for bookkeeping.
    Planner planner_;
    PackingScheduler packer_;
    /** Observability handles (obs::Registry; additive, excluded from
     * canonical metric strings). */
    struct
    {
        obs::LogHistogram *reconcileSeconds = nullptr;
    } obs_;
};

/**
 * Non-cooperative baseline "Fair": water-fill fair share per app with
 * no criticality awareness; apps activate services in dependency/id
 * order strictly within their share.
 */
class FairScheme : public ResilienceScheme
{
  public:
    std::string name() const override { return "Fair"; }
    SchemeResult apply(const std::vector<sim::Application> &apps,
                       const sim::ClusterState &current) override;

  private:
    PackingScheduler packer_;
};

/**
 * Non-cooperative baseline "Priority": applications expose criticality
 * tags but the operator enforces no per-application quota; containers
 * merge purely by tag.
 */
class PriorityScheme : public ResilienceScheme
{
  public:
    std::string name() const override { return "Priority"; }
    SchemeResult apply(const std::vector<sim::Application> &apps,
                       const sim::ClusterState &current) override;

  private:
    Planner planner_;
    PackingScheduler packer_;
};

/**
 * Kubernetes default behaviour: restart failed pods in id order with
 * spread (worst-fit) placement; never deletes or migrates; ignores
 * criticality and dependencies.
 */
class DefaultScheme : public ResilienceScheme
{
  public:
    std::string name() const override { return "Default"; }
    SchemeResult apply(const std::vector<sim::Application> &apps,
                       const sim::ClusterState &current) override;
};

/** Options for the exact LP baselines. */
struct LpSchemeOptions
{
    double timeLimitSec = 60.0;
    long maxNodes = 2000;
    /** Refuse instances with more than this many y_ijk variables (the
     * paper's LPs stop scaling near 1000-node clusters; this keeps the
     * failure mode explicit instead of hanging). */
    size_t maxPlacementVars = 2000000;
};

/** LPFair / LPCost (Appendix C) via branch & bound. */
class LpScheme : public ResilienceScheme
{
  public:
    explicit LpScheme(Objective objective, LpSchemeOptions options = {})
        : objective_(objective), options_(options)
    {
    }

    std::string name() const override
    {
        return objective_ == Objective::Fair ? "LPFair" : "LPCost";
    }

    SchemeResult apply(const std::vector<sim::Application> &apps,
                       const sim::ClusterState &current) override;

  private:
    Objective objective_;
    LpSchemeOptions options_;
    /** Variable id of LPFair's F (set during model build). */
    lp::VarId fVar_ = -1;
};

/**
 * Compute the action sequence that transforms @p from into @p to
 * (deletes, then migrations, then restarts).
 */
std::vector<Action> diffStates(const std::vector<sim::Application> &apps,
                               const sim::ClusterState &from,
                               const sim::ClusterState &to);

/** Instantiate every scheme evaluated in the paper, in figure order. */
std::vector<std::unique_ptr<ResilienceScheme>>
makeAllSchemes(bool include_lps, LpSchemeOptions lp_options = {});

} // namespace phoenix::core

#endif // PHOENIX_CORE_SCHEMES_H
