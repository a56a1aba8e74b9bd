/**
 * @file
 * Phoenix planner (§4.1, Algorithm 1).
 *
 * Two sub-modules:
 *  - PriorityEstimator: per-application activation order from criticality
 *    tags and (optionally) the dependency graph, via a criticality-keyed
 *    preorder traversal.
 *  - GlobalRanking: merges per-app orders into one cluster-wide order
 *    under an operator objective (fairness or revenue), stopping at the
 *    aggregate capacity.
 */

#ifndef PHOENIX_CORE_PLANNER_H
#define PHOENIX_CORE_PLANNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/op_counters.h"
#include "graph/digraph.h"
#include "sim/types.h"
#include "util/heap.h"

namespace phoenix::core {

/** Per-application activation order: AppRank[a] lists ms ids of app a
 * from most to least important. */
using AppRank = std::vector<std::vector<sim::MsId>>;

/** Cluster-wide activation order. */
using GlobalRank = std::vector<sim::PodRef>;

/**
 * Operator objective used by the global ranking (Alg. 1's Obj): scores
 * the head container of an application given the allocation so far.
 * Lower scores are popped first.
 */
class OperatorObjective
{
  public:
    virtual ~OperatorObjective() = default;

    virtual std::string name() const = 0;

    /** Called once before ranking with app demands and capacity. */
    virtual void
    begin(const std::vector<sim::Application> &apps, double capacity)
    {
        (void)apps;
        (void)capacity;
    }

    /**
     * Priority key for activating microservice @p ms of app @p app next,
     * given resources already granted to that app. Smaller keys pop
     * first.
     */
    virtual double key(const sim::Application &app,
                       const sim::Microservice &ms,
                       double app_usage_so_far) const = 0;

    /** Notify that the container was granted its resources. */
    virtual void
    granted(const sim::Application &app, const sim::Microservice &ms)
    {
        (void)app;
        (void)ms;
    }
};

/**
 * Revenue objective: containers from applications paying more per unit
 * resource rank first (§4.1 "Cost-Based").
 */
class CostObjective : public OperatorObjective
{
  public:
    std::string name() const override { return "cost"; }
    double key(const sim::Application &app, const sim::Microservice &ms,
               double app_usage_so_far) const override;
};

/**
 * Fairness objective: pick the container whose activation deviates
 * least from the pre-computed water-fill fair share (§4.1
 * "Fairness-Based").
 */
class FairObjective : public OperatorObjective
{
  public:
    std::string name() const override { return "fair"; }
    void begin(const std::vector<sim::Application> &apps,
               double capacity) override;
    double key(const sim::Application &app, const sim::Microservice &ms,
               double app_usage_so_far) const override;

  private:
    std::vector<double> fairShare_;
};

/**
 * Weighted fairness objective: like FairObjective but tenants carry
 * weights (e.g. paid tiers), and shares grow in proportion to weight
 * (weighted water-filling). Weights index by application id; missing
 * entries default to 1. An example of the paper's "operator can define
 * any monotonically increasing F" extensibility claim.
 */
class WeightedFairObjective : public OperatorObjective
{
  public:
    explicit WeightedFairObjective(std::vector<double> weights)
        : weights_(std::move(weights))
    {
    }

    std::string name() const override { return "weighted-fair"; }
    void begin(const std::vector<sim::Application> &apps,
               double capacity) override;
    double key(const sim::Application &app, const sim::Microservice &ms,
               double app_usage_so_far) const override;

  private:
    std::vector<double> weights_;
    std::vector<double> fairShare_;
};

/** Planner configuration. */
struct PlannerOptions
{
    /**
     * Algorithm 1 as written stops emitting once the next container no
     * longer fits the aggregate remaining capacity ("else break").
     * With heterogeneous container sizes that strands capacity behind
     * the first large container and collapses availability, so the
     * default (false) instead drops only the non-fitting container's
     * application (its lower-priority containers may not jump the
     * queue) and keeps ranking the rest. Set true for the
     * paper-literal break (ablation).
     */
    bool stopAtFirstOverflow = false;

    /**
     * The paper's pseudocode descends the DFS into any child with
     * tags(child) >= tags(node); that eager descent can rank a C5
     * container ahead of a sibling C2 and so violates the Eq. 1
     * invariant the text claims. The default (false) descends only
     * into equal-tag children and defers the rest to the
     * criticality-keyed queue, which provably emits nodes in
     * non-decreasing criticality order while preserving the
     * topological property. Set true for the literal pseudocode
     * (ablation).
     */
    bool eagerDfsDescend = false;
};

/**
 * Reusable planner working memory: per-application sorted-CSR caches,
 * DFS/ranking heaps, and the assorted dense index buffers. Owned by
 * Planner and recycled across plan() calls, so a long-lived planner
 * (one controller epoch after another) allocates nothing on the hot
 * path once the buffers have grown to the workload's size.
 */
struct PlanScratch
{
    std::vector<graph::SortedCsr> csr; //!< per-app sorted adjacency
    std::vector<int> keys;             //!< per-ms criticality tags
    std::vector<uint8_t> visited;
    std::vector<sim::MsId> stack;      //!< DFS stack
    std::vector<uint32_t> counts;      //!< counting-sort histogram
    util::IndexedDaryHeap<int> dfsQueue;    //!< (tag, ms) queue
    util::IndexedDaryHeap<double> appQueue; //!< (key, app) queue
    std::vector<double> usage;   //!< per-app granted resources
    std::vector<size_t> cursor;  //!< per-app rank position
    AppRank appRank;             //!< plan()'s per-app rank buffer
};

/**
 * Effective criticality of a microservice: the tag for subscribed
 * applications, C1 for everything else (§5 Partial Tagging — an
 * unsubscribed or untagged container may never be degraded in favour
 * of a tagged one).
 */
inline sim::Criticality
effectiveCriticality(const sim::Application &app,
                     const sim::Microservice &ms)
{
    return app.phoenixEnabled ? ms.criticality : sim::kC1;
}

/**
 * Phoenix planner: produces the per-app ranking and the global ranked
 * list of containers to activate within the available capacity.
 */
class Planner
{
  public:
    explicit Planner(PlannerOptions options = PlannerOptions())
        : options_(options)
    {
    }

    /**
     * PriorityEstimator (Alg. 1 lines 5-20): per-application activation
     * order honouring criticality and, when a DG is present, topology.
     */
    static AppRank priorityEstimator(
        const std::vector<sim::Application> &apps,
        PlannerOptions options = PlannerOptions());

    /** Buffer-reusing PriorityEstimator: fills @p out in place. */
    void priorityEstimatorInto(const std::vector<sim::Application> &apps,
                               AppRank &out) const;

    /**
     * GetGlobalRank (Alg. 1 lines 21-29): merge per-app orders under
     * the operator objective within @p capacity aggregate resources.
     */
    GlobalRank globalRank(const std::vector<sim::Application> &apps,
                          const AppRank &app_rank,
                          OperatorObjective &objective,
                          double capacity) const;

    /** Buffer-reusing GetGlobalRank: fills @p out in place. */
    void globalRankInto(const std::vector<sim::Application> &apps,
                        const AppRank &app_rank,
                        OperatorObjective &objective, double capacity,
                        GlobalRank &out) const;

    /** Convenience: full Alg. 1 (estimate then rank). */
    GlobalRank plan(const std::vector<sim::Application> &apps,
                    OperatorObjective &objective, double capacity) const;

    /** Buffer-reusing full Alg. 1: fills @p out in place. */
    void planInto(const std::vector<sim::Application> &apps,
                  OperatorObjective &objective, double capacity,
                  GlobalRank &out) const;

    /** Operation counts accumulated by the most recent plan()/
     * globalRank()/priorityEstimatorInto() call. */
    const OpCounters &lastOps() const { return ops_; }

  private:
    PlannerOptions options_;
    // plan() stays const for callers; the scratch arena and counters
    // are implementation state (the planner is single-threaded).
    mutable PlanScratch scratch_;
    mutable OpCounters ops_;
};

} // namespace phoenix::core

#endif // PHOENIX_CORE_PLANNER_H
