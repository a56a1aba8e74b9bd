/**
 * @file
 * Topology placement constraints: the vacancy allocator.
 *
 * YTsaurus-style bookkeeping for anti-affinity and zone-spread: every
 * constrained scope (one per constrained microservice, one per
 * declared placement group) carries per-node and per-zone member
 * counts, maintained incrementally as the packer places and evicts
 * pods. A placement is feasible when every scope the pod belongs to
 * still has vacancy on the target node and in the target's zone.
 *
 * The allocator also owns the per-epoch PodDisruptionBudget ledger:
 * preemption must ask pdbAllows() before deleting a victim and
 * consumePdb() when it does; the budget is never refunded inside an
 * epoch (a rolled-back attempt leaves it conservatively spent), which
 * keeps the oracle's "deletes per service <= budget" predicate sound.
 *
 * Determinism: all lookups are O(1) against dense vectors or hash
 * maps that are only ever probed by key — nothing iterates a hash
 * container — so the reference and flat packers consulting the
 * allocator make byte-identical decisions. When no application
 * declares a constraint the allocator is empty() and every query
 * short-circuits, leaving the unconstrained hot path untouched.
 */

#ifndef PHOENIX_CORE_CONSTRAINTS_H
#define PHOENIX_CORE_CONSTRAINTS_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/cluster.h"
#include "sim/types.h"

namespace phoenix::core {

class VacancyAllocator
{
  public:
    /**
     * Rebuild the scope table from the app descriptors and seed the
     * member counts from the state's current assignment. PodRef.app is
     * the app *position* (the convention everywhere in the scheduler).
     */
    void build(const std::vector<sim::Application> &apps,
               const sim::ClusterState &state);

    /** True when no app declares any placement constraint; every
     * other query is a no-op / "feasible" in that case. */
    bool empty() const { return empty_; }

    /** True when this pod belongs to at least one constrained scope
     * (placement caps; PDB alone does not constrain placement). */
    bool
    constrained(const sim::PodRef &pod) const
    {
        if (empty_)
            return false;
        const size_t ms = msIdx(pod.app, pod.ms);
        return ms != kNoIndex && (serviceScope_[ms] >= 0 ||
                                  groupScope_[ms] >= 0);
    }

    /** Every scope of @p pod has node and zone vacancy on @p node. */
    bool canPlace(const sim::PodRef &pod, sim::NodeId node) const;

    /** Record a placement / eviction in the member counts. */
    void onPlace(const sim::PodRef &pod, sim::NodeId node);
    void onEvict(const sim::PodRef &pod, sim::NodeId node);

    /** Remaining PodDisruptionBudget for the pod's service allows one
     * more preemption delete. */
    bool pdbAllows(const sim::PodRef &pod) const;
    /** Count of further preemption deletes the service's budget
     * allows (INT_MAX-like large value when unlimited). */
    int pdbRemaining(const sim::PodRef &pod) const;
    /** Consume one unit of the service's disruption budget. */
    void consumePdb(const sim::PodRef &pod);

  private:
    static constexpr size_t kNoIndex = static_cast<size_t>(-1);

    struct Scope
    {
        int maxPerNode = 0; //!< 0 = unlimited
        int maxPerZone = 0; //!< 0 = unlimited
        /** zone -> member count (dense; zones are few). */
        std::vector<int> zoneCount;
        /** (node -> member count); probed by key only, never
         * iterated, so hashing order cannot leak into decisions. */
        std::unordered_map<sim::NodeId, int> nodeCount;
    };

    size_t
    msIdx(sim::AppId app, sim::MsId ms) const
    {
        if (static_cast<size_t>(app) + 1 >= msBase_.size())
            return kNoIndex;
        const size_t base = msBase_[app];
        if (ms >= msBase_[app + 1] - base)
            return kNoIndex;
        return base + ms;
    }

    bool scopeHasVacancy(const Scope &s, sim::NodeId node) const;
    void scopeAdd(Scope &s, sim::NodeId node, int delta);

    bool empty_ = true;
    std::vector<size_t> msBase_;    //!< app position -> first msIdx
    std::vector<int> serviceScope_; //!< msIdx -> scope id or -1
    std::vector<int> groupScope_;   //!< msIdx -> scope id or -1
    std::vector<int> pdbBudget_;    //!< msIdx -> remaining; <0 = unlim
    std::vector<Scope> scopes_;
    std::vector<uint32_t> nodeZone_; //!< node -> zone label
};

} // namespace phoenix::core

#endif // PHOENIX_CORE_CONSTRAINTS_H
