/**
 * @file
 * Topology placement constraints: the vacancy allocator.
 *
 * YTsaurus-style bookkeeping for anti-affinity and zone-spread: every
 * constrained scope (one per constrained microservice, one per
 * declared placement group) carries per-node and per-zone member
 * counts, maintained incrementally as pods are placed and evicted. A
 * placement is feasible when every scope the pod belongs to still has
 * vacancy on the target node and in the target's zone. The packer,
 * DefaultScheme and the kube scheduler all ask this one allocator.
 * Scopes are keyed by the rows of the caller's sim::PodIndex; callers
 * pass each node's zone, and zone counts grow on demand, so nodes and
 * zones may appear after build().
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
 * short-circuits on that one branch.
 */

#ifndef PHOENIX_SIM_VACANCY_H
#define PHOENIX_SIM_VACANCY_H

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/cluster.h"
#include "sim/types.h"

namespace phoenix::sim {

class VacancyAllocator
{
  public:
    /**
     * Rebuild the scope table from the app descriptors over the rows
     * of @p index, which must cover @p apps; every count starts at 0.
     * When no app is constrained the allocator keeps no index, and
     * @p index may be null. PodRef.app is the app *position* (the
     * convention everywhere in the scheduler).
     */
    void build(const std::vector<Application> &apps,
               std::shared_ptr<const PodIndex> index);
    /** build() over the state's index, seeded from its placed pods. */
    void build(const std::vector<Application> &apps,
               const ClusterState &state);

    /** True when no app declares any placement constraint; every
     * other query is a no-op / "feasible" in that case. */
    bool empty() const { return empty_; }

    /** True when this pod belongs to at least one constrained scope
     * (placement caps; PDB alone does not constrain placement). */
    bool
    constrained(const PodRef &pod) const
    {
        if (empty_)
            return false;
        const size_t row = index_->rowOf(pod.app, pod.ms);
        return row != PodIndex::kNoRow &&
               (serviceScope_[row] >= 0 || groupScope_[row] >= 0);
    }

    /** Every scope of @p pod has vacancy on @p node (in @p zone). */
    bool
    canPlace(const PodRef &pod, NodeId node, uint32_t zone) const
    {
        return empty_ || vacant(pod, node, zone);
    }

    /** Record a placement / eviction on @p node (in @p zone). */
    void
    onPlace(const PodRef &pod, NodeId node, uint32_t zone)
    {
        if (!empty_)
            add(pod, node, zone, 1);
    }
    void
    onEvict(const PodRef &pod, NodeId node, uint32_t zone)
    {
        if (!empty_)
            add(pod, node, zone, -1);
    }

    /** Same scopes holding the same per-node and per-zone counts. */
    bool sameCounts(const VacancyAllocator &other) const;

    /** Remaining PodDisruptionBudget for the pod's service allows one
     * more preemption delete. */
    bool pdbAllows(const PodRef &pod) const { return pdbRemaining(pod) > 0; }
    /** Count of further preemption deletes the service's budget
     * allows (INT_MAX-like large value when unlimited). */
    int pdbRemaining(const PodRef &pod) const;
    /** Consume one unit of the service's disruption budget. */
    void consumePdb(const PodRef &pod);

  private:
    struct Scope
    {
        int maxPerNode = 0; //!< 0 = unlimited
        int maxPerZone = 0; //!< 0 = unlimited
        /** zone -> member count; absent zones count 0. */
        std::vector<int> zoneCount;
        /** (node -> member count); probed by key only, never
         * iterated, so hashing order cannot leak into decisions. */
        std::unordered_map<NodeId, int> nodeCount;
    };

    static int zoneMembers(const Scope &s, uint32_t zone);
    bool vacant(const PodRef &pod, NodeId node, uint32_t zone) const;
    void add(const PodRef &pod, NodeId node, uint32_t zone, int delta);

    bool empty_ = true;
    std::shared_ptr<const PodIndex> index_;
    std::vector<int> serviceScope_; //!< row -> scope id or -1
    std::vector<int> groupScope_;   //!< row -> scope id or -1
    std::vector<int> pdbBudget_;    //!< row -> remaining; <0 = unlim
    std::vector<Scope> scopes_;
};

} // namespace phoenix::sim

#endif // PHOENIX_SIM_VACANCY_H
