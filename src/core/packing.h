/**
 * @file
 * Phoenix scheduler packing module (§4.2, Algorithm 2 in Appendix B).
 *
 * Maps the planner's globally ranked container list onto the healthy
 * nodes of the cluster with a three-pronged heuristic: best-fit, then
 * repacking (migrating smaller containers off a target node), then
 * deletion of lower-ranked containers. All work happens on a copy of
 * the cluster state; execution is deferred to the agent, which replays
 * the emitted action sequence.
 */

#ifndef PHOENIX_CORE_PACKING_H
#define PHOENIX_CORE_PACKING_H

#include <memory>
#include <vector>

#include "core/op_counters.h"
#include "core/planner.h"
#include "sim/cluster.h"

namespace phoenix::core {

struct PackScratch; // reusable packer working memory (packing.cc)

/** One step the agent must execute against the cluster scheduler. */
enum class ActionKind {
    Delete,  //!< turn a (non-critical) container off
    Migrate, //!< move a running container between nodes
    Restart, //!< (re)start a container impacted by failure
};

struct Action
{
    ActionKind kind = ActionKind::Restart;
    sim::PodRef pod;
    sim::NodeId from = 0; //!< valid for Delete/Migrate
    sim::NodeId to = 0;   //!< valid for Migrate/Restart
};

/** Result of a packing pass. */
struct PackResult
{
    /** True when every ranked container ended up placed. */
    bool complete = false;
    /** Number of ranked containers active in the final state. */
    size_t placed = 0;
    /** Ordered action sequence for the agent. */
    std::vector<Action> actions;
    /** The planned cluster state after applying the actions. */
    sim::ClusterState state;
    /** Deterministic operation counts for this pass (not part of the
     * packing decision; excluded from canonical metric strings). */
    OpCounters ops;
    /** Wall-clock seconds spent building the capacity index and the
     * bookkeeping from scratch before the packing passes. */
    double reconcileSeconds = 0.0;
};

/** Packing configuration (ablation knobs). */
struct PackingOptions
{
    /** Enable the repacking/migration stage (Alg. 2 line 5). */
    bool allowMigrations = true;
    /** Enable deletion of lower-ranked containers (Alg. 2 line 6). */
    bool allowDeletions = true;
    /**
     * Algorithm 2 as written returns None when any ranked container
     * cannot be placed, abandoning everything below it. The default
     * (false) instead skips the unplaceable container together with
     * the rest of *its application* (preserving the intra-app
     * criticality order) and keeps packing other applications —
     * strictly better availability under fragmentation. Set true for
     * the paper-literal behaviour (ablation).
     */
    bool abortOnUnplaceable = false;
};

/**
 * The packing module. pack() plans on a copy of @p current; the only
 * state a scheduler instance keeps is a scratch arena of index buffers
 * that is recycled across calls, so a long-lived scheduler (one
 * controller epoch after another) allocates nothing for bookkeeping in
 * steady state.
 */
class PackingScheduler
{
  public:
    explicit PackingScheduler(PackingOptions options = PackingOptions())
        : options_(options)
    {
    }

    /**
     * Pack the ranked containers onto the cluster.
     *
     * @param apps    application descriptors (for container sizes)
     * @param current live cluster state (failures already applied)
     * @param ranked  planner output, most important first
     */
    PackResult pack(const std::vector<sim::Application> &apps,
                    const sim::ClusterState &current,
                    const GlobalRank &ranked) const;

  private:
    PackingOptions options_;
    // Lazily created in pack(); shared so the scheduler stays
    // copyable (copies share the single-threaded scratch arena).
    mutable std::shared_ptr<PackScratch> scratch_;
};

} // namespace phoenix::core

#endif // PHOENIX_CORE_PACKING_H
