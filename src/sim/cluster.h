/**
 * @file
 * Cluster state: nodes with capacities and health, and the assignment of
 * microservice pods to nodes. This is the substrate both the Phoenix
 * scheduler (which plans on a copy) and the mini-Kubernetes layer (which
 * holds the live state) operate on.
 *
 * Pods live in one dense slot table in PodRef order. A sim::PodIndex
 * maps PodRefs to slots; states treat it as immutable and every copy of
 * a state shares it, so a copy is a handful of flat vector copies.
 */

#ifndef PHOENIX_SIM_CLUSTER_H
#define PHOENIX_SIM_CLUSTER_H

#include <cstddef>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "sim/types.h"

namespace phoenix::sim {

/** A pod's fixed position in a PodIndex (and in every state using it). */
using Slot = uint32_t;
constexpr Slot kNoSlot = std::numeric_limits<Slot>::max();
constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/**
 * PodRef -> slot map, immutable once a state holds it. Slots run in
 * PodRef order: app a's service m holds slots [rowSlot[appRow[a] + m],
 * rowSlot[appRow[a] + m + 1]), one per replica. A row is one (app, ms)
 * service. The reverse map keeps 4 bytes per slot, its row; pod(slot)
 * derives the PodRef from the row's app and first slot.
 */
class PodIndex
{
  public:
    static constexpr size_t kNoRow = std::numeric_limits<size_t>::max();

    /** The empty index. */
    PodIndex() = default;

    /** Index over every pod of @p apps: position a is AppId a, position
     * m of its services is MsId m, max(replicas, 1) slots each. */
    static std::shared_ptr<const PodIndex>
    of(const std::vector<Application> &apps);

    /** A shared empty index (what default-constructed states use). */
    static const std::shared_ptr<const PodIndex> &empty();

    /** Add @p apps as apps appCount(), appCount() + 1, ...: position m
     * of each one's services is MsId m, max(replicas, 1) slots each.
     * An empty index is sized exactly for the batch; a non-empty one
     * grows at least twofold when it must move, so appends stay
     * O(their slots) amortized. Earlier slots keep their numbers, but a
     * state sized to this index would no longer match it, so only an
     * owner sharing it with nothing may append. */
    void append(std::span<const Application> apps);

    size_t slotCount() const { return slotRow_.size(); }
    size_t rowCount() const { return rowSlot_.size() - 1; }
    size_t appCount() const { return appRow_.size() - 1; }

    /** Row of service (app, ms), or kNoRow. */
    size_t
    rowOf(AppId app, MsId ms) const
    {
        if (static_cast<size_t>(app) + 1 >= appRow_.size())
            return kNoRow;
        const size_t first = appRow_[app];
        if (ms >= appRow_[app + 1] - first)
            return kNoRow;
        return first + ms;
    }

    /** Slot of @p pod, or kNoSlot when the index does not hold it. */
    Slot
    slotOf(const PodRef &pod) const
    {
        const size_t row = rowOf(pod.app, pod.ms);
        if (row == kNoRow)
            return kNoSlot;
        const Slot first = rowSlot_[row];
        if (pod.replica >= rowSlot_[row + 1] - first)
            return kNoSlot;
        return first + pod.replica;
    }

    /** First slot of @p row; row + 1's first slot ends the row's range
     * (firstSlot(rowCount()) == slotCount()). */
    Slot firstSlot(size_t row) const { return rowSlot_[row]; }

    /** Row (service) holding @p slot. */
    size_t rowOfSlot(Slot slot) const { return slotRow_[slot]; }

    PodRef
    pod(Slot slot) const
    {
        const uint32_t row = slotRow_[slot];
        const AppId app = rowApp_[row];
        return PodRef{app, static_cast<MsId>(row - appRow_[app]),
                      slot - rowSlot_[row]};
    }

    /** True when every pod of @p apps has a slot. */
    bool covers(const std::vector<Application> &apps) const;

    /** The smallest index holding every pod of this one and @p pod. */
    std::shared_ptr<const PodIndex> widenedBy(const PodRef &pod) const;
    /** The smallest index holding every pod of this one and of
     * @p apps. */
    std::shared_ptr<const PodIndex>
    widenedBy(const std::vector<Application> &apps) const;

  private:
    /** Slots per service per app: shape[a][m]. */
    using Shape = std::vector<std::vector<Slot>>;
    Shape shape() const;
    static std::shared_ptr<const PodIndex> build(const Shape &shape);

    /** Append one app's rows and their slots, slotsOf(m) for row m. */
    template <typename SlotsOf>
    void appendApp(size_t services, SlotsOf slotsOf);

    std::vector<size_t> appRow_{0}; //!< app -> first row (apps + 1)
    std::vector<Slot> rowSlot_{0};  //!< row -> first slot (rows + 1)
    std::vector<AppId> rowApp_;     //!< row -> app
    std::vector<uint32_t> slotRow_; //!< slot -> row
};

/** A server. */
struct Node
{
    NodeId id = 0;
    double capacity = 0.0;
    bool healthy = true;
    /** Failure-domain label (availability zone); static for the
     * node's lifetime. Zone 0 when the deployment has no topology. */
    uint32_t zone = 0;
};

/**
 * Mutable cluster state. Placement is capacity-checked; the class keeps
 * per-node used counters, per-node pod runs and the slot -> node table
 * consistent at all times. Copying a ClusterState yields an independent
 * scratch copy (used by the packing module, which plans on a copy and
 * defers execution to the agent, §4.2) that shares the PodIndex.
 *
 * Pods are stored node-major: per slot only its node and cpu, and per
 * node one ascending run of its slots in a shared pool. place() and
 * evict() binary-search the run and shift its tail; a run that fills
 * moves to the end of the pool with twice its room, and a copy lays
 * the runs out back to back, each full. Every walk runs in PodRef
 * order: podsOn(n) because runs are ascending, assignment() because it
 * scans the slot table. A place() of a pod the index does not hold
 * first widens the index and remaps the placed slots (O(slots));
 * producers that know their applications index from them up front
 * instead, and producers that place most of a state at once do it in
 * one placeAll() batch, which lays every run out once.
 */
class ClusterState
{
    /** One node's slots: pool_[begin, begin + size), ascending, with
     * room for cap before the run must move. */
    struct Run
    {
        uint32_t begin = 0;
        uint32_t size = 0;
        uint32_t cap = 0;
    };

  public:
    /** (PodRef, cpu) of every pod on one node, in PodRef order. */
    class PodsOnView
    {
      public:
        class const_iterator
        {
          public:
            using iterator_category = std::input_iterator_tag;
            using value_type = std::pair<PodRef, double>;
            using difference_type = std::ptrdiff_t;
            using reference = value_type;
            using pointer = void;

            const_iterator(const ClusterState *state, const Slot *at)
                : state_(state), at_(at)
            {
            }
            value_type
            operator*() const
            {
                return {state_->index_->pod(*at_), state_->slotCpu_[*at_]};
            }
            const_iterator &
            operator++()
            {
                ++at_;
                return *this;
            }
            bool
            operator==(const const_iterator &other) const
            {
                return at_ == other.at_;
            }

          private:
            const ClusterState *state_;
            const Slot *at_;
        };

        PodsOnView(const ClusterState &state, NodeId node)
            : state_(&state), run_(&state.runs_.at(node))
        {
        }
        const_iterator
        begin() const
        {
            return {state_, state_->pool_.data() + run_->begin};
        }
        const_iterator
        end() const
        {
            return {state_, state_->pool_.data() + run_->begin + run_->size};
        }
        size_t size() const { return run_->size; }
        bool empty() const { return run_->size == 0; }

      private:
        const ClusterState *state_;
        const Run *run_;
    };

    /** (PodRef, NodeId) of every placed pod, in PodRef order. */
    class AssignmentView
    {
      public:
        class const_iterator
        {
          public:
            using iterator_category = std::input_iterator_tag;
            using value_type = std::pair<PodRef, NodeId>;
            using difference_type = std::ptrdiff_t;
            using reference = value_type;
            using pointer = void;

            const_iterator(const ClusterState *state, Slot slot)
                : state_(state), slot_(slot)
            {
                skipEmpty();
            }
            value_type
            operator*() const
            {
                return {state_->index_->pod(slot_),
                        state_->slotNode_[slot_]};
            }
            const_iterator &
            operator++()
            {
                ++slot_;
                skipEmpty();
                return *this;
            }
            bool
            operator==(const const_iterator &other) const
            {
                return slot_ == other.slot_;
            }

          private:
            void
            skipEmpty()
            {
                const auto &nodes = state_->slotNode_;
                while (slot_ < nodes.size() && nodes[slot_] == kNoNode)
                    ++slot_;
            }

            const ClusterState *state_;
            Slot slot_;
        };

        explicit AssignmentView(const ClusterState &state) : state_(&state)
        {
        }
        const_iterator begin() const { return {state_, 0}; }
        const_iterator
        end() const
        {
            return {state_, static_cast<Slot>(state_->slotNode_.size())};
        }
        size_t size() const { return state_->active_; }
        bool empty() const { return state_->active_ == 0; }

        /** Same placed pods on the same nodes (the states' indexes may
         * differ). */
        friend bool operator==(const AssignmentView &a,
                               const AssignmentView &b);

      private:
        const ClusterState *state_;
    };

    /** An empty state over the empty index. */
    ClusterState();
    /** An empty state whose pods take their slots from @p index. */
    explicit ClusterState(std::shared_ptr<const PodIndex> index);
    /** An independent copy whose runs lie back to back, each full. */
    ClusterState(const ClusterState &other);
    ClusterState &operator=(const ClusterState &other);
    ClusterState(ClusterState &&) = default;
    ClusterState &operator=(ClusterState &&) = default;

    /** Add a node with the given capacity; returns its id. */
    NodeId addNode(double capacity, uint32_t zone = 0);
    /** Reserve room for @p count nodes (no reallocation while adding
     * up to that many). */
    void reserveNodes(size_t count);

    size_t nodeCount() const { return nodes_.size(); }
    const Node &node(NodeId id) const { return nodes_.at(id); }
    uint32_t zoneOf(NodeId id) const { return nodes_.at(id).zone; }
    /** Number of distinct failure domains: max zone label + 1. */
    size_t zoneCount() const;

    /** Mark a node failed and evict everything on it.
     *  @return the pods that were evicted, in PodRef order. */
    std::vector<PodRef> failNode(NodeId id);

    /** Bring a failed node back (empty). */
    void restoreNode(NodeId id);

    /**
     * Resize a node's capacity in place (degraded-node modeling: a
     * slow-not-dead node offers capacity * factor). The new capacity
     * is clamped up to the node's current usage so existing
     * placements stay valid — degradation never evicts.
     */
    void setNodeCapacity(NodeId id, double capacity);

    bool isHealthy(NodeId id) const { return nodes_.at(id).healthy; }

    /**
     * Place a pod consuming @p cpu on a node. Fails (returns false)
     * when the node is out of range or unhealthy, the pod is already
     * placed somewhere, or capacity would be exceeded — checked in
     * that order. A binary search and a shift within the node's run,
     * so appends in PodRef order are O(1) while the run has room.
     */
    bool place(const PodRef &pod, NodeId node, double cpu);

    /**
     * Place a batch of pods: @p batch gets a callable place(pod, node,
     * cpu) that checks and books each pod exactly as place() does (so
     * used() sums in the batch's order), and every node's run is laid
     * out once when the batch returns, each exactly full, instead of
     * taking one insertion per pod. For producers that place most of a
     * state at once, in any order. While @p batch runs, only that
     * callable, used() and remaining() may touch this state.
     */
    template <typename Batch>
    void
    placeAll(Batch batch)
    {
        batch([this](const PodRef &pod, NodeId node, double cpu) {
            return book(pod, node, cpu) != kNoSlot;
        });
        layOutFromSlots();
    }

    /** Remove a pod; returns false when it was not placed. */
    bool evict(const PodRef &pod);

    /** Node currently hosting the pod, if any. */
    std::optional<NodeId>
    nodeOf(const PodRef &pod) const
    {
        const Slot slot = index_->slotOf(pod);
        if (slot == kNoSlot || slotNode_[slot] == kNoNode)
            return std::nullopt;
        return slotNode_[slot];
    }

    bool
    isActive(const PodRef &pod) const
    {
        const Slot slot = index_->slotOf(pod);
        return slot != kNoSlot && slotNode_[slot] != kNoNode;
    }

    double used(NodeId id) const { return used_.at(id); }
    double
    remaining(NodeId id) const
    {
        const Node &n = nodes_.at(id);
        return n.healthy ? n.capacity - used_.at(id) : 0.0;
    }

    /** Pods on a node with their sizes, in PodRef order. The view
     * points into this state and must not outlive it. */
    PodsOnView podsOn(NodeId id) const { return PodsOnView(*this, id); }

    /** All placed pods with their node, in PodRef order. The view
     * points into this state and must not outlive it. */
    AssignmentView assignment() const { return AssignmentView(*this); }

    /** CPU size recorded for a placed pod (0 when not placed). */
    double
    podCpu(const PodRef &pod) const
    {
        const Slot slot = index_->slotOf(pod);
        if (slot == kNoSlot || slotNode_[slot] == kNoNode)
            return 0.0;
        return slotCpu_[slot];
    }

    /** The index this state's slots follow (shared by its copies). */
    const std::shared_ptr<const PodIndex> &
    podIndex() const
    {
        return index_;
    }
    /** Node hosting @p slot of podIndex(), or kNoNode. */
    NodeId slotNode(Slot slot) const { return slotNode_[slot]; }
    /** CPU of the pod in @p slot (meaningful while it is placed). */
    double slotCpu(Slot slot) const { return slotCpu_[slot]; }

    /** Widen the index so every pod of @p apps has a slot, remapping
     * the placed ones; a no-op when it already covers them. */
    void coverApps(const std::vector<Application> &apps);

    std::vector<NodeId> healthyNodes() const;

    double totalCapacity() const;
    double healthyCapacity() const;
    double usedCapacity() const;

    /** Fraction of healthy capacity in use (operator utilization). */
    double utilization() const;

  private:
    /** place()'s checks and bookkeeping, runs aside: the pod's slot,
     * or kNoSlot when it is refused. */
    Slot book(const PodRef &pod, NodeId node, double cpu);
    /** Rebuild every run from the slot table, back to back and each
     * exactly full. */
    void layOutFromSlots();
    /** Move every slot onto @p wider, which holds all of index_. */
    void reindex(std::shared_ptr<const PodIndex> wider);
    /** Insert @p slot into @p node's run, keeping it ascending. */
    void link(Slot slot, NodeId node);
    void unlink(Slot slot);
    /** Move @p run, which is full, to the end of the pool with twice
     * its room. */
    void growRun(Run &run);
    /** Rebuild the pool from @p from, which runs_ describes, every run
     * back to back and exactly full. */
    void copyRuns(const std::vector<Slot> &from);

    std::shared_ptr<const PodIndex> index_;
    std::vector<Node> nodes_;
    std::vector<double> used_;
    std::vector<Run> runs_;         //!< node -> its run in pool_
    std::vector<NodeId> slotNode_;  //!< slot -> node, or kNoNode
    std::vector<double> slotCpu_;   //!< slot -> cpu (while placed)
    std::vector<Slot> pool_;        //!< the runs, and room they left
    size_t active_ = 0;
};

} // namespace phoenix::sim

#endif // PHOENIX_SIM_CLUSTER_H
