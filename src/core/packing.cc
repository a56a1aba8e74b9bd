#include "packing.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>

#include "core/packer.h"
#include "util/bucketed_kv.h"

namespace phoenix::core {

using detail::kUnranked;
using detail::PackCommon;
using detail::Packer;
using sim::ClusterState;
using sim::NodeId;
using sim::PodRef;
using sim::Slot;

namespace {

/**
 * Flat bookkeeping over the state's sim::PodIndex: the commit set is a
 * bit per slot and the rank index a size_t per row (service), both
 * O(1) with no tree walks or hashing; pod -> node lookups go to the
 * state's slot table. The capacity index is a BucketedKv whose
 * iteration order is byte-identical to the reference multiset, loaded
 * from one sort of the healthy nodes, and written back lazily: it
 * lags the state by at most one node, the last one a placement or
 * eviction touched. Best-fit probes merge that node's current key;
 * scans and the largest-key bounds write it back first; a key that
 * comes back to what the index holds is never written (see kvUpdate).
 * Three O(1) facts let the packer skip walks that cannot succeed: a
 * lower bound on every pod size this pack can see (no pod can move
 * once the emptiest node is below it, so a repack succeeds only where
 * a node has room already), a per-node count of active pods not
 * committed (a node at zero holds no deletion victim), and what the
 * last failed targeted delete saw (a later one over the same index,
 * with no new victim, for a pod no smaller and ranked no higher,
 * fails too; see clearFutile). A second bit per slot marks the start
 * placement, from which the deletion order is built by a row walk when
 * a pack first needs it. Every buffer persists across runs;
 * steady-state packing allocates nothing for bookkeeping. The packer
 * indexes its state from apps before init(), so every pod it can name
 * has a slot.
 */
class FlatBook
{
    static constexpr uint8_t kCommitted = 1;
    static constexpr uint8_t kPlacedAtStart = 2;
    using Pair = std::pair<double, NodeId>;

  public:
    void
    init(const std::vector<sim::Application> &apps,
         const ClusterState &state, const GlobalRank &ranked,
         OpCounters &ops)
    {
        ops_ = &ops;
        state_ = &state;
        podIndex_ = state.podIndex().get();

        rankRow_.assign(podIndex_->rowCount(), kUnranked);
        rankedRows_.resize(ranked.size());
        for (size_t i = 0; i < ranked.size(); ++i) {
            const size_t row =
                podIndex_->rowOf(ranked[i].app, ranked[i].ms);
            rankedRows_[i] = row;
            if (row != sim::PodIndex::kNoRow)
                rankRow_[row] = i; // last writer wins, like map::operator[]
        }

        // Pass 1 places services the input state may not hold, so the
        // size bound covers every service as well as every placed pod.
        // The slot pass also marks the start placement.
        double min_cpu = std::numeric_limits<double>::infinity();
        for (const auto &app : apps) {
            for (const auto &ms : app.services)
                min_cpu = std::min(min_cpu, ms.cpu);
        }
        const size_t slots = podIndex_->slotCount();
        slotBits_.resize(slots);
        for (Slot slot = 0; slot < slots; ++slot) {
            const bool placed = state.slotNode(slot) != sim::kNoNode;
            slotBits_[slot] = placed ? kPlacedAtStart : 0;
            if (placed)
                min_cpu = std::min(min_cpu, state.slotCpu(slot));
        }
        minPodCpu_ = min_cpu;

        // Per-node uncommitted count (nothing is committed yet), and
        // the capacity index: every healthy node keyed by remaining
        // capacity, sorted once and bulk-loaded.
        const size_t node_count = state.nodeCount();
        uncommittedOn_.resize(node_count);
        loadPairs_.clear();
        for (NodeId id = 0; id < node_count; ++id) {
            uncommittedOn_[id] =
                static_cast<uint32_t>(state.podsOn(id).size());
            if (state.isHealthy(id))
                loadPairs_.emplace_back(state.remaining(id), id);
        }
        std::sort(loadPairs_.begin(), loadPairs_.end());
        index_.loadSorted(loadPairs_);
        ops_->kvOps += loadPairs_.size();
        ++writes_;
        pendingNode_ = sim::kNoNode;
        failedClear_.reset();

        parked_.assign(node_count, 0.0);
        parkedTouched_.clear();
    }

    /**
     * Record that @p node's key moved from @p before (what an eager
     * index would hold) to @p after. Only a different node's update
     * writes the index: consecutive placements and evictions on one
     * node (a service's replicas filling it, a targeted delete and the
     * placement it made room for) cost one write-back at most.
     */
    void
    kvUpdate(double before, double after, NodeId node)
    {
        if (node != pendingNode_) {
            flush();
            pendingNode_ = node;
            pendingIndexed_ = before;
        }
        pendingKey_ = after;
    }

    /** The eager index's best fit: the index's first pair at or above
     * @p size other than the pending node's stale one, or the pending
     * node's current pair, whichever orders first. */
    std::optional<NodeId>
    bestFit(double size) const
    {
        ++ops_->bestFitProbes;
        std::optional<Pair> hit;
        index_.scanAtLeast(size, [&](const Pair &entry) {
            if (entry.second == pendingNode_)
                return true;
            hit = entry;
            return false;
        });
        if (pendingNode_ != sim::kNoNode && pendingKey_ >= size &&
            (!hit || Pair(pendingKey_, pendingNode_) < *hit))
            return pendingNode_;
        if (!hit)
            return std::nullopt;
        return hit->second;
    }

    template <typename Visit>
    void
    forEachDescending(Visit visit)
    {
        flush();
        index_.scanDescending([&](const auto &entry) {
            return visit(entry.first, entry.second);
        });
    }

    template <typename Visit>
    void
    forEachAtLeast(double bound, Visit visit)
    {
        flush();
        index_.scanAtLeast(bound, [&](const auto &entry) {
            return visit(entry.first, entry.second);
        });
    }

    size_t
    rankOf(Slot slot) const
    {
        return rankRow_[podIndex_->rowOfSlot(slot)];
    }

    void
    commit(Slot slot)
    {
        if (committed(slot))
            return;
        const NodeId node = state_->slotNode(slot);
        if (node != sim::kNoNode)
            --uncommittedOn_[node];
        slotBits_[slot] |= kCommitted;
    }

    void
    uncommit(Slot slot)
    {
        if (!committed(slot))
            return;
        const NodeId node = state_->slotNode(slot);
        if (node != sim::kNoNode) {
            ++uncommittedOn_[node];
            ++victimsAdded_;
        }
        slotBits_[slot] &= static_cast<uint8_t>(~kCommitted);
    }

    bool committed(Slot slot) const { return slotBits_[slot] & kCommitted; }

    void
    onPlaced(Slot slot, NodeId node)
    {
        if (!committed(slot)) {
            ++uncommittedOn_[node];
            ++victimsAdded_;
        }
    }

    /** Called after the state evicted @p slot's pod from @p node. */
    void
    onEvicted(Slot slot, NodeId node)
    {
        if (!committed(slot))
            --uncommittedOn_[node];
    }

    /** True when no healthy node has room for even the smallest pod
     * this pack can see, so no forEachAtLeast(cpu) for a pod's cpu
     * can visit an entry: nothing can migrate anywhere. */
    bool
    migrationImpossible()
    {
        flush();
        const auto top = index_.largest();
        return !top || top->first < minPodCpu_;
    }

    /** True when no repack can make room for @p size: no pod can
     * move, and no healthy node has room for it already (its key plus
     * the packer's 1e-9 slack falls short). */
    bool
    repackFutile(double size)
    {
        if (!migrationImpossible())
            return false;
        const auto top = index_.largest();
        return !top || top->first + 1e-9 < size;
    }

    /** False when every pod on @p node is committed: it holds no
     * deletion victim. */
    bool
    mayHoldVictims(NodeId node) const
    {
        return uncommittedOn_[node] != 0;
    }

    /** True when a targeted delete for a pod of @p size at @p rank
     * must fail as the last failed one did: the pack is @p
     * unconstrained, the index has not been written since (the same
     * candidates hold the same keys), no pod has been placed
     * uncommitted or uncommitted in place since (each candidate's
     * victims are a subset of its victims then; pass 1 commits a pod
     * before it places it), and the pod is no smaller and ranked no
     * higher. */
    bool
    clearFutile(double size, size_t rank, bool unconstrained)
    {
        flush();
        return unconstrained && failedClear_ &&
               writes_ == failedClear_->writes &&
               victimsAdded_ == failedClear_->victimsAdded &&
               size >= failedClear_->size && rank >= failedClear_->rank;
    }

    void
    onClearFailed(double size, size_t rank)
    {
        failedClear_ = FailedClear{writes_, victimsAdded_, size, rank};
    }

    void
    parkedClear()
    {
        for (NodeId node : parkedTouched_)
            parked_[node] = 0.0;
        parkedTouched_.clear();
    }

    void
    parkedAdd(NodeId node, double cpu)
    {
        if (parked_[node] == 0.0)
            parkedTouched_.push_back(node);
        parked_[node] += cpu;
    }

    double parkedAt(NodeId node) const { return parked_[node]; }

    /** The start placement's deletion candidates ascending by (rank,
     * pod): the ranked rows in rank order, then the unranked rows in
     * row order, each row's slots in slot (= PodRef) order. */
    void
    buildDeletionOrder(std::vector<Slot> &out) const
    {
        out.clear();
        for (size_t i = 0; i < rankedRows_.size(); ++i) {
            // A row ranked again later sorts at its last rank.
            const size_t row = rankedRows_[i];
            if (row != sim::PodIndex::kNoRow && rankRow_[row] == i)
                appendPlacedAtStart(row, out);
        }
        for (size_t row = 0; row < rankRow_.size(); ++row) {
            if (rankRow_[row] == kUnranked)
                appendPlacedAtStart(row, out);
        }
    }

  private:
    /** Write the pending node's key back, unless it has come back to
     * the key the index holds. */
    void
    flush()
    {
        if (pendingNode_ == sim::kNoNode)
            return;
        if (pendingKey_ != pendingIndexed_) {
            const bool found = index_.erase(pendingIndexed_, pendingNode_);
            assert(found && "the index holds the pending node's old key");
            (void)found;
            index_.insert(pendingKey_, pendingNode_);
            ops_->kvOps += 2;
            ++writes_;
        }
        pendingNode_ = sim::kNoNode;
    }

    void
    appendPlacedAtStart(size_t row, std::vector<Slot> &out) const
    {
        const Slot end = podIndex_->firstSlot(row + 1);
        for (Slot slot = podIndex_->firstSlot(row); slot < end; ++slot) {
            if (slotBits_[slot] & kPlacedAtStart)
                out.push_back(slot);
        }
    }

    /** Capacity index: healthy nodes keyed by remaining capacity, as
     * of the last write-back for the pending node. */
    util::BucketedKv<NodeId> index_;
    /** The node whose key may differ from the index's (kNoNode: none),
     * the key the index holds for it, and its current key. */
    NodeId pendingNode_ = sim::kNoNode;
    double pendingIndexed_ = 0.0;
    double pendingKey_ = 0.0;
    /** Index writes (loads and write-backs) so far. */
    uint64_t writes_ = 0;
    /** Pods placed uncommitted or uncommitted in place so far. */
    uint64_t victimsAdded_ = 0;
    /** What the pack's last failed targeted delete saw and asked for. */
    struct FailedClear
    {
        uint64_t writes = 0;
        uint64_t victimsAdded = 0;
        double size = 0.0;
        size_t rank = 0;
    };
    std::optional<FailedClear> failedClear_;
    std::vector<std::pair<double, NodeId>> loadPairs_;
    const ClusterState *state_ = nullptr;
    const sim::PodIndex *podIndex_ = nullptr;
    std::vector<size_t> rankRow_;    //!< row -> rank (kUnranked if none)
    std::vector<size_t> rankedRows_; //!< rank -> row (kNoRow if none)
    /** slot -> kCommitted | kPlacedAtStart */
    std::vector<uint8_t> slotBits_;
    /** node -> active pods not committed (zero: no deletion victim) */
    std::vector<uint32_t> uncommittedOn_;
    /** Lower bound on every pod size this pack can place or move. */
    double minPodCpu_ = 0.0;
    std::vector<double> parked_;         //!< node -> hypothetical usage
    std::vector<NodeId> parkedTouched_;
    OpCounters *ops_ = nullptr;
};

} // namespace

/** Persistent scratch arena: the flat bookkeeping plus the shared
 * per-run buffers, recycled across pack() calls. */
struct PackScratch
{
    FlatBook flat;
    PackCommon common;
};

PackResult
PackingScheduler::pack(const std::vector<sim::Application> &apps,
                       const ClusterState &current,
                       const GlobalRank &ranked) const
{
    if (!scratch_)
        scratch_ = std::make_shared<PackScratch>();
    Packer<FlatBook> packer(apps, current, ranked, options_,
                            scratch_->flat, scratch_->common);
    return packer.run();
}

} // namespace phoenix::core
