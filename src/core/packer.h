/**
 * @file
 * Core-internal: Alg. 2 as a template over its bookkeeping, included
 * only by core/packing.cc (the flat book) and check/reference.cc (the
 * literal one). A book's futility bounds (migrationImpossible,
 * repackFutile, mayHoldVictims) may only skip walks that cannot
 * succeed.
 */

#ifndef PHOENIX_CORE_PACKER_H
#define PHOENIX_CORE_PACKER_H

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <vector>

#include "core/packing.h"
#include "sim/vacancy.h"

namespace phoenix::core::detail {

using sim::ClusterState;
using sim::NodeId;
using sim::PodRef;
using sim::Slot;

inline constexpr size_t kUnranked = std::numeric_limits<size_t>::max();

/** One planned migration (cpu carried so applying it needs no pod-size
 * lookup). */
struct Move
{
    Slot slot = 0;
    NodeId target = 0;
    double cpu = 0.0;
};

/**
 * Per-run buffers shared by both bookkeeping policies: the deletion
 * stack, pass-2 queue, and every transient vector the repack/deletion
 * stages used to allocate per call. All recycled across pack() calls.
 * The deletion order, victims, moves and journal name pods by their
 * slot in the working state's sim::PodIndex.
 */
struct PackCommon
{
    /** Deletion candidates, popped from the back; filled by the
     * book's buildDeletionOrder() on the pack's first cascade. */
    std::vector<Slot> deletionOrder;
    std::vector<PodRef> topUp;
    std::vector<uint8_t> skippedApps; //!< app position -> skipped
    std::vector<std::pair<double, PodRef>> movable;
    std::vector<Move> moves;
    std::vector<std::pair<double, NodeId>> candidates;
    struct Victim
    {
        size_t rank;
        Slot slot;
        double cpu;
    };
    std::vector<Victim> victims;
    std::vector<Slot> bestList;
    std::vector<Slot> victimList;
    /** Undo log for the current pass-1 service attempt: placements
     * and evictions in order, so a below-quorum failure can be rolled
     * back instead of stranding its collateral damage. */
    struct JournalEntry
    {
        bool placed; //!< true: pod placed (undo = evict); else evicted
        /** The eviction popped this pod off deletionOrder; undo must
         * push it back or later services lose the candidate. */
        bool poppedDeletionOrder;
        Slot slot;
        NodeId node;
        double cpu;
    };
    std::vector<JournalEntry> journal;
    /** Topology constraint bookkeeping, shared by both bookkeeping
     * policies so every vacancy decision is made by identical code.
     * Rebuilt per run; empty() (and therefore free) when no app
     * declares a constraint. */
    sim::VacancyAllocator vacancy;
    /** Per-candidate tentative PDB consumption during victim
     * selection: (app<<32|ms, planned deletes). */
    std::vector<std::pair<uint64_t, int>> tentativePdb;
};

/**
 * The packing algorithm (Alg. 2), written once and templated over the
 * bookkeeping policy. Every decision point consults the Book through
 * the same total orders the reference containers exposed, so the two
 * instantiations emit bit-identical action sequences.
 */
template <typename Book>
class Packer
{
  public:
    Packer(const std::vector<sim::Application> &apps,
           const ClusterState &current, const GlobalRank &ranked,
           const PackingOptions &options, Book &book, PackCommon &common)
        : apps_(apps), options_(options), ranked_(ranked), book_(book),
          c_(common)
    {
        result_.state = current;
        const auto started = std::chrono::steady_clock::now();
        // Pass 1 names every service of apps; give each a slot now so
        // no place() widens the index mid-pack.
        result_.state.coverApps(apps);
        index_ = result_.state.podIndex().get();
        book_.init(apps, result_.state, ranked, result_.ops);
        c_.vacancy.build(apps, result_.state);
        result_.reconcileSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - started)
                .count();
    }

    PackResult
    run()
    {
        c_.topUp.clear();
        c_.skippedApps.assign(apps_.size(), 0);

        result_.complete = true;
        bool aborted = false;
        for (const PodRef &entry : ranked_) {
            if (aborted)
                break;
            if (c_.skippedApps[entry.app])
                continue;
            const auto &ms = apps_[entry.app].services[entry.ms];
            const double size = ms.cpu; // per-replica size
            const int replicas = std::max(ms.replicas, 1);
            const Slot first = firstSlotOf(entry); // replica r: first + r

            // Pass 1 places the minimum viable (quorum) replica set of
            // every ranked microservice, in rank order; extra replicas
            // are topped up in pass 2 only after every ranked service
            // has had its chance, so early services cannot starve
            // later critical ones. The whole attempt is transactional:
            // a service that cannot reach quorum rolls back its
            // placements, migrations, and victim deletions.
            const int quorum = ms.quorumCount();
            c_.journal.clear();
            const size_t actions_checkpoint = result_.actions.size();
            int placed_replicas = 0;
            // Once one replica fails every placement strategy, its
            // siblings (same size, same constraint scopes) would fail
            // identically — but replicas *already active* on surviving
            // nodes must still count toward quorum. Breaking at the
            // first failure used to delete a zone-capped service's
            // survivor: replica 0 died with its zone, could not be
            // re-placed (the implied per-zone cap was already consumed
            // by replica 1), and the below-quorum rollback reaped the
            // one replica that was still serving.
            bool blocked = false;
            for (int r = 0; r < replicas && placed_replicas < quorum;
                 ++r) {
                const Slot slot = first + static_cast<Slot>(r);
                if (active(slot)) {
                    book_.commit(slot);
                    ++placed_replicas;
                    continue;
                }
                if (blocked)
                    continue;
                const PodRef pod = index_->pod(slot);
                std::optional<NodeId> node = bestFitFor(pod, size);
                if (!node && options_.allowMigrations)
                    node = repackToFit(pod, size);
                if (!node && options_.allowDeletions)
                    node = deleteLowerRanksToFit(slot, size);
                if (!node) {
                    blocked = true;
                    continue;
                }
                placePod(slot, *node, size, ActionKind::Restart);
                book_.commit(slot);
                ++placed_replicas;
            }
            // Keep surviving extras committed so pass-1 deletions for
            // lower-ranked services do not reap them before pass 2.
            for (int r = 0; r < replicas; ++r) {
                const Slot slot = first + static_cast<Slot>(r);
                if (active(slot))
                    book_.commit(slot);
            }

            if (placed_replicas >= quorum) {
                ++result_.placed;
                c_.topUp.push_back(entry);
                continue;
            }

            // Below quorum: undo the failed attempt first so a
            // service that cannot be served leaves no collateral
            // damage (a fuzz-found case: a planned replica set that
            // cannot pack used to delete other apps' survivors on its
            // way to failing, zeroing the cluster's revenue). Then
            // delete the service's own surviving replicas — a
            // sub-quorum microservice serves nothing — and either
            // abort (Alg. 2 literal) or skip this application.
            result_.complete = false;
            rollbackAttempt(actions_checkpoint);
            for (int r = 0; r < replicas; ++r) {
                const Slot slot = first + static_cast<Slot>(r);
                book_.uncommit(slot);
                if (active(slot))
                    evictPod(slot, ActionKind::Delete);
            }
            if (options_.abortOnUnplaceable)
                aborted = true;
            else
                c_.skippedApps[entry.app] = 1;
        }

        // Pass 2: opportunistically restore replicas beyond the quorum
        // with the remaining capacity (best-fit only; never disturbs
        // what pass 1 placed).
        for (const PodRef &entry : c_.topUp) {
            const auto &ms = apps_[entry.app].services[entry.ms];
            const int replicas = std::max(ms.replicas, 1);
            const Slot first = firstSlotOf(entry);
            for (int r = 0; r < replicas; ++r) {
                const Slot slot = first + static_cast<Slot>(r);
                if (active(slot))
                    continue;
                const auto node = bestFitFor(index_->pod(slot), ms.cpu);
                if (!node) {
                    result_.complete = false;
                    break;
                }
                placePod(slot, *node, ms.cpu, ActionKind::Restart);
                book_.commit(slot);
            }
        }
        return std::move(result_);
    }

  private:
    /** Replica 0's slot of ranked service @p entry (every service of
     * apps_ has a row, see coverApps()). */
    Slot
    firstSlotOf(const PodRef &entry) const
    {
        return index_->firstSlot(index_->rowOf(entry.app, entry.ms));
    }

    bool active(Slot slot) const
    {
        return result_.state.slotNode(slot) != sim::kNoNode;
    }

    /** Keep the capacity index in sync while mutating the state. */
    void
    placePod(Slot slot, NodeId node, double size, ActionKind kind,
             NodeId from = 0)
    {
        const PodRef pod = index_->pod(slot);
        const double before = result_.state.remaining(node);
        const bool ok = result_.state.place(pod, node, size);
        if (!ok)
            return; // defensive; callers pre-check capacity
        book_.kvUpdate(before, result_.state.remaining(node), node);
        book_.onPlaced(slot, node);
        if (!c_.vacancy.empty())
            c_.vacancy.onPlace(pod, node, result_.state.zoneOf(node));
        c_.journal.push_back(
            PackCommon::JournalEntry{true, false, slot, node, size});
        Action action;
        action.kind = kind;
        action.pod = pod;
        action.from = from;
        action.to = node;
        result_.actions.push_back(action);
    }

    void
    evictPod(Slot slot, ActionKind kind)
    {
        const NodeId node = result_.state.slotNode(slot);
        if (node == sim::kNoNode)
            return;
        const PodRef pod = index_->pod(slot);
        const double before = result_.state.remaining(node);
        const double cpu = result_.state.slotCpu(slot);
        result_.state.evict(pod);
        book_.kvUpdate(before, result_.state.remaining(node), node);
        book_.onEvicted(slot, node);
        if (!c_.vacancy.empty())
            c_.vacancy.onEvict(pod, node, result_.state.zoneOf(node));
        c_.journal.push_back(PackCommon::JournalEntry{
            false, journalPoppedDeletionOrder_, slot, node, cpu});
        if (kind == ActionKind::Delete) {
            Action action;
            action.kind = ActionKind::Delete;
            action.pod = pod;
            action.from = node;
            result_.actions.push_back(action);
        }
    }

    /** The allocator's vacancy for @p pod on @p node. Like every
     * allocator call here, it reads the node's zone only past the
     * empty() branch, so an unconstrained pack pays one branch. */
    bool
    vacant(const PodRef &pod, NodeId node) const
    {
        return c_.vacancy.empty() ||
               c_.vacancy.canPlace(pod, node, result_.state.zoneOf(node));
    }

    /**
     * Undo every mutation of the current pass-1 service attempt, in
     * reverse: re-place deleted victims, unwind repack migrations,
     * evict the attempt's own placements. Because each inverse
     * restores the exact capacity delta of its original, every
     * re-placement fits. Emitted actions are truncated back to
     * @p actions_checkpoint so the action list keeps matching the
     * state.
     */
    void
    rollbackAttempt(size_t actions_checkpoint)
    {
        while (!c_.journal.empty()) {
            const PackCommon::JournalEntry e = c_.journal.back();
            c_.journal.pop_back();
            const PodRef pod = index_->pod(e.slot);
            const double before = result_.state.remaining(e.node);
            if (e.placed) {
                result_.state.evict(pod);
                book_.onEvicted(e.slot, e.node);
                if (!c_.vacancy.empty())
                    c_.vacancy.onEvict(pod, e.node,
                                       result_.state.zoneOf(e.node));
            } else {
                result_.state.place(pod, e.node, e.cpu);
                book_.onPlaced(e.slot, e.node);
                if (!c_.vacancy.empty())
                    c_.vacancy.onPlace(pod, e.node,
                                       result_.state.zoneOf(e.node));
                if (e.poppedDeletionOrder)
                    c_.deletionOrder.push_back(e.slot);
            }
            book_.kvUpdate(before, result_.state.remaining(e.node),
                           e.node);
        }
        result_.actions.resize(actions_checkpoint);
    }

    /**
     * Constraint-aware best fit. Unconstrained pods take the index's
     * single best-fit probe exactly as before; constrained pods walk
     * feasible-capacity entries in the same (key, node) order until
     * one node has vacancy in every scope the pod belongs to. The
     * walk lives in shared Packer code and the allocator is probed by
     * key only, so both bookkeeping policies visit and count
     * identically.
     */
    std::optional<NodeId>
    bestFitFor(const PodRef &pod, double size)
    {
        if (!c_.vacancy.constrained(pod))
            return book_.bestFit(size);
        std::optional<NodeId> found;
        book_.forEachAtLeast(size, [&](double key, NodeId node) {
            (void)key;
            ++result_.ops.bestFitProbes;
            if (vacant(pod, node)) {
                found = node;
                return false;
            }
            return true;
        });
        return found;
    }

    /**
     * Repacking stage: walk candidate target nodes from most to least
     * empty; for each, try to migrate its smallest non-committed
     * containers onto other nodes until the incoming container fits.
     * Candidate targets without vacancy for @p incoming are skipped
     * up front — clearing capacity on them cannot help.
     */
    std::optional<NodeId>
    repackToFit(const PodRef &incoming, double size)
    {
        // Candidate targets: the most-empty nodes ("servers with large
        // available capacity are preferred"). Bounded to a constant so
        // repacking stays near-logarithmic per container — if the
        // emptiest nodes cannot be cleared, fuller ones cannot either.
        constexpr size_t kMaxCandidates = 8;
        // Every candidate would fail planMigrations' first two checks.
        if (book_.repackFutile(size))
            return std::nullopt;
        auto &candidates = c_.candidates;
        candidates.clear();
        book_.forEachDescending([&](double remaining, NodeId node) {
            candidates.emplace_back(remaining, node);
            return candidates.size() < kMaxCandidates;
        });

        for (const auto &[remaining, node] : candidates) {
            (void)remaining;
            if (!vacant(incoming, node))
                continue;
            if (!planMigrations(node, size))
                continue;
            for (const Move &move : c_.moves) {
                evictPod(move.slot, ActionKind::Migrate);
                placePod(move.slot, move.target, move.cpu,
                         ActionKind::Migrate, node);
            }
            if (result_.state.remaining(node) + 1e-9 >= size)
                return node;
        }
        return std::nullopt;
    }

    /**
     * Feasibility check for clearing @p size room on @p node by moving
     * its smallest migratable containers elsewhere. Pure planning: no
     * state mutation; fills c_.moves on success. Committed
     * (higher-ranked) containers may migrate too — migration keeps
     * them live, and consolidating them is often the only way to
     * clear room for a large critical container on a cluster whose
     * survivors are spread across every node.
     *
     * Hypothetical placements are tracked as deltas against the live
     * capacity index (no O(nodes) copy): an index entry's effective
     * free space is its key minus whatever this plan has already
     * parked on that node.
     */
    bool
    planMigrations(NodeId node, double size)
    {
        // Clearing a node by relocating many containers is excessive
        // churn; give up beyond this.
        constexpr size_t kMaxMoves = 16;
        constexpr size_t kMaxProbes = 24;

        c_.moves.clear();
        const double have = result_.state.remaining(node);
        if (have + 1e-9 >= size)
            return true;
        // No node has room for the smallest pod: every forEachAtLeast
        // below would visit nothing, so the walk would probe and move
        // nothing.
        if (book_.migrationImpossible())
            return false;

        auto &movable = c_.movable;
        movable.clear();
        const auto &pods = result_.state.podsOn(node);
        result_.ops.podScans += pods.size();
        for (const auto &[pod, cpu] : pods) {
            // Constrained pods are pinned during repack: the parked
            // deltas track capacity only, not hypothetical vacancy
            // state, so moving them could break their own caps.
            if (c_.vacancy.constrained(pod))
                continue;
            movable.emplace_back(cpu, pod);
        }
        std::sort(movable.begin(), movable.end());

        book_.parkedClear();
        double freed = have;
        for (const auto &[cpu, pod] : movable) {
            if (freed + 1e-9 >= size)
                break;
            if (c_.moves.size() >= kMaxMoves)
                break;
            // Walk index entries from the best-fit point upward until
            // one is effectively big enough (entries are stale-high
            // only for nodes with parked capacity).
            std::optional<NodeId> target;
            size_t probes = 0;
            book_.forEachAtLeast(cpu, [&](double key, NodeId cand) {
                if (probes >= kMaxProbes)
                    return false;
                ++probes;
                ++result_.ops.bestFitProbes;
                if (cand == node)
                    return true;
                const double effective = key - book_.parkedAt(cand);
                if (effective + 1e-9 >= cpu) {
                    target = cand;
                    return false;
                }
                return true;
            });
            if (!target)
                continue; // this pod cannot move; try a bigger one
            book_.parkedAdd(*target, cpu);
            c_.moves.push_back(Move{index_->slotOf(pod), *target, cpu});
            freed += cpu;
        }
        return freed + 1e-9 >= size;
    }

    /**
     * Targeted deletion: find a node whose lower-ranked containers can
     * be deleted to make exactly this container fit, and clear just
     * that node (fewest victims). Much more effective for large
     * containers than deleting in global reverse-rank order, which
     * scatters the freed capacity across the cluster.
     */
    std::optional<NodeId>
    clearOneNodeToFit(const PodRef &incoming, size_t incoming_rank,
                      double size)
    {
        constexpr size_t kMaxCandidates = 16;
        auto &candidates = c_.candidates;
        candidates.clear();
        book_.forEachDescending([&](double remaining, NodeId node) {
            candidates.emplace_back(remaining, node);
            return candidates.size() < kMaxCandidates;
        });

        const bool pdb_active = !c_.vacancy.empty();
        std::optional<NodeId> best_node;
        size_t best_victims = std::numeric_limits<size_t>::max();
        auto &best_list = c_.bestList;
        best_list.clear();

        for (const auto &[free0, node] : candidates) {
            if (!vacant(incoming, node))
                continue;
            double free = free0;
            // Victims on this node, lowest priority first. A node whose
            // pods are all committed has none.
            auto &victims = c_.victims;
            victims.clear();
            if (book_.mayHoldVictims(node)) {
                const auto &pods = result_.state.podsOn(node);
                result_.ops.podScans += pods.size();
                for (const auto &[pod, cpu] : pods) {
                    const Slot slot = index_->slotOf(pod);
                    const size_t rank = book_.rankOf(slot);
                    if (rank > incoming_rank && !book_.committed(slot))
                        victims.push_back(
                            PackCommon::Victim{rank, slot, cpu});
                }
                std::sort(victims.begin(), victims.end(),
                          [](const auto &x, const auto &y) {
                              return x.rank > y.rank;
                          });
            }
            auto &list = c_.victimList;
            list.clear();
            auto &tentative = c_.tentativePdb;
            tentative.clear();
            for (const auto &victim : victims) {
                if (free + 1e-9 >= size)
                    break;
                if (pdb_active) {
                    // The whole victim set of this candidate must fit
                    // each service's remaining disruption budget, so
                    // track what this plan already spends per service.
                    const PodRef pod = index_->pod(victim.slot);
                    const uint64_t key =
                        (static_cast<uint64_t>(pod.app) << 32) | pod.ms;
                    size_t at = tentative.size();
                    int planned = 0;
                    for (size_t i = 0; i < tentative.size(); ++i) {
                        if (tentative[i].first == key) {
                            at = i;
                            planned = tentative[i].second;
                            break;
                        }
                    }
                    if (planned >= c_.vacancy.pdbRemaining(pod))
                        continue;
                    if (at == tentative.size())
                        tentative.emplace_back(key, 1);
                    else
                        ++tentative[at].second;
                }
                free += victim.cpu;
                list.push_back(victim.slot);
            }
            if (free + 1e-9 >= size && list.size() < best_victims) {
                best_victims = list.size();
                best_node = node;
                std::swap(best_list, list);
            }
        }

        if (!best_node)
            return std::nullopt;
        for (const Slot victim : best_list) {
            if (pdb_active)
                c_.vacancy.consumePdb(index_->pod(victim));
            evictPod(victim, ActionKind::Delete);
        }
        return best_node;
    }

    /**
     * Deletion stage: remove active containers in reverse planner
     * order (unranked first, then lowest-ranked) until the incoming
     * container fits by best-fit or repacking. The order covers the
     * pack's start placement; the book builds it on the first cascade,
     * which is the same order: nothing pops it before then.
     */
    std::optional<NodeId>
    deleteLowerRanksToFit(Slot incoming_slot, double size)
    {
        const PodRef incoming = index_->pod(incoming_slot);
        const size_t incoming_rank = book_.rankOf(incoming_slot);
        if (auto node = clearOneNodeToFit(incoming, incoming_rank, size))
            return node;
        if (!deletionOrderBuilt_) {
            book_.buildDeletionOrder(c_.deletionOrder);
            deletionOrderBuilt_ = true;
        }
        size_t deletions = 0;
        while (!c_.deletionOrder.empty()) {
            const Slot victim = c_.deletionOrder.back();
            c_.deletionOrder.pop_back();
            if (!active(victim) || book_.committed(victim))
                continue;
            if (book_.rankOf(victim) <= incoming_rank)
                break; // nothing lower-priority left
            // A service whose disruption budget is spent is off
            // limits for the rest of the epoch (the budget is never
            // refunded), so dropping the candidate permanently is
            // safe.
            const PodRef victim_pod = index_->pod(victim);
            if (!c_.vacancy.pdbAllows(victim_pod))
                continue;
            c_.vacancy.consumePdb(victim_pod);
            journalPoppedDeletionOrder_ = true;
            evictPod(victim, ActionKind::Delete);
            journalPoppedDeletionOrder_ = false;
            ++deletions;

            auto node = bestFitFor(incoming, size);
            // The repack attempt is markedly more expensive than the
            // best-fit probe; amortize it over batches of deletions so
            // deep deletion cascades stay near-linear.
            if (!node && options_.allowMigrations &&
                (deletions & 0x7) == 0) {
                node = repackToFit(incoming, size);
            }
            if (node)
                return node;
        }
        if (options_.allowMigrations)
            return repackToFit(incoming, size);
        return std::nullopt;
    }

    const std::vector<sim::Application> &apps_;
    PackingOptions options_;
    const GlobalRank &ranked_;
    Book &book_;
    PackCommon &c_;
    PackResult result_;
    /** The working state's index; the pack never widens it. */
    const sim::PodIndex *index_ = nullptr;
    /** Set once c_.deletionOrder holds this pack's order. */
    bool deletionOrderBuilt_ = false;
    /** Set around the deletionOrder-driven eviction in
     * deleteLowerRanksToFit so the journal entry remembers to restore
     * the popped candidate on rollback. */
    bool journalPoppedDeletionOrder_ = false;
};

} // namespace phoenix::core::detail

#endif // PHOENIX_CORE_PACKER_H
