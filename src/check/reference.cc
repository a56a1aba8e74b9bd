#include "reference.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "core/packer.h"

namespace phoenix::check {

using core::detail::kUnranked;
using core::effectiveCriticality;
using core::GlobalRank;
using core::OpCounters;
using core::PlannerOptions;
using sim::Application;
using sim::ClusterState;
using sim::MsId;
using sim::NodeId;
using sim::PodRef;
using sim::Slot;

namespace {

/**
 * Reference per-app ordering (Alg. 1 lines 5-20): a std::set queue
 * plus a per-visit child copy + sort.
 */
void
referenceAppOrder(const Application &app, const PlannerOptions &options,
                  std::vector<MsId> &rank, OpCounters &ops)
{
    if (!app.hasDependencyGraph) {
        // No DG: order purely by criticality (Alg. 1 lines 17-19).
        std::vector<MsId> order(app.services.size());
        for (MsId m = 0; m < order.size(); ++m)
            order[m] = m;
        std::stable_sort(
            order.begin(), order.end(), [&](MsId x, MsId y) {
                return effectiveCriticality(app, app.services[x]) <
                       effectiveCriticality(app, app.services[y]);
            });
        rank = std::move(order);
        return;
    }

    // DG present: criticality-keyed preorder traversal
    // (Alg. 1 lines 6-16).
    std::vector<bool> visited(app.services.size(), false);
    // Q keyed by (criticality, node id) — most critical first.
    std::set<std::pair<int, MsId>> queue;

    auto tag = [&](MsId m) {
        return effectiveCriticality(app, app.services[m]);
    };

    // Iterative DFS honouring the pseudocode: descend into children
    // whose tag is >= the parent's (less or equally critical);
    // queue children that are *more* critical than the parent so
    // they pop by global criticality order.
    auto dfs = [&](MsId start) {
        std::vector<MsId> stack{start};
        while (!stack.empty()) {
            const MsId node = stack.back();
            stack.pop_back();
            if (visited[node])
                continue;
            visited[node] = true;
            rank.push_back(node);

            // Children sorted most-critical-first; push onto the
            // stack in reverse so the most critical is explored
            // first (preorder).
            std::vector<MsId> children(app.dag.successors(node).begin(),
                                       app.dag.successors(node).end());
            std::sort(children.begin(), children.end(),
                      [&](MsId x, MsId y) {
                          if (tag(x) != tag(y))
                              return tag(x) < tag(y);
                          return x < y;
                      });
            for (auto it = children.rbegin(); it != children.rend();
                 ++it) {
                const MsId child = *it;
                if (visited[child])
                    continue;
                const bool descend =
                    options.eagerDfsDescend ? tag(child) >= tag(node)
                                            : tag(child) == tag(node);
                if (descend) {
                    stack.push_back(child);
                } else if (queue.emplace(tag(child), child).second) {
                    ++ops.heapPushes;
                }
            }
        }
    };

    for (MsId src : app.dag.sources()) {
        if (queue.emplace(tag(src), src).second)
            ++ops.heapPushes;
    }
    // Nodes unreachable from any source (cyclic components) still
    // need a rank; seed them too so every service appears.
    for (MsId m = 0; m < app.services.size(); ++m) {
        if (app.dag.predecessors(m).empty() &&
            app.dag.successors(m).empty()) {
            if (queue.emplace(tag(m), m).second)
                ++ops.heapPushes;
        }
    }

    while (!queue.empty()) {
        const MsId next = queue.begin()->second;
        queue.erase(queue.begin());
        ++ops.heapPops;
        if (!visited[next])
            dfs(next);
    }

    // Safety net: append anything a cyclic or disconnected DG left
    // unvisited, in criticality order.
    std::vector<MsId> leftovers;
    for (MsId m = 0; m < app.services.size(); ++m) {
        if (!visited[m])
            leftovers.push_back(m);
    }
    std::sort(leftovers.begin(), leftovers.end(), [&](MsId x, MsId y) {
        if (tag(x) != tag(y))
            return tag(x) < tag(y);
        return x < y;
    });
    rank.insert(rank.end(), leftovers.begin(), leftovers.end());
}

/**
 * Reference bookkeeping for core's Packer: a std::multiset capacity
 * index, a std::map rank index and a std::set commit set, keyed by
 * PodRef (slots are converted through the state's index). Rebuilt, and
 * therefore reallocated, per run.
 */
class ReferenceBook
{
  public:
    void
    init(const std::vector<sim::Application> &apps,
         const ClusterState &state, const GlobalRank &ranked,
         OpCounters &ops)
    {
        (void)apps;
        ops_ = &ops;
        podIndex_ = state.podIndex().get();
        byRemaining_.clear();
        rankIndex_.clear();
        committed_.clear();
        for (NodeId id : state.healthyNodes()) {
            byRemaining_.emplace(state.remaining(id), id);
            ++ops_->kvOps;
        }
        for (size_t i = 0; i < ranked.size(); ++i)
            rankIndex_[{ranked[i].app, ranked[i].ms}] = i;

        // Deletion candidates sorted ascending by (rank, pod):
        // decorate-sort-undecorate over every pod the start state
        // places.
        std::vector<std::pair<size_t, PodRef>> decorated;
        decorated.reserve(state.assignment().size());
        for (const auto &[pod, node] : state.assignment()) {
            (void)node;
            decorated.emplace_back(rankOfPod(pod), pod);
        }
        std::sort(decorated.begin(), decorated.end());
        startOrder_.clear();
        for (const auto &[rank, pod] : decorated) {
            (void)rank;
            startOrder_.push_back(podIndex_->slotOf(pod));
        }
    }

    void
    kvUpdate(double before, double after, NodeId node)
    {
        const auto it = byRemaining_.find({before, node});
        if (it != byRemaining_.end())
            byRemaining_.erase(it);
        byRemaining_.emplace(after, node);
        ops_->kvOps += 2;
    }

    std::optional<NodeId>
    bestFit(double size) const
    {
        ++ops_->bestFitProbes;
        const auto hit = byRemaining_.lower_bound({size, NodeId()});
        if (hit == byRemaining_.end())
            return std::nullopt;
        return hit->second;
    }

    template <typename Visit>
    void
    forEachDescending(Visit visit) const
    {
        for (auto it = byRemaining_.rbegin(); it != byRemaining_.rend();
             ++it) {
            if (!visit(it->first, it->second))
                return;
        }
    }

    template <typename Visit>
    void
    forEachAtLeast(double bound, Visit visit) const
    {
        for (auto it = byRemaining_.lower_bound({bound, NodeId()});
             it != byRemaining_.end(); ++it) {
            if (!visit(it->first, it->second))
                return;
        }
    }

    size_t rankOf(Slot slot) const { return rankOfPod(podIndex_->pod(slot)); }

    void commit(Slot slot) { committed_.insert(podIndex_->pod(slot)); }
    void uncommit(Slot slot) { committed_.erase(podIndex_->pod(slot)); }
    bool
    committed(Slot slot) const
    {
        return committed_.count(podIndex_->pod(slot)) > 0;
    }

    void onPlaced(Slot, NodeId) {}
    void onEvicted(Slot, NodeId) {}

    /** The oracle proves nothing futile: every repack and victim walk
     * runs in full (Alg. 2 as written). */
    bool migrationImpossible() const { return false; }
    bool repackFutile(double) const { return false; }
    bool mayHoldVictims(NodeId) const { return true; }
    bool clearFutile(double, size_t, bool) const { return false; }
    void onClearFailed(double, size_t) {}

    void parkedClear() { parked_.clear(); }
    void parkedAdd(NodeId node, double cpu) { parked_[node] += cpu; }
    double
    parkedAt(NodeId node) const
    {
        auto it = parked_.find(node);
        return it == parked_.end() ? 0.0 : it->second;
    }

    /** The start state's deletion candidates, sorted by init(). */
    void buildDeletionOrder(std::vector<Slot> &out) const
    {
        out = startOrder_;
    }

  private:
    size_t
    rankOfPod(const PodRef &pod) const
    {
        auto it = rankIndex_.find({pod.app, pod.ms});
        if (it == rankIndex_.end())
            return kUnranked;
        return it->second;
    }

    const sim::PodIndex *podIndex_ = nullptr;
    std::multiset<std::pair<double, NodeId>> byRemaining_;
    std::map<std::pair<sim::AppId, sim::MsId>, size_t> rankIndex_;
    std::set<PodRef> committed_;
    std::map<NodeId, double> parked_;
    std::vector<Slot> startOrder_;
    OpCounters *ops_ = nullptr;
};

} // namespace

GlobalRank
referencePlan(const std::vector<Application> &apps,
              core::OperatorObjective &objective, double capacity,
              const PlannerOptions &options, OpCounters *ops)
{
    OpCounters counted;
    core::AppRank app_rank(apps.size());
    for (size_t a = 0; a < apps.size(); ++a)
        referenceAppOrder(apps[a], options, app_rank[a], counted);

    // GetGlobalRank (Alg. 1 lines 21-29): (key, app) entries, one live
    // entry per app, re-inserted with the app's next container after
    // each grant.
    objective.begin(apps, capacity);
    GlobalRank out;
    double remaining = capacity;
    std::vector<double> usage(apps.size(), 0.0);
    std::vector<size_t> cursor(apps.size(), 0);
    std::set<std::pair<double, sim::AppId>> queue;
    auto push_head = [&](sim::AppId a) {
        if (cursor[a] >= app_rank[a].size())
            return;
        const MsId m = app_rank[a][cursor[a]];
        queue.emplace(objective.key(apps[a], apps[a].services[m], usage[a]),
                      a);
        ++counted.heapPushes;
    };
    for (sim::AppId a = 0; a < apps.size(); ++a)
        push_head(a);

    while (!queue.empty()) {
        const sim::AppId a = queue.begin()->second;
        queue.erase(queue.begin());
        ++counted.heapPops;
        const MsId m = app_rank[a][cursor[a]];
        const sim::Microservice &ms = apps[a].services[m];
        // Reserve the minimum viable allocation; the packer fills up
        // to the full replica count when capacity allows.
        const double need = ms.quorumCpu();
        if (need > remaining + 1e-9) {
            if (options.stopAtFirstOverflow)
                break; // Alg. 1 line 28
            continue;  // drop this app, keep ranking the others
        }
        remaining -= need;
        out.push_back(PodRef{a, m});
        usage[a] += need;
        objective.granted(apps[a], ms);
        ++cursor[a];
        push_head(a);
    }
    if (ops)
        *ops += counted;
    return out;
}

core::PackResult
referencePack(const std::vector<Application> &apps,
              const ClusterState &current, const GlobalRank &ranked,
              const core::PackingOptions &options)
{
    ReferenceBook book;
    core::detail::PackCommon common;
    core::detail::Packer<ReferenceBook> packer(apps, current, ranked,
                                               options, book, common);
    return packer.run();
}

core::SchemeResult
ReferencePhoenixScheme::apply(const std::vector<Application> &apps,
                              const ClusterState &current)
{
    std::unique_ptr<core::OperatorObjective> objective;
    if (objective_ == core::Objective::Fair)
        objective = std::make_unique<core::FairObjective>();
    else
        objective = std::make_unique<core::CostObjective>();
    core::SchemeResult result;
    result.plan = referencePlan(apps, *objective, current.healthyCapacity(),
                                plannerOptions_, &result.planOps);
    result.pack = referencePack(apps, current, result.plan, packingOptions_);
    return result;
}

} // namespace phoenix::check
