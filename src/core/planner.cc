#include "planner.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "lp/waterfill.h"

namespace phoenix::core {

using sim::Application;
using sim::Microservice;
using sim::MsId;
using sim::PodRef;

double
CostObjective::key(const Application &app, const Microservice &ms,
                   double app_usage_so_far) const
{
    (void)app_usage_so_far;
    // Lexicographic (criticality, -price): business-critical
    // containers carry the revenue, so every tenant's C1 ranks ahead
    // of any tenant's C2, and within a level the higher-paying tenant
    // wins. This is what lets PhoenixCost keep all five applications'
    // critical services alive in the paper's Fig 6 run while still
    // maximizing revenue — a pure per-app price ordering would starve
    // cheaper tenants' critical services entirely, and a fractional
    // price/criticality discount still lets an expensive tenant's C2
    // tie with a cheap tenant's C1 and eat the packing margin.
    return static_cast<double>(effectiveCriticality(app, ms)) * 1.0e6 -
           app.pricePerUnit;
}

namespace {

/**
 * Water-fill shares come back positional (shares[i] belongs to
 * apps[i]); the objectives look shares up by app.id. Those coincide
 * only while app ids happen to be dense and in vector order, so
 * scatter the shares into an id-indexed table and let key() assert
 * coverage instead of silently treating an out-of-range id as a zero
 * share (which ranked that app's every container last).
 */
std::vector<double>
sharesByAppId(const std::vector<Application> &apps,
              const std::vector<double> &positional_shares)
{
    size_t table = 0;
    for (const auto &app : apps)
        table = std::max(table, static_cast<size_t>(app.id) + 1);
    std::vector<double> by_id(table, 0.0);
    for (size_t i = 0; i < apps.size(); ++i)
        by_id[apps[i].id] = positional_shares[i];
    return by_id;
}

} // namespace

void
FairObjective::begin(const std::vector<Application> &apps, double capacity)
{
    std::vector<double> demands;
    demands.reserve(apps.size());
    for (const auto &app : apps)
        demands.push_back(app.totalDemand());
    fairShare_ = sharesByAppId(apps, lp::waterFill(demands, capacity));
}

double
FairObjective::key(const Application &app, const Microservice &ms,
                   double app_usage_so_far) const
{
    // Deviation from the water-fill fair share after activating ms;
    // least deviation pops first (relaxed fair share: an app may exceed
    // its share, but only once everyone else is closer to theirs).
    assert(app.id < fairShare_.size() &&
           "FairObjective::begin must see every ranked application");
    const double share = fairShare_[app.id];
    return app_usage_so_far + ms.totalCpu() - share;
}

void
WeightedFairObjective::begin(const std::vector<Application> &apps,
                             double capacity)
{
    std::vector<double> demands;
    std::vector<double> weights;
    demands.reserve(apps.size());
    weights.reserve(apps.size());
    for (const auto &app : apps) {
        demands.push_back(app.totalDemand());
        weights.push_back(app.id < weights_.size() ? weights_[app.id]
                                                   : 1.0);
    }
    fairShare_ = sharesByAppId(
        apps, lp::weightedWaterFill(demands, weights, capacity));
}

double
WeightedFairObjective::key(const Application &app,
                           const Microservice &ms,
                           double app_usage_so_far) const
{
    assert(app.id < fairShare_.size() &&
           "WeightedFairObjective::begin must see every ranked "
           "application");
    const double share = fairShare_[app.id];
    // Normalize the deviation by weight so heavier tenants may sit
    // proportionally further above the line before yielding the queue.
    const double weight =
        app.id < weights_.size() && weights_[app.id] > 0.0
            ? weights_[app.id]
            : 1.0;
    return (app_usage_so_far + ms.totalCpu() - share) / weight;
}

namespace {

/** Fill @p keys with effective criticality tags for @p app. */
void
fillTags(const Application &app, std::vector<int> &keys)
{
    keys.resize(app.services.size());
    for (MsId m = 0; m < app.services.size(); ++m)
        keys[m] = effectiveCriticality(app, app.services[m]);
}

/**
 * Counting sort of ms ids by (keys[m], m) ascending — the order a
 * stable sort by tag produces. Reuses @p counts across calls.
 */
void
sortIdsByTag(const std::vector<int> &keys, std::vector<uint32_t> &counts,
             std::vector<MsId> &out)
{
    const size_t n = keys.size();
    out.resize(n);
    if (n == 0)
        return;
    const auto [min_it, max_it] =
        std::minmax_element(keys.begin(), keys.end());
    const int min_key = *min_it;
    const size_t range = static_cast<size_t>(
        static_cast<int64_t>(*max_it) - static_cast<int64_t>(min_key) +
        1);
    if (range > 4 * n + 64) {
        for (MsId m = 0; m < n; ++m)
            out[m] = m;
        std::sort(out.begin(), out.end(), [&](MsId x, MsId y) {
            if (keys[x] != keys[y])
                return keys[x] < keys[y];
            return x < y;
        });
        return;
    }
    counts.assign(range + 1, 0);
    for (size_t m = 0; m < n; ++m)
        ++counts[static_cast<size_t>(keys[m] - min_key) + 1];
    for (size_t k = 1; k < counts.size(); ++k)
        counts[k] += counts[k - 1];
    for (MsId m = 0; m < n; ++m)
        out[counts[static_cast<size_t>(keys[m] - min_key)]++] = m;
}

/**
 * Per-app ordering: the traversal of Alg. 1 lines 6-19 (check/
 * reference.cc keeps it as written, with an ordered-set queue and
 * per-visit child sorts), but children come pre-sorted from the app's
 * SortedCsr (no per-visit copy or sort), the criticality queue is an
 * indexed heap, and every buffer lives in the shared scratch arena.
 */
void
flatAppOrder(const Application &app, const PlannerOptions &options,
             graph::SortedCsr &csr, PlanScratch &scratch,
             std::vector<MsId> &rank, OpCounters &ops)
{
    fillTags(app, scratch.keys);
    const std::vector<int> &keys = scratch.keys;
    const size_t n = app.services.size();

    if (!app.hasDependencyGraph) {
        sortIdsByTag(keys, scratch.counts, rank);
        return;
    }

    csr.build(app.dag, keys);
    scratch.visited.assign(n, 0);
    auto &visited = scratch.visited;
    auto &queue = scratch.dfsQueue;
    queue.reset(n);
    auto &stack = scratch.stack;

    // Seed every source (empty predecessor list; this also covers the
    // reference code's redundant isolated-node pass, which the set
    // deduplicated).
    for (MsId m = 0; m < n; ++m) {
        if (app.dag.predecessors(m).empty()) {
            queue.push(m, keys[m]);
            ++ops.heapPushes;
        }
    }

    while (!queue.empty()) {
        const MsId next = queue.pop();
        ++ops.heapPops;
        if (visited[next])
            continue;

        stack.clear();
        stack.push_back(next);
        while (!stack.empty()) {
            const MsId node = stack.back();
            stack.pop_back();
            if (visited[node])
                continue;
            visited[node] = 1;
            rank.push_back(node);

            // Successors are pre-sorted ascending by (tag, id); walk
            // them in reverse so the stack pops most-critical first,
            // exactly like the reference's sort + rbegin.
            const graph::NodeId *first = csr.begin(node);
            for (const graph::NodeId *it = csr.end(node); it != first;) {
                const MsId child = *--it;
                if (visited[child])
                    continue;
                const bool descend = options.eagerDfsDescend
                                         ? keys[child] >= keys[node]
                                         : keys[child] == keys[node];
                if (descend) {
                    stack.push_back(child);
                } else if (!queue.contains(child)) {
                    queue.push(child, keys[child]);
                    ++ops.heapPushes;
                }
            }
        }
    }

    // Leftovers (cyclic / disconnected remnants) in (tag, id) order —
    // which is exactly the CSR's global node order.
    for (MsId m : csr.nodesByKey()) {
        if (!visited[m])
            rank.push_back(m);
    }
}

} // namespace

AppRank
Planner::priorityEstimator(const std::vector<Application> &apps,
                           PlannerOptions options)
{
    Planner planner(options);
    AppRank ranks;
    planner.priorityEstimatorInto(apps, ranks);
    return ranks;
}

void
Planner::priorityEstimatorInto(const std::vector<Application> &apps,
                               AppRank &out) const
{
    ops_.reset();
    out.resize(apps.size());
    if (scratch_.csr.size() < apps.size())
        scratch_.csr.resize(apps.size());

    for (size_t a = 0; a < apps.size(); ++a) {
        auto &rank = out[a];
        rank.clear();
        rank.reserve(apps[a].services.size());
        flatAppOrder(apps[a], options_, scratch_.csr[a], scratch_, rank,
                     ops_);
    }
}

GlobalRank
Planner::globalRank(const std::vector<Application> &apps,
                    const AppRank &app_rank, OperatorObjective &objective,
                    double capacity) const
{
    GlobalRank global;
    globalRankInto(apps, app_rank, objective, capacity, global);
    return global;
}

void
Planner::globalRankInto(const std::vector<Application> &apps,
                        const AppRank &app_rank,
                        OperatorObjective &objective, double capacity,
                        GlobalRank &out) const
{
    ops_.reset();
    objective.begin(apps, capacity);

    out.clear();
    double remaining = capacity;
    auto &usage = scratch_.usage;
    auto &cursor = scratch_.cursor;
    usage.assign(apps.size(), 0.0);
    cursor.assign(apps.size(), 0);

    // One live entry per app, re-pushed with the app's next container
    // after each grant, in an indexed heap keyed (objective key, app
    // id): the pop order of an ordered set of (key, app) pairs (the
    // reference in check/reference.cc), with zero allocation in steady
    // state.
    auto &queue = scratch_.appQueue;
    queue.reset(apps.size());

    auto push_head = [&](sim::AppId a) {
        if (cursor[a] >= app_rank[a].size())
            return;
        const MsId m = app_rank[a][cursor[a]];
        queue.push(a,
                   objective.key(apps[a], apps[a].services[m], usage[a]));
        ++ops_.heapPushes;
    };

    for (sim::AppId a = 0; a < apps.size(); ++a)
        push_head(a);

    while (!queue.empty()) {
        const sim::AppId a = queue.pop();
        ++ops_.heapPops;
        const MsId m = app_rank[a][cursor[a]];
        const Microservice &ms = apps[a].services[m];
        // Reserve the minimum viable allocation; the packer fills up
        // to the full replica count when capacity allows.
        const double need = ms.quorumCpu();
        if (need > remaining + 1e-9) {
            if (options_.stopAtFirstOverflow)
                break; // Alg. 1 line 28
            // Default: drop this app (its later containers are lower
            // priority and may not jump the queue) but keep ranking the
            // others.
            continue;
        }
        remaining -= need;
        out.push_back(PodRef{a, m});
        usage[a] += need;
        objective.granted(apps[a], ms);
        ++cursor[a];
        push_head(a);
    }
}

GlobalRank
Planner::plan(const std::vector<Application> &apps,
              OperatorObjective &objective, double capacity) const
{
    GlobalRank global;
    planInto(apps, objective, capacity, global);
    return global;
}

void
Planner::planInto(const std::vector<Application> &apps,
                  OperatorObjective &objective, double capacity,
                  GlobalRank &out) const
{
    priorityEstimatorInto(apps, scratch_.appRank);
    const OpCounters estimator_ops = ops_;
    globalRankInto(apps, scratch_.appRank, objective, capacity, out);
    ops_ += estimator_ops;
}

} // namespace phoenix::core