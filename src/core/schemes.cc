#include "schemes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>

#include "lp/branch_bound.h"
#include "lp/waterfill.h"
#include "obs/obs.h"
#include "sim/vacancy.h"
#include "util/bucketed_kv.h"
#include "util/log.h"

namespace phoenix::core {

using sim::Application;
using sim::ClusterState;
using sim::MsId;
using sim::NodeId;
using sim::PodRef;

namespace {

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Per-app activation order ignoring criticality: topological order when
 * a DG exists (so activated services are reachable), id order otherwise.
 */
std::vector<MsId>
criticalityBlindOrder(const Application &app)
{
    if (app.hasDependencyGraph) {
        if (auto topo = app.dag.topologicalOrder())
            return *topo;
    }
    std::vector<MsId> order(app.services.size());
    for (MsId m = 0; m < order.size(); ++m)
        order[m] = m;
    return order;
}

/** Priority-objective used by the Priority baseline: tag only. */
class TagOnlyObjective : public OperatorObjective
{
  public:
    std::string name() const override { return "tag-only"; }
    double
    key(const Application &app, const sim::Microservice &ms,
        double) const override
    {
        return static_cast<double>(effectiveCriticality(app, ms));
    }
};

} // namespace

PhoenixScheme::PhoenixScheme(Objective objective,
                             PlannerOptions planner_options,
                             PackingOptions packing_options)
    : objective_(objective), planner_(planner_options),
      packer_(packing_options)
{
    obs_.reconcileSeconds =
        &obs::Registry::global().histogram("core.reconcile_seconds");
}

SchemeResult
PhoenixScheme::apply(const std::vector<Application> &apps,
                     const ClusterState &current)
{
    SchemeResult result;
    const auto plan_start = Clock::now();

    std::unique_ptr<OperatorObjective> objective;
    if (objective_ == Objective::Fair)
        objective = std::make_unique<FairObjective>();
    else
        objective = std::make_unique<CostObjective>();

    planner_.planInto(apps, *objective, current.healthyCapacity(),
                      result.plan);
    result.planOps = planner_.lastOps();
    result.planSeconds = seconds(plan_start);

    const auto pack_start = Clock::now();
    result.pack = packer_.pack(apps, current, result.plan);
    result.packSeconds = seconds(pack_start);
    PHOENIX_OBSERVE(*obs_.reconcileSeconds, result.pack.reconcileSeconds);
    return result;
}

SchemeResult
FairScheme::apply(const std::vector<Application> &apps,
                  const ClusterState &current)
{
    SchemeResult result;
    const auto plan_start = Clock::now();

    std::vector<double> demands;
    demands.reserve(apps.size());
    for (const auto &app : apps)
        demands.push_back(app.totalDemand());
    const auto share =
        lp::waterFill(demands, current.healthyCapacity());

    // Within each app: dependency/id order, cut at the fair share.
    // The cut is head-of-line: the first microservice that does not
    // fit the remaining quota stops the app (microservices are
    // indivisible and Fair cannot activate beyond the share — the
    // source of its high negative deviation in §6.2; skipping ahead
    // would also activate services whose upstream was skipped).
    std::vector<std::vector<MsId>> lists(apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        double used = 0.0;
        for (MsId m : criticalityBlindOrder(apps[a])) {
            const double need = apps[a].services[m].totalCpu();
            if (used + need > share[a] + 1e-9)
                break;
            used += need;
            lists[a].push_back(m);
        }
    }

    // Round-robin interleave so no app's whole list dominates packing
    // priority.
    bool more = true;
    for (size_t i = 0; more; ++i) {
        more = false;
        for (size_t a = 0; a < apps.size(); ++a) {
            if (i < lists[a].size()) {
                result.plan.push_back(
                    PodRef{static_cast<sim::AppId>(a), lists[a][i]});
                more = true;
            }
        }
    }
    result.planSeconds = seconds(plan_start);

    const auto pack_start = Clock::now();
    result.pack = packer_.pack(apps, current, result.plan);
    result.packSeconds = seconds(pack_start);
    return result;
}

SchemeResult
PriorityScheme::apply(const std::vector<Application> &apps,
                      const ClusterState &current)
{
    SchemeResult result;
    const auto plan_start = Clock::now();

    TagOnlyObjective objective;
    planner_.planInto(apps, objective, current.healthyCapacity(),
                      result.plan);
    result.planOps = planner_.lastOps();
    result.planSeconds = seconds(plan_start);

    const auto pack_start = Clock::now();
    result.pack = packer_.pack(apps, current, result.plan);
    result.packSeconds = seconds(pack_start);
    return result;
}

SchemeResult
DefaultScheme::apply(const std::vector<Application> &apps,
                     const ClusterState &current)
{
    SchemeResult result;
    const auto start = Clock::now();
    result.pack.state = current;
    ClusterState &state = result.pack.state;
    // The allocator keys its scopes by the state's index rows.
    state.coverApps(apps);

    // Spread placement: most-remaining node first (Kubernetes'
    // LeastAllocated scoring), restart order = pod id order, skip what
    // does not fit (stays Pending). No deletions, no migrations.
    // Topology-constrained pods walk past nodes without placement
    // vacancy (anti-affinity / zone caps), like kube-scheduler's
    // filter phase; unconstrained pods keep the single-probe path.
    std::vector<std::pair<double, NodeId>> healthy;
    for (NodeId id : state.healthyNodes())
        healthy.emplace_back(state.remaining(id), id);
    std::sort(healthy.begin(), healthy.end());
    util::BucketedKv<NodeId> by_remaining;
    by_remaining.loadSorted(healthy);
    sim::VacancyAllocator vacancy;
    vacancy.build(apps, state);

    result.pack.complete = true;
    for (size_t a = 0; a < apps.size(); ++a) {
        for (const auto &ms : apps[a].services) {
            const int replicas = std::max(ms.replicas, 1);
            bool all = true;
            for (int r = 0; r < replicas; ++r) {
                const PodRef pod{static_cast<sim::AppId>(a), ms.id,
                                 static_cast<uint32_t>(r)};
                if (state.isActive(pod))
                    continue;
                std::optional<std::pair<double, NodeId>> chosen;
                if (!vacancy.constrained(pod)) {
                    const auto top = by_remaining.largest();
                    if (top && top->first + 1e-9 >= ms.cpu)
                        chosen = *top;
                } else {
                    by_remaining.scanDescending([&](const auto &entry) {
                        if (entry.first + 1e-9 < ms.cpu)
                            return false; // the rest are smaller
                        if (!vacancy.canPlace(pod, entry.second,
                                              state.zoneOf(entry.second)))
                            return true;
                        chosen = entry;
                        return false;
                    });
                }
                if (!chosen) {
                    result.pack.complete = false;
                    all = false;
                    continue; // pending
                }
                by_remaining.erase(chosen->first, chosen->second);
                state.place(pod, chosen->second, ms.cpu);
                vacancy.onPlace(pod, chosen->second,
                                state.zoneOf(chosen->second));
                by_remaining.insert(state.remaining(chosen->second),
                                    chosen->second);
                Action action;
                action.kind = ActionKind::Restart;
                action.pod = pod;
                action.to = chosen->second;
                result.pack.actions.push_back(action);
            }
            if (all)
                ++result.pack.placed;
        }
    }
    result.planSeconds = seconds(start);
    return result;
}

SchemeResult
LpScheme::apply(const std::vector<Application> &apps,
                const ClusterState &current)
{
    SchemeResult result;
    const auto start = Clock::now();

    const auto healthy = current.healthyNodes();
    size_t total_ms = 0;
    for (const auto &app : apps) {
        total_ms += app.services.size();
        for (const auto &ms : app.services) {
            if (ms.replicas > 1) {
                // The ILP formulation places each microservice on one
                // node (Eq. 3); the Appendix D multi-replica extension
                // is out of its scope.
                PHOENIX_WARN(name() << ": multi-replica microservices "
                                       "not supported by the ILP");
                result.failed = true;
                result.pack.state = current;
                result.planSeconds = seconds(start);
                return result;
            }
        }
    }
    if (total_ms * healthy.size() > options_.maxPlacementVars) {
        PHOENIX_WARN(name() << ": instance too large ("
                            << total_ms * healthy.size()
                            << " placement vars); giving up");
        result.failed = true;
        result.pack.state = current;
        result.planSeconds = seconds(start);
        return result;
    }

    lp::Model model;

    // x_ij: activation, y_ijk: placement.
    std::vector<std::vector<lp::VarId>> x(apps.size());
    std::vector<std::vector<std::vector<lp::VarId>>> y(apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        x[a].resize(apps[a].services.size());
        y[a].resize(apps[a].services.size());
        for (MsId m = 0; m < apps[a].services.size(); ++m) {
            x[a][m] = model.addBinaryVar();
            y[a][m].resize(healthy.size());
            for (size_t k = 0; k < healthy.size(); ++k)
                y[a][m][k] = model.addBinaryVar();
        }
    }

    // Eq. 1 — intra-app criticality order, encoded per level with an
    // auxiliary z_c: z_c <= x_j (j at level c), x_k <= z_c (k at the
    // next level). z definitions are kept for warm-start construction
    // (z_c = min over its level's x).
    std::vector<std::pair<lp::VarId, std::vector<lp::VarId>>> z_defs;
    for (size_t a = 0; a < apps.size(); ++a) {
        std::map<int, std::vector<MsId>> levels;
        for (const auto &ms : apps[a].services)
            levels[ms.criticality].push_back(ms.id);
        lp::VarId prev_z = -1;
        for (auto it = levels.begin(); it != levels.end(); ++it) {
            lp::VarId z = model.addVar(0.0, 1.0);
            std::vector<lp::VarId> members;
            for (MsId m : it->second) {
                members.push_back(x[a][m]);
                // z <= x_m
                model.addConstraint({{z, 1.0}, {x[a][m], -1.0}},
                                    lp::Relation::LessEq, 0.0);
                if (prev_z >= 0) {
                    // x_m <= prev_z
                    model.addConstraint({{x[a][m], 1.0}, {prev_z, -1.0}},
                                        lp::Relation::LessEq, 0.0);
                }
            }
            z_defs.emplace_back(z, std::move(members));
            prev_z = z;
        }
    }

    // Eq. 2 — topological constraint.
    for (size_t a = 0; a < apps.size(); ++a) {
        if (!apps[a].hasDependencyGraph)
            continue;
        for (MsId m = 0; m < apps[a].services.size(); ++m) {
            const auto &preds = apps[a].dag.predecessors(m);
            if (preds.empty())
                continue;
            lp::LinExpr expr;
            for (MsId p : preds)
                expr.push_back({x[a][p], 1.0});
            expr.push_back({x[a][m], -1.0});
            model.addConstraint(expr, lp::Relation::GreaterEq, 0.0);
        }
    }

    // Eq. 3 — each activated microservice placed on exactly one node.
    for (size_t a = 0; a < apps.size(); ++a) {
        for (MsId m = 0; m < apps[a].services.size(); ++m) {
            lp::LinExpr expr;
            for (size_t k = 0; k < healthy.size(); ++k)
                expr.push_back({y[a][m][k], 1.0});
            expr.push_back({x[a][m], -1.0});
            model.addConstraint(expr, lp::Relation::Equal, 0.0);
        }
    }

    // Eq. 4 — node capacities.
    for (size_t k = 0; k < healthy.size(); ++k) {
        lp::LinExpr expr;
        for (size_t a = 0; a < apps.size(); ++a) {
            for (MsId m = 0; m < apps[a].services.size(); ++m) {
                expr.push_back(
                    {y[a][m][k], apps[a].services[m].totalCpu()});
            }
        }
        model.addConstraint(expr, lp::Relation::LessEq,
                            current.node(healthy[k]).capacity);
    }

    if (objective_ == Objective::Cost) {
        lp::LinExpr obj;
        for (size_t a = 0; a < apps.size(); ++a) {
            for (MsId m = 0; m < apps[a].services.size(); ++m) {
                obj.push_back({x[a][m],
                               apps[a].pricePerUnit *
                                   apps[a].services[m].totalCpu()});
            }
        }
        model.setObjective(obj, true);
    } else {
        // LPFair (App. C): maximize F with per-app allocation >= F and
        // <= the pre-computed water-fill share; a small usage bonus
        // breaks ties toward fuller clusters.
        std::vector<double> demands;
        for (const auto &app : apps)
            demands.push_back(app.totalDemand());
        const auto share =
            lp::waterFill(demands, current.healthyCapacity());

        lp::VarId f = model.addVar(0.0, lp::kInfinity);
        fVar_ = f;
        lp::LinExpr obj{{f, 1.0}};
        double total_demand = 1.0;
        for (double d : demands)
            total_demand += d;
        for (size_t a = 0; a < apps.size(); ++a) {
            lp::LinExpr usage;
            for (MsId m = 0; m < apps[a].services.size(); ++m) {
                usage.push_back(
                    {x[a][m], apps[a].services[m].totalCpu()});
                obj.push_back({x[a][m],
                               0.001 *
                                   apps[a].services[m].totalCpu() /
                                   total_demand});
            }
            lp::LinExpr lower = usage;
            lower.push_back({f, -1.0});
            model.addConstraint(lower, lp::Relation::GreaterEq, 0.0);
            model.addConstraint(usage, lp::Relation::LessEq,
                                share[a] + 1e-6);
        }
        model.setObjective(obj, true);
    }

    lp::MilpOptions milp;
    milp.timeLimitSec = options_.timeLimitSec;
    milp.maxNodes = options_.maxNodes;
    milp.lp.timeLimitSec = options_.timeLimitSec;

    // Warm-start branch & bound from the Phoenix heuristic with the
    // matching objective: the LP then acts as an anytime-improving
    // exact refinement instead of searching for a first incumbent.
    {
        PhoenixScheme heuristic(objective_);
        const SchemeResult seed = heuristic.apply(apps, current);
        std::vector<double> warm(model.varCount(), 0.0);
        std::map<sim::NodeId, size_t> node_index;
        for (size_t k = 0; k < healthy.size(); ++k)
            node_index[healthy[k]] = k;
        for (const auto &[pod, node] : seed.pack.state.assignment()) {
            auto it = node_index.find(node);
            if (it == node_index.end())
                continue;
            warm[x[pod.app][pod.ms]] = 1.0;
            warm[y[pod.app][pod.ms][it->second]] = 1.0;
        }
        for (const auto &[z, members] : z_defs) {
            double level_min = 1.0;
            for (lp::VarId member : members)
                level_min = std::min(level_min, warm[member]);
            warm[z] = level_min;
        }
        if (objective_ == Objective::Fair && fVar_ >= 0) {
            // The relaxed PhoenixFair allocation may exceed the strict
            // water-fill cap of LPFair; trim each app back to its
            // share by dropping its lowest-ranked activations.
            std::vector<double> demands;
            for (const auto &app : apps)
                demands.push_back(app.totalDemand());
            const auto share = lp::waterFill(
                demands, current.healthyCapacity());
            std::vector<double> usage(apps.size(), 0.0);
            for (size_t a = 0; a < apps.size(); ++a) {
                for (MsId m = 0; m < apps[a].services.size(); ++m) {
                    if (warm[x[a][m]] > 0.5)
                        usage[a] += apps[a].services[m].totalCpu();
                }
            }
            for (auto it = seed.plan.rbegin(); it != seed.plan.rend();
                 ++it) {
                const auto &pod = *it;
                if (usage[pod.app] <= share[pod.app] + 1e-9)
                    continue;
                if (warm[x[pod.app][pod.ms]] < 0.5)
                    continue;
                warm[x[pod.app][pod.ms]] = 0.0;
                for (size_t k = 0; k < healthy.size(); ++k)
                    warm[y[pod.app][pod.ms][k]] = 0.0;
                usage[pod.app] -=
                    apps[pod.app].services[pod.ms].totalCpu();
            }

            // F = the minimum per-app allocation in the seed.
            double f = lp::kInfinity;
            for (size_t a = 0; a < apps.size(); ++a) {
                double usage = 0.0;
                for (MsId m = 0; m < apps[a].services.size(); ++m) {
                    if (warm[x[a][m]] > 0.5)
                        usage += apps[a].services[m].totalCpu();
                }
                f = std::min(f, usage);
            }
            warm[fVar_] = std::isfinite(f) ? f : 0.0;
        }
        if (model.isFeasible(warm, true))
            milp.warmStart = std::move(warm);
    }
    const lp::Solution solution = lp::solveMilp(model, milp);
    result.planSeconds = seconds(start);

    if (!solution.hasSolution()) {
        result.failed = true;
        result.pack.state = current;
        return result;
    }
    result.provenOptimal = solution.status == lp::SolveStatus::Optimal;

    // Materialize the target state from y.
    ClusterState target = current;
    for (const auto &[pod, node] : current.assignment()) {
        (void)node;
        target.evict(pod);
    }
    result.pack.complete = true;
    for (size_t a = 0; a < apps.size(); ++a) {
        for (MsId m = 0; m < apps[a].services.size(); ++m) {
            if (solution.values[x[a][m]] < 0.5)
                continue;
            for (size_t k = 0; k < healthy.size(); ++k) {
                if (solution.values[y[a][m][k]] > 0.5) {
                    const bool ok = target.place(
                        PodRef{static_cast<sim::AppId>(a), m},
                        healthy[k], apps[a].services[m].totalCpu());
                    if (ok)
                        ++result.pack.placed;
                    break;
                }
            }
        }
    }
    result.pack.actions = diffStates(apps, current, target);
    result.pack.state = std::move(target);
    return result;
}

std::vector<Action>
diffStates(const std::vector<Application> &apps, const ClusterState &from,
           const ClusterState &to)
{
    (void)apps;
    std::vector<Action> actions;
    // The agent executes this sequence one action at a time, so every
    // step must be applicable to the state produced by the previous
    // steps — a migration into a node that is only vacated later in
    // the list would be rejected by the kubelet. Simulate on a
    // scratch copy and only emit actions that apply cleanly.
    ClusterState scratch = from;
    // Both walks run in PodRef order, so the action list does too.
    const auto before = from.assignment();
    const auto after = to.assignment();

    // Deletes first: they only free capacity.
    for (const auto &[pod, node] : before) {
        if (!to.isActive(pod)) {
            scratch.evict(pod);
            Action a;
            a.kind = ActionKind::Delete;
            a.pod = pod;
            a.from = node;
            actions.push_back(a);
        }
    }

    // Migrations: emit a move once its destination has room. When no
    // pending move can proceed the remainder forms a capacity cycle
    // (e.g. a swap between two full nodes); break it by deleting one
    // pod now and restarting it at its destination at the end.
    struct Move
    {
        PodRef pod;
        NodeId src;
        NodeId dst;
        double cpu;
    };
    std::vector<Move> pending;
    for (const auto &[pod, node] : before) {
        const auto now = to.nodeOf(pod);
        if (now && *now != node)
            pending.push_back(Move{pod, node, *now, to.podCpu(pod)});
    }
    std::vector<Move> held;
    while (!pending.empty()) {
        bool progressed = false;
        for (auto it = pending.begin(); it != pending.end();) {
            if (scratch.remaining(it->dst) + 1e-9 >= it->cpu) {
                scratch.evict(it->pod);
                scratch.place(it->pod, it->dst, it->cpu);
                Action a;
                a.kind = ActionKind::Migrate;
                a.pod = it->pod;
                a.from = it->src;
                a.to = it->dst;
                actions.push_back(a);
                it = pending.erase(it);
                progressed = true;
            } else {
                ++it;
            }
        }
        if (!progressed) {
            const Move move = pending.front();
            pending.erase(pending.begin());
            scratch.evict(move.pod);
            Action a;
            a.kind = ActionKind::Delete;
            a.pod = move.pod;
            a.from = move.src;
            actions.push_back(a);
            held.push_back(move);
        }
    }

    // Restarts last: `scratch` is now a sub-assignment of the (
    // feasible) target, so every remaining placement fits.
    for (const auto &[pod, node] : after) {
        if (!from.isActive(pod)) {
            Action a;
            a.kind = ActionKind::Restart;
            a.pod = pod;
            a.to = node;
            actions.push_back(a);
        }
    }
    for (const Move &move : held) {
        Action a;
        a.kind = ActionKind::Restart;
        a.pod = move.pod;
        a.to = move.dst;
        actions.push_back(a);
    }
    return actions;
}

std::vector<std::unique_ptr<ResilienceScheme>>
makeAllSchemes(bool include_lps, LpSchemeOptions lp_options)
{
    std::vector<std::unique_ptr<ResilienceScheme>> schemes;
    schemes.push_back(
        std::make_unique<PhoenixScheme>(Objective::Fair));
    schemes.push_back(
        std::make_unique<PhoenixScheme>(Objective::Cost));
    schemes.push_back(std::make_unique<FairScheme>());
    schemes.push_back(std::make_unique<PriorityScheme>());
    schemes.push_back(std::make_unique<DefaultScheme>());
    if (include_lps) {
        schemes.push_back(
            std::make_unique<LpScheme>(Objective::Fair, lp_options));
        schemes.push_back(
            std::make_unique<LpScheme>(Objective::Cost, lp_options));
    }
    return schemes;
}

} // namespace phoenix::core
