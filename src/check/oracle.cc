#include "oracle.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <sstream>

#include "check/reference.h"
#include "core/preemption.h"
#include "core/schemes.h"
#include "kube/kube.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace phoenix::check {

using core::Action;
using core::ActionKind;
using core::Objective;
using core::PackingOptions;
using core::PhoenixScheme;
using core::SchemeResult;
using sim::ActiveSet;
using sim::Application;
using sim::ClusterState;
using sim::NodeId;
using sim::PodRef;

namespace {

constexpr double kEps = 1e-6;

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Per-tier phase-seconds histograms, resolved once. */
struct PhaseObs
{
    obs::LogHistogram *schemes;
    obs::LogHistogram *lp;
    obs::LogHistogram *metamorphic;
    obs::LogHistogram *lifecycle;
};

PhaseObs &
phaseObs()
{
    static PhaseObs p = [] {
        auto &registry = obs::Registry::global();
        const auto named = [&](const char *phase) {
            return &registry.histogram(obs::Registry::labeled(
                "check.phase_seconds", "phase", phase));
        };
        return PhaseObs{named("schemes"), named("lp"),
                        named("metamorphic"), named("lifecycle")};
    }();
    return p;
}

void
report(std::vector<Violation> &out, std::string property,
       std::string scheme, std::string detail)
{
    Violation v;
    v.property = std::move(property);
    v.scheme = std::move(scheme);
    v.detail = std::move(detail);
    out.push_back(std::move(v));
}

std::string
podName(const PodRef &pod)
{
    std::ostringstream os;
    os << "pod(" << pod.app << "," << pod.ms << "," << pod.replica
       << ")";
    return os.str();
}

/**
 * Structural invariants of a planned state. Violation properties:
 * "capacity", "unhealthy-node", "pod-ref", "injected-tight-capacity".
 */
void
checkStateInvariants(const std::string &scheme,
                     const std::vector<Application> &apps,
                     const ClusterState &state,
                     const OracleOptions &options,
                     std::vector<Violation> &out)
{
    for (NodeId n = 0; n < state.nodeCount(); ++n) {
        const auto &node = state.node(n);
        if (state.used(n) > node.capacity + kEps) {
            std::ostringstream os;
            os << "node " << n << " used " << state.used(n)
               << " > capacity " << node.capacity;
            report(out, "capacity", scheme, os.str());
        }
        if (!node.healthy && !state.podsOn(n).empty()) {
            std::ostringstream os;
            os << state.podsOn(n).size() << " pods on failed node "
               << n;
            report(out, "unhealthy-node", scheme, os.str());
        }
        if (options.injectTightCapacityFraction > 0.0 &&
            state.used(n) > options.injectTightCapacityFraction *
                                    node.capacity +
                                kEps) {
            std::ostringstream os;
            os << "node " << n << " used " << state.used(n)
               << " > " << options.injectTightCapacityFraction
               << " * capacity " << node.capacity;
            report(out, "injected-tight-capacity", scheme, os.str());
        }
    }
    for (const auto &[pod, node] : state.assignment()) {
        (void)node;
        if (pod.app >= apps.size() ||
            pod.ms >= apps[pod.app].services.size()) {
            report(out, "pod-ref", scheme,
                   podName(pod) + " outside the app descriptors");
            continue;
        }
        const auto &ms = apps[pod.app].services[pod.ms];
        if (pod.replica >=
            static_cast<uint32_t>(std::max(ms.replicas, 1))) {
            report(out, "pod-ref", scheme,
                   podName(pod) + " replica out of range");
        }
        if (state.podCpu(pod) != ms.cpu) {
            std::ostringstream os;
            os << podName(pod) << " cpu " << state.podCpu(pod)
               << " != descriptor " << ms.cpu;
            report(out, "pod-ref", scheme, os.str());
        }
    }
}

/**
 * The agent executes actions, not states: replaying the emitted
 * sequence from the post-failure state must land exactly on the
 * planned state. Property: "action-replay".
 */
void
checkActionReplay(const std::string &scheme,
                  const std::vector<Application> &apps,
                  const ClusterState &post, const SchemeResult &result,
                  std::vector<Violation> &out)
{
    ClusterState replay = post;
    for (const Action &action : result.pack.actions) {
        const PodRef &pod = action.pod;
        switch (action.kind) {
        case ActionKind::Delete:
            if (!replay.evict(pod)) {
                report(out, "action-replay", scheme,
                       "delete of absent " + podName(pod));
                return;
            }
            break;
        case ActionKind::Migrate: {
            if (!replay.isActive(pod)) {
                report(out, "action-replay", scheme,
                       "migrate of absent " + podName(pod));
                return;
            }
            const double cpu = replay.podCpu(pod);
            replay.evict(pod);
            if (!replay.place(pod, action.to, cpu)) {
                report(out, "action-replay", scheme,
                       "migrate of " + podName(pod) +
                           " to a node that rejects it");
                return;
            }
            break;
        }
        case ActionKind::Restart: {
            if (pod.app >= apps.size() ||
                pod.ms >= apps[pod.app].services.size()) {
                report(out, "action-replay", scheme,
                       "restart of unknown " + podName(pod));
                return;
            }
            const double cpu = apps[pod.app].services[pod.ms].cpu;
            if (!replay.place(pod, action.to, cpu)) {
                report(out, "action-replay", scheme,
                       "restart of " + podName(pod) +
                           " rejected by node");
                return;
            }
            break;
        }
        }
    }
    if (replay.assignment() != result.pack.state.assignment()) {
        std::ostringstream os;
        os << "replayed assignment has " << replay.assignment().size()
           << " pods, planned state has "
           << result.pack.state.assignment().size();
        report(out, "action-replay", scheme, os.str());
    }
}

/**
 * Eq. 1 / Eq. 2 as *active-set* invariants. These only hold for the
 * LP schemes, whose MILP encodes them as hard constraints; the
 * heuristics legitimately break them at whole-state level (surviving
 * pods of a partially evicted app stay placed, and the planner's
 * capacity skip may drop a too-big critical service while smaller
 * ones proceed). Properties: "criticality-order", "dependency-order".
 */
void
checkLpActiveSetOrder(const std::string &scheme,
                      const std::vector<Application> &apps,
                      const ActiveSet &active,
                      std::vector<Violation> &out)
{
    if (!sim::respectsCriticalityOrder(apps, active))
        report(out, "criticality-order", scheme,
               "a service is active while a strictly more critical "
               "one of the same app is inactive");
    if (!sim::respectsDependencies(apps, active))
        report(out, "dependency-order", scheme,
               "an active service has no active predecessor");
}

/**
 * The sound order property for the heuristic planner: every prefix of
 * the per-app activation order respects dependencies, and for apps
 * without a dependency graph the order is sorted by effective
 * criticality (the DG preorder may legitimately pull a
 * low-criticality ancestor forward, so tag order is only required
 * when no DG exists). This mirrors what the packing stages preserve:
 * they only ever place/keep subsequences of this order per app.
 * Properties: "plan-criticality-order", "plan-dependency-order".
 */
void
checkAppRankOrder(const std::vector<Application> &apps,
                  std::vector<Violation> &out)
{
    const core::AppRank ranks = core::Planner::priorityEstimator(apps);
    for (size_t a = 0; a < apps.size(); ++a) {
        if (ranks[a].size() != apps[a].services.size()) {
            std::ostringstream os;
            os << "app " << apps[a].id << ": rank has "
               << ranks[a].size() << " entries for "
               << apps[a].services.size() << " services";
            report(out, "plan-criticality-order", "planner", os.str());
            continue;
        }
        if (apps[a].hasDependencyGraph) {
            ActiveSet active = sim::emptyActiveSet(apps);
            for (sim::MsId m : ranks[a]) {
                active[a][m] = true;
                if (!sim::respectsDependencies(apps, active)) {
                    std::ostringstream os;
                    os << "app " << apps[a].id << ": ms " << m
                       << " ranked before any of its predecessors";
                    report(out, "plan-dependency-order", "planner",
                           os.str());
                    break;
                }
            }
        } else {
            for (size_t i = 1; i < ranks[a].size(); ++i) {
                const auto prev = core::effectiveCriticality(
                    apps[a], apps[a].services[ranks[a][i - 1]]);
                const auto next = core::effectiveCriticality(
                    apps[a], apps[a].services[ranks[a][i]]);
                if (next < prev) {
                    std::ostringstream os;
                    os << "app " << apps[a].id << ": ms "
                       << ranks[a][i] << " (C" << next
                       << ") ranked after ms " << ranks[a][i - 1]
                       << " (C" << prev << ")";
                    report(out, "plan-criticality-order", "planner",
                           os.str());
                    break;
                }
            }
        }
    }
}

/**
 * Independent re-derivation of the placement-policy caps (kept
 * deliberately separate from sim::VacancyAllocator so a bug in the
 * allocator cannot hide itself): per-service maxPerNode and effective
 * zone cap (minZoneSpread folded in), plus anti-affinity group caps
 * over member services. Returns the first violation found.
 */
std::optional<std::string>
capViolation(const std::vector<Application> &apps,
             const ClusterState &state)
{
    const size_t zones = std::max<size_t>(state.zoneCount(), 1);
    // Pods per (app position, service), in assignment order.
    std::map<std::pair<size_t, sim::MsId>, std::vector<NodeId>> placed;
    for (const auto &[pod, node] : state.assignment()) {
        if (pod.app < apps.size() &&
            pod.ms < apps[pod.app].services.size())
            placed[{pod.app, pod.ms}].push_back(node);
    }

    const auto check = [&](const std::vector<NodeId> &nodes,
                           int max_node, int max_zone,
                           const std::string &what)
        -> std::optional<std::string> {
        std::map<NodeId, int> per_node;
        std::vector<int> per_zone(zones, 0);
        for (NodeId n : nodes) {
            const int on_node = ++per_node[n];
            const int in_zone = ++per_zone[state.zoneOf(n) % zones];
            if (max_node > 0 && on_node > max_node) {
                std::ostringstream os;
                os << what << ": " << on_node << " pods on node " << n
                   << " > maxPerNode " << max_node;
                return os.str();
            }
            if (max_zone > 0 && in_zone > max_zone) {
                std::ostringstream os;
                os << what << ": " << in_zone << " pods in zone "
                   << state.zoneOf(n) << " > zone cap " << max_zone;
                return os.str();
            }
        }
        return std::nullopt;
    };

    for (size_t a = 0; a < apps.size(); ++a) {
        const Application &app = apps[a];
        if (!app.topologyConstrained())
            continue;
        for (const auto &ms : app.services) {
            const int cap_zone = ms.effectiveZoneCap();
            if (ms.maxPerNode <= 0 && cap_zone <= 0)
                continue;
            const auto it = placed.find({a, ms.id});
            if (it == placed.end())
                continue;
            std::ostringstream what;
            what << "app " << a << " ms " << ms.id;
            if (auto v = check(it->second, ms.maxPerNode, cap_zone,
                               what.str()))
                return v;
        }
        for (const auto &group : app.placementGroups) {
            if (group.maxPerNode <= 0 && group.maxPerZone <= 0)
                continue;
            std::vector<NodeId> members;
            for (const auto &ms : app.services) {
                if (ms.antiAffinityGroup != group.id)
                    continue;
                const auto it = placed.find({a, ms.id});
                if (it != placed.end())
                    members.insert(members.end(), it->second.begin(),
                                   it->second.end());
            }
            std::ostringstream what;
            what << "app " << a << " group " << group.id;
            if (auto v = check(members, group.maxPerNode,
                               group.maxPerZone, what.str()))
                return v;
        }
    }
    return std::nullopt;
}

/**
 * Constraint-feasibility dimension: the planned final state honors
 * every vacancy/spread cap, every intermediate state of the emitted
 * action sequence honors them too (preemption may not park two
 * replicas on one node even transiently), and the plan's deletes
 * never exceed a service's PodDisruptionBudget unless the plan shut
 * the service down entirely (below-quorum cleanup). Properties:
 * "constraint-feasibility", "pdb-budget".
 */
void
checkConstraintFeasibility(const std::string &scheme,
                           const std::vector<Application> &apps,
                           const ClusterState &post,
                           const SchemeResult &result,
                           std::vector<Violation> &out)
{
    if (auto v = capViolation(apps, result.pack.state)) {
        report(out, "constraint-feasibility", scheme,
               "final state: " + *v);
        return;
    }

    // Replay the action sequence, re-checking caps after every state
    // change (replay legality itself is checkActionReplay's job).
    ClusterState replay = post;
    for (size_t i = 0; i < result.pack.actions.size(); ++i) {
        const Action &action = result.pack.actions[i];
        const PodRef &pod = action.pod;
        switch (action.kind) {
        case ActionKind::Delete:
            replay.evict(pod);
            break;
        case ActionKind::Migrate: {
            if (!replay.isActive(pod))
                return;
            const double cpu = replay.podCpu(pod);
            replay.evict(pod);
            if (!replay.place(pod, action.to, cpu))
                return;
            break;
        }
        case ActionKind::Restart: {
            if (pod.app >= apps.size() ||
                pod.ms >= apps[pod.app].services.size())
                return;
            if (!replay.place(pod, action.to,
                              apps[pod.app].services[pod.ms].cpu))
                return;
            break;
        }
        }
        if (auto v = capViolation(apps, replay)) {
            std::ostringstream os;
            os << "after action " << i << ": " << *v;
            report(out, "constraint-feasibility", scheme, os.str());
            return;
        }
    }

    // PDB: deletes per service, exempting full shutdowns.
    std::map<std::pair<size_t, sim::MsId>, int> deletes;
    for (const Action &action : result.pack.actions) {
        if (action.kind == ActionKind::Delete)
            ++deletes[{action.pod.app, action.pod.ms}];
    }
    for (const auto &[key, count] : deletes) {
        const auto [a, m] = key;
        if (a >= apps.size() || m >= apps[a].services.size())
            continue;
        const int budget = apps[a].services[m].pdbMaxUnavailable;
        if (budget < 0 || count <= budget)
            continue;
        size_t final_placed = 0;
        for (const auto &[pod, node] :
             result.pack.state.assignment()) {
            (void)node;
            if (pod.app == a && pod.ms == m)
                ++final_placed;
        }
        if (final_placed == 0)
            continue; // below-quorum self-cleanup is PDB-exempt
        std::ostringstream os;
        os << "app " << a << " ms " << m << ": " << count
           << " deletes > pdbMaxUnavailable " << budget << " with "
           << final_placed << " replicas kept";
        report(out, "pdb-budget", scheme, os.str());
    }
}

ClusterState
permuteNodes(const ClusterState &state,
             const std::vector<NodeId> &perm)
{
    std::vector<double> capacities(state.nodeCount(), 0.0);
    for (NodeId n = 0; n < state.nodeCount(); ++n)
        capacities[perm[n]] = state.node(n).capacity;
    ClusterState out(state.podIndex());
    for (double capacity : capacities)
        out.addNode(capacity);
    for (NodeId n = 0; n < state.nodeCount(); ++n) {
        if (!state.isHealthy(n))
            out.failNode(perm[n]);
    }
    for (const auto &[pod, node] : state.assignment())
        out.place(pod, perm[node], state.podCpu(pod));
    return out;
}

CheckCase
scaledCopy(const CheckCase &c, double factor)
{
    CheckCase scaled = c;
    for (double &capacity : scaled.nodeCapacities)
        capacity *= factor;
    for (auto &app : scaled.apps) {
        for (auto &ms : app.services)
            ms.cpu *= factor;
    }
    return scaled;
}

bool
sameActions(const std::vector<Action> &a, const std::vector<Action> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind != b[i].kind || a[i].pod != b[i].pod ||
            a[i].from != b[i].from || a[i].to != b[i].to)
            return false;
    }
    return true;
}

double
minAllocation(const std::vector<Application> &apps,
              const ActiveSet &active)
{
    const auto usage = sim::perAppUsage(apps, active);
    double lowest = 0.0;
    bool first = true;
    for (double u : usage) {
        if (first || u < lowest) {
            lowest = u;
            first = false;
        }
    }
    return lowest;
}

double
largestServiceCpu(const std::vector<Application> &apps)
{
    double largest = 0.0;
    for (const auto &app : apps) {
        for (const auto &ms : app.services)
            largest = std::max(largest, ms.cpu);
    }
    return largest;
}

// ---------------------------------------------------------------------
// Kube lifecycle oracle
// ---------------------------------------------------------------------

/** Phoenix controller loop: replan against the observed state every
 * period and execute the action sequence through the agent verbs. */
struct ControllerLoop
{
    sim::EventQueue &events;
    kube::KubeCluster &cluster;
    PhoenixScheme scheme{Objective::Cost};
    double period = 60.0;

    void
    arm(double at)
    {
        events.schedule(at, [this] { tick(); });
    }

    void
    tick()
    {
        const ClusterState observed = cluster.observedState();
        const SchemeResult result =
            scheme.apply(cluster.apps(), observed);
        for (const Action &action : result.pack.actions) {
            switch (action.kind) {
            case ActionKind::Delete:
                cluster.deletePod(action.pod);
                break;
            case ActionKind::Migrate:
                cluster.migratePod(action.pod, action.to);
                break;
            case ActionKind::Restart:
                cluster.startPod(action.pod, action.to);
                break;
            }
        }
        events.scheduleAfter(period, [this] { tick(); });
    }
};

/**
 * Phase sampler: watches every pod at a period far below the minimum
 * startup delay and asserts no pod reaches Running sooner than
 * podStartupMin after (re)binding to its current node. A migration
 * that forgets to restart the startup clock — the
 * migrate-while-Starting bug class — trips this.
 */
struct StartupSampler
{
    sim::EventQueue &events;
    kube::KubeCluster &cluster;
    const double startupMin;
    double period = 1.0;
    std::vector<Violation> *out = nullptr;

    struct Obs
    {
        kube::PodPhase phase = kube::PodPhase::Pending;
        NodeId node = 0;
        double startingSince = -1.0;
    };
    std::map<PodRef, Obs> seen;

    void
    arm(double at)
    {
        events.schedule(at, [this] { tick(); });
    }

    void
    tick()
    {
        const double now = events.now();
        for (size_t a = 0; a < cluster.apps().size(); ++a) {
            for (const auto &ms : cluster.apps()[a].services) {
                const PodRef ref{static_cast<sim::AppId>(a), ms.id};
                const kube::Pod *pod = cluster.pod(ref);
                if (!pod)
                    continue;
                observe(ref, *pod, now);
            }
        }
        events.scheduleAfter(period, [this] { tick(); });
    }

    void
    observe(const PodRef &ref, const kube::Pod &pod, double now)
    {
        Obs &obs = seen[ref];
        const bool was_starting =
            obs.phase == kube::PodPhase::Starting;
        if (pod.phase == kube::PodPhase::Starting &&
            (!was_starting || obs.node != pod.node)) {
            // Fresh bind (or rebind to another node): the startup
            // clock must restart from here.
            obs.startingSince = now;
        }
        if (pod.phase == kube::PodPhase::Running &&
            obs.phase != kube::PodPhase::Running) {
            // A node change alone is not a violation: the model's
            // Running-pod migration is a legal zero-downtime rebind,
            // so "finished startup on A, live-migrated to B" can land
            // inside one sample window. Only Running with no observed
            // Starting at all, or Running sooner than the startup
            // minimum since the last (re)bind, is the free-startup
            // bug class.
            if (!was_starting || obs.startingSince < 0.0) {
                report(*out, "lifecycle-free-startup", "kube",
                       podName(ref) +
                           " reached Running without Starting on its "
                           "node");
            } else if (now - obs.startingSince <
                       startupMin - period - kEps) {
                std::ostringstream os;
                os << podName(ref) << " reached Running "
                   << now - obs.startingSince
                   << "s after binding (startup minimum "
                   << startupMin << "s)";
                report(*out, "lifecycle-free-startup", "kube",
                       os.str());
            }
        }
        obs.phase = pod.phase;
        obs.node = pod.node;
    }
};

void
runLifecycleOracle(const CheckCase &c, OracleResult &result)
{
    sim::EventQueue events;
    kube::KubeConfig config;
    config.validateInvariants = true;
    config.seed = c.seed;
    kube::KubeCluster cluster(events, config);
    for (double capacity : c.nodeCapacities)
        cluster.addNode(capacity);
    // Kube indexes pods by position in its app list; reindex so the
    // cluster's PodRefs match the scheme convention (app == index).
    for (size_t a = 0; a < c.apps.size(); ++a) {
        Application app = c.apps[a];
        app.id = static_cast<sim::AppId>(a);
        cluster.addApplication(app);
    }

    sim::ScenarioOptions scenario_options;
    scenario_options.seed = c.seed;
    sim::ScenarioRunner runner(events, cluster, sim::Scenario(c.steps),
                               scenario_options);

    ControllerLoop controller{events, cluster};
    controller.arm(30.0);
    StartupSampler sampler{events, cluster, config.podStartupMin, 1.0,
                           &result.violations, {}};
    sampler.arm(1.0);

    double horizon = 0.0;
    for (const sim::Scenario::Step &step : c.steps)
        horizon = std::max(horizon, step.at + step.downtime);
    events.runUntil(horizon + 500.0);

    if (cluster.invariantViolations() > 0) {
        std::ostringstream os;
        os << cluster.invariantViolations()
           << " kube invariant violations";
        report(result.violations, "kube-invariants", "kube", os.str());
    }

    // --- Fault-convergence dimensions (one per taxonomy class) -----
    // The horizon runs 500 s past the last fault window, so every
    // windowed fault must have converged by now.

    // Stale-observation-vs-fresh: all outage windows have closed, so
    // the observation surface must equal live truth again.
    if (cluster.apiOutageActive()) {
        report(result.violations, "stale-observation", "kube",
               "API outage still active past the horizon");
    } else {
        const ClusterState observed = cluster.observedState();
        const ClusterState live = cluster.liveState();
        bool diverged = observed.nodeCount() != live.nodeCount() ||
                        observed.assignment() != live.assignment();
        for (NodeId n = 0; !diverged && n < live.nodeCount(); ++n) {
            diverged =
                observed.isHealthy(n) != live.isHealthy(n) ||
                std::abs(observed.node(n).capacity -
                         live.node(n).capacity) > kEps;
        }
        if (diverged)
            report(result.violations, "stale-observation", "kube",
                   "observed state diverges from live state after "
                   "the outage window closed");
    }

    // Partition/degrade/failure convergence: the script's reference
    // expansion gives every node's expected end state. Nodes a Skew
    // step ever touched are exempt from the readiness check — a skewed
    // heartbeat legitimately detaches control-plane readiness from
    // kubelet health (that is the fault), and a past positive skew can
    // stamp heartbeats beyond any fixed horizon.
    const std::vector<NodeFaults> expected = c.replayFaults();
    for (NodeId n = 0; n < expected.size(); ++n) {
        const NodeFaults &end = expected[n];
        if (!end.skewed) {
            const bool expect_ready = end.ready();
            if (cluster.isReady(n) != expect_ready) {
                std::ostringstream os;
                os << "node " << n << " ended "
                   << (cluster.isReady(n) ? "Ready" : "NotReady")
                   << ", script implies "
                   << (expect_ready ? "Ready" : "NotReady");
                report(result.violations, "fault-convergence", "kube",
                       os.str());
            }
        }
        if (std::abs(cluster.degradeFactor(n) - end.factor) > kEps) {
            std::ostringstream os;
            os << "node " << n << " degrade factor "
               << cluster.degradeFactor(n) << ", script implies "
               << end.factor;
            report(result.violations, "fault-convergence", "kube",
                   os.str());
        }
    }

    result.lifecycleRan = true;
}

} // namespace

ClusterState
postFailureState(const CheckCase &c)
{
    ClusterState state = c.emptyCluster();
    core::DefaultScheme seed_scheme;
    state = seed_scheme.apply(c.apps, state).pack.state;
    c.replaySteps(state);
    return state;
}

OracleResult
checkCase(const CheckCase &c, const OracleOptions &options)
{
    OracleResult result;
    if (c.nodeCapacities.empty() || c.apps.empty())
        return result;

    const ClusterState post = postFailureState(c);

    const Clock::time_point schemes_start = Clock::now();

    // --- Planner order properties ----------------------------------
    checkAppRankOrder(c.apps, result.violations);

    // --- Heuristic schemes -----------------------------------------
    struct Entry
    {
        std::string name;
        std::unique_ptr<core::ResilienceScheme> scheme;
    };
    std::vector<Entry> entries;
    entries.push_back(
        {"PhoenixFair", std::make_unique<PhoenixScheme>(Objective::Fair)});
    entries.push_back(
        {"PhoenixCost", std::make_unique<PhoenixScheme>(Objective::Cost)});
    entries.push_back({"Fair", std::make_unique<core::FairScheme>()});
    entries.push_back(
        {"Priority", std::make_unique<core::PriorityScheme>()});
    entries.push_back(
        {"Default", std::make_unique<core::DefaultScheme>()});
    entries.push_back({"K8sPreemption",
                       std::make_unique<core::KubePreemptionScheme>()});

    std::map<std::string, SchemeResult> results;
    for (Entry &entry : entries) {
        SchemeResult r = entry.scheme->apply(c.apps, post);
        checkStateInvariants(entry.name, c.apps, r.pack.state, options,
                             result.violations);
        checkActionReplay(entry.name, c.apps, post, r,
                          result.violations);
        // K8sPreemption is the constraint-blind baseline by design —
        // its violations under a zone kill are the demo contrast, not
        // a bug.
        if (entry.name != "K8sPreemption")
            checkConstraintFeasibility(entry.name, c.apps, post, r,
                                       result.violations);
        results.emplace(entry.name, std::move(r));
    }

    // --- Flat vs reference bit identity ----------------------------
    for (Objective objective : {Objective::Fair, Objective::Cost}) {
        ReferencePhoenixScheme reference(objective);
        const SchemeResult ref = reference.apply(c.apps, post);
        const std::string name = reference.name();
        const SchemeResult &flat = results.at(name);
        if (ref.plan != flat.plan)
            report(result.violations, "flat-vs-reference", name,
                   "plans diverge");
        else if (!sameActions(ref.pack.actions, flat.pack.actions))
            report(result.violations, "flat-vs-reference", name,
                   "action sequences diverge");
        else if (ref.pack.state.assignment() !=
                 flat.pack.state.assignment())
            report(result.violations, "flat-vs-reference", name,
                   "planned assignments diverge");

        // Long-lived scheme soundness: a scheme that just planned a
        // *projection* (the post state with one more node failed —
        // the shape the forecaster plans against) must still produce
        // the cold answer when asked to plan the real post state.
        // The controller's scheme and the forecaster's projection
        // scheme live across epochs and rely on it: scheme output is
        // a pure function of (apps, state), whatever the instance
        // planned before.
        {
            ClusterState projection = post;
            const std::vector<NodeId> healthy = post.healthyNodes();
            if (!healthy.empty())
                projection.failNode(healthy.front());

            PhoenixScheme longLived(objective);
            (void)longLived.apply(c.apps, projection);
            const SchemeResult again = longLived.apply(c.apps, post);
            if (again.failed != flat.failed ||
                again.plan != flat.plan ||
                !sameActions(again.pack.actions,
                             flat.pack.actions) ||
                again.pack.complete != flat.pack.complete ||
                again.pack.state.assignment() !=
                    flat.pack.state.assignment())
                report(result.violations, "warm-cold-divergence", name,
                       "plan after projection planning diverges from "
                       "cold plan");
        }
    }

    result.schemesSeconds = secondsSince(schemes_start);
    PHOENIX_OBSERVE(*phaseObs().schemes, result.schemesSeconds);

    // --- LP differential -------------------------------------------
    const Clock::time_point lp_start = Clock::now();
    const size_t healthy_nodes = post.healthyNodes().size();
    // The MILP has no vacancy/spread encoding, so its optimum is not
    // an upper bound on constrained cases — the differential is
    // skipped for them.
    const bool lp_eligible =
        options.runLp && c.singleReplica() && !c.constrained() &&
        healthy_nodes > 0 &&
        c.serviceCount() * healthy_nodes <= options.lpMaxCells;
    if (lp_eligible) {
        core::LpSchemeOptions lp_options;
        lp_options.timeLimitSec = options.lpTimeLimitSec;

        core::LpScheme lp_cost(Objective::Cost, lp_options);
        const SchemeResult lr = lp_cost.apply(c.apps, post);
        if (!lr.failed) {
            result.lpCostRan = true;
            checkStateInvariants("LPCost", c.apps, lr.pack.state,
                                 options, result.violations);
            checkActionReplay("LPCost", c.apps, post, lr,
                              result.violations);
            const ActiveSet lp_active = lr.activeSet(c.apps);
            checkLpActiveSetOrder("LPCost", c.apps, lp_active,
                                  result.violations);
            if (lr.provenOptimal) {
                const ActiveSet heuristic =
                    results.at("PhoenixCost").activeSet(c.apps);
                const double lp_revenue =
                    sim::revenue(c.apps, lp_active);
                const double heuristic_revenue =
                    sim::revenue(c.apps, heuristic);
                result.costGap = lp_revenue > 0.0
                                     ? heuristic_revenue / lp_revenue
                                     : 1.0;
                // Upper bound: only sound when the heuristic's active
                // set is feasible for the MILP itself (raw-tag order
                // and dependencies), since the optimum only dominates
                // its own polytope.
                const bool heuristic_lp_feasible =
                    sim::respectsCriticalityOrder(c.apps, heuristic) &&
                    sim::respectsDependencies(c.apps, heuristic);
                if (heuristic_lp_feasible &&
                    heuristic_revenue > lp_revenue + kEps) {
                    std::ostringstream os;
                    os << "heuristic revenue " << heuristic_revenue
                       << " beats proven LP optimum " << lp_revenue;
                    report(result.violations, "lp-cost-upper",
                           "PhoenixCost", os.str());
                }
                // The revenue floor is only sound on like-for-like
                // cases. PhoenixCost maximizes revenue
                // lexicographically *below* criticality — a cheap
                // tenant's C1 outranks an expensive tenant's C2 by
                // design — so on mixed-tag cases the pure-revenue LP
                // optimum does not bound it. And the planner's
                // aggregate-capacity cut can admit a service no
                // single node can hold, displacing packable ones the
                // LP serves. Uniform tags plus per-node packability
                // remove both mechanisms; other cases still record
                // costGap as a diagnostic.
                double max_node_capacity = 0.0;
                for (NodeId n : post.healthyNodes()) {
                    max_node_capacity = std::max(
                        max_node_capacity, post.node(n).capacity);
                }
                bool like_for_like = true;
                int tag = 0;
                double largest_item_revenue = 0.0;
                for (const auto &app : c.apps) {
                    for (const auto &ms : app.services) {
                        const int t =
                            core::effectiveCriticality(app, ms);
                        if (tag == 0)
                            tag = t;
                        like_for_like = like_for_like && t == tag &&
                                        ms.cpu <=
                                            max_node_capacity + kEps;
                        largest_item_revenue = std::max(
                            largest_item_revenue,
                            app.pricePerUnit * ms.totalCpu());
                    }
                }
                // One-largest-item slack: the planner admits services
                // by density against *aggregate* capacity, the classic
                // greedy knapsack whose gap vs the optimum is bounded
                // only up to the largest single item (two equal-density
                // services of cpu 0.75 and 3 on one 3-cpu node: greedy
                // admits the small one first and cuts the big one).
                if (like_for_like &&
                    heuristic_revenue <
                        options.costGapFraction * lp_revenue -
                            largest_item_revenue - kEps) {
                    std::ostringstream os;
                    os << "heuristic revenue " << heuristic_revenue
                       << " below " << options.costGapFraction
                       << " * LP optimum " << lp_revenue;
                    report(result.violations, "lp-cost-lower",
                           "PhoenixCost", os.str());
                }
            }
        }

        core::LpScheme lp_fair(Objective::Fair, lp_options);
        const SchemeResult lf = lp_fair.apply(c.apps, post);
        if (!lf.failed) {
            result.lpFairRan = true;
            checkStateInvariants("LPFair", c.apps, lf.pack.state,
                                 options, result.violations);
            checkActionReplay("LPFair", c.apps, post, lf,
                              result.violations);
            const ActiveSet lp_active = lf.activeSet(c.apps);
            checkLpActiveSetOrder("LPFair", c.apps, lp_active,
                                  result.violations);
            if (lf.provenOptimal) {
                // Only the floor is sound: PhoenixFair has no strict
                // water-fill cap, so its minimum allocation may
                // legitimately exceed LPFair's F*. Indivisibility can
                // cost up to one largest service.
                const double lp_min =
                    minAllocation(c.apps, lp_active);
                const double heuristic_min = minAllocation(
                    c.apps,
                    results.at("PhoenixFair").activeSet(c.apps));
                const double floor =
                    options.fairGapFraction * lp_min -
                    largestServiceCpu(c.apps) - kEps;
                if (heuristic_min < floor) {
                    std::ostringstream os;
                    os << "heuristic min allocation " << heuristic_min
                       << " below floor " << floor
                       << " (LPFair F*=" << lp_min << ")";
                    report(result.violations, "lp-fair-lower",
                           "PhoenixFair", os.str());
                }
            }
        }
    }

    result.lpSeconds = secondsSince(lp_start);
    if (lp_eligible)
        PHOENIX_OBSERVE(*phaseObs().lp, result.lpSeconds);

    // --- Metamorphic relations -------------------------------------
    const Clock::time_point meta_start = Clock::now();
    if (options.metamorphic) {
        // Scale x2: exact in binary FP given grid-quantized sizes, so
        // plan/actions/assignment must be bit-identical.
        const CheckCase scaled = scaledCopy(c, 2.0);
        const ClusterState scaled_post = postFailureState(scaled);
        for (Objective objective :
             {Objective::Fair, Objective::Cost}) {
            const std::string name = objective == Objective::Fair
                                         ? "PhoenixFair"
                                         : "PhoenixCost";
            PhoenixScheme scheme(objective);
            const SchemeResult sr =
                scheme.apply(scaled.apps, scaled_post);
            const SchemeResult &base = results.at(name);
            if (sr.plan != base.plan)
                report(result.violations, "scale-invariance", name,
                       "plan changed under x2 scaling");
            else if (!sameActions(sr.pack.actions, base.pack.actions))
                report(result.violations, "scale-invariance", name,
                       "actions changed under x2 scaling");
        }

        // Node relabeling: best-fit-only packing sees the same
        // remaining-capacity multiset, so the active set and revenue
        // must match. Constrained cases are exempt — relabeling moves
        // nodes across zones, which legitimately changes what the
        // vacancy caps admit.
        if (post.nodeCount() > 1 && !c.constrained()) {
            std::vector<NodeId> perm(post.nodeCount());
            for (NodeId n = 0; n < perm.size(); ++n)
                perm[n] = n;
            util::Rng perm_rng(util::cellSeed(c.seed, 0xBEEF));
            perm_rng.shuffle(perm);
            const ClusterState permuted = permuteNodes(post, perm);
            for (Objective objective :
                 {Objective::Fair, Objective::Cost}) {
                PackingOptions best_fit_only;
                best_fit_only.allowMigrations = false;
                best_fit_only.allowDeletions = false;
                PhoenixScheme plain(objective, {}, best_fit_only);
                PhoenixScheme relabeled(objective, {}, best_fit_only);
                const SchemeResult ra = plain.apply(c.apps, post);
                const SchemeResult rb =
                    relabeled.apply(c.apps, permuted);
                // Below-quorum cleanup evicts a failed service's
                // survivors even in best-fit-only mode, and a
                // survivor's host is coupled to earlier tie-break
                // choices — freeing its cpu breaks the
                // remaining-capacity multiset induction the property
                // rests on. Only the eviction-free run is invariant.
                const auto has_delete = [](const SchemeResult &r) {
                    for (const Action &a : r.pack.actions) {
                        if (a.kind == core::ActionKind::Delete)
                            return true;
                    }
                    return false;
                };
                if (has_delete(ra) || has_delete(rb))
                    continue;
                const std::string name = objective == Objective::Fair
                                             ? "PhoenixFair"
                                             : "PhoenixCost";
                if (ra.activeSet(c.apps) != rb.activeSet(c.apps)) {
                    report(result.violations, "permutation-invariance",
                           name,
                           "active set changed under node relabeling");
                }
            }
        }

        // Restoring a failed node must not make things worse.
        // Constrained cases are exempt: a restored node reopens a
        // zone, and honoring a spread cap there can legally shed a
        // co-located replica the capacity-only argument would keep.
        std::optional<NodeId> down;
        for (NodeId n = 0; !c.constrained() && n < post.nodeCount();
             ++n) {
            if (!post.isHealthy(n)) {
                down = n;
                break;
            }
        }
        if (down) {
            ClusterState restored = post;
            restored.restoreNode(*down);
            // Two fuzz-found soundness limits shape this check.
            // First, greedy packing under fragmentation is not
            // point-wise monotone: a restored node changes the plan,
            // and the new plan can strand one indivisible container
            // the old one placed (11+7 nodes where no two of
            // {4,4,3.25} share the 7-unit node), so each metric gets
            // an indivisibility slack. Second, each scheme is only
            // monotone in its *own* objective: PhoenixCost will
            // happily trade half the cluster's availability for an
            // expensive app's replica set, and PhoenixFair will shed
            // revenue for balance — so Fair is checked on
            // availability and Cost on normalized revenue only.
            const double avail_slack =
                1.0 / static_cast<double>(c.apps.size()) +
                options.monotonicityTolerance;
            double full_revenue = 0.0;
            double largest_item_revenue = 0.0;
            for (const auto &app : c.apps) {
                for (const auto &ms : app.services) {
                    const double item =
                        app.pricePerUnit * ms.totalCpu();
                    full_revenue += item;
                    largest_item_revenue =
                        std::max(largest_item_revenue, item);
                }
            }
            const double revenue_slack =
                (full_revenue > 0.0
                     ? largest_item_revenue / full_revenue
                     : 0.0) +
                options.monotonicityTolerance;
            // Revenue is only PhoenixCost's objective *within* a
            // criticality level. On mixed-tag cases the restored
            // capacity can let the plan admit a huge cheap critical
            // service whose packing then crowds out an expensive
            // low-criticality one — a legal trade under the
            // lexicographic key with an unbounded revenue cost (fuzz:
            // a 0.25-priced 3x3.75-cpu C2 set displacing 2.5-priced
            // services once a second node returned). Uniform effective
            // tags reduce the key to pure price density, where revenue
            // monotonicity modulo indivisibility is the real claim.
            bool uniform_tags = true;
            int mono_tag = 0;
            for (const auto &app : c.apps) {
                for (const auto &ms : app.services) {
                    const int t = core::effectiveCriticality(app, ms);
                    if (mono_tag == 0)
                        mono_tag = t;
                    uniform_tags = uniform_tags && t == mono_tag;
                }
            }
            for (Objective objective :
                 {Objective::Fair, Objective::Cost}) {
                const std::string name = objective == Objective::Fair
                                             ? "PhoenixFair"
                                             : "PhoenixCost";
                PhoenixScheme scheme(objective);
                const SchemeResult after =
                    scheme.apply(c.apps, restored);
                const ActiveSet active_before =
                    results.at(name).activeSet(c.apps);
                const ActiveSet active_after = after.activeSet(c.apps);
                const double avail_before =
                    sim::criticalFractionAvailability(c.apps,
                                                      active_before);
                const double avail_after =
                    sim::criticalFractionAvailability(c.apps,
                                                      active_after);
                const double revenue_before =
                    sim::revenueNormalized(c.apps, active_before);
                const double revenue_after =
                    sim::revenueNormalized(c.apps, active_after);
                const bool violated =
                    objective == Objective::Fair
                        ? avail_after < avail_before - avail_slack
                        : uniform_tags &&
                              revenue_after <
                                  revenue_before - revenue_slack;
                if (violated) {
                    std::ostringstream os;
                    os << "restoring node " << *down
                       << " dropped availability " << avail_before
                       << " -> " << avail_after << ", revenue "
                       << revenue_before << " -> " << revenue_after;
                    report(result.violations, "monotonicity", name,
                           os.str());
                }
            }
        }
    }

    if (options.metamorphic) {
        result.metamorphicSeconds = secondsSince(meta_start);
        PHOENIX_OBSERVE(*phaseObs().metamorphic,
                        result.metamorphicSeconds);
    }

    // --- Kube lifecycle --------------------------------------------
    if (options.lifecycle && c.lifecycle && !c.steps.empty() &&
        c.singleReplica()) {
        const Clock::time_point lifecycle_start = Clock::now();
        runLifecycleOracle(c, result);
        result.lifecycleSeconds = secondsSince(lifecycle_start);
        PHOENIX_OBSERVE(*phaseObs().lifecycle,
                        result.lifecycleSeconds);
    }

    return result;
}

} // namespace phoenix::check
