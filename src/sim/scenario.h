/**
 * @file
 * Declarative failure-scenario engine (Fig 6, §6.1 recovery dynamics).
 *
 * The paper's end-to-end evaluation is about *recovery dynamics*: how
 * a resilience scheme behaves while failures unfold and capacity
 * returns. A Scenario is a declarative list of timed steps — explicit
 * or randomized node failures, correlated zone outages, rolling
 * failures, kubelet flaps (stop→start inside or outside the node
 * grace period), capacity-fraction failures, and staggered partial
 * recovery. A ScenarioRunner arms the steps on the shared EventQueue
 * and drives any FaultTarget (the mini-Kubernetes cluster implements
 * the interface), recording a per-node trace of everything it
 * injected.
 *
 * Beyond clean node loss, the engine covers the fault classes where
 * orchestrators actually break (the cloud-edge failure-injection
 * taxonomy): zone/node *network partitions* (heartbeats stop reaching
 * the control plane while the node keeps running), *degraded* nodes
 * (capacity/latency multiplier — slow, not dead), *API-server
 * outages* (the controller's observation freezes while the cluster
 * keeps evolving), and *clock skew* on kubelet heartbeats.
 *
 * Randomized selections (failCount, failCapacityFraction, rollingFail)
 * draw from an explicitly seeded Rng in event-fire order, so a
 * scenario is reproducible bit-for-bit for a given seed.
 *
 * Input validation: the fluent builders clamp out-of-domain arguments
 * deterministically (fractions into [0,1], negative
 * intervals/downtimes/staggers to 0, degrade factors into
 * [kMinDegradeFactor, 1]) instead of silently misbehaving; counts
 * larger than the node set saturate at "every node" at fire time, and
 * a rolling fail stops once no node is left up. Scripts read from JSON
 * (sim/scenario_json.h) are validated instead of clamped.
 */

#ifndef PHOENIX_SIM_SCENARIO_H
#define PHOENIX_SIM_SCENARIO_H

#include <map>
#include <set>
#include <vector>

#include "obs/obs.h"
#include "sim/event_queue.h"
#include "sim/types.h"
#include "util/rng.h"

namespace phoenix::sim {

/** Degrade factors below this clamp up to it (a factor of 0 would be
 * a dead node — that is what injectNodeFailure is for). */
constexpr double kMinDegradeFactor = 1.0 / 64.0;

/**
 * Fault-injection surface the scenario engine drives. KubeCluster
 * implements it (failure = kubelet stop, recovery = kubelet start);
 * tests may implement it directly to observe injection order.
 *
 * The extended taxonomy hooks default to no-ops so a target that only
 * models clean node loss still composes with any scenario; KubeCluster
 * overrides all of them.
 */
class FaultTarget
{
  public:
    virtual ~FaultTarget() = default;

    virtual size_t nodeCount() const = 0;
    virtual double nodeCapacity(NodeId node) const = 0;
    /**
     * Explicit failure-domain label for a node, or -1 when the target
     * has no topology. Zone-scoped steps (FailZone, PartitionZone,
     * DegradeZone) use explicit labels when the target reports them
     * and fall back to the classic id % zoneCount partition otherwise,
     * so targets without topology behave exactly as before.
     */
    virtual int
    nodeZone(NodeId node) const
    {
        (void)node;
        return -1;
    }
    /** Take the node down (for Kubernetes: stop its kubelet). */
    virtual void injectNodeFailure(NodeId node) = 0;
    /** Bring the node back (for Kubernetes: restart its kubelet). */
    virtual void injectNodeRecovery(NodeId node) = 0;

    /** Network-partition the node from the control plane: heartbeats
     * stop arriving but the node (and its pods) keep running. */
    virtual void injectPartition(NodeId node) { (void)node; }
    /** Heal the partition; heartbeats resume on their own cadence. */
    virtual void injectPartitionHeal(NodeId node) { (void)node; }
    /** Degrade (slow-not-dead): schedulable capacity multiplied by
     * @p factor in (0, 1]; 1.0 restores full service. */
    virtual void injectDegrade(NodeId node, double factor)
    {
        (void)node;
        (void)factor;
    }
    /** Skew the node's kubelet clock: heartbeat timestamps carry
     * now + skew seconds; 0 restores an honest clock. */
    virtual void injectClockSkew(NodeId node, double skewSeconds)
    {
        (void)node;
        (void)skewSeconds;
    }
    /** API-server outage window: controller-facing observation
     * freezes; the cluster itself keeps evolving. */
    virtual void injectApiOutageBegin() {}
    virtual void injectApiOutageEnd() {}
};

/** Scenario-wide knobs. */
struct ScenarioOptions
{
    /** Seed for randomized node selection. */
    uint64_t seed = 42;
    /** Zone count for targets without zone labels: node id belongs
     * to zone (id % zoneCount). Ignored where the target labels its
     * nodes (FaultTarget::nodeZone). */
    size_t zoneCount = 5;
};

/** One injected action, for traces and tests. */
enum class ScenarioAction {
    Fail,
    Recover,
    Partition,       //!< node partitioned from the control plane
    Heal,            //!< partition healed
    Degrade,         //!< capacity/latency multiplier applied (value)
    Restore,         //!< degrade lifted (factor back to 1.0)
    ClockSkew,       //!< heartbeat clock skew set (value = seconds)
    ApiOutageBegin,  //!< observation freeze begins (node unused)
    ApiOutageEnd,    //!< observation freeze ends (node unused)
};

struct ScenarioTraceEntry
{
    SimTime at = 0.0;
    ScenarioAction action = ScenarioAction::Fail;
    NodeId node = 0;
    /** Degrade: the factor; ClockSkew: the skew seconds; else 0. */
    double value = 0.0;
};

/**
 * The declarative scenario: an ordered list of timed steps built
 * through the fluent helpers. Steps may be added in any order; the
 * runner schedules each at its own instant.
 */
class Scenario
{
  public:
    struct Step
    {
        enum class Kind {
            FailNodes,           //!< fail an explicit node set
            FailCount,           //!< fail N random up nodes
            FailCapacityFraction,//!< fail until >= fraction of capacity down
            FailZone,            //!< correlated outage of one zone
            RollingFail,         //!< one random node every interval
            Flap,                //!< kubelet stop, restart after downtime
            RecoverNodes,        //!< recover an explicit node set
            RecoverAll,          //!< recover every down node (staggered)
            PartitionNodes,      //!< partition an explicit node set
            PartitionZone,       //!< partition one whole zone
            HealPartition,       //!< heal an explicit node set
            Degrade,             //!< degrade an explicit node set
            DegradeZone,         //!< degrade one whole zone
            ApiOutage,           //!< freeze observation for a window
            SkewClock,           //!< set heartbeat clock skew
        };

        SimTime at = 0.0;
        Kind kind = Kind::FailNodes;
        std::vector<NodeId> nodes = {};
        size_t count = 0;
        double fraction = 0.0;
        size_t zone = 0;
        /** Rolling spacing / staggered-recovery spacing (seconds). */
        double interval = 0.0;
        /** Flap: seconds between the stop and the restart. Partition /
         * Degrade / ApiOutage: window length (<= 0 = rest of run for
         * partition/degrade; an ApiOutage window is always >= 0). */
        double downtime = 0.0;
        /** Degrade factor in [kMinDegradeFactor, 1]. */
        double factor = 1.0;
        /** Heartbeat clock skew in seconds (SkewClock only). */
        double skew = 0.0;
    };

    Scenario() = default;
    /** Ready-made steps, such as a script sim/scenario_json.h read. */
    explicit Scenario(std::vector<Step> steps) : steps_(std::move(steps)) {}

    Scenario &failNodes(SimTime at, std::vector<NodeId> nodes);
    /** Fail @p count random up nodes (saturates at the whole up set). */
    Scenario &failCount(SimTime at, size_t count);
    /** Fail random up nodes until at least @p fraction of the total
     * cluster capacity is down (cumulative with earlier failures —
     * the paper's "capacity reduced to X%" events). The fraction is
     * clamped into [0, 1]: <= 0 fails nothing, >= 1 fails everything. */
    Scenario &failCapacityFraction(SimTime at, double fraction);
    /** Fail every up node of one zone (see FaultTarget::nodeZone). */
    Scenario &failZone(SimTime at, size_t zone);
    /** Fail @p count random up nodes, one every @p interval seconds
     * starting at @p at. A non-positive interval clamps to 0: every
     * failure fires at @p at, in deterministic draw order. */
    Scenario &rollingFail(SimTime at, size_t count, double interval);
    /** Stop the kubelet at @p at, restart it @p downtime seconds
     * later: inside the node grace period the flap is invisible,
     * outside it the node goes NotReady and evicts exactly once. A
     * negative downtime clamps to 0 (stop and restart at the same
     * instant, stop first — FIFO tie-break). */
    Scenario &flapKubelet(SimTime at, NodeId node, double downtime);
    Scenario &recoverNodes(SimTime at, std::vector<NodeId> nodes);
    /** Recover every currently-down node; @p stagger > 0 spaces the
     * recoveries that many seconds apart in ascending node order
     * (staggered partial recovery). Negative staggers clamp to 0. */
    Scenario &recoverAll(SimTime at, double stagger = 0.0);

    // --- Extended fault taxonomy -----------------------------------
    /** Partition the nodes from the control plane at @p at; heal
     * @p duration seconds later (duration <= 0: stays partitioned
     * until an explicit healPartition step or the end of the run). */
    Scenario &partitionNodes(SimTime at, std::vector<NodeId> nodes,
                             double duration = 0.0);
    /** Partition every node of one zone (see FaultTarget::nodeZone). */
    Scenario &partitionZone(SimTime at, size_t zone,
                            double duration = 0.0);
    Scenario &healPartition(SimTime at, std::vector<NodeId> nodes);
    /** Degrade the nodes to @p factor of their capacity (clamped into
     * [kMinDegradeFactor, 1]); restore @p duration seconds later
     * (duration <= 0: stays degraded). */
    Scenario &degradeNodes(SimTime at, std::vector<NodeId> nodes,
                           double factor, double duration = 0.0);
    Scenario &degradeZone(SimTime at, size_t zone, double factor,
                          double duration = 0.0);
    /** Freeze controller-facing observation for @p duration seconds
     * (clamped to >= 0). Overlapping windows merge: observation
     * unfreezes when the last window ends. */
    Scenario &apiOutage(SimTime at, double duration);
    /** Set the node's heartbeat clock skew to @p skew seconds
     * (negative = heartbeats look stale, positive = fresh-from-the-
     * future); 0 restores an honest clock. */
    Scenario &skewClock(SimTime at, NodeId node, double skew);

    const std::vector<Step> &steps() const { return steps_; }

    /** Instant of the earliest failure-injecting step; -1 if none. */
    SimTime firstFailureAt() const;

  private:
    Scenario &push(Step step);

    std::vector<Step> steps_;
};

/**
 * Executes a Scenario against a FaultTarget on the EventQueue. The
 * constructor arms every step; the runner must outlive the
 * simulation. The runner tracks which nodes *it* took down, so
 * recoverAll only touches scenario-injected failures.
 */
class ScenarioRunner
{
  public:
    ScenarioRunner(EventQueue &events, FaultTarget &target,
                   Scenario scenario, ScenarioOptions options = {});

    /** Everything injected so far, in injection order. */
    const std::vector<ScenarioTraceEntry> &trace() const
    {
        return trace_;
    }

    /** Nodes the scenario has failed and not yet recovered (sorted). */
    std::vector<NodeId> downNodes() const;

    /** Nodes currently partitioned by the scenario (sorted). */
    std::vector<NodeId> partitionedNodes() const;

    /** Capacity of the currently-down nodes. */
    double downCapacity() const;

    /** Open API-outage windows (> 0 while observation is frozen). */
    size_t apiOutageDepth() const { return outageDepth_; }

    SimTime firstFailureAt() const { return firstFailureAt_; }

  private:
    void armStep(const Scenario::Step &step);
    void runStep(const Scenario::Step &step);
    void failNode(NodeId node);
    void recoverNode(NodeId node);
    void partitionNode(NodeId node);
    void healNode(NodeId node);
    void degradeNode(NodeId node, double factor);
    void skewNode(NodeId node, double skew);
    void beginOutage();
    void endOutage();
    /** Zone of @p node: the target's label, or id % zoneCount when
     * it has none. */
    size_t zoneOf(NodeId node) const;
    /** Nodes of @p zone (zoneOf), ascending. */
    std::vector<NodeId> zoneNodes(size_t zone) const;
    /** Up nodes (never failed or already recovered), ascending. */
    std::vector<NodeId> upNodes() const;
    double totalCapacity() const;

    EventQueue &events_;
    FaultTarget &target_;
    Scenario scenario_;
    ScenarioOptions options_;
    util::Rng rng_;
    std::set<NodeId> down_;
    std::set<NodeId> partitioned_;
    /** Current degrade factor per degraded node (absent = 1.0). */
    std::map<NodeId, double> degraded_;
    size_t outageDepth_ = 0;
    std::vector<ScenarioTraceEntry> trace_;
    SimTime firstFailureAt_ = -1.0;

    /** obs handles, resolved once at construction. */
    struct ObsHandles
    {
        obs::Counter *nodeFailures = nullptr;
        obs::Counter *nodeRecoveries = nullptr;
        obs::Counter *partitions = nullptr;
        obs::Counter *heals = nullptr;
        obs::Counter *degrades = nullptr;
        obs::Counter *skews = nullptr;
        obs::Counter *apiOutages = nullptr;
        obs::Counter *steps = nullptr;
    };
    ObsHandles obs_;
};

} // namespace phoenix::sim

#endif // PHOENIX_SIM_SCENARIO_H
