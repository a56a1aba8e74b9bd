/**
 * @file
 * Mini-Kubernetes: the discrete-event cluster-manager substrate Phoenix
 * runs against in the end-to-end experiments (§6.1, Fig 6).
 *
 * The paper deploys Phoenix on a real 25-node Kubernetes/CloudLab
 * cluster. This module reproduces the slice of Kubernetes behaviour the
 * controller interacts with:
 *
 *  - nodes with capacities and kubelet heartbeats; a node controller
 *    that marks nodes NotReady after a grace period and evicts their
 *    pods (the paper emulates failures by stopping kubelet, and Phoenix
 *    detects them ~100 s later — the same path exists here);
 *  - deployments/pods with Pending -> Starting -> Running ->
 *    Terminating lifecycle and realistic startup/termination delays;
 *  - the default spread (least-allocated) scheduler that continuously
 *    places pending pods, used both as machinery and as the paper's
 *    "Default" baseline;
 *  - the verbs the Phoenix agent executes: delete, migrate, restart,
 *    with optional node pinning;
 *  - the sim::FaultTarget hooks the failure-scenario engine drives
 *    (node failure = kubelet stop, recovery = kubelet start), plus the
 *    extended fault taxonomy: network partitions (heartbeats stop
 *    reaching the node controller while the kubelet keeps running),
 *    degraded nodes (schedulable capacity multiplied by a factor,
 *    startup slowed — slow, not dead), API-server outages (the
 *    controller-facing observation freezes while the cluster keeps
 *    evolving), and per-node heartbeat clock skew;
 *  - indexes that keep the substrate's per-epoch cost near-linear at
 *    scale: a dense pod table in PodRef order, a max-free index of
 *    Ready nodes for the spread scheduler, a pending bitset the
 *    scheduler tick walks, per-node pod lists for eviction, and a
 *    sim::VacancyAllocator answering placement-policy checks in O(1),
 *    all maintained at one mutation point; heartbeat chains that fire
 *    back to back share one event per period (beat groups);
 *  - an invariant checker (capacity bounds, incremental-vs-scan usage
 *    equality, index consistency, phase-transition legality) that
 *    scenario tests enable to turn lifecycle bugs into hard failures.
 */

#ifndef PHOENIX_KUBE_KUBE_H
#define PHOENIX_KUBE_KUBE_H

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "sim/cluster.h"
#include "sim/event_queue.h"
#include "sim/scenario.h"
#include "sim/types.h"
#include "sim/vacancy.h"
#include "util/bucketed_kv.h"
#include "util/rng.h"

namespace phoenix::kube {

/** Cluster-manager tunables (Kubernetes-flavoured defaults). */
struct KubeConfig
{
    /** Kubelet heartbeat period (node status update). */
    double heartbeatPeriod = 10.0;
    /** Node controller: heartbeats older than this mark the node
     * NotReady and evict its pods. The paper observes Phoenix detecting
     * node failures ~100 s after kubelet stops. */
    double nodeGracePeriod = 100.0;
    /** Default scheduler sync period. */
    double schedulerPeriod = 5.0;
    /** Pod startup delay range (image pull + container init). */
    double podStartupMin = 15.0;
    double podStartupMax = 60.0;
    /** Graceful termination (drain + SIGTERM) duration. */
    double podTerminationSeconds = 10.0;
    /** Run the built-in spread scheduler for unpinned pending pods. */
    bool enableDefaultScheduler = true;
    /**
     * Run the O(pods + nodes) invariant sweep after every event:
     * no node's Starting+Running+Terminating usage exceeds its
     * capacity, the incrementally maintained per-node usage matches a
     * full rescan, each node's pod list holds exactly the pods
     * occupying it, the capacity index holds exactly the Ready nodes
     * under their current free capacity, the vacancy allocator's
     * per-scope counts equal a rebuild from the occupying pods, the
     * pending bitset equals a rescan of phases, and every node whose
     * kubelet runs belongs to an armed, non-empty heartbeat group.
     * Phase-transition legality is always checked (it is O(1)).
     * Violations are counted (see invariantViolations()) and assert
     * in debug builds. Defaults on in debug builds; scenario tests
     * enable it explicitly.
     */
#ifdef NDEBUG
    bool validateInvariants = false;
#else
    bool validateInvariants = true;
#endif
    uint64_t seed = 42;
};

/** Pod lifecycle phase. */
enum class PodPhase { Pending, Starting, Running, Terminating };

/** One pod (we run one replica per microservice deployment). */
struct Pod
{
    sim::PodRef ref;
    double cpu = 0.0;
    PodPhase phase = PodPhase::Pending;
    /** Hosting node; meaningful for Starting/Running/Terminating. */
    sim::NodeId node = 0;
    /** Desired pinned node (Phoenix sets this; empty = any). */
    std::optional<sim::NodeId> pinnedNode;
    /** Desired-off: deployment scaled to zero, do not reschedule. */
    bool scaledDown = false;
};

/**
 * The cluster manager. Drive it by advancing the shared EventQueue;
 * every public mutator is safe to call from event handlers (the agent
 * or a ScenarioRunner).
 */
class KubeCluster : public sim::FaultTarget
{
  public:
    KubeCluster(sim::EventQueue &events, KubeConfig config = KubeConfig());

    /** Add a worker node; starts Ready with a live kubelet. The
     * optional zone is the node's failure-domain label (`zone` on the
     * NodeSpec); 0 when the deployment has no topology. */
    sim::NodeId addNode(double capacity, uint32_t zone = 0);

    /**
     * Register an application: one deployment per microservice with
     * one pod per replica; pods start Pending and the default
     * scheduler picks them up, honoring each service's placement
     * policy (anti-affinity caps, zone spread). Microservice ids must
     * equal their index in app.services (the manifest loader already
     * guarantees it); throws std::invalid_argument otherwise and
     * registers nothing. The pod index takes this app's pods on its
     * next use; snapshots taken earlier keep the index they were built
     * on. The vacancy allocator is rebuilt over every app and reseeded
     * from the pods already occupying nodes.
     */
    void addApplication(const sim::Application &app);

    const std::vector<sim::Application> &apps() const { return apps_; }

    // --- Fault injection -------------------------------------------
    /** Stop the kubelet process on a node (the paper's failure mode);
     * the node stops heartbeating and goes NotReady after the grace
     * period. */
    void stopKubelet(sim::NodeId node);

    /** Restart the kubelet; the node becomes Ready on its next
     * heartbeat. Pods previously evicted stay wherever they are now. */
    void startKubelet(sim::NodeId node);

    /** Network-partition the node from the control plane: the kubelet
     * keeps running (and its heartbeat chain stays alive) but updates
     * stop reaching the node controller, so the node goes NotReady
     * after the grace period exactly like a dead kubelet. */
    void partitionNode(sim::NodeId node);

    /** Heal the partition; heartbeats resume on their own cadence (the
     * node turns Ready again at its next heartbeat + controller tick,
     * no kubelet restart involved). */
    void healPartition(sim::NodeId node);

    /** Degrade (slow-not-dead): schedulable capacity becomes
     * capacity * factor and pod startup slows by 1/factor. Pods
     * already placed keep running — degradation never evicts; the
     * scheduler just stops placing load the node can no longer take.
     * factor is clamped into [sim::kMinDegradeFactor, 1]; 1 restores
     * full service. */
    void degradeNode(sim::NodeId node, double factor);

    /** Set the node's kubelet clock skew: subsequent heartbeats are
     * stamped now + skew seconds. Negative skew makes a live node look
     * stale (NotReady despite running pods); positive skew can mask a
     * dead kubelet as fresh. 0 restores an honest clock. */
    void setClockSkew(sim::NodeId node, double skewSeconds);

    /** API-server outage: freeze the controller-facing observation
     * surface (observedState / observedReadyCapacity /
     * observedReadyFingerprint) at its current value while the cluster
     * keeps evolving. Agent verbs still execute (they reach etcd
     * through a different path in the real system; here they simply
     * act on live state). Idempotent — nested begins merge. */
    void beginApiOutage();

    /** End the outage; observation snaps back to live state. */
    void endApiOutage();

    // --- sim::FaultTarget (scenario-engine hooks) ------------------
    size_t nodeCount() const override { return nodes_.size(); }
    double nodeCapacity(sim::NodeId node) const override;
    /** Explicit zone label when the deployment declares topology
     * (any node with zone != 0); -1 otherwise so zone-scoped
     * scenarios keep the classic id % zoneCount partition. */
    int nodeZone(sim::NodeId node) const override;
    void injectNodeFailure(sim::NodeId node) override
    {
        stopKubelet(node);
    }
    void injectNodeRecovery(sim::NodeId node) override
    {
        startKubelet(node);
    }
    void injectPartition(sim::NodeId node) override
    {
        partitionNode(node);
    }
    void injectPartitionHeal(sim::NodeId node) override
    {
        healPartition(node);
    }
    void injectDegrade(sim::NodeId node, double factor) override
    {
        degradeNode(node, factor);
    }
    void injectClockSkew(sim::NodeId node, double skewSeconds) override
    {
        setClockSkew(node, skewSeconds);
    }
    void injectApiOutageBegin() override { beginApiOutage(); }
    void injectApiOutageEnd() override { endApiOutage(); }

    // --- Agent verbs -----------------------------------------------
    /** Gracefully delete a pod and scale its deployment down. */
    void deletePod(const sim::PodRef &ref);

    /**
     * Ensure the pod is (re)started, optionally pinned to a node.
     * Clears scaled-down state; a running pod is left alone unless a
     * different pin is given (which triggers a migration). A pin to a
     * node that does not exist is ignored, as migratePod ignores such
     * a target.
     */
    void startPod(const sim::PodRef &ref,
                  std::optional<sim::NodeId> pinned = std::nullopt);

    /**
     * Migrate: start on the target, then delete the old instance (the
     * two-stage strategy of Appendix E). The target is validated like
     * the scheduler would: migrating onto a NotReady or full node is
     * rejected (the pin is kept for the next replan). A Starting pod
     * restarts its startup clock on the target; a Terminating pod
     * finishes its drain first and the pin re-places it afterwards.
     */
    void migratePod(const sim::PodRef &ref, sim::NodeId to);

    // --- Observation ------------------------------------------------
    bool isReady(sim::NodeId node) const;
    /** Live ready capacity (degrade-aware: a degraded node counts
     * capacity * factor). Omniscient — never frozen by an API outage;
     * controllers should use observedReadyCapacity(). */
    double readyCapacity() const;
    double totalCapacity() const;
    bool kubeletRunning(sim::NodeId node) const;
    bool isPartitioned(sim::NodeId node) const;
    /** Current degrade factor (1.0 = healthy). */
    double degradeFactor(sim::NodeId node) const;
    /** Current heartbeat clock skew in seconds (0 = honest). */
    double clockSkew(sim::NodeId node) const;
    /** Schedulable capacity: capacity * degradeFactor. */
    double effectiveCapacity(sim::NodeId node) const;
    bool apiOutageActive() const { return apiOutage_; }

    /**
     * Snapshot for planners: Ready nodes are healthy; Starting,
     * Running and Terminating pods occupy their node (a draining pod
     * holds its capacity until the drain ends). Pending pods are
     * absent. Degraded nodes report max(effective capacity, current
     * usage) so existing placements stay representable. **Frozen**
     * while an API outage is active — this is the controller-facing
     * observation surface.
     */
    sim::ClusterState observedState() const;

    /** The same snapshot, never frozen — ground truth for oracles,
     * metrics sampling, and omniscient harness code. */
    sim::ClusterState liveState() const;

    /** Ready capacity as the controller sees it (frozen during an API
     * outage, degrade-aware otherwise). */
    double observedReadyCapacity() const;

    /**
     * Order-sensitive FNV-1a hash over every node's (ready, effective
     * capacity) as the controller sees it — frozen during an API
     * outage. Changes whenever the ready *set* changes, even when the
     * aggregate capacity is unchanged (equal-capacity swaps), so the
     * controller can replan on membership changes it would otherwise
     * miss.
     */
    uint64_t observedReadyFingerprint() const;

    // --- Forecast projections --------------------------------------
    /** Static vs. observed ready capacity of one forecast zone. */
    struct ZoneCapacity
    {
        double staticCapacity = 0.0; //!< nameplate capacity of the zone
        double readyCapacity = 0.0;  //!< observed (frozen-aware) ready
    };

    /**
     * Forecast failure-domain partition: the explicit zone labels when
     * the deployment declares topology, else the classic
     * id % fallbackZoneCount striping the scenario engine uses.
     */
    size_t forecastZoneCount(size_t fallbackZoneCount) const;
    size_t forecastZoneOf(sim::NodeId node,
                          size_t fallbackZoneCount) const;

    /**
     * Per-zone nameplate vs. observed ready capacity, indexed by
     * forecast zone. Read from the node records, not a pod snapshot;
     * the ready side follows the observation surface, so an API outage
     * freezes it while the static side stays nameplate truth. Sums run
     * in node order, so the values equal those summed from
     * observedState().
     */
    std::vector<ZoneCapacity>
    observedZoneCapacities(size_t fallbackZoneCount) const;

    /**
     * Projected post-fault snapshot for an anticipated zone loss: the
     * observed state with every observed-Ready node of forecast zone
     * @p zone failed (pods on them evicted). std::nullopt when the
     * zone has no such node: the projection would equal the observed
     * state, so there is nothing to pre-empt.
     */
    std::optional<sim::ClusterState>
    projectedZoneLossState(size_t zone, size_t fallbackZoneCount) const;

    /**
     * Projected post-fault snapshot for gradual capacity decay: the
     * observed state with every observed-Ready, capacity-deficient
     * node (observed below its nameplate — i.e. degraded) failed.
     * std::nullopt when no such node exists.
     */
    std::optional<sim::ClusterState> projectedDecayState() const;

    /** Pods currently serving traffic (Running only). */
    std::set<sim::PodRef> runningPods() const;

    /** Pods waiting for a bind: Pending and not scaled down (a popcount
     * of the pending bitset; O(pods / 64)). */
    size_t pendingCount() const;

    /** The pod for @p ref, or nullptr when no registered deployment
     * has it. O(1). The pointer stays valid until the next
     * addApplication(). */
    const Pod *pod(const sim::PodRef &ref) const;

    sim::SimTime now() const { return events_.now(); }

    // --- Invariant checker / diagnostics ---------------------------
    /** Invariant violations observed so far (0 in a healthy run). */
    size_t invariantViolations() const { return invariantViolations_; }

    /** Node-controller eviction sweeps performed on @p node (a flap
     * inside the grace period performs none; a long outage exactly
     * one). */
    size_t evictionEpisodes(sim::NodeId node) const;

    /** Total pods evicted back to Pending by node failures. */
    size_t evictedPodCount() const { return evictedPods_; }

  private:
    struct NodeRec
    {
        sim::NodeId id = 0;
        double capacity = 0.0;
        /** Failure-domain label; static. */
        uint32_t zone = 0;
        bool kubeletRunning = true;
        bool ready = true;
        sim::SimTime lastHeartbeat = 0.0;
        /** Partitioned from the control plane (kubelet still alive). */
        bool partitioned = false;
        /** Slow-not-dead multiplier in (0, 1]; 1 = healthy. */
        double degradeFactor = 1.0;
        /** Heartbeat timestamps are stamped now + clockSkew. */
        double clockSkew = 0.0;
    };

    /**
     * Heartbeat chains that fire back to back, sharing one event per
     * period: members are stamped in join order, and a member whose
     * kubelet has stopped leaves (its chain dies). A node restarted
     * within one period belongs to two groups, as it had two chains.
     */
    struct BeatGroup
    {
        sim::SimTime due = 0.0;
        bool armed = false;
        std::vector<sim::NodeId> members;
    };

    /** Start @p node's heartbeat chain. It joins the last armed group
     * when its first beat would fire right after that group's event:
     * due at the same instant, with nothing scheduled since the group
     * was armed (EventQueue::nextSeq). Otherwise it arms a new group. */
    void startHeartbeatChain(sim::NodeId node);
    void armBeatGroup(uint32_t group);
    /** One beat of every member of @p group; re-arms while any
     * member's kubelet runs. */
    void beat(uint32_t group);
    /** Build the planner snapshot from live state. */
    sim::ClusterState buildState() const;
    /** Capacity a node reports in the live snapshot: its nameplate, or
     * when degraded max(capacity * factor, used). */
    double observedCapacity(const NodeRec &rec) const;
    /** Capacity the observation surface reports for @p rec when it is
     * observed Ready — the frozen snapshot's during an API outage;
     * std::nullopt when it is observed NotReady or joined after the
     * freeze. Reads no pods. */
    std::optional<double> observedReadyCapacityOf(const NodeRec &rec) const;
    /** The observed state with @p doomed failed; std::nullopt when
     * @p doomed is empty. */
    std::optional<sim::ClusterState>
    observedStateWithout(const std::vector<sim::NodeId> &doomed) const;
    /** Live (never frozen) ready-set fingerprint. */
    uint64_t readyFingerprint() const;
    void nodeControllerTick();
    void schedulerTick();

    /** Dense pod-table position: podIndex_'s slot, so slot order is
     * PodRef order. */
    using Slot = sim::Slot;
    static constexpr Slot kNoSlot = sim::kNoSlot;

    /** Bind one pending pod if a node takes it, counting the nodes
     * examined into @p probes. */
    void tryBind(Slot slot, uint64_t &probes);

    /** Used capacity on a node from Starting/Running/Terminating pods
     * (incrementally maintained; the invariant sweep checks it against
     * a full rescan). */
    double usedOn(sim::NodeId node) const;

    /** Capacity-index key of a node: its negated free capacity, so
     * ascending (key, id) is most free first, lowest id on ties. */
    double freeKey(const NodeRec &rec) const;
    /** Re-key a Ready node after its usage or degrade factor changed
     * (no-op for NotReady nodes, which are not indexed). */
    void rekeyNode(sim::NodeId node);

    /** Whether a phase occupies node capacity. */
    static bool occupiesNode(PodPhase phase);

    /** Pod lifecycle transition table (same-phase node moves allowed
     * for Starting/Running migrations). */
    static bool legalTransition(PodPhase from, PodPhase to);

    /**
     * The single mutation point for (phase, node): checks transition
     * legality and maintains every index over pods — the per-node
     * usage book, the per-node pod lists, the capacity index, the
     * vacancy allocator and the pending bitset.
     */
    void transition(Slot slot, PodPhase to, sim::NodeId node);

    /** Set @p slot's pending bit from its pod: Pending and not scaled
     * down. Called wherever a phase or scaledDown changes. */
    void syncPending(Slot slot);

    /** Begin starting a pod on a node (capacity is consumed now; any
     * armed start-completion timer is invalidated via the epoch). */
    void bindPod(Slot slot, sim::NodeId node);

    /**
     * Evict (node failure): Starting/Running pods return to Pending
     * (the scheduler re-places them unless scaled down), in PodRef
     * order. Terminating pods keep their graceful drain — they are
     * already on the way out, and scaled-down ones never come back.
     */
    void evictPodsOn(sim::NodeId node);

    /** Rebuild @p vacancy over every app and count every occupying
     * pod in it, in slot order. */
    void buildVacancy(sim::VacancyAllocator &vacancy) const;

    /** podIndex_, first brought up to every registered app. */
    const std::shared_ptr<sim::PodIndex> &podIndex() const;

    void recordViolation(const std::string &what);
    /** Full invariant sweep; no-op unless config.validateInvariants. */
    void validateAfterEvent();

    sim::EventQueue &events_;
    KubeConfig config_;
    util::Rng rng_;

    std::vector<NodeRec> nodes_;
    /** Any node carries a nonzero zone label (topology declared). */
    bool hasExplicitZones_ = false;
    std::vector<sim::Application> apps_;
    /** The pods of apps_[0, indexedApps_). Snapshots share it.
     * podIndex() appends the apps added since in one batch, in place,
     * after copying it while anything else holds it. A cluster's apps
     * all arrive before its first snapshot, so the index is built once
     * at its exact size. */
    mutable std::shared_ptr<sim::PodIndex> podIndex_;
    mutable size_t indexedApps_ = 0;
    /** Every pod, in podIndex()'s slot order. A deque grows in small
     * blocks as apps arrive, so the table is never copied and never one
     * large block: a doubling vector held 12 MB and copied 11 MB for
     * zonekill-10k's 163k pods, and that block, freed at the heap top
     * beside the event queue's, let glibc trim the heap under every
     * teardown and re-fault it in the next set-up. */
    std::deque<Pod> pods_;
    /** Per-slot counter to invalidate stale timers. 32 bits keep a
     * timer's (this, slot, epoch) capture at 16 bytes, which
     * std::function stores without allocating. */
    std::vector<uint32_t> podEpoch_;
    /** One bit per slot: Pending and not scaled down. The scheduler
     * tick visits only set bits. */
    std::vector<uint64_t> pendingBits_;
    /** Heartbeat groups by id; unarmed ones are listed in
     * freeBeatGroups_ for reuse. */
    std::vector<BeatGroup> beatGroups_;
    std::vector<uint32_t> freeBeatGroups_;
    /** The group armed last and the sequence number its event got
     * (meaningless while beatGroups_ is empty). */
    uint32_t lastBeatGroup_ = 0;
    uint64_t lastBeatSeq_ = 0;
    /** Incremental Starting+Running+Terminating usage per node. */
    std::vector<double> nodeUsed_;
    /** Slots occupying each node, unordered (swap-remove). */
    std::vector<std::vector<Slot>> nodePods_;
    /** Each occupying slot's position in its node's nodePods_ list. */
    std::vector<Slot> podPos_;
    /** Placement-policy counts of the occupying pods (Starting,
     * Running, Terminating) per scope, node and zone; empty() unless
     * an app declares a policy. The PDB ledger is never spent here. */
    sim::VacancyAllocator vacancy_;
    /** Ready nodes under freeKey(); the spread scheduler's candidates
     * in its preference order. */
    util::BucketedKv<sim::NodeId> capacityIndex_;
    /** Each Ready node's key in capacityIndex_. */
    std::vector<double> nodeKey_;
    std::vector<size_t> nodeEvictionEpisodes_;
    size_t evictedPods_ = 0;
    size_t invariantViolations_ = 0;
    /** API-outage freeze: observation surface captured at begin. */
    bool apiOutage_ = false;
    sim::ClusterState frozenState_;
    double frozenReadyCapacity_ = 0.0;
    uint64_t frozenFingerprint_ = 0;
    /** Scratch for the validation sweep (avoids per-event allocs). */
    std::vector<double> validateScratch_;
    std::vector<size_t> validateCounts_;
    sim::VacancyAllocator validateVacancy_;

    /** obs handles, resolved once at construction (per-phase pod
     * transition counters + lifecycle/scheduler/node counters). */
    struct ObsHandles
    {
        obs::Counter *transitions[4] = {nullptr, nullptr, nullptr,
                                        nullptr};
        obs::Counter *binds = nullptr;
        obs::Counter *nodeProbes = nullptr;
        obs::Counter *pendingVisits = nullptr;
        obs::Counter *evictedPods = nullptr;
        obs::Counter *evictionEpisodes = nullptr;
        obs::Counter *invariantViolations = nullptr;
        obs::Counter *migrationsRejected = nullptr;
        obs::Counter *nodeNotReady = nullptr;
        obs::Counter *nodeReady = nullptr;
    };
    ObsHandles obs_;
};

} // namespace phoenix::kube

#endif // PHOENIX_KUBE_KUBE_H
