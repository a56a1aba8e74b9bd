/**
 * @file
 * Phoenix controller/agent (§4.2 "Agent", §5).
 *
 * Monitors the cluster at a fixed cadence (15 s in the paper), detects
 * capacity changes (node failures or recoveries), invokes the
 * configured resilience scheme to produce a target state, and executes
 * the resulting delete/migrate/restart sequence through the cluster
 * manager's API. Also records a timeline (detection, planning,
 * execution, recovery) used to reproduce Fig 6.
 *
 * The controller only ever reads the *observed* surface
 * (observedState / observedReadyCapacity / observedReadyFingerprint),
 * which an API-server outage freezes while the cluster keeps
 * evolving. Two properties make stale observation safe: (1) replans
 * trigger on the ready-set *fingerprint*, not just aggregate
 * capacity, so an equal-capacity swap (one node down, a same-sized
 * one back) that happened behind a stale window still forces a replan
 * once observation thaws — without it, pods pinned to the
 * now-NotReady node would sit Pending forever; (2) every action is
 * validated by the kubelet at execution time (migrations onto
 * NotReady/full nodes are rejected keeping the pin, pinned starts
 * wait in the scheduler), so acting on stale state degrades into
 * deferred work, never illegal state.
 */

#ifndef PHOENIX_CORE_CONTROLLER_H
#define PHOENIX_CORE_CONTROLLER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/schemes.h"
#include "kube/kube.h"
#include "sim/event_queue.h"

namespace phoenix::core {

/** One replanning episode in the controller's timeline. */
struct ReplanRecord
{
    sim::SimTime detectedAt = 0.0;  //!< capacity change observed (t2)
    double planSeconds = 0.0;       //!< planner/scheduler compute time
    size_t deletes = 0;
    size_t migrations = 0;
    size_t restarts = 0;
    double capacityBefore = 0.0;
    double capacityAfter = 0.0;
    /** When every planned pod reached Running (t4); <0 until then. */
    sim::SimTime recoveredAt = -1.0;
    /** Proactive pre-fault execution of a forecast plan (no capacity
     * change had been observed yet). */
    bool proactive = false;
};

/**
 * Forecast integration point (src/forecast implements it; declared
 * here so core need not link against forecast). The controller drives
 * the hook once per poll:
 *
 *  1. tick() — observe the cluster, update trend models / risk gates,
 *     and derive this tick's proactive plan, if any.
 *  2. takeForceReplan() — one-shot: force a cold replan this poll
 *     (restorative replan after a risk cleared without its fault).
 *  3. When no replan triggered, takeProactive() — one-shot: a plan to
 *     execute *now*, ahead of the anticipated fault (pre-fault
 *     evacuation / early degradation).
 *
 * A triggered replan always plans cold on the observed snapshot.
 * Returned pointers stay valid until the next tick().
 */
class ForecastHook
{
  public:
    virtual ~ForecastHook() = default;

    virtual void tick() = 0;
    virtual bool takeForceReplan() = 0;
    virtual const SchemeResult *takeProactive() = 0;

    /**
     * No-op the controller never calls: triggered replans always plan
     * cold. Kept only so decorators built against the older interface
     * (which offered a cached plan here) still compile, like
     * ResilienceScheme::noteDirtyNodes; slated for removal.
     */
    virtual const SchemeResult *
    matchWarm(const std::vector<sim::Application> &apps,
              const sim::ClusterState &observed)
    {
        (void)apps;
        (void)observed;
        return nullptr;
    }
};

/**
 * The agent. Construct with the event queue and cluster; it arms its
 * own poll loop. Lifetime must cover the whole simulation.
 */
class PhoenixController
{
  public:
    /** Cluster-state monitoring period (paper: 15 s). */
    static constexpr double kPollPeriod = 15.0;
    /** Relative capacity change that counts as a failure/recovery. */
    static constexpr double kCapacityChangeThreshold = 1e-6;
    /**
     * Wait between issuing a plan's deletes and its moves, and between
     * two drain waves. Graceful deletion keeps a Terminating pod's
     * capacity occupied until the drain completes, so a migration or
     * restart into that capacity issued at the same instant is
     * rejected by the kubelet; the plan sequence is only valid once
     * deletions have settled. Covers KubeConfig::podTerminationSeconds.
     */
    static constexpr double kDrainWaitSeconds = 11.0;

    PhoenixController(sim::EventQueue &events, kube::KubeCluster &cluster,
                      std::unique_ptr<ResilienceScheme> scheme);

    const std::vector<ReplanRecord> &history() const { return history_; }

    /** The most recent planned target, sorted ascending by PodRef. */
    const std::vector<sim::PodRef> &currentTarget() const
    {
        return target_;
    }

    /**
     * Observer invoked after every replan, with the scheme result
     * (ranked plan + planned state + actions) and the replan record.
     * The serving layer's admission controller subscribes here: the
     * planner's criticality ranking and planned target are what turn
     * front-door shedding cooperative. Runs inside the poll event,
     * after the actions were issued to the cluster.
     */
    using ReplanObserver = std::function<void(const SchemeResult &,
                                              const ReplanRecord &)>;
    void setReplanObserver(ReplanObserver observer)
    {
        observer_ = std::move(observer);
    }

    /**
     * Attach the forecast subsystem (not owned; lifetime must cover
     * the controller's). Null detaches — the controller then behaves
     * byte-identically to a forecast-less build.
     */
    void attachForecast(ForecastHook *hook) { forecast_ = hook; }

  private:
    void poll();
    /** Turn a scheme result into target state + actions + record
     * bookkeeping and issue it to the cluster. */
    void applyResult(const SchemeResult &result, ReplanRecord record);
    void execute(const SchemeResult &result);

    sim::EventQueue &events_;
    kube::KubeCluster &cluster_;
    std::unique_ptr<ResilienceScheme> scheme_;

    double lastCapacity_ = -1.0;
    /** Observed ready-set fingerprint at the previous poll. */
    uint64_t lastFingerprint_ = 0;
    /** Planned target pods, sorted (rebuilt per replan from the sorted
     * assignment map, so no per-pod tree inserts). */
    std::vector<sim::PodRef> target_;
    std::vector<ReplanRecord> history_;
    /** Migrations/restarts deferred until the current plan's deletes
     * have drained; superseded wholesale by the next replan. */
    std::vector<Action> deferredMoves_;
    /** Drain wave per deferred move: a service with a
     * PodDisruptionBudget of b has at most b replicas in flight per
     * drain window, so its i-th migration rides wave i/b; waves are
     * spaced kDrainWaitSeconds apart. Unbudgeted moves ride wave 0. */
    std::vector<size_t> deferredWaves_;
    /** Invalidates in-flight drain waits when a new plan lands. */
    uint64_t planGeneration_ = 0;
    ReplanObserver observer_;
    /** Forecast subsystem, when attached (not owned). */
    ForecastHook *forecast_ = nullptr;

    /** obs handles, resolved once at construction. */
    struct ObsHandles
    {
        obs::Counter *polls = nullptr;
        obs::Counter *replans = nullptr;
        /** Replans where only the membership fingerprint moved (the
         * aggregate capacity was within threshold — the class of
         * change the pre-fingerprint controller missed). */
        obs::Counter *membershipReplans = nullptr;
        obs::Counter *deletes = nullptr;
        obs::Counter *migrations = nullptr;
        obs::Counter *restarts = nullptr;
        obs::Counter *deferredSuperseded = nullptr;
        obs::Counter *drainApplies = nullptr;
        obs::LogHistogram *planSeconds = nullptr;
        obs::LogHistogram *recoverySeconds = nullptr;
    };
    ObsHandles obs_;
};

} // namespace phoenix::core

#endif // PHOENIX_CORE_CONTROLLER_H
