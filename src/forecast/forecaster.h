/**
 * @file
 * The forecast subsystem: predictive, proactive degradation with warm
 * pre-staged plans.
 *
 * The Forecaster implements core::ForecastHook and rides the
 * controller's poll loop. Each tick it
 *
 *  1. fits trend models (forecast/model.h) over observed ready
 *     capacity — total, per forecast zone, and offered load fed by the
 *     serving layer;
 *  2. classifies anticipated fault classes (forecast/detector.h) from
 *     deficit-based risk signals with hysteresis: zone-correlated loss
 *     (per-zone capacity deficit), gradual capacity decay (cluster
 *     deficit), load surge vs. SLO headroom (projected load over EWMA);
 *  3. for armed plan-able risks (zone loss, decay) runs the planner
 *     ahead of time against the projected post-fault state
 *     (kube::KubeCluster::projectedZoneLossState / projectedDecayState)
 *     and caches the result keyed by FNV-1a fingerprints of the full
 *     planner input (apps + projected cluster state).
 *
 * When the anticipated fault bites, the controller asks matchWarm():
 * a staged plan whose projected-state fingerprint equals the observed
 * state's applies in O(actions) — and is byte-identical to what a cold
 * replan would produce, because every scheme is a pure function of
 * (apps, state) (the warm-cold-divergence oracle dimension checks it).
 * Any mismatch falls back cold and counts forecast.stale_plans. Optionally (verifyWarmPlans) every warm hit is
 * re-derived cold on a private scheme and byte-compared before use.
 *
 * Ahead of the fault, takeProactive() hands the controller the staged
 * plan for immediate execution: pods are evacuated off the at-risk
 * capacity (and low-criticality services shed early) so the fault
 * itself becomes a non-event. If the risk clears without its fault,
 * takeForceReplan() forces one cold restorative replan.
 *
 * Everything is deterministic: no RNG, no wall-clock reads — state is
 * a pure function of the simulated observation stream, so sweep cells
 * are bit-identical across --jobs widths.
 */

#ifndef PHOENIX_FORECAST_FORECASTER_H
#define PHOENIX_FORECAST_FORECASTER_H

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/controller.h"
#include "core/schemes.h"
#include "forecast/detector.h"
#include "forecast/model.h"
#include "kube/kube.h"
#include "obs/obs.h"

namespace phoenix::forecast {

/**
 * Factory for the forecaster's private projection schemes. Must build
 * the same scheme the controller runs (warm ≡ cold relies on scheme
 * purity, not shared instances — the forecaster plans projections on
 * its own instance, so the controller's scheme only ever plans
 * observed states).
 */
using SchemeFactory =
    std::function<std::unique_ptr<core::ResilienceScheme>()>;

/** Forecaster tunables. */
struct ForecastConfig
{
    /** Projection horizon for trend extrapolation (seconds). */
    double horizonSeconds = 120.0;
    /** Zone partition when the deployment declares no topology
     * (matches ScenarioOptions::zoneCount's default striping). */
    size_t fallbackZoneCount = 5;
    /** Trend-model window/EWMA settings (shared by all signals). */
    TrendModelConfig trend;
    /** Per-zone capacity-deficit gate (signal: 1 - ready/static). */
    HysteresisConfig zoneLoss{0.25, 0.10, 2};
    /** Cluster capacity-deficit gate (signal: 1 - ready/static). */
    HysteresisConfig capacityDecay{0.15, 0.05, 2};
    /** Offered-load surge gate (signal: projected/ewma - 1). */
    HysteresisConfig loadSurge{0.20, 0.08, 2};
    /** Re-derive every warm hit cold and byte-compare before use. */
    bool verifyWarmPlans = false;
};

/** Mirror of the forecast.* obs counters for programmatic access. */
struct ForecastCounters
{
    uint64_t prestagedPlans = 0;   //!< first staging of a risk episode
    uint64_t restagedPlans = 0;    //!< refresh after a fingerprint drift
    uint64_t warmApplies = 0;      //!< pre-staged plan applied at trigger
    uint64_t stalePlans = 0;       //!< fallback cold at trigger
    uint64_t proactiveApplies = 0; //!< plans executed pre-fault
    uint64_t forcedRestores = 0;   //!< cold replans after a false alarm
};

/** One risk gate's externally visible state (forecast-status verb). */
struct RiskStatus
{
    FaultClass cls = FaultClass::ZoneLoss;
    /** Zone index for ZoneLoss; SIZE_MAX otherwise. */
    size_t zone = static_cast<size_t>(-1);
    bool armed = false;
    double signal = 0.0;
    bool staged = false;
    bool executed = false;
};

class Forecaster final : public core::ForecastHook
{
  public:
    Forecaster(kube::KubeCluster &cluster, SchemeFactory schemeFactory,
               ForecastConfig config = ForecastConfig());

    // --- core::ForecastHook ----------------------------------------
    void tick() override;
    bool takeForceReplan() override;
    const core::SchemeResult *
    matchWarm(const std::vector<sim::Application> &apps,
              const sim::ClusterState &observed) override;
    const core::SchemeResult *takeProactive() override;

    // --- Serving-layer surface -------------------------------------
    /** Feed the offered request rate (RPS) observed since the last
     * refresh; updates the load-surge gate. */
    void observeLoad(double offeredRps);

    /**
     * Capacity fraction the admission controller should provision for:
     * the observed ready fraction, tightened by armed risks — trend
     * projection and armed-zone residuals for capacity risks, surge
     * scaling for load risk. 1.0 when nothing is known or armed.
     */
    double projectedCapacityFraction() const;

    /** Any capacity risk (zone loss / decay) currently armed. */
    bool capacityRiskArmed() const;

    // --- Introspection ---------------------------------------------
    const ForecastCounters &counters() const { return counters_; }
    std::vector<RiskStatus> risks() const;

    // --- Shared fingerprint/equality helpers (tests + oracle) ------
    /** FNV-1a over the full planner-visible cluster state: per-node
     * (healthy, capacity, zone) + the pod assignment with sizes. */
    static uint64_t fingerprintState(const sim::ClusterState &state);
    /** FNV-1a over the planner-visible application structure. */
    static uint64_t
    fingerprintApplications(const std::vector<sim::Application> &apps);
    /** Byte-equality over the deterministic parts of a scheme result
     * (plan, actions, placement); wall-clock and op counts exempt. */
    static bool sameSchemeResult(const core::SchemeResult &a,
                                 const core::SchemeResult &b);

  private:
    /** One staged warm plan (per plan-able risk). */
    struct Staged
    {
        bool valid = false;
        /** Proactive execution already issued this armed episode. */
        bool executedEpisode = false;
        uint64_t stateFp = 0;
        uint64_t appsFp = 0;
        double stagedAt = 0.0;
        core::SchemeResult result;
    };

    core::ResilienceScheme &projScheme();
    core::ResilienceScheme &verifyScheme();
    /** (Re-)stage @p s against @p projected unless the fingerprint is
     * unchanged or the projection equals the observed state (nothing
     * to pre-empt — the fault already happened). */
    void stage(Staged &s, const sim::ClusterState &projected,
               uint64_t observedFp);
    /** Handle an armed gate's staging + proactive candidacy. */
    void onArmed(Staged &s, const sim::ClusterState &projected,
                 uint64_t observedFp);
    /** Handle a cleared gate: forced restore after proactive runs. */
    void onCleared(Staged &s);

    kube::KubeCluster &cluster_;
    SchemeFactory factory_;
    ForecastConfig config_;
    std::unique_ptr<core::ResilienceScheme> projScheme_;
    std::unique_ptr<core::ResilienceScheme> verifyScheme_;

    TrendModel capacityModel_;
    TrendModel loadModel_;
    std::vector<TrendModel> zoneModels_;
    HysteresisGate decayGate_;
    HysteresisGate surgeGate_;
    std::vector<HysteresisGate> zoneGates_;

    std::vector<Staged> zoneStaged_;
    Staged decayStaged_;

    /** Last tick's zone capacities (projectedCapacityFraction). */
    std::vector<kube::KubeCluster::ZoneCapacity> lastZones_;
    double lastStaticTotal_ = 0.0;
    double lastReadyTotal_ = 0.0;

    bool forceReplan_ = false;
    /** Proactive candidate staged this tick; consumed by
     * takeProactive(). */
    Staged *pendingProactive_ = nullptr;
    /** Scratch for verifyWarmPlans' cold re-derivation. */
    core::SchemeResult verifyScratch_;

    ForecastCounters counters_;

    /** obs handles, resolved once at construction. */
    struct ObsHandles
    {
        obs::Counter *prestagedPlans = nullptr;
        obs::Counter *restagedPlans = nullptr;
        obs::Counter *warmApplies = nullptr;
        obs::Counter *stalePlans = nullptr;
        obs::Counter *proactiveApplies = nullptr;
        obs::Counter *forcedRestores = nullptr;
        obs::Counter *risksZoneLoss = nullptr;
        obs::Counter *risksCapacityDecay = nullptr;
        obs::Counter *risksLoadSurge = nullptr;
    };
    ObsHandles obs_;
};

} // namespace phoenix::forecast

#endif // PHOENIX_FORECAST_FORECASTER_H
