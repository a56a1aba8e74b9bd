/**
 * @file
 * The forecast subsystem: predictive, proactive degradation.
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
 *  3. walks the armed plan-able risks (zones, then decay) that have
 *     not executed this episode, and plans the first projected
 *     post-fault state (kube::KubeCluster::projectedZoneLossState /
 *     projectedDecayState) whose plan has actions. That plan is this
 *     tick's proactive candidate.
 *
 * takeProactive() hands the controller the candidate for immediate
 * execution: pods are evacuated off the at-risk capacity (and
 * low-criticality services shed early) so the fault itself becomes a
 * non-event. If the risk clears without its fault, takeForceReplan()
 * forces one cold restorative replan. The controller itself always
 * replans cold on its observed snapshot; nothing planned here is
 * reused for a triggered replan.
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
#include <optional>
#include <vector>

#include "core/controller.h"
#include "core/schemes.h"
#include "forecast/detector.h"
#include "forecast/model.h"
#include "kube/kube.h"
#include "obs/obs.h"

namespace phoenix::forecast {

/**
 * Factory for the forecaster's private projection scheme. Must build
 * the same scheme the controller runs, so a proactive plan is what the
 * controller would plan for the projected state. The forecaster plans
 * projections on its own instance; the controller's scheme only ever
 * plans observed states.
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
};

/** Mirror of the forecast.* obs counters for programmatic access. */
struct ForecastCounters
{
    uint64_t prestagedPlans = 0;   //!< projection plans derived
    uint64_t warmApplies = 0;      //!< always 0; epochbench/ reads it
    uint64_t stalePlans = 0;       //!< always 0; epochbench/ reads it
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

  private:
    /** One plan-able risk's armed episode. */
    struct Episode
    {
        /** Proactive execution issued this armed episode; clearing
         * the risk then forces one restorative replan. */
        bool executed = false;
    };

    core::ResilienceScheme &projScheme();
    /** Plan @p projected on the projection scheme and make it this
     * tick's proactive candidate if it has actions. No projection
     * means the risk fails no node: nothing to pre-empt. */
    void offer(Episode &episode,
               const std::optional<sim::ClusterState> &projected);
    /** Handle a cleared gate: forced restore after proactive runs. */
    void onCleared(Episode &episode);

    kube::KubeCluster &cluster_;
    SchemeFactory factory_;
    ForecastConfig config_;
    std::unique_ptr<core::ResilienceScheme> projScheme_;

    TrendModel capacityModel_;
    TrendModel loadModel_;
    std::vector<TrendModel> zoneModels_;
    HysteresisGate decayGate_;
    HysteresisGate surgeGate_;
    std::vector<HysteresisGate> zoneGates_;

    std::vector<Episode> zoneEpisodes_;
    Episode decayEpisode_;

    /** Last tick's zone capacities (projectedCapacityFraction). */
    std::vector<kube::KubeCluster::ZoneCapacity> lastZones_;
    double lastStaticTotal_ = 0.0;
    double lastReadyTotal_ = 0.0;

    bool forceReplan_ = false;
    /** This tick's proactive candidate, planned for pending_'s risk;
     * pending_ is null when the tick offers nothing. Consumed by
     * takeProactive(). */
    core::SchemeResult proactive_;
    Episode *pending_ = nullptr;

    ForecastCounters counters_;

    /** obs handles, resolved once at construction. */
    struct ObsHandles
    {
        obs::Counter *prestagedPlans = nullptr;
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
