/**
 * @file
 * The live request front end: deterministic simulated user traffic
 * routed at the mini-Kubernetes cluster, with per-class SLO tracking
 * and criticality-aware admission control.
 *
 * One ServeFrontend owns, per request class:
 *
 *  - an open-loop arrival stream (non-homogeneous Poisson over the
 *    configured RateCurve, one util::Rng per class seeded via
 *    util::cellSeed) riding the shared sim::EventQueue;
 *  - a service-time model: per-component log-normal samples around the
 *    component's P95 contribution (the runLoad model), scaled by the
 *    cluster congestion factor and by a replica-concentration factor
 *    when a service is running below its full replica count;
 *  - SLO accounting (SloTracker) over fixed windows.
 *
 * Request outcome: shed at the front door (admission), failed (a
 * required path component below quorum among Running pods), or served
 * with a sampled latency. Ready state is refreshed from the cluster on
 * a fixed cadence — the front end sees the cluster like a load
 * balancer's health checks do, not with event-grained freshness.
 *
 * Everything is deterministic for a given seed: arrival draws and
 * latency draws come from per-class streams, and all activity is
 * scheduled in sim time, so two runs (or the same run inside different
 * sweep threads) produce identical request histories.
 */

#ifndef PHOENIX_SERVE_FRONTEND_H
#define PHOENIX_SERVE_FRONTEND_H

#include <map>
#include <vector>

#include "apps/loadgen.h"
#include "core/controller.h"
#include "forecast/forecaster.h"
#include "kube/kube.h"
#include "obs/obs.h"
#include "serve/admission.h"
#include "serve/slo.h"

namespace phoenix::serve {

/** Front-end tunables. */
struct FrontendConfig
{
    /** Serving window in sim time (arrivals, windows, refreshes). */
    double startAt = 0.0;
    double endAt = 1800.0;
    /** SLO evaluation window width (seconds). */
    double windowSec = 5.0;
    /** Ready-state / capacity refresh cadence (seconds). */
    double refreshSec = 5.0;
    /** Scales every class's offered rate (load knob). */
    double rpsScale = 1.0;
    /** Shared rate-multiplier shape (empty = steady). */
    apps::RateCurve curve;
    /** Log-space sigma of per-component latency samples. */
    double latencySigma = 0.25;
    AdmissionConfig admission;
    uint64_t seed = 42;
};

class ServeFrontend
{
  public:
    /**
     * Arms all serving activity on @p events. @p controller may be
     * null (the Default baseline); when present, its replan observer
     * feeds the admission controller's planned-service set. The
     * frontend must outlive the simulation.
     */
    ServeFrontend(sim::EventQueue &events, kube::KubeCluster &cluster,
                  const std::vector<apps::ServiceApp> &serviceApps,
                  FrontendConfig config,
                  core::PhoenixController *controller = nullptr,
                  forecast::Forecaster *forecaster = nullptr);

    const std::vector<RequestClass> &classes() const
    {
        return tracker_.classes();
    }
    const SloTracker &slo() const { return tracker_; }
    const AdmissionController &admission() const { return admission_; }

    std::vector<ClassReport> report() const { return tracker_.report(); }

    size_t totalServed() const { return served_; }
    size_t totalShed() const { return shed_; }
    size_t totalFailed() const { return failed_; }
    size_t totalOffered() const { return served_ + shed_ + failed_; }

  private:
    /** Per-microservice routing state (keyed by serviceKey). */
    struct ServiceState
    {
        int replicas = 1;
        int quorum = 1;
        int ready = 0;
    };

    void scheduleNextArrival(size_t classIdx);
    /** Handle one request of class @p classIdx at the current sim
     * time: shed, failed, or served with a sampled latency. */
    void handleRequest(size_t classIdx);
    void refresh();
    void windowTick();

    sim::EventQueue &events_;
    kube::KubeCluster &cluster_;
    FrontendConfig config_;
    core::PhoenixController *controller_;
    /** Forecast subsystem: each refresh feeds it the offered request
     * rate and reads back the projected capacity fraction for the
     * admission gate (shed before the cliff). Null = off. */
    forecast::Forecaster *forecaster_;
    /** Arrivals since the last refresh (offered-RPS estimate). */
    size_t offeredSinceRefresh_ = 0;
    double lastRefreshAt_ = 0.0;

    SloTracker tracker_;
    AdmissionController admission_;

    std::vector<apps::OpenLoopArrivals> arrivals_;
    /** Per-class latency-sampling stream (separate from arrivals so a
     * routing change never perturbs arrival instants). */
    std::vector<util::Rng> latencyRng_;

    std::map<uint64_t, ServiceState> services_;
    double congestion_ = 1.0;
    double p95Factor_ = 1.0;

    size_t served_ = 0;
    size_t shed_ = 0;
    size_t failed_ = 0;

    /** obs handles, resolved once at construction. */
    struct ObsHandles
    {
        std::vector<obs::Counter *> requestsByClass;
        std::vector<obs::LogHistogram *> latencyByClass;
        obs::Counter *served = nullptr;
        obs::Counter *shed = nullptr;
        obs::Counter *shedCapacity = nullptr;
        obs::Counter *shedPlan = nullptr;
        obs::Counter *shedForecast = nullptr;
        obs::Counter *failed = nullptr;
        obs::Counter *sloViolationSeconds = nullptr;
    };
    ObsHandles obs_;
};

} // namespace phoenix::serve

#endif // PHOENIX_SERVE_FRONTEND_H
