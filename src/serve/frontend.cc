#include "frontend.h"

#include <algorithm>
#include <cmath>

namespace phoenix::serve {

namespace {

/** Same congestion shape as the closed-form model (service_app.cc)
 * and the batch load generator (loadgen.cc). */
double
congestionFactor(double utilization)
{
    const double rho = std::clamp(utilization, 0.0, 0.99);
    if (rho <= 0.5)
        return 1.0;
    return 1.0 + 0.0025 * (rho - 0.5) / (1.0 - rho);
}

/** Replica-concentration cap: a service running at quorum never looks
 * more than 4x slower than at full replica count. */
constexpr double kMaxConcentration = 4.0;

} // namespace

ServeFrontend::ServeFrontend(
    sim::EventQueue &events, kube::KubeCluster &cluster,
    const std::vector<apps::ServiceApp> &serviceApps,
    FrontendConfig config, core::PhoenixController *controller,
    forecast::Forecaster *forecaster)
    : events_(events), cluster_(cluster), config_(std::move(config)),
      controller_(controller), forecaster_(forecaster),
      tracker_(buildRequestClasses(serviceApps), config_.windowSec),
      admission_(config_.admission)
{
    p95Factor_ = std::exp(1.645 * config_.latencySigma);
    lastRefreshAt_ = config_.startAt;

    for (const apps::ServiceApp &sapp : serviceApps) {
        for (const sim::Microservice &ms : sapp.app.services) {
            ServiceState state;
            state.replicas = ms.replicas > 1 ? ms.replicas : 1;
            state.quorum = ms.quorumCount();
            services_[AdmissionController::serviceKey(sapp.app.id,
                                                      ms.id)] = state;
        }
    }

    auto &registry = obs::Registry::global();
    for (const RequestClass &cls : tracker_.classes()) {
        obs_.requestsByClass.push_back(
            &registry.counter("serve.requests", "class", cls.label()));
        obs_.latencyByClass.push_back(&registry.histogram(
            "serve.latency_ms", "class", cls.label()));
    }
    obs_.served = &registry.counter("serve.served");
    obs_.shed = &registry.counter("serve.shed");
    obs_.shedCapacity =
        &registry.counter("serve.shed", "reason", "capacity");
    obs_.shedPlan = &registry.counter("serve.shed", "reason", "plan");
    obs_.shedForecast =
        &registry.counter("serve.shed", "reason", "forecast");
    obs_.failed = &registry.counter("serve.failed");
    obs_.sloViolationSeconds =
        &registry.counter("serve.slo_violation_seconds");

    // Per-class streams: independent seeds via cellSeed so no class's
    // draws perturb another's, and routing outcomes (which consume
    // latency draws) never shift arrival instants.
    for (const RequestClass &cls : tracker_.classes()) {
        apps::OpenLoopConfig stream;
        stream.baseRps = cls.baseRps * config_.rpsScale;
        stream.curve = config_.curve;
        stream.seed = util::cellSeed(config_.seed, cls.index);
        arrivals_.emplace_back(std::move(stream));
        latencyRng_.emplace_back(
            util::cellSeed(config_.seed, cls.index, 0x1a7e));
    }

    if (controller_) {
        controller_->setReplanObserver(
            [this](const core::SchemeResult &result,
                   const core::ReplanRecord &) {
                // Project the planned assignment to planned-up
                // services: quorum satisfied in the planned state.
                std::map<uint64_t, int> plannedReplicas;
                for (const auto &[pod, node] :
                     result.pack.state.assignment()) {
                    (void)node;
                    ++plannedReplicas[AdmissionController::serviceKey(
                        pod.app, pod.ms)];
                }
                std::set<uint64_t> planned;
                for (const auto &[key, state] : services_) {
                    auto it = plannedReplicas.find(key);
                    if (it != plannedReplicas.end() &&
                        it->second >= state.quorum)
                        planned.insert(key);
                }
                admission_.setPlannedServices(std::move(planned));
            });
    }

    // Arm the refresh and window chains, then the arrival streams —
    // at a shared instant the refresh runs first (FIFO tie-break), so
    // requests see that instant's ready state.
    events_.schedule(config_.startAt, [this] { refresh(); });
    if (config_.startAt + config_.windowSec <=
        config_.endAt + 1e-9) {
        events_.schedule(config_.startAt + config_.windowSec,
                         [this] { windowTick(); });
    }
    for (size_t i = 0; i < tracker_.classCount(); ++i)
        scheduleNextArrival(i);
}

void
ServeFrontend::scheduleNextArrival(size_t classIdx)
{
    const double from =
        std::max(events_.now(), config_.startAt);
    const double at = arrivals_[classIdx].next(from);
    if (at < 0.0 || at > config_.endAt)
        return;
    events_.schedule(at, [this, classIdx] {
        handleRequest(classIdx);
        scheduleNextArrival(classIdx);
    });
}

void
ServeFrontend::handleRequest(size_t classIdx)
{
    const RequestClass &cls = tracker_.classes()[classIdx];
    PHOENIX_COUNT(*obs_.requestsByClass[classIdx], 1);
    ++offeredSinceRefresh_;

    const AdmitDecision decision = admission_.decide(cls);
    if (decision != AdmitDecision::Admit) {
        tracker_.recordShed(classIdx);
        ++shed_;
        PHOENIX_COUNT(*obs_.shed, 1);
        switch (decision) {
          case AdmitDecision::ShedCapacity:
            PHOENIX_COUNT(*obs_.shedCapacity, 1);
            break;
          case AdmitDecision::ShedPlan:
            PHOENIX_COUNT(*obs_.shedPlan, 1);
            break;
          case AdmitDecision::ShedForecast:
            PHOENIX_COUNT(*obs_.shedForecast, 1);
            break;
          case AdmitDecision::Admit:
            break;
        }
        return;
    }

    util::Rng &rng = latencyRng_[classIdx];
    double totalMs = 0.0;
    bool ok = true;
    for (const apps::PathComponent &component : cls.path) {
        const auto it = services_.find(
            AdmissionController::serviceKey(cls.app,
                                            component.service));
        const ServiceState *svc =
            it == services_.end() ? nullptr : &it->second;
        const bool up = svc && svc->ready >= svc->quorum;
        if (!up) {
            if (component.required) {
                ok = false;
                break;
            }
            continue; // optional component degrades silently
        }
        if (component.latencyMs > 0.0) {
            const double median =
                component.latencyMs * congestion_ / p95Factor_;
            const double concentration = std::clamp(
                static_cast<double>(svc->replicas) /
                    static_cast<double>(std::max(svc->ready, 1)),
                1.0, kMaxConcentration);
            totalMs += median * concentration *
                       rng.logNormal(0.0, config_.latencySigma);
        }
    }

    if (!ok) {
        tracker_.recordFailed(classIdx);
        ++failed_;
        PHOENIX_COUNT(*obs_.failed, 1);
        return;
    }

    tracker_.recordServed(classIdx, totalMs);
    ++served_;
    PHOENIX_COUNT(*obs_.served, 1);
    PHOENIX_OBSERVE(*obs_.latencyByClass[classIdx], totalMs);
}

void
ServeFrontend::refresh()
{
    for (auto &[key, state] : services_) {
        (void)key;
        state.ready = 0;
    }
    for (const sim::PodRef &pod : cluster_.runningPods()) {
        const auto it = services_.find(
            AdmissionController::serviceKey(pod.app, pod.ms));
        if (it != services_.end())
            ++it->second.ready;
    }
    // Congestion is a node-local signal (real queueing on real
    // utilization), not an API-server readout — use live state so an
    // API outage doesn't freeze the load model.
    congestion_ =
        congestionFactor(cluster_.liveState().utilization());
    const double total = cluster_.totalCapacity();
    admission_.observeCapacity(
        total > 0.0 ? cluster_.readyCapacity() / total : 0.0);

    if (forecaster_) {
        // Feed the offered request rate since the last refresh and
        // read back the projected capacity fraction: the admission
        // gate then sheds degradable classes ahead of an anticipated
        // cliff instead of waiting for the observed level to drop.
        const double elapsed = events_.now() - lastRefreshAt_;
        if (elapsed > 0.0) {
            forecaster_->observeLoad(
                static_cast<double>(offeredSinceRefresh_) / elapsed);
        }
        offeredSinceRefresh_ = 0;
        lastRefreshAt_ = events_.now();
        admission_.observeProjectedCapacity(
            forecaster_->projectedCapacityFraction());
    }

    const double next = events_.now() + config_.refreshSec;
    if (next <= config_.endAt + 1e-9)
        events_.schedule(next, [this] { refresh(); });
}

void
ServeFrontend::windowTick()
{
    const double violationSeconds = tracker_.closeWindow();
    if (violationSeconds > 0.0) {
        PHOENIX_COUNT(*obs_.sloViolationSeconds,
                      static_cast<uint64_t>(
                          std::llround(violationSeconds)));
    }
    PHOENIX_TRACE_INSTANT(
        "serve", "window", events_.now(),
        (obs::TraceArg{"admit_level",
                       static_cast<double>(admission_.admitLevel())}),
        (obs::TraceArg{"violation_seconds", violationSeconds}),
        (obs::TraceArg{"shed", static_cast<double>(shed_)}));

    const double next = events_.now() + config_.windowSec;
    if (next <= config_.endAt + 1e-9)
        events_.schedule(next, [this] { windowTick(); });
}

} // namespace phoenix::serve
