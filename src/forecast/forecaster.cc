#include "forecaster.h"

#include <algorithm>
#include <cmath>

namespace phoenix::forecast {

using sim::ClusterState;

namespace {

constexpr double kEps = 1e-12;

} // namespace

Forecaster::Forecaster(kube::KubeCluster &cluster,
                       SchemeFactory schemeFactory, ForecastConfig config)
    : cluster_(cluster), factory_(std::move(schemeFactory)),
      config_(config), capacityModel_(config.trend),
      loadModel_(config.trend), decayGate_(config.capacityDecay),
      surgeGate_(config.loadSurge)
{
    auto &registry = obs::Registry::global();
    obs_.prestagedPlans = &registry.counter("forecast.prestaged_plans");
    obs_.proactiveApplies =
        &registry.counter("forecast.proactive_executions");
    obs_.forcedRestores = &registry.counter("forecast.forced_restores");
    obs_.risksZoneLoss = &registry.counter(
        "forecast.risks", "class", faultClassName(FaultClass::ZoneLoss));
    obs_.risksCapacityDecay =
        &registry.counter("forecast.risks", "class",
                          faultClassName(FaultClass::CapacityDecay));
    obs_.risksLoadSurge = &registry.counter(
        "forecast.risks", "class",
        faultClassName(FaultClass::LoadSurge));
}

core::ResilienceScheme &
Forecaster::projScheme()
{
    if (!projScheme_)
        projScheme_ = factory_();
    return *projScheme_;
}

void
Forecaster::offer(Episode &episode,
                  const std::optional<ClusterState> &projected)
{
    if (!projected)
        return;
    proactive_ = projScheme().apply(cluster_.apps(), *projected);
    ++counters_.prestagedPlans;
    PHOENIX_COUNT(*obs_.prestagedPlans, 1);
    if (!proactive_.pack.actions.empty())
        pending_ = &episode;
}

void
Forecaster::onCleared(Episode &episode)
{
    if (episode.executed) {
        // The risk cleared without its fault: pods we shed or moved
        // proactively would otherwise stay that way forever (a
        // fault-free clearing changes no observed capacity, so nothing
        // triggers a replan). Force one cold restorative replan.
        forceReplan_ = true;
        ++counters_.forcedRestores;
        PHOENIX_COUNT(*obs_.forcedRestores, 1);
    }
    episode.executed = false;
}

void
Forecaster::tick()
{
    pending_ = nullptr;
    const double t = cluster_.now();
    const auto zones =
        cluster_.observedZoneCapacities(config_.fallbackZoneCount);
    if (zoneModels_.size() != zones.size()) {
        zoneModels_.assign(zones.size(), TrendModel(config_.trend));
        zoneGates_.assign(zones.size(),
                          HysteresisGate(config_.zoneLoss));
        zoneEpisodes_.assign(zones.size(), Episode{});
    }
    double staticTotal = 0.0;
    double readyTotal = 0.0;
    for (const auto &zone : zones) {
        staticTotal += zone.staticCapacity;
        readyTotal += zone.readyCapacity;
    }
    capacityModel_.observe(t, readyTotal);
    lastZones_ = zones;
    lastStaticTotal_ = staticTotal;
    lastReadyTotal_ = readyTotal;

    // Per-zone correlated-loss gates: deficit-based (not slope-based)
    // so a slow-burn loss stays armed until capacity actually returns.
    for (size_t z = 0; z < zones.size(); ++z) {
        zoneModels_[z].observe(t, zones[z].readyCapacity);
        const double signal =
            zones[z].staticCapacity > kEps
                ? 1.0 - zones[z].readyCapacity / zones[z].staticCapacity
                : 0.0;
        const bool wasArmed = zoneGates_[z].armed();
        const bool armed = zoneGates_[z].observe(signal);
        if (armed && !wasArmed)
            PHOENIX_COUNT(*obs_.risksZoneLoss, 1);
        else if (!armed && wasArmed)
            onCleared(zoneEpisodes_[z]);
    }

    // Cluster-wide gradual decay gate.
    const double decaySignal =
        staticTotal > kEps ? 1.0 - readyTotal / staticTotal : 0.0;
    const bool decayWasArmed = decayGate_.armed();
    const bool decayArmed = decayGate_.observe(decaySignal);
    if (decayArmed && !decayWasArmed)
        PHOENIX_COUNT(*obs_.risksCapacityDecay, 1);
    else if (!decayArmed && decayWasArmed)
        onCleared(decayEpisode_);

    // Proactive candidacy: the first armed risk (zones, then decay)
    // that has not executed this episode, whose projection fails a
    // node and whose plan acts. Planned fresh every tick — scheme
    // output is a pure function of (apps, state), so there is nothing
    // to cache.
    for (size_t z = 0; z < zones.size() && pending_ == nullptr; ++z) {
        if (zoneGates_[z].armed() && !zoneEpisodes_[z].executed)
            offer(zoneEpisodes_[z],
                  cluster_.projectedZoneLossState(
                      z, config_.fallbackZoneCount));
    }
    if (pending_ == nullptr && decayArmed && !decayEpisode_.executed)
        offer(decayEpisode_, cluster_.projectedDecayState());
}

bool
Forecaster::takeForceReplan()
{
    const bool force = forceReplan_;
    forceReplan_ = false;
    return force;
}

const core::SchemeResult *
Forecaster::takeProactive()
{
    Episode *episode = pending_;
    pending_ = nullptr;
    if (episode == nullptr)
        return nullptr;
    episode->executed = true;
    ++counters_.proactiveApplies;
    PHOENIX_COUNT(*obs_.proactiveApplies, 1);
    return &proactive_;
}

void
Forecaster::observeLoad(double offeredRps)
{
    const double t = cluster_.now();
    loadModel_.observe(t, offeredRps);
    const double surge =
        loadModel_.ewma() > kEps
            ? loadModel_.project(config_.horizonSeconds) /
                      loadModel_.ewma() -
                  1.0
            : 0.0;
    const bool wasArmed = surgeGate_.armed();
    const bool armed = surgeGate_.observe(surge);
    if (armed && !wasArmed)
        PHOENIX_COUNT(*obs_.risksLoadSurge, 1);
}

double
Forecaster::projectedCapacityFraction() const
{
    if (lastStaticTotal_ <= kEps)
        return 1.0;
    double fraction = lastReadyTotal_ / lastStaticTotal_;
    bool capacityRisk = decayGate_.armed();
    for (size_t z = 0; z < zoneGates_.size(); ++z) {
        if (!zoneGates_[z].armed())
            continue;
        capacityRisk = true;
        // Anticipated zone loss: provision for the residual capacity.
        if (z < lastZones_.size()) {
            fraction = std::min(
                fraction, (lastReadyTotal_ - lastZones_[z].readyCapacity) /
                              lastStaticTotal_);
        }
    }
    if (capacityRisk) {
        fraction = std::min(
            fraction, capacityModel_.project(config_.horizonSeconds) /
                          lastStaticTotal_);
    }
    if (surgeGate_.armed()) {
        // Surging demand shrinks the effective headroom: capacity per
        // unit of projected load.
        fraction /= 1.0 + std::max(surgeGate_.signal(), 0.0);
    }
    return std::clamp(fraction, 0.0, 1.0);
}

bool
Forecaster::capacityRiskArmed() const
{
    if (decayGate_.armed())
        return true;
    for (const HysteresisGate &gate : zoneGates_) {
        if (gate.armed())
            return true;
    }
    return false;
}

std::vector<RiskStatus>
Forecaster::risks() const
{
    std::vector<RiskStatus> all;
    all.reserve(zoneGates_.size() + 2);
    for (size_t z = 0; z < zoneGates_.size(); ++z) {
        RiskStatus risk;
        risk.cls = FaultClass::ZoneLoss;
        risk.zone = z;
        risk.armed = zoneGates_[z].armed();
        risk.signal = zoneGates_[z].signal();
        risk.executed = zoneEpisodes_[z].executed;
        all.push_back(risk);
    }
    RiskStatus decay;
    decay.cls = FaultClass::CapacityDecay;
    decay.armed = decayGate_.armed();
    decay.signal = decayGate_.signal();
    decay.executed = decayEpisode_.executed;
    all.push_back(decay);
    RiskStatus surge;
    surge.cls = FaultClass::LoadSurge;
    surge.armed = surgeGate_.armed();
    surge.signal = surgeGate_.signal();
    all.push_back(surge);
    return all;
}

} // namespace phoenix::forecast
