#include "forecaster.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace phoenix::forecast {

using sim::ClusterState;

namespace {

constexpr double kEps = 1e-12;

/** Order-sensitive FNV-1a, the repo's fingerprint idiom. */
struct Fnv
{
    uint64_t hash = 1469598103934665603ull;
    void
    mix(uint64_t v)
    {
        hash ^= v;
        hash *= 1099511628211ull;
    }
    void
    mixDouble(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        mix(bits);
    }
};

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
    obs_.restagedPlans = &registry.counter("forecast.restaged_plans");
    obs_.warmApplies = &registry.counter("forecast.warm_applies");
    obs_.stalePlans = &registry.counter("forecast.stale_plans");
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

core::ResilienceScheme &
Forecaster::verifyScheme()
{
    if (!verifyScheme_)
        verifyScheme_ = factory_();
    return *verifyScheme_;
}

uint64_t
Forecaster::fingerprintState(const ClusterState &state)
{
    Fnv fnv;
    fnv.mix(state.nodeCount());
    for (sim::NodeId id = 0; id < state.nodeCount(); ++id) {
        const sim::Node &node = state.node(id);
        fnv.mix(node.healthy ? 0x9e3779b97f4a7c15ull
                             : 0x2545f4914f6cdd1dull);
        fnv.mixDouble(node.capacity);
        fnv.mix(node.zone);
    }
    fnv.mix(state.assignment().size());
    for (const auto &[pod, node] : state.assignment()) {
        fnv.mix((static_cast<uint64_t>(pod.app) << 32) | pod.ms);
        fnv.mix(pod.replica);
        fnv.mix(node);
        fnv.mixDouble(state.podCpu(pod));
    }
    return fnv.hash;
}

uint64_t
Forecaster::fingerprintApplications(
    const std::vector<sim::Application> &apps)
{
    Fnv fnv;
    fnv.mix(apps.size());
    for (const sim::Application &app : apps) {
        fnv.mix(app.id);
        fnv.mix(app.phoenixEnabled ? 1 : 0);
        fnv.mixDouble(app.pricePerUnit);
        fnv.mix(app.hasDependencyGraph ? 1 : 0);
        fnv.mix(app.services.size());
        for (const sim::Microservice &ms : app.services) {
            fnv.mix(ms.id);
            fnv.mixDouble(ms.cpu);
            fnv.mix(static_cast<uint64_t>(ms.criticality));
            fnv.mix(static_cast<uint64_t>(ms.replicas));
            fnv.mix(static_cast<uint64_t>(ms.quorum));
            fnv.mix(static_cast<uint64_t>(
                static_cast<int64_t>(ms.antiAffinityGroup)));
            fnv.mix(static_cast<uint64_t>(ms.maxPerNode));
            fnv.mix(static_cast<uint64_t>(ms.maxPerZone));
            fnv.mix(static_cast<uint64_t>(ms.minZoneSpread));
            fnv.mix(static_cast<uint64_t>(
                static_cast<int64_t>(ms.pdbMaxUnavailable)));
        }
        fnv.mix(app.placementGroups.size());
        for (const sim::PlacementGroup &group : app.placementGroups) {
            fnv.mix(static_cast<uint64_t>(static_cast<int64_t>(group.id)));
            fnv.mix(static_cast<uint64_t>(group.maxPerNode));
            fnv.mix(static_cast<uint64_t>(group.maxPerZone));
        }
        if (app.hasDependencyGraph) {
            fnv.mix(app.dag.nodeCount());
            for (size_t u = 0; u < app.dag.nodeCount(); ++u) {
                const auto &succ = app.dag.successors(
                    static_cast<graph::NodeId>(u));
                fnv.mix(succ.size());
                for (auto v : succ)
                    fnv.mix(static_cast<uint64_t>(v));
            }
        }
    }
    return fnv.hash;
}

bool
Forecaster::sameSchemeResult(const core::SchemeResult &a,
                             const core::SchemeResult &b)
{
    if (a.failed != b.failed)
        return false;
    if (a.plan != b.plan)
        return false;
    if (a.pack.complete != b.pack.complete ||
        a.pack.placed != b.pack.placed)
        return false;
    if (a.pack.actions.size() != b.pack.actions.size())
        return false;
    for (size_t i = 0; i < a.pack.actions.size(); ++i) {
        const core::Action &x = a.pack.actions[i];
        const core::Action &y = b.pack.actions[i];
        if (x.kind != y.kind || x.pod != y.pod || x.from != y.from ||
            x.to != y.to)
            return false;
    }
    if (a.pack.state.assignment() != b.pack.state.assignment())
        return false;
    return true;
}

void
Forecaster::stage(Staged &s, const ClusterState &projected,
                  uint64_t observedFp)
{
    const uint64_t fp = fingerprintState(projected);
    const uint64_t appsFp = fingerprintApplications(cluster_.apps());
    if (s.valid && s.stateFp == fp && s.appsFp == appsFp)
        return; // staged plan still matches the projection
    if (fp == observedFp) {
        // The projection equals what the controller already sees:
        // there is nothing to anticipate (the fault has bitten or the
        // at-risk capacity is already vacated+failed). Staging here
        // would just precompute the cold plan the controller is about
        // to make anyway — skip, and drop any stale leftover.
        s.valid = false;
        return;
    }
    const bool restage = s.valid;
    s.result = projScheme().apply(cluster_.apps(), projected);
    s.stateFp = fp;
    s.appsFp = appsFp;
    s.stagedAt = cluster_.now();
    s.valid = true;
    if (restage) {
        ++counters_.restagedPlans;
        PHOENIX_COUNT(*obs_.restagedPlans, 1);
    } else {
        ++counters_.prestagedPlans;
        PHOENIX_COUNT(*obs_.prestagedPlans, 1);
    }
}

void
Forecaster::onArmed(Staged &s, const ClusterState &projected,
                    uint64_t observedFp)
{
    stage(s, projected, observedFp);
    if (s.valid && !s.executedEpisode && !s.result.pack.actions.empty() &&
        pendingProactive_ == nullptr)
        pendingProactive_ = &s;
}

void
Forecaster::onCleared(Staged &s)
{
    if (s.executedEpisode) {
        // The risk cleared without its fault: pods we shed or moved
        // proactively would otherwise stay that way forever (a
        // fault-free clearing changes no observed capacity, so nothing
        // triggers a replan). Force one cold restorative replan.
        forceReplan_ = true;
        ++counters_.forcedRestores;
        PHOENIX_COUNT(*obs_.forcedRestores, 1);
    }
    s.valid = false;
    s.executedEpisode = false;
}

void
Forecaster::tick()
{
    const double t = cluster_.now();
    const auto zones =
        cluster_.observedZoneCapacities(config_.fallbackZoneCount);
    if (zoneModels_.size() != zones.size()) {
        zoneModels_.assign(zones.size(), TrendModel(config_.trend));
        zoneGates_.assign(zones.size(),
                          HysteresisGate(config_.zoneLoss));
        zoneStaged_.assign(zones.size(), Staged{});
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

    pendingProactive_ = nullptr;
    const uint64_t observedFp = fingerprintState(cluster_.observedState());

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
        if (armed)
            onArmed(zoneStaged_[z],
                    cluster_.projectedZoneLossState(
                        z, config_.fallbackZoneCount),
                    observedFp);
        else if (wasArmed)
            onCleared(zoneStaged_[z]);
    }

    // Cluster-wide gradual decay gate.
    const double decaySignal =
        staticTotal > kEps ? 1.0 - readyTotal / staticTotal : 0.0;
    const bool decayWasArmed = decayGate_.armed();
    const bool decayArmed = decayGate_.observe(decaySignal);
    if (decayArmed && !decayWasArmed)
        PHOENIX_COUNT(*obs_.risksCapacityDecay, 1);
    if (decayArmed)
        onArmed(decayStaged_, cluster_.projectedDecayState(),
                observedFp);
    else if (decayWasArmed)
        onCleared(decayStaged_);
}

bool
Forecaster::takeForceReplan()
{
    const bool force = forceReplan_;
    forceReplan_ = false;
    return force;
}

const core::SchemeResult *
Forecaster::matchWarm(const std::vector<sim::Application> &apps,
                      const ClusterState &observed)
{
    const uint64_t observedFp = fingerprintState(observed);
    const uint64_t appsFp = fingerprintApplications(apps);

    auto tryEntry = [&](Staged &s) -> const core::SchemeResult * {
        if (!s.valid || s.stateFp != observedFp || s.appsFp != appsFp)
            return nullptr;
        if (config_.verifyWarmPlans) {
            // Paranoid mode: re-derive cold on a private scheme and
            // byte-compare. A divergence means a fingerprint collision
            // or a scheme-purity bug — fall back cold either way.
            verifyScratch_ = verifyScheme().apply(apps, observed);
            if (!sameSchemeResult(verifyScratch_, s.result))
                return nullptr;
        }
        s.valid = false; // consumed
        return &s.result;
    };

    bool anyStaged = decayStaged_.valid;
    for (Staged &s : zoneStaged_)
        anyStaged = anyStaged || s.valid;

    for (Staged &s : zoneStaged_) {
        if (const core::SchemeResult *hit = tryEntry(s)) {
            ++counters_.warmApplies;
            PHOENIX_COUNT(*obs_.warmApplies, 1);
            return hit;
        }
    }
    if (const core::SchemeResult *hit = tryEntry(decayStaged_)) {
        ++counters_.warmApplies;
        PHOENIX_COUNT(*obs_.warmApplies, 1);
        return hit;
    }

    if (anyStaged) {
        // A warm plan existed but the world moved between staging and
        // trigger: fall back cold, and drop the stale plans — the
        // post-replan world invalidates them (they re-stage next tick
        // while their risk stays armed).
        ++counters_.stalePlans;
        PHOENIX_COUNT(*obs_.stalePlans, 1);
        for (Staged &s : zoneStaged_)
            s.valid = false;
        decayStaged_.valid = false;
    }
    return nullptr;
}

const core::SchemeResult *
Forecaster::takeProactive()
{
    Staged *s = pendingProactive_;
    pendingProactive_ = nullptr;
    if (s == nullptr || !s->valid)
        return nullptr;
    s->executedEpisode = true;
    ++counters_.proactiveApplies;
    PHOENIX_COUNT(*obs_.proactiveApplies, 1);
    return &s->result;
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
        risk.staged = zoneStaged_[z].valid;
        risk.executed = zoneStaged_[z].executedEpisode;
        all.push_back(risk);
    }
    RiskStatus decay;
    decay.cls = FaultClass::CapacityDecay;
    decay.armed = decayGate_.armed();
    decay.signal = decayGate_.signal();
    decay.staged = decayStaged_.valid;
    decay.executed = decayStaged_.executedEpisode;
    all.push_back(decay);
    RiskStatus surge;
    surge.cls = FaultClass::LoadSurge;
    surge.armed = surgeGate_.armed();
    surge.signal = surgeGate_.signal();
    all.push_back(surge);
    return all;
}

} // namespace phoenix::forecast
