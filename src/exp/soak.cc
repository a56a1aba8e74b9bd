#include "soak.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "exp/timeseries.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace phoenix::exp {

using sim::NodeId;
using sim::PodRef;

const char *
soakWaveKindName(SoakWaveKind kind)
{
    switch (kind) {
    case SoakWaveKind::Fail: return "fail";
    case SoakWaveKind::Flap: return "flap";
    case SoakWaveKind::Partition: return "partition";
    case SoakWaveKind::Degrade: return "degrade";
    case SoakWaveKind::ApiOutage: return "api-outage";
    case SoakWaveKind::ClockSkew: return "clock-skew";
    case SoakWaveKind::ZoneFail: return "zone-fail";
    }
    return "?";
}

std::vector<SoakWave>
generateSoakWaves(const SoakConfig &config)
{
    util::Rng rng(config.seed);
    const size_t node_count = config.testbed.nodeCount;
    const double horizon = config.hours * 3600.0;
    const double max_duration = 480.0;
    // Leave the tail quiet so the final convergence checks always see
    // a settled cluster before the horizon cuts the run off.
    const double tail = max_duration + kSoakSettleSeconds + 120.0;

    const auto max_disturbed = static_cast<size_t>(std::max(
        1.0, std::floor(kSoakMaxDisturbedFraction *
                        static_cast<double>(node_count))));

    // Per-node exclusive claims: a node joins a wave only when its
    // previous wave (plus a small gap) has fully healed, so fault
    // windows never interleave *on one node* and convergence stays
    // decidable from the schedule alone. Cross-node overlap is the
    // point of the soak and is bounded by max_disturbed.
    std::vector<double> claimed_until(node_count, 0.0);

    std::vector<SoakWave> waves;
    double t = kSoakWarmupSeconds;
    while (true) {
        t += config.meanWaveGap * rng.uniform(0.5, 1.5);
        if (t + tail > horizon)
            break;

        SoakWave wave;
        wave.at = t;

        // Zone-correlated failures: with topology declared, a wave may
        // upgrade to killing one whole failure domain. The draw is
        // guarded so the classic (zoneCount == 0) stream stays
        // byte-identical. A zone whose nodes are partly claimed, or
        // that would blow the disturbance bound, demotes to an
        // observation-only fault — same cadence, no over-razing.
        if (config.zoneCount > 0 &&
            rng.bernoulli(kSoakZoneFailProbability)) {
            wave.kind = SoakWaveKind::ZoneFail;
            wave.duration =
                static_cast<double>(rng.uniformInt(60, 480));
            const auto zone = static_cast<size_t>(rng.uniformInt(
                0, static_cast<int64_t>(config.zoneCount) - 1));
            std::vector<NodeId> zone_nodes;
            bool claimed = false;
            size_t busy = 0;
            for (NodeId n = 0; n < node_count; ++n) {
                if (n % config.zoneCount == zone) {
                    zone_nodes.push_back(n);
                    claimed = claimed || claimed_until[n] > t;
                } else if (claimed_until[n] > t) {
                    ++busy;
                }
            }
            if (claimed || busy + zone_nodes.size() > max_disturbed) {
                wave.kind = SoakWaveKind::ApiOutage;
                wave.nodes.clear();
                waves.push_back(std::move(wave));
                continue;
            }
            wave.nodes = std::move(zone_nodes);
            for (NodeId n : wave.nodes)
                claimed_until[n] = t + wave.duration + 30.0;
            waves.push_back(std::move(wave));
            continue;
        }

        const double pick = rng.uniform();
        if (pick < 0.25)
            wave.kind = SoakWaveKind::Fail;
        else if (pick < 0.35)
            wave.kind = SoakWaveKind::Flap;
        else if (pick < 0.55)
            wave.kind = SoakWaveKind::Partition;
        else if (pick < 0.75)
            wave.kind = SoakWaveKind::Degrade;
        else if (pick < 0.90)
            wave.kind = SoakWaveKind::ApiOutage;
        else
            wave.kind = SoakWaveKind::ClockSkew;

        wave.duration = static_cast<double>(rng.uniformInt(60, 480));

        if (wave.kind == SoakWaveKind::ApiOutage) {
            waves.push_back(std::move(wave));
            continue;
        }

        // Draw the node set among unclaimed nodes, within the global
        // disturbance bound for this wave's window.
        std::vector<NodeId> eligible;
        size_t busy = 0;
        for (NodeId n = 0; n < node_count; ++n) {
            if (claimed_until[n] <= t)
                eligible.push_back(n);
            else if (claimed_until[n] > t)
                ++busy;
        }
        const size_t room =
            busy >= max_disturbed ? 0 : max_disturbed - busy;
        if (eligible.empty() || room == 0) {
            // Saturated: demote to an observation-only fault so the
            // schedule keeps its cadence without over-razing.
            wave.kind = SoakWaveKind::ApiOutage;
            waves.push_back(std::move(wave));
            continue;
        }
        rng.shuffle(eligible);
        size_t count = static_cast<size_t>(rng.uniformInt(
            1, static_cast<int64_t>(std::min<size_t>(room, 6))));
        if (wave.kind == SoakWaveKind::Flap ||
            wave.kind == SoakWaveKind::ClockSkew)
            count = 1; // single-node fault classes
        count = std::min(count, eligible.size());
        wave.nodes.assign(eligible.begin(),
                          eligible.begin() + static_cast<long>(count));
        std::sort(wave.nodes.begin(), wave.nodes.end());
        for (NodeId n : wave.nodes)
            claimed_until[n] = t + wave.duration + 30.0;

        switch (wave.kind) {
        case SoakWaveKind::Flap:
            // Half the flaps stay inside the 100 s grace period
            // (invisible to the node controller), half go past it.
            wave.duration = static_cast<double>(
                rng.bernoulli(0.5) ? rng.uniformInt(20, 80)
                                   : rng.uniformInt(120, 300));
            break;
        case SoakWaveKind::Degrade:
            // 0.25-grid factors, matching the check generator.
            wave.factor =
                0.25 * static_cast<double>(rng.uniformInt(1, 3));
            break;
        case SoakWaveKind::ClockSkew: {
            const double magnitude =
                rng.bernoulli(0.3)
                    ? static_cast<double>(rng.uniformInt(150, 400))
                    : static_cast<double>(rng.uniformInt(10, 50));
            wave.skew = rng.bernoulli(0.5) ? magnitude : -magnitude;
            break;
        }
        default:
            break;
        }
        waves.push_back(std::move(wave));
    }
    return waves;
}

size_t
disturbedNodesAt(const std::vector<SoakWave> &waves, double t)
{
    std::set<NodeId> disturbed;
    for (const SoakWave &wave : waves) {
        if (wave.at <= t && t < wave.at + wave.duration)
            disturbed.insert(wave.nodes.begin(), wave.nodes.end());
    }
    return disturbed.size();
}

namespace {

/** True when no wave touches @p node anywhere in [from, to]. */
bool
nodeQuietOver(const std::vector<SoakWave> &waves, NodeId node,
              double from, double to)
{
    for (const SoakWave &wave : waves) {
        if (wave.at > to || wave.at + wave.duration < from)
            continue;
        if (std::find(wave.nodes.begin(), wave.nodes.end(), node) !=
            wave.nodes.end())
            return false;
    }
    return true;
}

/** True when no wave at all (including outages) overlaps [from, to]. */
bool
clusterQuietOver(const std::vector<SoakWave> &waves, double from,
                 double to)
{
    for (const SoakWave &wave : waves) {
        if (wave.at <= to && wave.at + wave.duration >= from)
            return false;
    }
    return true;
}

} // namespace

SoakResult
runSoak(const SoakConfig &config)
{
    std::optional<obs::ThreadMetricDelta> delta;
    if (obs::metricsEnabled())
        delta.emplace();

    Testbed bed(config.scheme, config.testbed, config.kube,
                config.zoneCount);
    sim::EventQueue &events = bed.events;
    kube::KubeCluster &cluster = bed.cluster;

    SoakResult result;
    result.simSeconds = config.hours * 3600.0;
    result.waves = generateSoakWaves(config);

    auto violate = [&result, &events](const std::string &property,
                                      std::string detail) {
        if (result.firstViolationAt < 0.0)
            result.firstViolationAt = events.now();
        ++result.violationCount;
        if (result.violations.size() < 64) {
            result.violations.push_back(
                {events.now(), property, std::move(detail)});
        }
        PHOENIX_TRACE_INSTANT("soak", "violation", events.now());
    };

    // --- Per-wave records -------------------------------------------
    // Start snapshots are armed *before* the ScenarioRunner so the
    // same-instant FIFO tie-break samples the pre-wave cluster; end
    // snapshots land 1 s after the window so heal events have fired.
    result.waveRecords.resize(result.waves.size());
    for (size_t i = 0; i < result.waves.size(); ++i) {
        result.waveRecords[i].wave = i;
        events.schedule(result.waves[i].at, [&result, &cluster, i] {
            SoakWaveRecord &record = result.waveRecords[i];
            record.readyCapacityStart = cluster.readyCapacity();
            record.pendingStart = cluster.pendingCount();
            record.evictionsDuring = cluster.evictedPodCount();
            record.invariantViolationsDuring =
                cluster.invariantViolations();
        });
    }

    // The soak runs its own repro's script: a violation's CheckCase
    // replays exactly the steps armed here.
    sim::ScenarioOptions scenario_options;
    scenario_options.seed = config.seed;
    sim::ScenarioRunner runner(
        events, cluster,
        sim::Scenario(
            makeSoakRepro(config, result.waves, result.simSeconds).steps),
        scenario_options);

    for (size_t i = 0; i < result.waves.size(); ++i) {
        const double end =
            result.waves[i].at + result.waves[i].duration + 1.0;
        events.schedule(end, [&result, &cluster, i] {
            SoakWaveRecord &record = result.waveRecords[i];
            record.readyCapacityEnd = cluster.readyCapacity();
            record.pendingEnd = cluster.pendingCount();
            record.evictionsDuring =
                cluster.evictedPodCount() - record.evictionsDuring;
            record.invariantViolationsDuring =
                cluster.invariantViolations() -
                record.invariantViolationsDuring;
        });
    }

    // --- Continuous checks ------------------------------------------
    size_t last_invariants = 0;
    std::optional<uint64_t> frozen_fingerprint;
    double availability_sum = 0.0;
    size_t availability_samples = 0;
    std::vector<SeriesPoint> availability_series;

    auto check = [&] {
        ++result.checkTicks;
        const double now = events.now();
        const auto running = cluster.runningPods();

        // Kube invariant checker (runs inside the cluster on every
        // transition; here we surface new violations as they land).
        const size_t invariants = cluster.invariantViolations();
        if (invariants > last_invariants) {
            violate("kube-invariant",
                    std::to_string(invariants - last_invariants) +
                        " new invariant violations");
            last_invariants = invariants;
        }

        // Stale-observation-vs-fresh oracle dimension.
        if (!cluster.apiOutageActive()) {
            frozen_fingerprint.reset();
            const double observed = cluster.observedReadyCapacity();
            const double live = cluster.readyCapacity();
            if (std::abs(observed - live) > 1e-6) {
                violate("stale-observation",
                        "observed ready capacity " +
                            std::to_string(observed) + " != live " +
                            std::to_string(live) +
                            " outside an outage window");
            }
        } else {
            // Only compare ticks inside the same continuous outage
            // span: when one window ends and the next begins between
            // two ticks (gaps shorter than the check period happen
            // once enough waves demote to ApiOutage), the observation
            // legitimately snapped to live and re-froze at a new
            // value — that is a boundary, not drift.
            bool boundary_between_ticks = false;
            for (const SoakWave &wave : result.waves) {
                if (wave.kind != SoakWaveKind::ApiOutage)
                    continue;
                const double last_tick = now - config.checkPeriod;
                const double end = wave.at + wave.duration;
                if ((wave.at > last_tick && wave.at <= now) ||
                    (end > last_tick && end <= now)) {
                    boundary_between_ticks = true;
                    break;
                }
            }
            const uint64_t fingerprint =
                cluster.observedReadyFingerprint();
            if (frozen_fingerprint && !boundary_between_ticks &&
                *frozen_fingerprint != fingerprint) {
                violate("frozen-observation-drift",
                        "observation changed inside an outage window");
            }
            frozen_fingerprint = fingerprint;
        }

        // Per-node convergence: quiet nodes must have healed.
        const double from = now - kSoakSettleSeconds;
        if (from > 0.0) {
            for (NodeId n = 0; n < cluster.nodeCount(); ++n) {
                if (!nodeQuietOver(result.waves, n, from, now))
                    continue;
                if (!cluster.isReady(n)) {
                    violate("unconverged-node",
                            "node " + std::to_string(n) +
                                " NotReady after quiet settle window");
                } else if (std::abs(cluster.degradeFactor(n) - 1.0) >
                           1e-9) {
                    violate("unconverged-node",
                            "node " + std::to_string(n) +
                                " still degraded after settle");
                } else if (cluster.isPartitioned(n)) {
                    violate("unconverged-node",
                            "node " + std::to_string(n) +
                                " still partitioned after settle");
                } else if (std::abs(cluster.clockSkew(n)) > 1e-9) {
                    violate("unconverged-node",
                            "node " + std::to_string(n) +
                                " clock still skewed after settle");
                }
            }

            // Stranded pods: a fault-quiet cluster must drain.
            if (clusterQuietOver(result.waves, from, now) &&
                cluster.pendingCount() > 0) {
                violate("stranded-pending",
                        std::to_string(cluster.pendingCount()) +
                            " pods Pending after quiet settle window");
            }

            // Constrained placement: once the cluster has been
            // fault-quiet for the settle window, topology must be
            // restored — every cap respected and every
            // spread-constrained service spanning its zones again —
            // not merely every pod running somewhere.
            if (config.zoneCount > 0 &&
                clusterQuietOver(result.waves, from, now)) {
                for (const auto &app : cluster.apps()) {
                    std::map<int, std::map<NodeId, int>> group_node;
                    std::map<int, std::map<int, int>> group_zone;
                    for (const auto &ms : app.services) {
                        std::map<NodeId, int> per_node;
                        std::map<int, int> per_zone;
                        int running_count = 0;
                        const int replicas =
                            ms.replicas > 1 ? ms.replicas : 1;
                        for (int r = 0; r < replicas; ++r) {
                            const PodRef ref{
                                app.id, ms.id,
                                static_cast<uint32_t>(r)};
                            if (!running.count(ref))
                                continue;
                            const kube::Pod *pod = cluster.pod(ref);
                            if (!pod)
                                continue;
                            const int zone =
                                cluster.nodeZone(pod->node);
                            ++running_count;
                            ++per_node[pod->node];
                            ++per_zone[zone];
                            if (ms.antiAffinityGroup >= 0) {
                                ++group_node[ms.antiAffinityGroup]
                                            [pod->node];
                                ++group_zone[ms.antiAffinityGroup]
                                            [zone];
                            }
                        }
                        if (ms.maxPerNode > 0) {
                            for (const auto &[node, count] : per_node) {
                                if (count > ms.maxPerNode) {
                                    violate(
                                        "constraint-cap",
                                        "app " + app.name + " ms " +
                                            std::to_string(ms.id) +
                                            ": " +
                                            std::to_string(count) +
                                            " replicas on node " +
                                            std::to_string(node));
                                }
                            }
                        }
                        const int zone_cap = ms.effectiveZoneCap();
                        if (zone_cap > 0) {
                            for (const auto &[zone, count] : per_zone) {
                                if (count > zone_cap) {
                                    violate(
                                        "constraint-cap",
                                        "app " + app.name + " ms " +
                                            std::to_string(ms.id) +
                                            ": " +
                                            std::to_string(count) +
                                            " replicas in zone " +
                                            std::to_string(zone));
                                }
                            }
                        }
                        if (ms.minZoneSpread > 1 && running_count > 0) {
                            const int want = std::min(
                                ms.minZoneSpread, running_count);
                            if (static_cast<int>(per_zone.size()) <
                                want) {
                                violate(
                                    "stranded-constraint",
                                    "app " + app.name + " ms " +
                                        std::to_string(ms.id) +
                                        " spans " +
                                        std::to_string(
                                            per_zone.size()) +
                                        " zones < required " +
                                        std::to_string(want) +
                                        " after quiet settle");
                            }
                        }
                    }
                    for (const auto &group : app.placementGroups) {
                        if (group.maxPerNode > 0) {
                            for (const auto &[node, count] :
                                 group_node[group.id]) {
                                if (count > group.maxPerNode) {
                                    violate(
                                        "constraint-cap",
                                        "app " + app.name + " group " +
                                            std::to_string(group.id) +
                                            ": " +
                                            std::to_string(count) +
                                            " pods on node " +
                                            std::to_string(node));
                                }
                            }
                        }
                        if (group.maxPerZone > 0) {
                            for (const auto &[zone, count] :
                                 group_zone[group.id]) {
                                if (count > group.maxPerZone) {
                                    violate(
                                        "constraint-cap",
                                        "app " + app.name + " group " +
                                            std::to_string(group.id) +
                                            ": " +
                                            std::to_string(count) +
                                            " pods in zone " +
                                            std::to_string(zone));
                                }
                            }
                        }
                    }
                }
            }
        }

        // Deliberately wrong invariant, for exercising the
        // violation -> trace + shrunk-repro path end to end.
        if (config.injectFault) {
            const sim::ClusterState live = cluster.liveState();
            for (NodeId n = 0; n < live.nodeCount(); ++n) {
                if (live.used(n) >
                    config.injectTightCapacityFraction *
                            live.node(n).capacity +
                        1e-9) {
                    violate("injected-tight-capacity",
                            "node " + std::to_string(n) + " used " +
                                std::to_string(live.used(n)) +
                                " exceeds injected bound");
                    break;
                }
            }
        }

        // Availability bookkeeping (recorded, not asserted).
        sim::ActiveSet active = sim::emptyActiveSet(cluster.apps());
        for (const PodRef &pod : running)
            active[pod.app][pod.ms] = true;
        const double availability =
            sim::criticalServiceAvailability(cluster.apps(), active);
        availability_series.push_back(
            {now, availability >= 1.0 - 1e-9});
        if (now >= kSoakWarmupSeconds) {
            result.minAvailability =
                std::min(result.minAvailability, availability);
            availability_sum += availability;
            ++availability_samples;
            result.maxPending =
                std::max(result.maxPending, cluster.pendingCount());
        }
        PHOENIX_TRACE_INSTANT(
            "soak", "check", now,
            (obs::TraceArg{"availability", availability}),
            (obs::TraceArg{"pending",
                           static_cast<double>(
                               cluster.pendingCount())}),
            (obs::TraceArg{"violations",
                           static_cast<double>(
                               result.violationCount)}));
    };
    for (double t = config.checkPeriod; t <= result.simSeconds;
         t += config.checkPeriod)
        events.schedule(t, check);

    events.runUntil(result.simSeconds);

    result.invariantViolations = cluster.invariantViolations();
    result.evictedPods = cluster.evictedPodCount();
    if (availability_samples > 0) {
        result.meanAvailability =
            availability_sum /
            static_cast<double>(availability_samples);
    }
    // Same derivation (and semantics) as the recovery harness's
    // time-to-critical-recovery, measured from the first wave.
    result.timeToAvailabilityRecovery = recoveryTimeSince(
        availability_series,
        result.waves.empty() ? -1.0 : result.waves.front().at);
    if (bed.controller) {
        result.replans = bed.controller->history().size();
        for (const auto &record : bed.controller->history()) {
            result.deletes += record.deletes;
            result.migrations += record.migrations;
            result.restarts += record.restarts;
        }
    }
    if (delta)
        result.obsMetrics = delta->finish();
    (void)runner;
    return result;
}

check::CheckCase
makeSoakRepro(const SoakConfig &config,
              const std::vector<SoakWave> &waves, double upTo)
{
    const apps::CloudLabTestbed testbed =
        apps::makeCloudLabTestbed(config.testbed);

    check::CheckCase repro;
    repro.seed = config.seed;
    repro.lifecycle = false;
    for (size_t n = 0; n < testbed.config.nodeCount; ++n) {
        repro.nodeCapacities.push_back(testbed.config.cpusPerNode);
        if (config.zoneCount > 0)
            repro.nodeZones.push_back(testbedZone(n, config.zoneCount));
    }
    repro.apps = testbedApplications(testbed, config.zoneCount);

    sim::Scenario script;
    for (const SoakWave &wave : waves) {
        if (wave.at > upTo)
            continue;
        const double end = wave.at + wave.duration;
        switch (wave.kind) {
        case SoakWaveKind::Fail:
        case SoakWaveKind::ZoneFail:
            script.failNodes(wave.at, wave.nodes).recoverNodes(end, wave.nodes);
            break;
        case SoakWaveKind::Partition:
            script.partitionNodes(wave.at, wave.nodes, wave.duration);
            break;
        case SoakWaveKind::Degrade:
            script.degradeNodes(wave.at, wave.nodes, wave.factor,
                                wave.duration);
            break;
        case SoakWaveKind::ApiOutage:
            script.apiOutage(wave.at, wave.duration);
            break;
        case SoakWaveKind::Flap:
            for (sim::NodeId node : wave.nodes)
                script.flapKubelet(wave.at, node, wave.duration);
            break;
        case SoakWaveKind::ClockSkew:
            for (sim::NodeId node : wave.nodes)
                script.skewClock(wave.at, node, wave.skew)
                    .skewClock(end, node, 0.0);
            break;
        }
    }
    repro.steps = script.steps();
    return repro;
}

} // namespace phoenix::exp
