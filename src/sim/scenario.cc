#include "scenario.h"

#include <algorithm>

#include "util/log.h"

namespace phoenix::sim {

namespace {

using Kind = Scenario::Step::Kind;

bool
isFailureKind(Scenario::Step::Kind kind)
{
    switch (kind) {
    case Scenario::Step::Kind::FailNodes:
    case Scenario::Step::Kind::FailCount:
    case Scenario::Step::Kind::FailCapacityFraction:
    case Scenario::Step::Kind::FailZone:
    case Scenario::Step::Kind::RollingFail:
    case Scenario::Step::Kind::Flap:
    // Partitions and degradation remove (schedulable) capacity, so
    // they start the recovery clock. API outages and clock skew do
    // not by themselves — they only distort observation.
    case Scenario::Step::Kind::PartitionNodes:
    case Scenario::Step::Kind::PartitionZone:
    case Scenario::Step::Kind::Degrade:
    case Scenario::Step::Kind::DegradeZone:
        return true;
    case Scenario::Step::Kind::RecoverNodes:
    case Scenario::Step::Kind::RecoverAll:
    case Scenario::Step::Kind::HealPartition:
    case Scenario::Step::Kind::ApiOutage:
    case Scenario::Step::Kind::SkewClock:
        return false;
    }
    return false;
}

double
clampDegradeFactor(double factor)
{
    if (factor < kMinDegradeFactor)
        return kMinDegradeFactor;
    if (factor > 1.0)
        return 1.0;
    return factor;
}

} // namespace

Scenario &
Scenario::push(Step step)
{
    steps_.push_back(std::move(step));
    return *this;
}

Scenario &
Scenario::failNodes(SimTime at, std::vector<NodeId> nodes)
{
    return push(
        {.at = at, .kind = Kind::FailNodes, .nodes = std::move(nodes)});
}

Scenario &
Scenario::failCount(SimTime at, size_t count)
{
    return push({.at = at, .kind = Kind::FailCount, .count = count});
}

Scenario &
Scenario::failCapacityFraction(SimTime at, double fraction)
{
    return push({.at = at,
                 .kind = Kind::FailCapacityFraction,
                 .fraction = std::clamp(fraction, 0.0, 1.0)});
}

Scenario &
Scenario::failZone(SimTime at, size_t zone)
{
    return push({.at = at, .kind = Kind::FailZone, .zone = zone});
}

Scenario &
Scenario::rollingFail(SimTime at, size_t count, double interval)
{
    return push({.at = at,
                 .kind = Kind::RollingFail,
                 .count = count,
                 .interval = std::max(interval, 0.0)});
}

Scenario &
Scenario::flapKubelet(SimTime at, NodeId node, double downtime)
{
    return push({.at = at,
                 .kind = Kind::Flap,
                 .nodes = {node},
                 .downtime = std::max(downtime, 0.0)});
}

Scenario &
Scenario::recoverNodes(SimTime at, std::vector<NodeId> nodes)
{
    return push(
        {.at = at, .kind = Kind::RecoverNodes, .nodes = std::move(nodes)});
}

Scenario &
Scenario::recoverAll(SimTime at, double stagger)
{
    return push({.at = at,
                 .kind = Kind::RecoverAll,
                 .interval = std::max(stagger, 0.0)});
}

Scenario &
Scenario::partitionNodes(SimTime at, std::vector<NodeId> nodes,
                         double duration)
{
    return push({.at = at,
                 .kind = Kind::PartitionNodes,
                 .nodes = std::move(nodes),
                 .downtime = duration});
}

Scenario &
Scenario::partitionZone(SimTime at, size_t zone, double duration)
{
    return push({.at = at,
                 .kind = Kind::PartitionZone,
                 .zone = zone,
                 .downtime = duration});
}

Scenario &
Scenario::healPartition(SimTime at, std::vector<NodeId> nodes)
{
    return push(
        {.at = at, .kind = Kind::HealPartition, .nodes = std::move(nodes)});
}

Scenario &
Scenario::degradeNodes(SimTime at, std::vector<NodeId> nodes,
                       double factor, double duration)
{
    return push({.at = at,
                 .kind = Kind::Degrade,
                 .nodes = std::move(nodes),
                 .downtime = duration,
                 .factor = clampDegradeFactor(factor)});
}

Scenario &
Scenario::degradeZone(SimTime at, size_t zone, double factor,
                      double duration)
{
    return push({.at = at,
                 .kind = Kind::DegradeZone,
                 .zone = zone,
                 .downtime = duration,
                 .factor = clampDegradeFactor(factor)});
}

Scenario &
Scenario::apiOutage(SimTime at, double duration)
{
    return push({.at = at,
                 .kind = Kind::ApiOutage,
                 .downtime = std::max(duration, 0.0)});
}

Scenario &
Scenario::skewClock(SimTime at, NodeId node, double skew)
{
    return push(
        {.at = at, .kind = Kind::SkewClock, .nodes = {node}, .skew = skew});
}

SimTime
Scenario::firstFailureAt() const
{
    SimTime first = -1.0;
    for (const Step &step : steps_) {
        if (!isFailureKind(step.kind))
            continue;
        if (first < 0.0 || step.at < first)
            first = step.at;
    }
    return first;
}

ScenarioRunner::ScenarioRunner(EventQueue &events, FaultTarget &target,
                               Scenario scenario,
                               ScenarioOptions options)
    : events_(events), target_(target), scenario_(std::move(scenario)),
      options_(options), rng_(options.seed),
      firstFailureAt_(scenario_.firstFailureAt())
{
    auto &registry = obs::Registry::global();
    obs_.nodeFailures = &registry.counter("scenario.node_failures");
    obs_.nodeRecoveries = &registry.counter("scenario.node_recoveries");
    obs_.partitions = &registry.counter("scenario.partitions");
    obs_.heals = &registry.counter("scenario.partition_heals");
    obs_.degrades = &registry.counter("scenario.degrades");
    obs_.skews = &registry.counter("scenario.clock_skews");
    obs_.apiOutages = &registry.counter("scenario.api_outages");
    obs_.steps = &registry.counter("scenario.steps");

    for (const Scenario::Step &step : scenario_.steps())
        armStep(step);
}

void
ScenarioRunner::armStep(const Scenario::Step &step)
{
    // Steps capture by value: the scenario spec outlives nothing, the
    // runner owns its own copy.
    const Scenario::Step armed = step;
    events_.schedule(armed.at, [this, armed] { runStep(armed); });
}

std::vector<NodeId>
ScenarioRunner::upNodes() const
{
    std::vector<NodeId> up;
    for (size_t n = 0; n < target_.nodeCount(); ++n) {
        const NodeId id = static_cast<NodeId>(n);
        if (!down_.count(id))
            up.push_back(id);
    }
    return up;
}

double
ScenarioRunner::totalCapacity() const
{
    double total = 0.0;
    for (size_t n = 0; n < target_.nodeCount(); ++n)
        total += target_.nodeCapacity(static_cast<NodeId>(n));
    return total;
}

double
ScenarioRunner::downCapacity() const
{
    double total = 0.0;
    for (NodeId id : down_)
        total += target_.nodeCapacity(id);
    return total;
}

std::vector<NodeId>
ScenarioRunner::downNodes() const
{
    return std::vector<NodeId>(down_.begin(), down_.end());
}

std::vector<NodeId>
ScenarioRunner::partitionedNodes() const
{
    return std::vector<NodeId>(partitioned_.begin(),
                               partitioned_.end());
}

size_t
ScenarioRunner::zoneOf(NodeId node) const
{
    const int label = target_.nodeZone(node);
    return label >= 0 ? static_cast<size_t>(label)
                      : node % std::max<size_t>(options_.zoneCount, 1);
}

std::vector<NodeId>
ScenarioRunner::zoneNodes(size_t zone) const
{
    std::vector<NodeId> nodes;
    for (size_t n = 0; n < target_.nodeCount(); ++n) {
        const NodeId id = static_cast<NodeId>(n);
        if (zoneOf(id) == zone)
            nodes.push_back(id);
    }
    return nodes;
}

void
ScenarioRunner::failNode(NodeId node)
{
    if (down_.count(node))
        return;
    down_.insert(node);
    trace_.push_back({events_.now(), ScenarioAction::Fail, node});
    PHOENIX_COUNT(*obs_.nodeFailures, 1);
    PHOENIX_TRACE_INSTANT("scenario", "fail", events_.now(),
                          (obs::TraceArg{
                              "node", static_cast<double>(node)}));
    target_.injectNodeFailure(node);
}

void
ScenarioRunner::recoverNode(NodeId node)
{
    if (!down_.erase(node))
        return;
    trace_.push_back({events_.now(), ScenarioAction::Recover, node});
    PHOENIX_COUNT(*obs_.nodeRecoveries, 1);
    PHOENIX_TRACE_INSTANT("scenario", "recover", events_.now(),
                          (obs::TraceArg{
                              "node", static_cast<double>(node)}));
    target_.injectNodeRecovery(node);
}

void
ScenarioRunner::partitionNode(NodeId node)
{
    if (!partitioned_.insert(node).second)
        return;
    trace_.push_back({events_.now(), ScenarioAction::Partition, node});
    PHOENIX_COUNT(*obs_.partitions, 1);
    PHOENIX_TRACE_INSTANT("scenario", "partition", events_.now(),
                          (obs::TraceArg{
                              "node", static_cast<double>(node)}));
    target_.injectPartition(node);
}

void
ScenarioRunner::healNode(NodeId node)
{
    if (!partitioned_.erase(node))
        return;
    trace_.push_back({events_.now(), ScenarioAction::Heal, node});
    PHOENIX_COUNT(*obs_.heals, 1);
    PHOENIX_TRACE_INSTANT("scenario", "heal", events_.now(),
                          (obs::TraceArg{
                              "node", static_cast<double>(node)}));
    target_.injectPartitionHeal(node);
}

void
ScenarioRunner::degradeNode(NodeId node, double factor)
{
    if (factor >= 1.0) {
        // Restoring a node that was never degraded is a no-op.
        if (degraded_.erase(node) == 0)
            return;
        trace_.push_back(
            {events_.now(), ScenarioAction::Restore, node, 1.0});
        target_.injectDegrade(node, 1.0);
        return;
    }
    degraded_[node] = factor;
    trace_.push_back(
        {events_.now(), ScenarioAction::Degrade, node, factor});
    PHOENIX_COUNT(*obs_.degrades, 1);
    PHOENIX_TRACE_INSTANT("scenario", "degrade", events_.now(),
                          (obs::TraceArg{
                              "node", static_cast<double>(node)}));
    target_.injectDegrade(node, factor);
}

void
ScenarioRunner::skewNode(NodeId node, double skew)
{
    trace_.push_back(
        {events_.now(), ScenarioAction::ClockSkew, node, skew});
    PHOENIX_COUNT(*obs_.skews, 1);
    PHOENIX_TRACE_INSTANT("scenario", "clock_skew", events_.now(),
                          (obs::TraceArg{
                              "node", static_cast<double>(node)}));
    target_.injectClockSkew(node, skew);
}

void
ScenarioRunner::beginOutage()
{
    trace_.push_back(
        {events_.now(), ScenarioAction::ApiOutageBegin, 0});
    if (++outageDepth_ > 1)
        return; // overlapping windows merge
    PHOENIX_COUNT(*obs_.apiOutages, 1);
    PHOENIX_TRACE_INSTANT("scenario", "api_outage_begin",
                          events_.now());
    target_.injectApiOutageBegin();
}

void
ScenarioRunner::endOutage()
{
    trace_.push_back({events_.now(), ScenarioAction::ApiOutageEnd, 0});
    if (outageDepth_ == 0 || --outageDepth_ > 0)
        return;
    PHOENIX_TRACE_INSTANT("scenario", "api_outage_end", events_.now());
    target_.injectApiOutageEnd();
}

void
ScenarioRunner::runStep(const Scenario::Step &step)
{
    using Kind = Scenario::Step::Kind;
    PHOENIX_COUNT(*obs_.steps, 1);
    switch (step.kind) {
    case Kind::FailNodes:
        for (NodeId node : step.nodes)
            failNode(node);
        break;

    case Kind::FailCount: {
        std::vector<NodeId> candidates = upNodes();
        rng_.shuffle(candidates);
        for (size_t i = 0; i < step.count && i < candidates.size(); ++i)
            failNode(candidates[i]);
        break;
    }

    case Kind::FailCapacityFraction: {
        const double target = totalCapacity() * step.fraction;
        std::vector<NodeId> candidates = upNodes();
        rng_.shuffle(candidates);
        for (NodeId node : candidates) {
            if (downCapacity() >= target - 1e-9)
                break;
            failNode(node);
        }
        break;
    }

    case Kind::FailZone:
        for (NodeId node : upNodes()) {
            if (zoneOf(node) == step.zone)
                failNode(node);
        }
        break;

    case Kind::RollingFail: {
        if (step.count == 0)
            break;
        std::vector<NodeId> candidates = upNodes();
        if (!candidates.empty()) {
            const size_t pick = static_cast<size_t>(rng_.uniformInt(
                0, static_cast<int64_t>(candidates.size()) - 1));
            failNode(candidates[pick]);
        }
        // Once no node is left up, the rest of the count has nothing
        // to take: stop instead of re-arming it.
        if (step.count > 1 && candidates.size() > 1) {
            Scenario::Step next = step;
            next.at = events_.now() + step.interval;
            --next.count;
            armStep(next);
        }
        break;
    }

    case Kind::Flap: {
        for (NodeId node : step.nodes) {
            failNode(node);
            events_.scheduleAfter(step.downtime, [this, node] {
                recoverNode(node);
            });
        }
        break;
    }

    case Kind::RecoverNodes:
        for (NodeId node : step.nodes)
            recoverNode(node);
        break;

    case Kind::RecoverAll: {
        const std::vector<NodeId> nodes = downNodes();
        if (step.interval <= 0.0) {
            for (NodeId node : nodes)
                recoverNode(node);
            break;
        }
        double delay = 0.0;
        for (NodeId node : nodes) {
            if (delay == 0.0) {
                recoverNode(node);
            } else {
                events_.scheduleAfter(delay, [this, node] {
                    recoverNode(node);
                });
            }
            delay += step.interval;
        }
        break;
    }

    case Kind::PartitionNodes:
    case Kind::PartitionZone: {
        const std::vector<NodeId> nodes =
            step.kind == Kind::PartitionZone ? zoneNodes(step.zone)
                                             : step.nodes;
        for (NodeId node : nodes) {
            partitionNode(node);
            if (step.downtime > 0.0) {
                events_.scheduleAfter(step.downtime, [this, node] {
                    healNode(node);
                });
            }
        }
        break;
    }

    case Kind::HealPartition:
        for (NodeId node : step.nodes)
            healNode(node);
        break;

    case Kind::Degrade:
    case Kind::DegradeZone: {
        const std::vector<NodeId> nodes =
            step.kind == Kind::DegradeZone ? zoneNodes(step.zone)
                                           : step.nodes;
        for (NodeId node : nodes) {
            degradeNode(node, step.factor);
            if (step.downtime > 0.0) {
                events_.scheduleAfter(step.downtime, [this, node] {
                    degradeNode(node, 1.0);
                });
            }
        }
        break;
    }

    case Kind::ApiOutage: {
        beginOutage();
        events_.scheduleAfter(step.downtime,
                              [this] { endOutage(); });
        break;
    }

    case Kind::SkewClock:
        for (NodeId node : step.nodes)
            skewNode(node, step.skew);
        break;
    }
}

} // namespace phoenix::sim
