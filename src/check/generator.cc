#include "generator.h"

#include <algorithm>
#include <numeric>

#include "util/rng.h"

namespace phoenix::check {

using util::Rng;
using Step = sim::Scenario::Step;
using Kind = Step::Kind;

namespace {

/** Uniform draw from the 0.25 grid in [lo, hi]. */
double
quarterGrid(Rng &rng, double lo, double hi)
{
    const auto lo_q = static_cast<int64_t>(lo * 4.0);
    const auto hi_q = static_cast<int64_t>(hi * 4.0);
    return static_cast<double>(rng.uniformInt(lo_q, hi_q)) * 0.25;
}

sim::Application
generateApp(Rng &rng, sim::AppId id, size_t index,
            const GeneratorOptions &options)
{
    sim::Application app;
    app.id = id;
    app.name = "app" + std::to_string(index);
    app.pricePerUnit = quarterGrid(rng, 0.25, 3.0);
    app.phoenixEnabled = !rng.bernoulli(options.partialTaggingProbability);

    const auto service_count = static_cast<size_t>(
        rng.uniformInt(1, options.maxServicesPerApp));
    for (size_t m = 0; m < service_count; ++m) {
        sim::Microservice ms;
        ms.id = static_cast<sim::MsId>(m);
        ms.name = "ms" + std::to_string(m);
        ms.cpu = quarterGrid(rng, 0.25, options.maxServiceCpu);
        ms.criticality = static_cast<int>(rng.uniformInt(1, 4));
        ms.replicas = 1;
        ms.quorum = 0;
        if (rng.bernoulli(options.multiReplicaProbability)) {
            ms.replicas = static_cast<int>(rng.uniformInt(2, 3));
            if (rng.bernoulli(0.5))
                ms.quorum = static_cast<int>(
                    rng.uniformInt(1, ms.replicas));
        }
        // Placement policy (guarded draws: probability 0 consumes no
        // randomness, so classic streams stay byte-identical).
        if (options.zoneSpreadProbability > 0.0 &&
            rng.bernoulli(options.zoneSpreadProbability)) {
            if (ms.replicas < 2)
                ms.replicas = static_cast<int>(rng.uniformInt(2, 3));
            const int64_t spread_max =
                std::min<int64_t>(ms.replicas,
                                  std::max(options.topologyZones, 2));
            ms.minZoneSpread =
                static_cast<int>(rng.uniformInt(2, spread_max));
        }
        if (options.pdbProbability > 0.0 &&
            rng.bernoulli(options.pdbProbability)) {
            if (ms.replicas < 2)
                ms.replicas = static_cast<int>(rng.uniformInt(2, 3));
            ms.pdbMaxUnavailable =
                static_cast<int>(rng.uniformInt(1, ms.replicas));
        }
        if (options.nodeCapProbability > 0.0 &&
            rng.bernoulli(options.nodeCapProbability)) {
            ms.maxPerNode = static_cast<int>(rng.uniformInt(1, 2));
        }
        app.services.push_back(ms);
    }

    if (options.antiAffinityProbability > 0.0 &&
        rng.bernoulli(options.antiAffinityProbability)) {
        sim::PlacementGroup group;
        group.id = 0;
        group.maxPerNode = static_cast<int>(rng.uniformInt(1, 2));
        if (rng.bernoulli(0.4))
            group.maxPerZone = static_cast<int>(rng.uniformInt(2, 4));
        app.placementGroups.push_back(group);
        bool any = false;
        for (auto &ms : app.services) {
            if (rng.bernoulli(0.5)) {
                ms.antiAffinityGroup = group.id;
                any = true;
            }
        }
        if (!any && !app.services.empty())
            app.services.front().antiAffinityGroup = group.id;
    }

    if (service_count >= 2 && rng.bernoulli(options.dagProbability)) {
        app.dag = graph::DiGraph(service_count);
        // Edges only point forward (i < j), so the graph is acyclic by
        // construction.
        for (graph::NodeId i = 0; i < service_count; ++i) {
            for (graph::NodeId j = i + 1; j < service_count; ++j) {
                if (rng.bernoulli(options.edgeProbability))
                    app.dag.addEdge(i, j);
            }
        }
        app.hasDependencyGraph = app.dag.edgeCount() > 0;
    }
    return app;
}

} // namespace

CheckCase
generateCase(uint64_t seed, const GeneratorOptions &options)
{
    Rng rng(seed);
    CheckCase out;
    out.seed = seed;

    const auto node_count = static_cast<size_t>(
        rng.uniformInt(options.minNodes, options.maxNodes));
    for (size_t n = 0; n < node_count; ++n) {
        out.nodeCapacities.push_back(static_cast<double>(
            rng.uniformInt(2, static_cast<int64_t>(
                                  options.maxNodeCapacity))));
    }

    // App ids are usually 0..n-1, but a slice of the stream uses
    // sparse ids (gaps, not starting at zero) because index/id mixups
    // are a recurring bug class in the schemes.
    const auto app_count = static_cast<size_t>(
        rng.uniformInt(options.minApps, options.maxApps));
    const bool sparse_ids = rng.bernoulli(options.sparseAppIdProbability);
    sim::AppId next_id = 0;
    for (size_t a = 0; a < app_count; ++a) {
        if (sparse_ids)
            next_id += static_cast<sim::AppId>(rng.uniformInt(1, 7));
        out.apps.push_back(generateApp(rng, next_id, a, options));
        ++next_id;
    }

    // Constrained cases carry explicit zone labels so spread
    // constraints bind to a real topology (and zone-scoped faults hit
    // the same zones the constraints name). No rng draws here.
    if (out.constrained() && options.topologyZones > 1) {
        const auto zones =
            static_cast<uint32_t>(options.topologyZones);
        for (size_t n = 0; n < node_count; ++n)
            out.nodeZones.push_back(static_cast<uint32_t>(n) % zones);
    }

    // Failure script. Lifecycle cases leave time for every pod to get
    // scheduled and reach Running (podStartupMax is 60s) before the
    // first fault lands.
    out.lifecycle = rng.bernoulli(options.lifecycleProbability);
    const double t0 = out.lifecycle ? 200.0 : 0.0;

    std::vector<sim::NodeId> failed;
    const bool zone_local =
        options.zoneFailureZones > 1 &&
        node_count > static_cast<size_t>(options.zoneFailureZones) &&
        rng.bernoulli(options.zoneFailureProbability);
    if (zone_local) {
        // Fail exactly one capacity-index zone: every node with one
        // residue modulo the zone count. With zones > 1 at least one
        // other residue class survives, so the cluster never empties.
        const auto zones =
            static_cast<sim::NodeId>(options.zoneFailureZones);
        const auto residue = static_cast<sim::NodeId>(
            rng.uniformInt(0, static_cast<int64_t>(zones) - 1));
        for (sim::NodeId n = 0; n < node_count; ++n) {
            if (n % zones == residue)
                failed.push_back(n);
        }
    } else {
        std::vector<sim::NodeId> order(node_count);
        std::iota(order.begin(), order.end(), sim::NodeId{0});
        rng.shuffle(order);
        auto fail_count = static_cast<size_t>(
            rng.uniformInt(1, static_cast<int64_t>(node_count)));
        if (fail_count == node_count && rng.bernoulli(0.8))
            --fail_count; // usually keep at least one node alive
        if (fail_count == 0)
            fail_count = 1;
        failed.assign(order.begin(),
                      order.begin() + static_cast<long>(fail_count));
    }

    Step fault;
    fault.at = t0;
    fault.nodes = failed;
    if (rng.bernoulli(options.flapProbability)) {
        fault.kind = Kind::Flap;
        fault.downtime = static_cast<double>(rng.uniformInt(30, 120));
    } else {
        fault.kind = Kind::FailNodes;
    }
    out.steps.push_back(fault);

    if (fault.kind == Kind::FailNodes &&
        rng.bernoulli(options.recoverProbability)) {
        Step recover;
        recover.kind = Kind::RecoverNodes;
        recover.at = t0 + static_cast<double>(rng.uniformInt(60, 300));
        const auto recover_count = static_cast<size_t>(
            rng.uniformInt(1, static_cast<int64_t>(failed.size())));
        recover.nodes.assign(failed.begin(),
                             failed.begin() +
                                 static_cast<long>(recover_count));
        out.steps.push_back(recover);
    }

    // Extended fault taxonomy: observation/degradation faults layered
    // over (and overlapping) the base failure script. Targets may
    // coincide with failed nodes on purpose — partition and degrade
    // state is independent of kubelet health.
    const auto pick_nodes = [&rng, node_count](size_t max_count) {
        std::vector<sim::NodeId> order(node_count);
        std::iota(order.begin(), order.end(), sim::NodeId{0});
        rng.shuffle(order);
        const auto count = static_cast<size_t>(rng.uniformInt(
            1, static_cast<int64_t>(std::max<size_t>(max_count, 1))));
        order.resize(std::min(count, order.size()));
        return order;
    };

    if (rng.bernoulli(options.partitionProbability)) {
        Step part;
        part.kind = Kind::PartitionNodes;
        part.at = t0 + static_cast<double>(rng.uniformInt(0, 120));
        // Always a healing window: the post-failure state nets out,
        // and the lifecycle oracle asserts readiness converges.
        part.downtime = static_cast<double>(rng.uniformInt(120, 360));
        part.nodes = pick_nodes(node_count / 2);
        out.steps.push_back(std::move(part));
    }

    if (rng.bernoulli(options.degradeProbability)) {
        Step degrade;
        degrade.kind = Kind::Degrade;
        degrade.at = t0 + static_cast<double>(rng.uniformInt(0, 120));
        // 0.25-grid factors keep the scale-by-2 metamorphic relation
        // exact in binary floating point.
        degrade.factor =
            0.25 * static_cast<double>(rng.uniformInt(1, 3));
        // Mostly windowed; sometimes permanent (<= 0), which reshapes
        // the post-failure state the schemes plan against.
        degrade.downtime =
            rng.bernoulli(0.7)
                ? static_cast<double>(rng.uniformInt(120, 600))
                : 0.0;
        degrade.nodes = pick_nodes(node_count / 2);
        out.steps.push_back(std::move(degrade));
    }

    if (rng.bernoulli(options.outageProbability)) {
        Step outage;
        outage.kind = Kind::ApiOutage;
        outage.at = t0 + static_cast<double>(rng.uniformInt(0, 60));
        outage.downtime =
            static_cast<double>(rng.uniformInt(60, 240));
        out.steps.push_back(std::move(outage));
    }

    if (rng.bernoulli(options.skewProbability)) {
        Step skew;
        skew.kind = Kind::SkewClock;
        skew.at = t0 + static_cast<double>(rng.uniformInt(0, 60));
        skew.nodes = pick_nodes(1);
        // Usually inside the grace period (node stays Ready); a slice
        // of the stream goes far past it to exercise NotReady-despite-
        // running and fresh-from-the-future masking.
        const double magnitude =
            rng.bernoulli(0.3)
                ? static_cast<double>(rng.uniformInt(150, 400))
                : static_cast<double>(rng.uniformInt(10, 50));
        skew.skew = rng.bernoulli(0.5) ? magnitude : -magnitude;
        out.steps.push_back(std::move(skew));
    }
    return out;
}

} // namespace phoenix::check
