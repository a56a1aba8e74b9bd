#include "case.h"

#include <algorithm>
#include <sstream>

#include "util/json.h"

namespace phoenix::check {

using sim::ClusterState;
using sim::NodeId;
using util::JsonValue;

sim::ClusterState
CheckCase::emptyCluster() const
{
    ClusterState state(sim::PodIndex::of(apps));
    for (size_t n = 0; n < nodeCapacities.size(); ++n) {
        state.addNode(nodeCapacities[n],
                      n < nodeZones.size() ? nodeZones[n] : 0);
    }
    return state;
}

sim::Scenario
CheckCase::scenario() const
{
    sim::Scenario scenario;
    for (const CaseStep &step : steps) {
        switch (step.kind) {
        case CaseStep::Kind::Fail:
            scenario.failNodes(step.at, step.nodes);
            break;
        case CaseStep::Kind::Recover:
            scenario.recoverNodes(step.at, step.nodes);
            break;
        case CaseStep::Kind::Flap:
            for (NodeId node : step.nodes)
                scenario.flapKubelet(step.at, node, step.downtime);
            break;
        case CaseStep::Kind::Partition:
            scenario.partitionNodes(step.at, step.nodes,
                                    step.downtime);
            break;
        case CaseStep::Kind::Degrade:
            scenario.degradeNodes(step.at, step.nodes, step.factor,
                                  step.downtime);
            break;
        case CaseStep::Kind::Outage:
            scenario.apiOutage(step.at, step.downtime);
            break;
        case CaseStep::Kind::Skew:
            for (NodeId node : step.nodes)
                scenario.skewClock(step.at, node, step.skew);
            break;
        }
    }
    return scenario;
}

void
CheckCase::replaySteps(sim::ClusterState &state) const
{
    // Expand flaps into their stop/restart pair, then apply everything
    // in (time, script order) — matching the EventQueue's FIFO
    // tie-break for simultaneous events.
    struct Event
    {
        enum class What { Fail, Restore, Rescale };
        double at;
        size_t seq;
        What what;
        NodeId node;
        /** Rescale only: capacity multiplier (1.0 = restore). */
        double factor;
    };
    using What = Event::What;
    std::vector<Event> events;
    size_t seq = 0;
    for (const CaseStep &step : steps) {
        for (NodeId node : step.nodes) {
            switch (step.kind) {
            case CaseStep::Kind::Fail:
                events.push_back({step.at, seq++, What::Fail, node,
                                  1.0});
                break;
            case CaseStep::Kind::Recover:
                events.push_back({step.at, seq++, What::Restore, node,
                                  1.0});
                break;
            case CaseStep::Kind::Flap:
                events.push_back({step.at, seq++, What::Fail, node,
                                  1.0});
                events.push_back({step.at + step.downtime, seq++,
                                  What::Restore, node, 1.0});
                break;
            case CaseStep::Kind::Partition:
                // Control-plane view: the node fails; with a window,
                // it comes back once heartbeats resume.
                events.push_back({step.at, seq++, What::Fail, node,
                                  1.0});
                if (step.downtime > 0.0) {
                    events.push_back({step.at + step.downtime, seq++,
                                      What::Restore, node, 1.0});
                }
                break;
            case CaseStep::Kind::Degrade:
                events.push_back({step.at, seq++, What::Rescale, node,
                                  step.factor});
                if (step.downtime > 0.0) {
                    events.push_back({step.at + step.downtime, seq++,
                                      What::Rescale, node, 1.0});
                }
                break;
            case CaseStep::Kind::Outage:
            case CaseStep::Kind::Skew:
                // Observation/timing distortions only: the converged
                // post-failure state is unchanged.
                break;
            }
        }
    }
    std::sort(events.begin(), events.end(),
              [](const Event &a, const Event &b) {
                  if (a.at != b.at)
                      return a.at < b.at;
                  return a.seq < b.seq;
              });
    // Original capacities, for lifting a degrade back to factor 1.
    std::map<NodeId, double> baseline;
    for (const Event &event : events) {
        if (event.node >= state.nodeCount())
            continue;
        switch (event.what) {
        case What::Fail:
            if (state.isHealthy(event.node))
                state.failNode(event.node);
            break;
        case What::Restore:
            if (!state.isHealthy(event.node))
                state.restoreNode(event.node);
            break;
        case What::Rescale: {
            const auto [it, inserted] = baseline.emplace(
                event.node, state.node(event.node).capacity);
            (void)inserted;
            state.setNodeCapacity(event.node,
                                  it->second * event.factor);
            break;
        }
        }
    }
}

namespace {

const char *
stepKindName(CaseStep::Kind kind)
{
    switch (kind) {
    case CaseStep::Kind::Fail: return "fail";
    case CaseStep::Kind::Recover: return "recover";
    case CaseStep::Kind::Flap: return "flap";
    case CaseStep::Kind::Partition: return "partition";
    case CaseStep::Kind::Degrade: return "degrade";
    case CaseStep::Kind::Outage: return "outage";
    case CaseStep::Kind::Skew: return "skew";
    }
    return "fail";
}

bool
kindHasWindow(CaseStep::Kind kind)
{
    return kind == CaseStep::Kind::Flap ||
           kind == CaseStep::Kind::Partition ||
           kind == CaseStep::Kind::Degrade ||
           kind == CaseStep::Kind::Outage;
}

} // namespace

std::string
CheckCase::toJson() const
{
    using util::jsonNumber;
    using util::jsonQuote;

    std::ostringstream os;
    os << "{\n";
    os << "  \"name\": " << jsonQuote(name) << ",\n";
    os << "  \"notes\": " << jsonQuote(notes) << ",\n";
    // uint64 seeds do not fit a double; keep them textual.
    os << "  \"seed\": " << jsonQuote(std::to_string(seed)) << ",\n";
    os << "  \"lifecycle\": " << (lifecycle ? "true" : "false") << ",\n";
    os << "  \"nodes\": [";
    for (size_t n = 0; n < nodeCapacities.size(); ++n)
        os << (n ? "," : "") << jsonNumber(nodeCapacities[n]);
    os << "],\n";
    if (!nodeZones.empty()) {
        os << "  \"zones\": [";
        for (size_t n = 0; n < nodeZones.size(); ++n)
            os << (n ? "," : "") << nodeZones[n];
        os << "],\n";
    }
    os << "  \"apps\": [";
    for (size_t a = 0; a < apps.size(); ++a) {
        const sim::Application &app = apps[a];
        os << (a ? ",\n    " : "\n    ");
        os << "{\"id\": " << app.id << ", \"price\": "
           << jsonNumber(app.pricePerUnit) << ", \"phoenix_enabled\": "
           << (app.phoenixEnabled ? "true" : "false");
        if (!app.placementGroups.empty()) {
            os << ",\n     \"groups\": [";
            for (size_t g = 0; g < app.placementGroups.size(); ++g) {
                const sim::PlacementGroup &group =
                    app.placementGroups[g];
                os << (g ? "," : "") << "{\"id\": " << group.id
                   << ", \"max_per_node\": " << group.maxPerNode
                   << ", \"max_per_zone\": " << group.maxPerZone
                   << "}";
            }
            os << "]";
        }
        os << ",\n     \"services\": [";
        for (size_t m = 0; m < app.services.size(); ++m) {
            const sim::Microservice &ms = app.services[m];
            os << (m ? "," : "") << "{\"cpu\": " << jsonNumber(ms.cpu)
               << ", \"criticality\": " << ms.criticality
               << ", \"replicas\": " << ms.replicas
               << ", \"quorum\": " << ms.quorum;
            // Placement policy fields ride along only when set, so
            // pre-topology corpus entries keep their exact bytes.
            if (ms.antiAffinityGroup >= 0)
                os << ", \"group\": " << ms.antiAffinityGroup;
            if (ms.maxPerNode > 0)
                os << ", \"max_per_node\": " << ms.maxPerNode;
            if (ms.maxPerZone > 0)
                os << ", \"max_per_zone\": " << ms.maxPerZone;
            if (ms.minZoneSpread > 0)
                os << ", \"min_zone_spread\": " << ms.minZoneSpread;
            if (ms.pdbMaxUnavailable >= 0)
                os << ", \"pdb_max_unavailable\": "
                   << ms.pdbMaxUnavailable;
            os << "}";
        }
        os << "],\n     \"edges\": [";
        bool first = true;
        if (app.hasDependencyGraph) {
            for (graph::NodeId u = 0; u < app.dag.nodeCount(); ++u) {
                for (graph::NodeId v : app.dag.successors(u)) {
                    os << (first ? "" : ",") << "[" << u << "," << v
                       << "]";
                    first = false;
                }
            }
        }
        os << "]}";
    }
    os << (apps.empty() ? "" : "\n  ") << "],\n";
    os << "  \"steps\": [";
    for (size_t s = 0; s < steps.size(); ++s) {
        const CaseStep &step = steps[s];
        os << (s ? ",\n    " : "\n    ");
        os << "{\"at\": " << jsonNumber(step.at) << ", \"kind\": "
           << jsonQuote(stepKindName(step.kind)) << ", \"nodes\": [";
        for (size_t n = 0; n < step.nodes.size(); ++n)
            os << (n ? "," : "") << step.nodes[n];
        os << "]";
        if (kindHasWindow(step.kind))
            os << ", \"downtime\": " << jsonNumber(step.downtime);
        if (step.kind == CaseStep::Kind::Degrade)
            os << ", \"factor\": " << jsonNumber(step.factor);
        if (step.kind == CaseStep::Kind::Skew)
            os << ", \"skew\": " << jsonNumber(step.skew);
        os << "}";
    }
    os << (steps.empty() ? "" : "\n  ") << "]\n";
    os << "}\n";
    return os.str();
}

namespace {

bool
fail(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

bool
parseApp(const JsonValue &node, size_t index, sim::Application &app,
         std::string *error)
{
    if (!node.isObject())
        return fail(error, "app entry is not an object");
    app.id = static_cast<sim::AppId>(
        node.numberAt("id", static_cast<double>(index)));
    app.name = "app" + std::to_string(index);
    app.pricePerUnit = node.numberAt("price", 1.0);
    const JsonValue *enabled = node.field("phoenix_enabled");
    app.phoenixEnabled =
        !enabled || enabled->kind != JsonValue::Kind::Bool ||
        enabled->boolean;

    const JsonValue *services = node.field("services");
    if (!services || !services->isArray())
        return fail(error, "app has no services array");
    for (size_t m = 0; m < services->items.size(); ++m) {
        const JsonValue &entry = services->items[m];
        if (!entry.isObject())
            return fail(error, "service entry is not an object");
        sim::Microservice ms;
        ms.id = static_cast<sim::MsId>(m);
        ms.name = "ms" + std::to_string(m);
        ms.cpu = entry.numberAt("cpu", 1.0);
        ms.criticality =
            static_cast<int>(entry.numberAt("criticality", 1.0));
        ms.replicas = static_cast<int>(entry.numberAt("replicas", 1.0));
        ms.quorum = static_cast<int>(entry.numberAt("quorum", 0.0));
        ms.antiAffinityGroup =
            static_cast<int>(entry.numberAt("group", -1.0));
        ms.maxPerNode =
            static_cast<int>(entry.numberAt("max_per_node", 0.0));
        ms.maxPerZone =
            static_cast<int>(entry.numberAt("max_per_zone", 0.0));
        ms.minZoneSpread =
            static_cast<int>(entry.numberAt("min_zone_spread", 0.0));
        ms.pdbMaxUnavailable = static_cast<int>(
            entry.numberAt("pdb_max_unavailable", -1.0));
        if (ms.cpu < 0.0)
            return fail(error, "negative service cpu");
        if (ms.replicas < 1)
            ms.replicas = 1;
        app.services.push_back(ms);
    }

    const JsonValue *groups = node.field("groups");
    if (groups && groups->isArray()) {
        for (const JsonValue &entry : groups->items) {
            if (!entry.isObject())
                return fail(error, "group entry is not an object");
            sim::PlacementGroup group;
            group.id = static_cast<int>(entry.numberAt("id", 0.0));
            group.maxPerNode =
                static_cast<int>(entry.numberAt("max_per_node", 0.0));
            group.maxPerZone =
                static_cast<int>(entry.numberAt("max_per_zone", 0.0));
            app.placementGroups.push_back(group);
        }
    }

    const JsonValue *edges = node.field("edges");
    if (edges && edges->isArray() && !edges->items.empty()) {
        app.dag = graph::DiGraph(app.services.size());
        for (const JsonValue &edge : edges->items) {
            if (!edge.isArray() || edge.items.size() != 2 ||
                !edge.items[0].isNumber() || !edge.items[1].isNumber())
                return fail(error, "malformed dependency edge");
            const auto u =
                static_cast<graph::NodeId>(edge.items[0].number);
            const auto v =
                static_cast<graph::NodeId>(edge.items[1].number);
            if (u >= app.services.size() || v >= app.services.size())
                return fail(error, "dependency edge out of range");
            app.dag.addEdge(u, v);
        }
        if (!app.dag.isAcyclic())
            return fail(error, "dependency graph has a cycle");
        app.hasDependencyGraph = true;
    }
    return true;
}

bool
parseStep(const JsonValue &node, size_t node_count, CaseStep &step,
          std::string *error)
{
    if (!node.isObject())
        return fail(error, "step entry is not an object");
    step.at = node.numberAt("at", 0.0);
    const std::string kind = node.stringAt("kind", "fail");
    if (kind == "fail")
        step.kind = CaseStep::Kind::Fail;
    else if (kind == "recover")
        step.kind = CaseStep::Kind::Recover;
    else if (kind == "flap")
        step.kind = CaseStep::Kind::Flap;
    else if (kind == "partition")
        step.kind = CaseStep::Kind::Partition;
    else if (kind == "degrade")
        step.kind = CaseStep::Kind::Degrade;
    else if (kind == "outage")
        step.kind = CaseStep::Kind::Outage;
    else if (kind == "skew")
        step.kind = CaseStep::Kind::Skew;
    else
        return fail(error, "unknown step kind: " + kind);
    step.downtime = node.numberAt("downtime", 0.0);
    step.factor = node.numberAt("factor", 1.0);
    step.skew = node.numberAt("skew", 0.0);
    if (step.kind == CaseStep::Kind::Degrade &&
        (step.factor < sim::kMinDegradeFactor || step.factor > 1.0))
        return fail(error, "degrade factor out of range");
    const JsonValue *nodes = node.field("nodes");
    if (!nodes || !nodes->isArray())
        return fail(error, "step has no nodes array");
    for (const JsonValue &entry : nodes->items) {
        if (!entry.isNumber())
            return fail(error, "step node is not a number");
        const auto id = static_cast<sim::NodeId>(entry.number);
        if (id >= node_count)
            return fail(error, "step references missing node");
        step.nodes.push_back(id);
    }
    return true;
}

} // namespace

std::optional<CheckCase>
CheckCase::fromJson(const std::string &text, std::string *error)
{
    JsonValue root;
    if (!util::parseJson(text, root) || !root.isObject()) {
        fail(error, "not a JSON object");
        return std::nullopt;
    }

    CheckCase out;
    out.name = root.stringAt("name");
    out.notes = root.stringAt("notes");
    out.seed = std::strtoull(root.stringAt("seed", "0").c_str(),
                             nullptr, 10);
    const JsonValue *lifecycle = root.field("lifecycle");
    out.lifecycle = lifecycle &&
                    lifecycle->kind == JsonValue::Kind::Bool &&
                    lifecycle->boolean;

    const JsonValue *nodes = root.field("nodes");
    if (!nodes || !nodes->isArray()) {
        fail(error, "missing nodes array");
        return std::nullopt;
    }
    for (const JsonValue &entry : nodes->items) {
        if (!entry.isNumber() || entry.number < 0.0) {
            fail(error, "malformed node capacity");
            return std::nullopt;
        }
        out.nodeCapacities.push_back(entry.number);
    }

    if (const JsonValue *zones = root.field("zones");
        zones && zones->isArray()) {
        for (const JsonValue &entry : zones->items) {
            if (!entry.isNumber() || entry.number < 0.0) {
                fail(error, "malformed node zone");
                return std::nullopt;
            }
            out.nodeZones.push_back(
                static_cast<uint32_t>(entry.number));
        }
        if (out.nodeZones.size() != out.nodeCapacities.size()) {
            fail(error, "zones array does not match nodes array");
            return std::nullopt;
        }
    }

    const JsonValue *apps = root.field("apps");
    if (!apps || !apps->isArray()) {
        fail(error, "missing apps array");
        return std::nullopt;
    }
    for (size_t a = 0; a < apps->items.size(); ++a) {
        sim::Application app;
        if (!parseApp(apps->items[a], a, app, error))
            return std::nullopt;
        out.apps.push_back(std::move(app));
    }

    if (const JsonValue *steps = root.field("steps");
        steps && steps->isArray()) {
        for (const JsonValue &entry : steps->items) {
            CaseStep step;
            if (!parseStep(entry, out.nodeCapacities.size(), step,
                           error))
                return std::nullopt;
            out.steps.push_back(std::move(step));
        }
    }
    return out;
}

} // namespace phoenix::check
