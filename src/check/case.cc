#include "case.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <map>
#include <sstream>
#include <tuple>

#include "sim/scenario_json.h"
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

std::vector<NodeFaults>
CheckCase::replayFaults(
    const std::function<void(NodeId, const NodeFaults &,
                             const NodeFaults &)> &onChange) const
{
    using Kind = sim::Scenario::Step::Kind;
    // Armed steps by (time, arming order): the event queue's order.
    std::map<std::pair<double, size_t>, sim::Scenario::Step> armed;
    for (const auto &step : steps)
        armed.emplace(std::pair(step.at, armed.size()), step);
    size_t seq = armed.size();
    std::vector<NodeFaults> nodes(nodeCapacities.size());
    while (!armed.empty()) {
        const auto [key, step] = *armed.begin();
        armed.erase(armed.begin());
        for (NodeId node : step.nodes) {
            if (node >= nodes.size())
                continue;
            NodeFaults after = nodes[node];
            switch (step.kind) {
            case Kind::FailNodes:
            case Kind::Flap: after.kubelet = false; break;
            case Kind::RecoverNodes: after.kubelet = true; break;
            case Kind::PartitionNodes: after.partitioned = true; break;
            case Kind::HealPartition: after.partitioned = false; break;
            case Kind::Degrade: after.factor = step.factor; break;
            case Kind::SkewClock: after.skewed = true; break;
            default: break; // outages name no node
            }
            if (onChange && !(after == nodes[node]))
                onChange(node, nodes[node], after);
            nodes[node] = after;
        }
        // A window's end is armed when its step fires, so it fires
        // after everything armed before for its instant. A flap
        // always restarts; a partition or degrade with no window
        // lasts.
        sim::Scenario::Step end;
        end.nodes = step.nodes;
        if (step.kind == Kind::Flap)
            end.kind = Kind::RecoverNodes;
        else if (step.kind == Kind::PartitionNodes && step.downtime > 0.0)
            end.kind = Kind::HealPartition;
        else if (step.kind == Kind::Degrade && step.downtime > 0.0)
            end.kind = Kind::Degrade; // to factor 1
        else
            continue;
        armed.emplace(std::pair(key.first + step.downtime, seq++), end);
    }
    return nodes;
}

void
CheckCase::replaySteps(sim::ClusterState &state) const
{
    replayFaults([&](NodeId node, const NodeFaults &before,
                     const NodeFaults &after) {
        if (node >= state.nodeCount())
            return;
        if (after.ready() != before.ready()) {
            if (after.ready())
                state.restoreNode(node);
            else
                state.failNode(node);
        }
        if (after.factor != before.factor)
            state.setNodeCapacity(node, nodeCapacities[node] * after.factor);
    });
}

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
        os << (s ? ",\n    " : "\n    ")
           << sim::scenarioStepToJson(steps[s]);
    }
    os << (steps.empty() ? "" : "\n  ") << "]\n";
    os << "}\n";
    return os.str();
}

namespace {

/** Replicas one service may ask for: a replica count is a multiplier
 * the file does not pay for. */
constexpr int kMaxReplicas = 1024;

bool
fail(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

/** The integer fields of @p object, each with its default, into the
 * members of @p into (util::integerOf). */
template <typename Into>
bool
readIntegers(const JsonValue &object, Into &into,
             std::initializer_list<std::tuple<const char *, int Into::*, int>>
                 fields,
             std::string *error)
{
    for (const auto &[key, member, fallback] : fields) {
        const std::optional<int> value =
            util::integerAt<int>(object, key, fallback);
        if (!value)
            return fail(error, std::string("'") + key +
                                   "' is not an integer in range");
        into.*member = *value;
    }
    return true;
}

bool
parseApp(const JsonValue &node, size_t index, sim::Application &app,
         std::string *error)
{
    using sim::Microservice;
    using sim::PlacementGroup;
    const std::optional<sim::AppId> id = util::integerAt<sim::AppId>(
        node, "id", static_cast<sim::AppId>(index));
    const std::optional<double> price = util::finiteAt(node, "price", 1.0);
    if (!node.isObject() || !id || !price)
        return fail(error, "app needs an object with an integral 'id' "
                           "and a finite 'price'");
    app.id = *id;
    app.name = "app" + std::to_string(index);
    app.pricePerUnit = *price;
    const JsonValue *enabled = node.field("phoenix_enabled");
    app.phoenixEnabled =
        !enabled || enabled->kind != JsonValue::Kind::Bool ||
        enabled->boolean;

    const JsonValue *services = node.field("services");
    if (!services || !services->isArray())
        return fail(error, "app has no services array");
    for (size_t m = 0; m < services->items.size(); ++m) {
        const JsonValue &entry = services->items[m];
        Microservice ms;
        ms.id = static_cast<sim::MsId>(m);
        ms.name = "ms" + std::to_string(m);
        const std::optional<double> cpu = util::finiteAt(entry, "cpu", 1.0);
        if (!entry.isObject() || !cpu || *cpu < 0.0)
            return fail(error, "service needs an object with a finite "
                               "cpu >= 0");
        ms.cpu = *cpu;
        if (!readIntegers(
                entry, ms,
                {{"criticality", &Microservice::criticality, 1},
                 {"replicas", &Microservice::replicas, 1},
                 {"quorum", &Microservice::quorum, 0},
                 {"group", &Microservice::antiAffinityGroup, -1},
                 {"max_per_node", &Microservice::maxPerNode, 0},
                 {"max_per_zone", &Microservice::maxPerZone, 0},
                 {"min_zone_spread", &Microservice::minZoneSpread, 0},
                 {"pdb_max_unavailable", &Microservice::pdbMaxUnavailable,
                  -1}},
                error))
            return false;
        if (ms.replicas > kMaxReplicas)
            return fail(error, "service asks for more than " +
                                   std::to_string(kMaxReplicas) +
                                   " replicas");
        ms.replicas = std::max(ms.replicas, 1);
        app.services.push_back(ms);
    }

    const JsonValue *groups = node.field("groups");
    if (groups && groups->isArray()) {
        for (const JsonValue &entry : groups->items) {
            PlacementGroup group;
            if (!entry.isObject())
                return fail(error, "group entry is not an object");
            if (!readIntegers(
                    entry, group,
                    {{"id", &PlacementGroup::id, 0},
                     {"max_per_node", &PlacementGroup::maxPerNode, 0},
                     {"max_per_zone", &PlacementGroup::maxPerZone, 0}},
                    error))
                return false;
            app.placementGroups.push_back(group);
        }
    }

    const JsonValue *edges = node.field("edges");
    if (edges && edges->isArray() && !edges->items.empty()) {
        app.dag = graph::DiGraph(app.services.size());
        const size_t count = app.services.size();
        for (const JsonValue &edge : edges->items) {
            const bool pair = edge.items.size() == 2;
            const auto u = pair ? util::integerOf<graph::NodeId>(edge.items[0])
                                : std::nullopt;
            const auto v = pair ? util::integerOf<graph::NodeId>(edge.items[1])
                                : std::nullopt;
            if (!u || !v || *u >= count || *v >= count)
                return fail(error, "malformed dependency edge");
            app.dag.addEdge(*u, *v);
        }
        if (!app.dag.isAcyclic())
            return fail(error, "dependency graph has a cycle");
        app.hasDependencyGraph = true;
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
        if (!entry.isNumber() || !std::isfinite(entry.number) ||
            entry.number < 0.0) {
            fail(error, "node capacity is not a finite number >= 0");
            return std::nullopt;
        }
        out.nodeCapacities.push_back(entry.number);
    }

    if (const JsonValue *zones = root.field("zones");
        zones && zones->isArray()) {
        for (const JsonValue &entry : zones->items) {
            const std::optional<uint32_t> zone =
                util::integerOf<uint32_t>(entry);
            if (!zone) {
                fail(error, "node zone is not a uint32 integer");
                return std::nullopt;
            }
            out.nodeZones.push_back(*zone);
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

    if (const JsonValue *steps = root.field("steps")) {
        std::optional<std::vector<sim::Scenario::Step>> parsed =
            sim::scenarioStepsFromJson(*steps, out.nodeCapacities.size(),
                                       0.0, error);
        if (!parsed)
            return std::nullopt;
        // No seed to expand: explicit nodes only.
        using Kind = sim::Scenario::Step::Kind;
        constexpr Kind kCaseKinds[] = {
            Kind::FailNodes,      Kind::RecoverNodes,  Kind::Flap,
            Kind::PartitionNodes, Kind::HealPartition, Kind::Degrade,
            Kind::ApiOutage,      Kind::SkewClock};
        for (const auto &step : *parsed) {
            if (std::find(std::begin(kCaseKinds), std::end(kCaseKinds),
                          step.kind) == std::end(kCaseKinds)) {
                fail(error, "a case holds explicit-node steps only");
                return std::nullopt;
            }
        }
        out.steps = std::move(*parsed);
    }
    return out;
}

} // namespace phoenix::check
