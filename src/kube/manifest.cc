#include "manifest.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

namespace phoenix::kube {

using sim::Application;
using sim::Microservice;
using sim::MsId;

namespace {

std::string
strip(const std::string &text)
{
    size_t begin = 0;
    size_t end = text.size();
    while (begin < end && std::isspace(static_cast<unsigned char>(
                              text[begin]))) {
        ++begin;
    }
    while (end > begin && std::isspace(static_cast<unsigned char>(
                              text[end - 1]))) {
        --end;
    }
    return text.substr(begin, end - begin);
}

/** Split "key: value" (value may be empty). */
bool
splitKeyValue(const std::string &line, std::string &key,
              std::string &value)
{
    const size_t colon = line.find(':');
    if (colon == std::string::npos)
        return false;
    key = strip(line.substr(0, colon));
    value = strip(line.substr(colon + 1));
    // Drop trailing comments.
    const size_t hash = value.find('#');
    if (hash != std::string::npos)
        value = strip(value.substr(0, hash));
    return !key.empty();
}

/** Parse "[a, b, c]" into items. */
std::vector<std::string>
parseList(const std::string &value)
{
    std::vector<std::string> items;
    std::string inner = value;
    if (!inner.empty() && inner.front() == '[')
        inner = inner.substr(1);
    if (!inner.empty() && inner.back() == ']')
        inner.pop_back();
    std::istringstream in(inner);
    std::string item;
    while (std::getline(in, item, ',')) {
        const std::string cleaned = strip(item);
        if (!cleaned.empty())
            items.push_back(cleaned);
    }
    return items;
}

/** One service entry as raw fields; declaration lines remembered so
 * document-finalization errors point at the offending entry, not the
 * document separator. */
struct RawService
{
    std::string name;
    double cpu = 0.0;
    int criticality = sim::kDefaultCriticality;
    int replicas = 1;
    int quorum = 0;
    std::vector<std::string> upstream;
    bool sawCpu = false;
    size_t declaredAt = 0;
    // Placement policy (topology-aware packing).
    int group = -1;
    int maxPerNode = 0;
    int maxPerZone = 0;
    int minZoneSpread = 0;
    int pdbMaxUnavailable = -1;
    size_t spreadAt = 0; //!< line of the minZoneSpread key
    size_t pdbAt = 0;    //!< line of the pdbMaxUnavailable key
};

/** One anti-affinity group entry under `groups:`. */
struct RawGroup
{
    int id = -1;
    int maxPerNode = 0;
    int maxPerZone = 0;
    bool sawId = false;
    size_t declaredAt = 0;
};

/** One node spec entry under a topology document's `nodes:`. */
struct RawNodeSpec
{
    int count = 1;
    double cpus = 0.0;
    std::string zone;
    bool sawCpus = false;
    size_t declaredAt = 0;
    size_t zoneAt = 0; //!< line of the zone key
};

ManifestError
makeError(size_t line, std::string field, std::string message)
{
    ManifestError error;
    error.line = line;
    error.field = std::move(field);
    error.message = std::move(message);
    return error;
}

} // namespace

std::string
ManifestError::toString() const
{
    std::string out = message + " (line " + std::to_string(line);
    if (!field.empty())
        out += ", field '" + field + "'";
    out += ")";
    return out;
}

ManifestParse
parseManifestStructured(const std::string &text)
{
    ManifestParse result;

    // Per-document state. A document is either an application or the
    // (at most one) topology declaration.
    enum class Section { None, Services, Groups, Nodes };
    bool have_app = false;
    bool have_topo = false;
    bool topo_committed = false;
    bool poisoned = false; // error seen: skip to the next document
    Application app;
    std::vector<RawService> services;
    std::vector<RawGroup> groups;
    std::vector<RawNodeSpec> topo_nodes;
    Topology topo;
    Section section = Section::None;
    std::set<std::string> app_names;
    // minZoneSpread is validated against the manifest-global zone
    // count after every document parsed (topology may come last):
    // (committed app index, service name, line, spread).
    struct SpreadCheck
    {
        size_t app;
        std::string service;
        size_t line;
        int spread;
    };
    std::vector<SpreadCheck> spread_checks;

    auto reset_document = [&] {
        app = Application{};
        services.clear();
        groups.clear();
        topo_nodes.clear();
        topo = Topology{};
        have_app = false;
        have_topo = false;
        section = Section::None;
    };

    // Validate and commit the current document; returns the error
    // that rejected it, if any.
    auto finish_document =
        [&](size_t line_no) -> std::optional<ManifestError> {
        if (poisoned || (!have_app && !have_topo))
            return std::nullopt; // empty or already-reported document
        if (have_topo) {
            if (topo.zones.empty()) {
                return makeError(line_no, "zones",
                                 "topology '" + topo.name +
                                     "' declares no zones");
            }
            for (const RawNodeSpec &spec : topo_nodes) {
                if (!spec.sawCpus || spec.cpus <= 0.0) {
                    return makeError(spec.declaredAt, "cpus",
                                     "node spec needs a positive cpus");
                }
                if (spec.count < 1) {
                    return makeError(spec.declaredAt, "count",
                                     "node count must be >= 1");
                }
                NodeSpec out;
                out.count = spec.count;
                out.cpus = spec.cpus;
                if (!spec.zone.empty()) {
                    const auto it =
                        std::find(topo.zones.begin(), topo.zones.end(),
                                  spec.zone);
                    if (it == topo.zones.end()) {
                        return makeError(
                            spec.zoneAt ? spec.zoneAt : spec.declaredAt,
                            "zone",
                            "unknown zone '" + spec.zone + "'");
                    }
                    out.zone = static_cast<uint32_t>(
                        it - topo.zones.begin());
                }
                topo.nodes.push_back(out);
            }
            if (topo_committed) {
                return makeError(line_no, "topology",
                                 "duplicate topology document");
            }
            topo_committed = true;
            result.topology = std::move(topo);
            reset_document();
            return std::nullopt;
        }
        if (services.empty()) {
            return makeError(line_no, "services",
                             "application '" + app.name +
                                 "' has no services");
        }
        std::map<std::string, MsId> by_name;
        for (MsId m = 0; m < services.size(); ++m) {
            const RawService &svc = services[m];
            if (svc.name.empty())
                return makeError(svc.declaredAt, "name",
                                 "service without a name");
            if (!svc.sawCpu || svc.cpu <= 0.0) {
                return makeError(svc.declaredAt, "cpu",
                                 "service '" + svc.name +
                                     "' needs a positive cpu");
            }
            if (by_name.count(svc.name)) {
                return makeError(svc.declaredAt, "name",
                                 "duplicate service '" + svc.name +
                                     "'");
            }
            by_name[svc.name] = m;
        }
        app.placementGroups.clear();
        for (const RawGroup &group : groups) {
            if (!group.sawId || group.id < 0) {
                return makeError(group.declaredAt, "id",
                                 "group needs a non-negative id");
            }
            for (const auto &other : app.placementGroups) {
                if (other.id == group.id) {
                    return makeError(group.declaredAt, "id",
                                     "duplicate group id " +
                                         std::to_string(group.id));
                }
            }
            sim::PlacementGroup out;
            out.id = group.id;
            out.maxPerNode = group.maxPerNode;
            out.maxPerZone = group.maxPerZone;
            app.placementGroups.push_back(out);
        }
        app.services.clear();
        bool any_edges = false;
        for (MsId m = 0; m < services.size(); ++m) {
            const RawService &svc = services[m];
            if (svc.pdbMaxUnavailable > svc.replicas) {
                return makeError(
                    svc.pdbAt ? svc.pdbAt : svc.declaredAt,
                    "pdbMaxUnavailable",
                    "pdbMaxUnavailable " +
                        std::to_string(svc.pdbMaxUnavailable) +
                        " exceeds replicas " +
                        std::to_string(svc.replicas) + " of service '" +
                        svc.name + "'");
            }
            Microservice ms;
            ms.id = m;
            ms.name = svc.name;
            ms.cpu = svc.cpu;
            ms.criticality = svc.criticality;
            ms.replicas = svc.replicas;
            ms.quorum = svc.quorum;
            ms.antiAffinityGroup = svc.group;
            ms.maxPerNode = svc.maxPerNode;
            ms.maxPerZone = svc.maxPerZone;
            ms.minZoneSpread = svc.minZoneSpread;
            ms.pdbMaxUnavailable = svc.pdbMaxUnavailable;
            app.services.push_back(std::move(ms));
            any_edges |= !services[m].upstream.empty();
        }
        if (any_edges) {
            app.hasDependencyGraph = true;
            app.dag = graph::DiGraph(services.size());
            for (MsId m = 0; m < services.size(); ++m) {
                for (const auto &caller : services[m].upstream) {
                    auto it = by_name.find(caller);
                    if (it == by_name.end()) {
                        return makeError(
                            services[m].declaredAt, "upstream",
                            "unknown upstream '" + caller +
                                "' of service '" + services[m].name +
                                "'");
                    }
                    app.dag.addEdge(it->second, m);
                }
            }
            if (!app.dag.isAcyclic()) {
                return makeError(line_no, "upstream",
                                 "dependency graph has a cycle");
            }
        }
        if (!app_names.insert(app.name).second) {
            return makeError(line_no, "application",
                             "duplicate application '" + app.name +
                                 "'");
        }
        app.id = static_cast<sim::AppId>(result.apps.size());
        for (MsId m = 0; m < services.size(); ++m) {
            const RawService &svc = services[m];
            if (svc.minZoneSpread > 1) {
                spread_checks.push_back(
                    {result.apps.size(), svc.name,
                     svc.spreadAt ? svc.spreadAt : svc.declaredAt,
                     svc.minZoneSpread});
            }
        }
        result.apps.push_back(std::move(app));
        reset_document();
        return std::nullopt;
    };

    // Record @p error and skip the rest of the current document.
    auto reject = [&](ManifestError error) {
        result.errors.push_back(std::move(error));
        reset_document();
        poisoned = true;
    };

    std::istringstream in(text);
    std::string raw;
    size_t line_no = 0;
    while (std::getline(in, raw)) {
        ++line_no;
        const std::string trimmed = strip(raw);
        if (trimmed.empty() || trimmed[0] == '#')
            continue;
        if (trimmed == "---") {
            if (auto error = finish_document(line_no))
                reject(std::move(*error));
            poisoned = false;
            continue;
        }

        // Indentation decides context: top-level keys start at column
        // 0; service entries are indented.
        const bool top_level =
            !std::isspace(static_cast<unsigned char>(raw[0]));
        if (top_level) {
            std::string key;
            std::string value;
            if (!splitKeyValue(trimmed, key, value)) {
                if (!poisoned)
                    reject(makeError(line_no, "",
                                     "expected 'key: value'"));
                continue;
            }
            if (key == "application" || key == "topology") {
                // Implicit document boundary: a new application (or
                // topology) key finishes the previous document (and
                // clears any poison — errors never leak across
                // documents).
                if ((have_app && !services.empty()) || have_topo) {
                    if (auto error = finish_document(line_no))
                        reject(std::move(*error));
                }
                poisoned = false;
                reset_document();
                if (key == "application") {
                    have_app = true;
                    app.name = value;
                } else {
                    have_topo = true;
                    topo.name = value;
                }
                continue;
            }
            if (poisoned)
                continue;
            try {
                if (have_topo) {
                    if (key == "zones") {
                        topo.zones = parseList(value);
                    } else if (key == "nodes") {
                        section = Section::Nodes;
                    } else {
                        reject(makeError(
                            line_no, key,
                            "unknown topology key '" + key + "'"));
                    }
                } else if (key == "price") {
                    app.pricePerUnit = std::stod(value);
                } else if (key == "phoenix") {
                    app.phoenixEnabled = value == "enabled";
                } else if (key == "services") {
                    section = Section::Services;
                } else if (key == "groups") {
                    section = Section::Groups;
                } else {
                    reject(makeError(line_no, key,
                                     "unknown key '" + key + "'"));
                }
            } catch (const std::exception &) {
                reject(makeError(line_no, key,
                                 "bad numeric value '" + value + "'"));
            }
            continue;
        }

        if (poisoned)
            continue;
        if (section == Section::None) {
            reject(makeError(line_no, "",
                             "indented line outside a section"));
            continue;
        }

        std::string body = trimmed;
        const bool new_entry = body.rfind("- ", 0) == 0;
        if (new_entry) {
            switch (section) {
              case Section::Services:
                services.emplace_back();
                services.back().declaredAt = line_no;
                break;
              case Section::Groups:
                groups.emplace_back();
                groups.back().declaredAt = line_no;
                break;
              case Section::Nodes:
                topo_nodes.emplace_back();
                topo_nodes.back().declaredAt = line_no;
                break;
              case Section::None:
                break;
            }
            body = strip(body.substr(2));
        }
        const bool no_entry =
            (section == Section::Services && services.empty()) ||
            (section == Section::Groups && groups.empty()) ||
            (section == Section::Nodes && topo_nodes.empty());
        if (no_entry) {
            reject(makeError(line_no, "",
                             "entry field before first entry"));
            continue;
        }

        std::string key;
        std::string value;
        if (!splitKeyValue(body, key, value)) {
            reject(makeError(line_no, "", "expected 'key: value'"));
            continue;
        }
        try {
            if (section == Section::Groups) {
                RawGroup &group = groups.back();
                if (key == "id") {
                    group.id = std::stoi(value);
                    group.sawId = true;
                } else if (key == "maxPerNode") {
                    group.maxPerNode = std::stoi(value);
                } else if (key == "maxPerZone") {
                    group.maxPerZone = std::stoi(value);
                } else {
                    reject(makeError(line_no, key,
                                     "unknown group key '" + key +
                                         "'"));
                }
                continue;
            }
            if (section == Section::Nodes) {
                RawNodeSpec &spec = topo_nodes.back();
                if (key == "count") {
                    spec.count = std::stoi(value);
                } else if (key == "cpus") {
                    spec.cpus = std::stod(value);
                    spec.sawCpus = true;
                } else if (key == "zone") {
                    spec.zone = value;
                    spec.zoneAt = line_no;
                } else {
                    reject(makeError(line_no, key,
                                     "unknown node key '" + key +
                                         "'"));
                }
                continue;
            }
            RawService &svc = services.back();
            if (key == "name") {
                svc.name = value;
            } else if (key == "cpu") {
                svc.cpu = std::stod(value);
                svc.sawCpu = true;
            } else if (key == "criticality") {
                svc.criticality = std::stoi(value);
                if (svc.criticality < 1) {
                    reject(makeError(line_no, key,
                                     "criticality must be >= 1"));
                }
            } else if (key == "replicas") {
                svc.replicas = std::stoi(value);
                if (svc.replicas < 1) {
                    reject(makeError(line_no, key,
                                     "replicas must be >= 1"));
                }
            } else if (key == "quorum") {
                svc.quorum = std::stoi(value);
            } else if (key == "upstream") {
                svc.upstream = parseList(value);
            } else if (key == "group") {
                svc.group = std::stoi(value);
                if (svc.group < 0) {
                    reject(makeError(line_no, key,
                                     "group must be >= 0"));
                }
            } else if (key == "maxPerNode") {
                svc.maxPerNode = std::stoi(value);
                if (svc.maxPerNode < 0) {
                    reject(makeError(line_no, key,
                                     "maxPerNode must be >= 0"));
                }
            } else if (key == "maxPerZone") {
                svc.maxPerZone = std::stoi(value);
                if (svc.maxPerZone < 0) {
                    reject(makeError(line_no, key,
                                     "maxPerZone must be >= 0"));
                }
            } else if (key == "minZoneSpread") {
                svc.minZoneSpread = std::stoi(value);
                svc.spreadAt = line_no;
                if (svc.minZoneSpread < 0) {
                    reject(makeError(line_no, key,
                                     "minZoneSpread must be >= 0"));
                }
            } else if (key == "pdbMaxUnavailable") {
                svc.pdbMaxUnavailable = std::stoi(value);
                svc.pdbAt = line_no;
                if (svc.pdbMaxUnavailable < 0) {
                    reject(makeError(
                        line_no, key,
                        "pdbMaxUnavailable must be >= 0"));
                }
            } else {
                reject(makeError(line_no, key,
                                 "unknown service key '" + key + "'"));
            }
        } catch (const std::exception &) {
            reject(makeError(line_no, key,
                             "bad numeric value '" + value + "'"));
        }
    }

    if (auto error = finish_document(line_no))
        reject(std::move(*error));

    // minZoneSpread is a manifest-global constraint: it can only be
    // checked against the topology's zone count, and the topology
    // document may come last. Apps asking to spread wider than the
    // declared topology are rejected here (with no topology document
    // the check is skipped — the simulator synthesizes zones).
    if (!result.topology.zones.empty() && !spread_checks.empty()) {
        const int zone_count =
            static_cast<int>(result.topology.zones.size());
        std::set<size_t> rejected;
        for (const SpreadCheck &check : spread_checks) {
            if (check.spread <= zone_count)
                continue;
            result.errors.push_back(makeError(
                check.line, "minZoneSpread",
                "minZoneSpread " + std::to_string(check.spread) +
                    " of service '" + check.service +
                    "' exceeds zone count " +
                    std::to_string(zone_count)));
            rejected.insert(check.app);
        }
        if (!rejected.empty()) {
            std::vector<Application> kept;
            kept.reserve(result.apps.size());
            for (size_t i = 0; i < result.apps.size(); ++i) {
                if (rejected.count(i))
                    continue;
                kept.push_back(std::move(result.apps[i]));
                kept.back().id =
                    static_cast<sim::AppId>(kept.size() - 1);
            }
            result.apps = std::move(kept);
        }
    }
    return result;
}

std::optional<std::vector<Application>>
parseManifest(const std::string &text, std::string *error)
{
    ManifestParse parsed = parseManifestStructured(text);
    if (!parsed.ok()) {
        if (error)
            *error = parsed.errors.front().toString();
        return std::nullopt;
    }
    return std::move(parsed.apps);
}

namespace {

/** Shortest decimal that parses back to exactly @p value. */
std::string
fmtDouble(double value)
{
    for (int precision = 6; precision <= 17; ++precision) {
        std::ostringstream out;
        out.precision(precision);
        out << value;
        if (std::stod(out.str()) == value)
            return out.str();
    }
    std::ostringstream out;
    out.precision(17);
    out << value;
    return out.str();
}

} // namespace

std::string
renderManifest(const std::vector<Application> &apps,
               const Topology &topology)
{
    std::ostringstream out;
    bool first = true;
    if (!topology.empty()) {
        out << "topology: "
            << (topology.name.empty() ? "cluster" : topology.name)
            << "\n";
        out << "zones: [";
        for (size_t z = 0; z < topology.zones.size(); ++z) {
            if (z)
                out << ", ";
            out << topology.zones[z];
        }
        out << "]\n";
        if (!topology.nodes.empty()) {
            out << "nodes:\n";
            for (const NodeSpec &spec : topology.nodes) {
                out << "  - count: " << spec.count << "\n";
                out << "    cpus: " << fmtDouble(spec.cpus) << "\n";
                if (spec.zone < topology.zones.size())
                    out << "    zone: " << topology.zones[spec.zone]
                        << "\n";
            }
        }
        first = false;
    }
    for (const Application &app : apps) {
        if (!first)
            out << "---\n";
        first = false;
        out << "application: " << app.name << "\n";
        if (app.pricePerUnit != 1.0)
            out << "price: " << fmtDouble(app.pricePerUnit) << "\n";
        if (!app.phoenixEnabled)
            out << "phoenix: disabled\n";
        if (!app.placementGroups.empty()) {
            out << "groups:\n";
            for (const sim::PlacementGroup &group :
                 app.placementGroups) {
                out << "  - id: " << group.id << "\n";
                if (group.maxPerNode > 0)
                    out << "    maxPerNode: " << group.maxPerNode
                        << "\n";
                if (group.maxPerZone > 0)
                    out << "    maxPerZone: " << group.maxPerZone
                        << "\n";
            }
        }
        out << "services:\n";
        for (const Microservice &ms : app.services) {
            out << "  - name: " << ms.name << "\n";
            out << "    cpu: " << fmtDouble(ms.cpu) << "\n";
            if (ms.criticality != sim::kDefaultCriticality)
                out << "    criticality: " << ms.criticality << "\n";
            if (ms.replicas != 1)
                out << "    replicas: " << ms.replicas << "\n";
            if (ms.quorum != 0)
                out << "    quorum: " << ms.quorum << "\n";
            if (ms.antiAffinityGroup >= 0)
                out << "    group: " << ms.antiAffinityGroup << "\n";
            if (ms.maxPerNode > 0)
                out << "    maxPerNode: " << ms.maxPerNode << "\n";
            if (ms.maxPerZone > 0)
                out << "    maxPerZone: " << ms.maxPerZone << "\n";
            if (ms.minZoneSpread > 0)
                out << "    minZoneSpread: " << ms.minZoneSpread
                    << "\n";
            if (ms.pdbMaxUnavailable >= 0)
                out << "    pdbMaxUnavailable: " << ms.pdbMaxUnavailable
                    << "\n";
            if (app.hasDependencyGraph) {
                const auto &callers =
                    app.dag.predecessors(ms.id);
                if (!callers.empty()) {
                    out << "    upstream: [";
                    for (size_t c = 0; c < callers.size(); ++c) {
                        if (c)
                            out << ", ";
                        out << app.services[callers[c]].name;
                    }
                    out << "]\n";
                }
            }
        }
    }
    return out.str();
}

bool
saveManifestFile(const std::vector<Application> &apps,
                 const std::string &path)
{
    std::ofstream out(path);
    out << renderManifest(apps);
    out.close(); // flush now, so a failed write is reported
    return static_cast<bool>(out);
}

std::optional<std::vector<Application>>
loadManifestFile(const std::string &path, std::string *error)
{
    std::ifstream in(path);
    if (!in) {
        if (error)
            *error = "cannot open " + path;
        return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return parseManifest(buffer.str(), error);
}

} // namespace phoenix::kube
