/**
 * @file
 * Deployment manifest loader.
 *
 * Phoenix consumes deployment specifications (YAML in the paper, §5)
 * to learn each application's containers, resource requests,
 * criticality labels and call dependencies. This is the equivalent
 * ingestion path: a small indentation-based manifest dialect covering
 * exactly what resilience management needs.
 *
 * ```yaml
 * application: overleaf
 * price: 2.0
 * phoenix: enabled
 * groups:                   # anti-affinity groups (optional)
 *   - id: 1
 *     maxPerNode: 1
 *     maxPerZone: 2
 * services:
 *   - name: web
 *     cpu: 2.0
 *     criticality: 1
 *     replicas: 2
 *     group: 1              # membership in anti-affinity group 1
 *     maxPerNode: 1         # per-service replica caps
 *     maxPerZone: 2
 *     minZoneSpread: 2      # replicas must span >= 2 zones
 *     pdbMaxUnavailable: 1  # PodDisruptionBudget for evictions
 *   - name: chat
 *     cpu: 0.5
 *     criticality: 5        # optional; untagged defaults to C1
 *     upstream: [web]       # callers of this service (DG edges)
 * ```
 *
 * Multiple applications may appear in one document separated by
 * `---` lines, as in multi-document YAML. A manifest may also carry
 * at most one *topology* document declaring the cluster's zones and
 * node specs (the NodeSpec `zone` label of §4):
 *
 * ```yaml
 * topology: cloudlab
 * zones: [east, west, central]
 * nodes:
 *   - count: 9
 *     cpus: 8.0
 *     zone: east
 * ```
 *
 * Two entry points: parseManifest is all-or-nothing (nullopt on the
 * first error — the original API), parseManifestStructured recovers
 * per document and reports every error with its line and the field
 * being parsed, so a long-running ingester (phoenixd) can accept the
 * well-formed applications and surface exactly what it rejected.
 */

#ifndef PHOENIX_KUBE_MANIFEST_H
#define PHOENIX_KUBE_MANIFEST_H

#include <optional>
#include <string>
#include <vector>

#include "sim/types.h"

namespace phoenix::kube {

/** One structured parse error: where, which field, what. */
struct ManifestError
{
    /** 1-based line in the manifest text. */
    size_t line = 0;
    /** The key being parsed when the error fired ("cpu",
     * "criticality", "application", ...); empty for structural
     * errors (stray indentation, missing services). */
    std::string field;
    std::string message;

    /** "message (line N, field 'f')" rendering for logs. */
    std::string toString() const;
};

/** One node spec in a topology document: @p count nodes of @p cpus
 * capacity carrying the zone label @p zone (index into
 * Topology::zones). */
struct NodeSpec
{
    int count = 1;
    double cpus = 0.0;
    uint32_t zone = 0;
};

/** Cluster topology declared by a `topology:` document. Zone index =
 * position in @p zones. */
struct Topology
{
    std::string name;
    std::vector<std::string> zones;
    std::vector<NodeSpec> nodes;

    bool empty() const { return zones.empty() && nodes.empty(); }
};

/** Outcome of a structured parse: every well-formed application plus
 * every error. A document with any error contributes no application
 * (no partially parsed apps), but later documents still parse. */
struct ManifestParse
{
    std::vector<sim::Application> apps;
    /** The topology document, if the manifest carried one. */
    Topology topology;
    std::vector<ManifestError> errors;

    bool ok() const { return errors.empty(); }
};

/**
 * Parse a manifest, recovering at document boundaries: a malformed
 * document is reported (line/field/message) and skipped, well-formed
 * documents before and after it still land in apps. Duplicate
 * application names across documents are an error on the later
 * document.
 */
ManifestParse parseManifestStructured(const std::string &text);

/**
 * Parse a manifest document into application descriptors. Returns
 * nullopt and fills @p error (the first structured error, rendered)
 * on any malformed input. Untagged services default to C1 (§5 Partial
 * Tagging); `phoenix: disabled` marks the application unsubscribed.
 */
std::optional<std::vector<sim::Application>>
parseManifest(const std::string &text, std::string *error = nullptr);

/** Load and parse a manifest file. */
std::optional<std::vector<sim::Application>>
loadManifestFile(const std::string &path, std::string *error = nullptr);

/**
 * Render applications (and an optional topology) back into manifest
 * text that parses to the same descriptors: parse(render(parse(m)))
 * == parse(m). Only non-default fields are emitted. Apps built in
 * code round-trip when they meet the parser's rules: unique app
 * names and unique service names per app (non-empty, without '#',
 * which starts a comment), cpu > 0, replicas and criticality >= 1,
 * pdbMaxUnavailable <= replicas, and hasDependencyGraph only when the
 * graph has edges (an edgeless graph comes back as none).
 */
std::string renderManifest(const std::vector<sim::Application> &apps,
                           const Topology &topology = Topology());

/**
 * §5's fault-tolerance store: write @p apps as manifest text, which
 * loadManifestFile() reads back after a controller restart with every
 * field, placement policy included. Returns false on I/O failure.
 */
bool saveManifestFile(const std::vector<sim::Application> &apps,
                      const std::string &path);

} // namespace phoenix::kube

#endif // PHOENIX_KUBE_MANIFEST_H
