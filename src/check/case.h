/**
 * @file
 * Self-contained test case for the differential oracle (src/check).
 *
 * A CheckCase is everything one fuzz case needs to be re-run
 * bit-for-bit from a file: node capacities, the full application set
 * (services, tags, replicas, dependency edges, prices, subscription
 * flags), and an explicit timed failure/recovery script. Randomness
 * lives entirely in the generator — a serialized case contains no
 * seeds that still need expanding, so a corpus entry replays
 * identically on any machine.
 *
 * The failure script is a list of sim::Scenario steps, read and
 * written by the scenario codec (sim/scenario_json.h) that phoenixd
 * uses too. It doubles as both oracle surfaces:
 *  - statically, one reference expansion (replayFaults) yields the
 *    post-failure state the resilience schemes plan against and the
 *    node end states the lifecycle oracle expects;
 *  - dynamically, the same steps make the sim::Scenario that the
 *    kube-lifecycle oracle drives through ScenarioRunner against a
 *    real KubeCluster.
 */

#ifndef PHOENIX_CHECK_CASE_H
#define PHOENIX_CHECK_CASE_H

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "sim/cluster.h"
#include "sim/scenario.h"
#include "sim/types.h"

namespace phoenix::check {

/** One node's fault state. Kubelet, partition and degrade are kept
 * apart, as the kube keeps them: a heal does not restart a kubelet a
 * fail step stopped. */
struct NodeFaults
{
    bool kubelet = true;      //!< fail / recover / flap
    bool partitioned = false; //!< partition / heal
    bool skewed = false;      //!< some skew step named the node
    double factor = 1.0;      //!< degrade factor
    bool ready() const { return kubelet && !partitioned; }
    bool operator==(const NodeFaults &) const = default;
};

struct CheckCase
{
    /** Corpus id / provenance ("fuzz-17", "pr2-noncontiguous-appid"). */
    std::string name;
    /** Free-form provenance note (what bug this reproduces, etc.). */
    std::string notes;
    /** Generator seed the case came from (0 for handmade cases). */
    uint64_t seed = 0;
    /** Run the kube-lifecycle oracle too (needs steps). */
    bool lifecycle = false;

    std::vector<double> nodeCapacities;
    /** Explicit zone labels, parallel to nodeCapacities. Empty means
     * no topology: zone-scoped machinery falls back to the classic
     * id % zones synthetic layout. */
    std::vector<uint32_t> nodeZones;
    std::vector<sim::Application> apps;
    /** The failure script: explicit-node steps only (fail, recover,
     * flap, partition, heal, degrade, outage, skew), so a case needs
     * no seed to replay and shrinks node by node. */
    std::vector<sim::Scenario::Step> steps;

    size_t
    serviceCount() const
    {
        size_t count = 0;
        for (const auto &app : apps)
            count += app.services.size();
        return count;
    }

    /** Any app carries a placement policy (the oracle swaps in its
     * constraint-feasibility dimension and drops the checks that
     * assume capacity-only packing). */
    bool
    constrained() const
    {
        for (const auto &app : apps) {
            if (app.topologyConstrained())
                return true;
        }
        return false;
    }

    bool
    singleReplica() const
    {
        for (const auto &app : apps) {
            for (const auto &ms : app.services) {
                if (ms.replicas > 1)
                    return false;
            }
        }
        return true;
    }

    /** All-healthy cluster with no pods. */
    sim::ClusterState emptyCluster() const;

    /**
     * The reference expansion of the script, kept independent of
     * sim::ScenarioRunner so the lifecycle oracle can compare the two:
     * steps fire in (time, order armed), all armed up front in script
     * order, and a window's end (a flap's restart, a heal, a degrade's
     * restore) is armed when its step fires. @p onChange sees every
     * node state a step changes. Returns every node's end state.
     */
    std::vector<NodeFaults> replayFaults(
        const std::function<void(sim::NodeId, const NodeFaults &before,
                                 const NodeFaults &after)> &onChange =
            nullptr) const;

    /**
     * Replay the script against @p state (replayFaults): a node that
     * stops being Ready fails (its pods are evicted), one that becomes
     * Ready again is restored empty, and a degrade sets its capacity
     * to nodeCapacities × factor. Outage and skew steps change nothing
     * here — they distort *when* the controller observes, not the
     * converged post-failure state the schemes plan against.
     */
    void replaySteps(sim::ClusterState &state) const;

    /** Serialize to a self-contained JSON document. */
    std::string toJson() const;

    /**
     * Parse a serialized case, which is outside input: integers go
     * through util::integerOf, other numbers through util::finiteAt
     * (capacities and cpus >= 0, replicas <= 1024), steps through the
     * scenario codec (explicit-node kinds only). Returns nullopt on
     * malformed input and stores a diagnostic in @p error when given.
     */
    static std::optional<CheckCase>
    fromJson(const std::string &text, std::string *error = nullptr);
};

} // namespace phoenix::check

#endif // PHOENIX_CHECK_CASE_H
