#include "environment.h"

#include <algorithm>
#include <cmath>

#include "sim/metrics.h"
#include "util/bucketed_kv.h"
#include "util/rng.h"

namespace phoenix::adaptlab {

using sim::MsId;
using sim::NodeId;
using sim::PodRef;

double
Environment::requestsServed(const sim::ActiveSet &active) const
{
    double served = 0.0;
    for (size_t a = 0; a < generated.size(); ++a) {
        const double per_second =
            generated[a].requestRate / (24.0 * 3600.0);
        for (const auto &tpl : generated[a].callGraphs) {
            bool all = true;
            for (MsId m : tpl.services) {
                if (!active[a][m]) {
                    all = false;
                    break;
                }
            }
            if (all)
                served += tpl.weight * per_second;
        }
    }
    return served;
}

Environment
buildEnvironment(const EnvironmentConfig &config)
{
    Environment env;
    env.config = config;

    workloads::AlibabaConfig alibaba = config.alibaba;
    alibaba.seed ^= config.seed * 0x9e3779b97f4a7c15ULL;
    env.generated = workloads::AlibabaGenerator(alibaba).generate();

    workloads::assignResources(env.generated, config.resources);
    const double capacity =
        static_cast<double>(config.nodeCount) * config.nodeCapacity;
    const double target = capacity * config.demandFraction;
    const double max_container =
        std::min(config.resources.maxCpu, config.nodeCapacity);

    // Container (replica) sizes keep the resource model's native
    // distribution ([minCpu, maxCpu]); demand is matched to the target
    // by horizontally scaling every microservice (Appendix D: hot
    // services run many replica pods) and then scaling sizes *down*
    // only, which never violates the node-capacity clamp.
    double base_demand = 0.0;
    for (const auto &generated : env.generated)
        base_demand += generated.app.totalDemand();
    if (base_demand > 0.0 && base_demand < target) {
        int replicas = static_cast<int>(
            std::ceil(target / base_demand));
        if (config.maxReplicas > 0)
            replicas = std::min(replicas, config.maxReplicas);
        for (auto &generated : env.generated) {
            for (auto &ms : generated.app.services) {
                ms.replicas = replicas;
                // Stateless replicas behind a load balancer: a
                // majority quorum keeps the service up at reduced
                // throughput.
                ms.quorum = (replicas + 1) / 2;
            }
        }
    }
    // Scale only downward: when the replica cap keeps demand below
    // the target, scaling container sizes up instead would degenerate
    // the size distribution against the clamp.
    double replicated_demand = 0.0;
    for (const auto &generated : env.generated)
        replicated_demand += generated.app.totalDemand();
    if (replicated_demand > target)
        workloads::scaleTotalDemand(env.generated, target);
    // Safety clamp (scaling is downward after replication, so this is
    // normally a no-op).
    for (auto &generated : env.generated) {
        for (auto &ms : generated.app.services)
            ms.cpu = std::min(ms.cpu, max_container);
    }

    workloads::assignCriticality(env.generated, config.tagging);

    // Heterogeneous willingness-to-pay for the revenue objective.
    util::Rng rng(config.seed * 31 + 17);
    for (auto &generated : env.generated)
        generated.app.pricePerUnit = rng.uniform(1.0, 5.0);

    env.apps.reserve(env.generated.size());
    for (size_t a = 0; a < env.generated.size(); ++a) {
        env.apps.push_back(env.generated[a].app);
        env.apps.back().id = static_cast<sim::AppId>(a);
    }

    // Cluster + initial placement: best-fit decreasing; at the default
    // 80% aggregate demand everything places.
    env.cluster = sim::ClusterState(sim::PodIndex::of(env.apps));
    env.cluster.reserveNodes(config.nodeCount);
    for (size_t n = 0; n < config.nodeCount; ++n)
        env.cluster.addNode(config.nodeCapacity);

    // One row per service. Its replicas share its size, so rows sorted
    // by (cpu desc, app, ms) expand to the pods in (cpu desc, PodRef)
    // order.
    struct Row
    {
        double cpu;
        PodRef pod; //!< replica 0
        uint32_t replicas;
    };
    std::vector<Row> rows;
    for (size_t a = 0; a < env.apps.size(); ++a) {
        for (const auto &ms : env.apps[a].services) {
            rows.push_back(
                Row{ms.cpu, PodRef{static_cast<sim::AppId>(a), ms.id, 0},
                    static_cast<uint32_t>(std::max(ms.replicas, 1))});
        }
    }
    std::sort(rows.begin(), rows.end(), [](const Row &x, const Row &y) {
        if (x.cpu != y.cpu)
            return x.cpu > y.cpu;
        return x.pod < y.pod;
    });

    // Each pod goes to the node with the least remaining capacity >=
    // its cpu (lowest id on ties). Once a row's replica lands on a
    // node, that node answers every further query of the row while it
    // still fits one: its key only falls, and no other key lay between
    // cpu and its old one. So the row fills the node with one index
    // erase and one insert. A row no node fits skips its other
    // replicas, which could not fit either. The pods go in as one
    // batch, so the state lays each node's run out once at the end.
    util::BucketedKv<NodeId> by_remaining;
    for (NodeId id : env.cluster.healthyNodes())
        by_remaining.insert(env.cluster.remaining(id), id);
    env.cluster.placeAll([&](const auto &place) {
        for (const Row &row : rows) {
            PodRef pod = row.pod;
            while (pod.replica < row.replicas) {
                const auto fit = by_remaining.firstAtLeast(row.cpu);
                if (!fit)
                    break; // oversubscribed environment: leave unplaced
                const NodeId node = fit->second;
                by_remaining.erase(fit->first, node);
                while (pod.replica < row.replicas &&
                       env.cluster.remaining(node) >= row.cpu) {
                    place(pod, node, row.cpu);
                    ++pod.replica;
                }
                by_remaining.insert(env.cluster.remaining(node), node);
            }
        }
    });
    return env;
}

} // namespace phoenix::adaptlab
