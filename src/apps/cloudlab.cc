#include "cloudlab.h"

#include "apps/hotel.h"
#include "apps/overleaf.h"

namespace phoenix::apps {

std::vector<sim::Application>
CloudLabTestbed::applications() const
{
    std::vector<sim::Application> apps;
    apps.reserve(serviceApps.size());
    for (size_t i = 0; i < serviceApps.size(); ++i) {
        apps.push_back(serviceApps[i].app);
        apps.back().id = static_cast<sim::AppId>(i);
    }
    return apps;
}

sim::ClusterState
CloudLabTestbed::makeCluster() const
{
    sim::ClusterState cluster(sim::PodIndex::of(applications()));
    for (size_t n = 0; n < config.nodeCount; ++n)
        cluster.addNode(config.cpusPerNode);
    return cluster;
}

CloudLabTestbed
makeCloudLabTestbed(CloudLabConfig config)
{
    CloudLabTestbed testbed;
    testbed.config = config;

    // Per-instance load mixes differ (the paper tweaks edit /
    // spell-check / versioning levels per instance).
    testbed.serviceApps.push_back(makeOverleaf(0, 1.0));
    testbed.serviceApps.push_back(makeOverleaf(1, 0.8));
    testbed.serviceApps.push_back(makeOverleaf(2, 1.2));
    testbed.serviceApps.push_back(
        makeHotelReservation(0, config.hrCompliant, 1.0));
    testbed.serviceApps.push_back(
        makeHotelReservation(1, config.hrCompliant, 0.9));

    // Equal budgets, heterogeneous willingness-to-pay for the cost
    // objective.
    const double total_budget =
        config.nodeCount * config.cpusPerNode * config.demandFraction;
    const double per_app = total_budget / 5.0;
    const double prices[5] = {2.0, 1.2, 1.0, 1.6, 1.4};
    for (size_t i = 0; i < testbed.serviceApps.size(); ++i) {
        ServiceApp &sapp = testbed.serviceApps[i];
        assignCpuByTraffic(sapp, per_app, config.criticalFraction,
                           0.95 * config.cpusPerNode);
        sapp.app.pricePerUnit = prices[i];
        sapp.app.id = static_cast<sim::AppId>(i);
    }
    return testbed;
}

} // namespace phoenix::apps
