#include "testbed.h"

#include "core/schemes.h"

namespace phoenix::exp {

const char *
testbedSchemeName(TestbedScheme scheme)
{
    switch (scheme) {
    case TestbedScheme::Default: return "Default";
    case TestbedScheme::PhoenixCost: return "PhoenixCost";
    case TestbedScheme::PhoenixFair: return "PhoenixFair";
    }
    return "?";
}

void
applyTopologyOverlay(std::vector<sim::Application> &apps)
{
    for (auto &app : apps) {
        for (auto &ms : app.services) {
            if (ms.criticality != sim::kC1 || ms.replicas > 1)
                continue;
            // Two half-size replicas: aggregate demand is unchanged
            // (totalCpu = cpu * replicas), quorum 1 keeps the service
            // active on either survivor, and the implied per-zone cap
            // (replicas - minZoneSpread + 1 = 1) forces the pair into
            // distinct failure domains.
            ms.cpu *= 0.5;
            ms.replicas = 2;
            ms.quorum = 1;
            ms.minZoneSpread = 2;
            ms.pdbMaxUnavailable = 1;
        }
    }
}

uint32_t
testbedZone(size_t node, size_t zoneCount)
{
    return zoneCount > 0 ? static_cast<uint32_t>(node % zoneCount) : 0;
}

std::vector<sim::Application>
testbedApplications(const apps::CloudLabTestbed &cloudlab,
                    size_t zoneCount)
{
    std::vector<sim::Application> apps = cloudlab.applications();
    if (zoneCount >= 2)
        applyTopologyOverlay(apps);
    return apps;
}

namespace {

/** The invariant checker is what turns a lifecycle bug into a hard
 * failure in every testbed run: never let a caller disable it. */
kube::KubeConfig
withInvariants(kube::KubeConfig config)
{
    config.validateInvariants = true;
    return config;
}

} // namespace

Testbed::Testbed(TestbedScheme scheme, const apps::CloudLabConfig &config,
                 const kube::KubeConfig &kube, size_t zoneCount,
                 const forecast::ForecastConfig *forecast)
    : cloudlab(apps::makeCloudLabTestbed(config)),
      cluster(events, withInvariants(kube))
{
    for (size_t n = 0; n < cloudlab.config.nodeCount; ++n)
        cluster.addNode(cloudlab.config.cpusPerNode,
                        testbedZone(n, zoneCount));
    for (const auto &app : testbedApplications(cloudlab, zoneCount))
        cluster.addApplication(app);

    if (scheme == TestbedScheme::Default)
        return;
    const core::Objective objective = scheme == TestbedScheme::PhoenixCost
                                          ? core::Objective::Cost
                                          : core::Objective::Fair;
    controller = std::make_unique<core::PhoenixController>(
        events, cluster, std::make_unique<core::PhoenixScheme>(objective));
    if (!forecast)
        return;
    forecast::ForecastConfig forecastConfig = *forecast;
    if (zoneCount > 0)
        forecastConfig.fallbackZoneCount = zoneCount;
    forecaster = std::make_unique<forecast::Forecaster>(
        cluster,
        [objective] {
            return std::make_unique<core::PhoenixScheme>(objective);
        },
        forecastConfig);
    controller->attachForecast(forecaster.get());
}

} // namespace phoenix::exp
