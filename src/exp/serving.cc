#include "serving.h"

#include <optional>

namespace phoenix::exp {

ServeResult
runServe(const ServeConfig &config)
{
    // Per-run metric capture (this thread's shard only; exact under
    // the exp engine's one-cell-one-thread contract).
    std::optional<obs::ThreadMetricDelta> delta;
    if (obs::metricsEnabled())
        delta.emplace();

    // No zones: the scenario's own zone count is the forecaster's
    // fallback layout.
    forecast::ForecastConfig forecastConfig = config.forecastConfig;
    forecastConfig.fallbackZoneCount = config.scenarioOptions.zoneCount;
    Testbed bed(config.scheme, config.testbed, config.kube, 0,
                config.forecast ? &forecastConfig : nullptr);

    sim::ScenarioRunner runner(bed.events, bed.cluster, config.scenario,
                               config.scenarioOptions);

    serve::FrontendConfig frontendConfig = config.frontend;
    frontendConfig.startAt = config.warmupSec;
    frontendConfig.endAt = config.endTime;
    serve::ServeFrontend frontend(bed.events, bed.cluster,
                                  bed.cloudlab.serviceApps,
                                  frontendConfig, bed.controller.get(),
                                  bed.forecaster.get());

    bed.events.runUntil(config.endTime);

    ServeResult result;
    result.classes = frontend.report();
    result.offered = frontend.totalOffered();
    result.served = frontend.totalServed();
    result.shed = frontend.totalShed();
    result.failed = frontend.totalFailed();
    result.firstFailureAt = runner.firstFailureAt();
    result.invariantViolations = bed.cluster.invariantViolations();
    if (bed.controller)
        result.replans = bed.controller->history().size();
    if (bed.forecaster)
        result.forecast = bed.forecaster->counters();

    size_t criticalOffered = 0;
    size_t criticalServed = 0;
    for (const serve::ClassReport &rep : result.classes) {
        if (rep.meta.criticality == sim::kC1) {
            criticalOffered += rep.offered;
            criticalServed += rep.served;
            result.criticalViolationSeconds += rep.sloViolationSeconds;
        } else {
            result.nonCriticalViolationSeconds +=
                rep.sloViolationSeconds;
        }
    }
    result.criticalGoodput =
        criticalOffered == 0
            ? 1.0
            : static_cast<double>(criticalServed) /
                  static_cast<double>(criticalOffered);
    result.totalGoodput =
        result.offered == 0
            ? 1.0
            : static_cast<double>(result.served) /
                  static_cast<double>(result.offered);
    result.shedFraction =
        result.offered == 0
            ? 0.0
            : static_cast<double>(result.shed) /
                  static_cast<double>(result.offered);

    if (delta)
        result.obsMetrics = delta->finish();
    return result;
}

} // namespace phoenix::exp
