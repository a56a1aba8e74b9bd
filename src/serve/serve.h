/**
 * @file
 * Common types of the serving layer (src/serve): request classes with
 * criticality and SLOs.
 *
 * The serving layer is the repo's answer to "degradation quality as
 * experienced by live traffic": where the batch benches evaluate
 * static snapshots, src/serve runs the KubeCluster + PhoenixController
 * continuously in sim time and routes a stream of simulated user
 * requests at it. Each request belongs to a *request class* — one
 * RequestType of one application instance — and the class inherits its
 * criticality from the most degradable microservice its required path
 * touches: shedding that service kills the class, so the class is
 * exactly as protected as its weakest required dependency.
 */

#ifndef PHOENIX_SERVE_SERVE_H
#define PHOENIX_SERVE_SERVE_H

#include <string>
#include <vector>

#include "apps/service_app.h"
#include "sim/types.h"

namespace phoenix::serve {

/** Per-class service-level objective, evaluated per window. */
struct SloConfig
{
    /** Windowed P95 latency target (ms). */
    double latencyP95Ms = 250.0;
    /** Windowed success-rate target: served / offered. A shed or
     * failed request counts against it — front-door shedding of a
     * class is an SLO violation *for that class*; the point of
     * cooperative degradation is choosing which classes eat it. */
    double availabilityTarget = 0.99;
};

/** One serveable request class. */
struct RequestClass
{
    /** Dense index across the testbed (stream seeds, stats slots). */
    size_t index = 0;
    sim::AppId app = 0;
    std::string appName;
    /** Request-type name; "appName/name" is the metric label. */
    std::string name;
    /** Offered load at multiplier 1.0 (requests per second). */
    double baseRps = 0.0;
    /** max over required path components' criticality: C1 iff every
     * required dependency is C1. */
    sim::Criticality criticality = sim::kC1;
    std::vector<apps::PathComponent> path;
    SloConfig slo;

    std::string label() const { return appName + "/" + name; }
};

/**
 * Derive the request classes of a testbed: one per (app instance,
 * request type), indexed densely in testbed order. SLO latency
 * targets default to 2x the class's nominal healthy path latency
 * (sum of component P95 contributions), floored at 50 ms.
 */
std::vector<RequestClass>
buildRequestClasses(const std::vector<apps::ServiceApp> &serviceApps);

} // namespace phoenix::serve

#endif // PHOENIX_SERVE_SERVE_H
