#include "daemon.h"

#include <algorithm>
#include <istream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>

#include "apps/cloudlab.h"
#include "core/schemes.h"
#include "kube/manifest.h"
#include "sim/scenario_json.h"

namespace phoenix::serve {

namespace {

using util::finiteAt;
using util::integerAt;
using util::integerOf;

/** One advance runs at most a simulated day: the kube control loops and
 * the serving window tick re-arm until the span ends, so an end 1e300 s
 * away would never come. */
constexpr double kMaxAdvanceSeconds = 24.0 * 3600.0;
/** The window tick re-arms one window later: a window below the clock's
 * resolution (1e-300 s) would re-arm at one instant forever. */
constexpr double kMinWindowSeconds = 1.0;

std::string
errorReply(const std::string &message)
{
    return "{\"ok\":false,\"error\":" + util::jsonQuote(message) + "}";
}

/** Reply for a node id that names no node. */
std::string
nodeIdError(const std::string &cmd, size_t nodeCount)
{
    return errorReply(cmd + " needs node ids below the node count " +
                      std::to_string(nodeCount));
}

/** Shift a curve's control points by @p offset seconds (serve-start
 * shapes are authored relative to the serving window). */
apps::RateCurve
shiftCurve(const apps::RateCurve &curve, double offset)
{
    apps::RateCurve shifted;
    for (const auto &[t, v] : curve.points())
        shifted.point(t + offset, v);
    return shifted;
}

} // namespace

ServeDaemon::ServeDaemon(DaemonConfig config)
    : config_(std::move(config)), cluster_(events_, config_.kube)
{
}

std::string
ServeDaemon::handleLine(const std::string &line)
{
    util::JsonValue command;
    if (!util::parseJson(line, command) || !command.isObject())
        return errorReply("malformed command (expected a JSON object)");
    return handle(command);
}

int
ServeDaemon::repl(std::istream &in, std::ostream &out)
{
    std::string line;
    while (!shutdown_ && std::getline(in, line)) {
        if (line.empty())
            continue;
        out << handleLine(line) << "\n" << std::flush;
    }
    return 0;
}

std::string
ServeDaemon::handle(const util::JsonValue &command)
{
    const std::string cmd = command.stringAt("cmd");
    if (cmd == "load-testbed")
        return cmdLoadTestbed(command);
    if (cmd == "add-nodes")
        return cmdAddNodes(command);
    if (cmd == "ingest-manifest")
        return cmdIngestManifest(command);
    if (cmd == "start-controller")
        return cmdStartController(command);
    if (cmd == "forecast-status")
        return cmdForecastStatus();
    if (cmd == "serve-start")
        return cmdServeStart(command);
    if (cmd == "inject-scenario")
        return cmdInjectScenario(command);
    if (cmd == "advance")
        return cmdAdvance(command);
    if (cmd == "observe")
        return cmdObserve();
    if (cmd == "delete-pod" || cmd == "restart-pod" ||
        cmd == "migrate-pod")
        return cmdPodVerb(cmd, command);
    if (cmd == "stats")
        return cmdStats();
    if (cmd == "metrics")
        return cmdMetrics();
    if (cmd == "shutdown") {
        shutdown_ = true;
        return "{\"ok\":true,\"bye\":true}";
    }
    return errorReply("unknown cmd " + util::jsonQuote(cmd));
}

std::string
ServeDaemon::cmdLoadTestbed(const util::JsonValue &command)
{
    apps::CloudLabConfig testbedConfig;
    const std::optional<double> demand = finiteAt(
        command, "demand_fraction", testbedConfig.demandFraction);
    if (!demand)
        return errorReply("load-testbed needs a finite 'demand_fraction'");
    testbedConfig.demandFraction = *demand;
    const apps::CloudLabTestbed testbed =
        apps::makeCloudLabTestbed(testbedConfig);
    for (size_t n = 0; n < testbed.config.nodeCount; ++n)
        cluster_.addNode(testbed.config.cpusPerNode);
    for (apps::ServiceApp sapp : testbed.serviceApps) {
        sapp.app.id = nextAppId_++;
        cluster_.addApplication(sapp.app);
        serviceApps_.push_back(std::move(sapp));
    }
    std::ostringstream out;
    out << "{\"ok\":true,\"nodes\":" << cluster_.nodeCount()
        << ",\"apps\":" << cluster_.apps().size() << "}";
    return out.str();
}

std::string
ServeDaemon::cmdAddNodes(const util::JsonValue &command)
{
    // Every node id stays a NodeId below the kNoNode sentinel.
    const size_t room =
        static_cast<size_t>(sim::kNoNode) - cluster_.nodeCount();
    const std::optional<size_t> count =
        integerAt<size_t>(command, "count", 1);
    const std::optional<double> capacity =
        finiteAt(command, "capacity", 8.0);
    if (!count || *count == 0 || *count > room || !capacity ||
        *capacity <= 0.0)
        return errorReply("add-nodes needs an integral count in [1, " +
                          std::to_string(room) +
                          "] and a finite capacity > 0");
    for (size_t n = 0; n < *count; ++n)
        cluster_.addNode(*capacity);
    std::ostringstream out;
    out << "{\"ok\":true,\"nodes\":" << cluster_.nodeCount() << "}";
    return out.str();
}

std::string
ServeDaemon::cmdIngestManifest(const util::JsonValue &command)
{
    const util::JsonValue *text = command.field("text");
    if (!text || !text->isString())
        return errorReply("ingest-manifest needs a string 'text'");

    const kube::ManifestParse parse =
        kube::parseManifestStructured(text->text);

    std::ostringstream out;
    out << "{\"ok\":" << (parse.ok() ? "true" : "false")
        << ",\"apps\":[";
    bool first = true;
    for (sim::Application app : parse.apps) {
        // Rebase ids past whatever the cluster already holds.
        app.id = nextAppId_++;
        cluster_.addApplication(app);

        // Synthesize a request model: one class per service, exactly
        // that service on the required path, so serve-start can route
        // traffic at manifest apps too.
        apps::ServiceApp sapp;
        sapp.app = app;
        for (const sim::Microservice &ms : app.services) {
            apps::RequestType req;
            req.name = ms.name;
            req.offeredRps = config_.manifestRps;
            req.path.push_back(apps::PathComponent{
                ms.id, /*required=*/true, /*utility=*/1.0,
                /*latencyMs=*/50.0});
            sapp.requests.push_back(std::move(req));
        }
        serviceApps_.push_back(std::move(sapp));

        if (!first)
            out << ",";
        first = false;
        out << util::jsonQuote(app.name);
    }
    out << "],\"errors\":[";
    first = true;
    for (const kube::ManifestError &error : parse.errors) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"line\":" << error.line
            << ",\"field\":" << util::jsonQuote(error.field)
            << ",\"message\":" << util::jsonQuote(error.message)
            << "}";
    }
    out << "]}";
    return out.str();
}

std::string
ServeDaemon::cmdStartController(const util::JsonValue &command)
{
    if (controller_)
        return errorReply("controller already running");
    const std::string scheme =
        command.stringAt("scheme", "PhoenixCost");
    core::Objective objective;
    if (scheme == "PhoenixCost") {
        objective = core::Objective::Cost;
    } else if (scheme == "PhoenixFair") {
        objective = core::Objective::Fair;
    } else {
        return errorReply("unknown scheme " + util::jsonQuote(scheme) +
                          " (PhoenixCost | PhoenixFair)");
    }
    const util::JsonValue *forecastFlag = command.field("forecast");
    const bool forecastOn =
        forecastFlag &&
        ((forecastFlag->kind == util::JsonValue::Kind::Bool &&
          forecastFlag->boolean) ||
         (forecastFlag->isNumber() && forecastFlag->number != 0.0));
    forecast::ForecastConfig forecastConfig;
    const std::optional<size_t> zones = integerAt<size_t>(
        command, "zones", forecastConfig.fallbackZoneCount);
    const std::optional<double> horizon =
        finiteAt(command, "horizon", forecastConfig.horizonSeconds);
    if (!zones || !horizon)
        return errorReply("start-controller needs an integral 'zones' "
                          "and a finite 'horizon'");
    controller_ = std::make_unique<core::PhoenixController>(
        events_, cluster_,
        std::make_unique<core::PhoenixScheme>(objective));

    if (forecastOn) {
        forecastConfig.fallbackZoneCount = *zones;
        forecastConfig.horizonSeconds = *horizon;
        forecaster_ = std::make_unique<forecast::Forecaster>(
            cluster_,
            [objective] {
                return std::make_unique<core::PhoenixScheme>(
                    objective);
            },
            forecastConfig);
        controller_->attachForecast(forecaster_.get());
    }
    return "{\"ok\":true,\"scheme\":" + util::jsonQuote(scheme) +
           ",\"forecast\":" + (forecastOn ? "true" : "false") + "}";
}

std::string
ServeDaemon::cmdForecastStatus()
{
    if (!forecaster_)
        return errorReply("forecast not enabled (start-controller "
                          "with \"forecast\":true)");
    const forecast::ForecastCounters &counters =
        forecaster_->counters();
    std::ostringstream out;
    out << "{\"ok\":true,\"projected_capacity_fraction\":"
        << util::jsonNumber(
               forecaster_->projectedCapacityFraction())
        << ",\"capacity_risk_armed\":"
        << (forecaster_->capacityRiskArmed() ? "true" : "false")
        << ",\"risks\":[";
    bool first = true;
    for (const forecast::RiskStatus &risk : forecaster_->risks()) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"class\":"
            << util::jsonQuote(forecast::faultClassName(risk.cls));
        if (risk.zone != SIZE_MAX)
            out << ",\"zone\":" << risk.zone;
        out << ",\"armed\":" << (risk.armed ? "true" : "false")
            << ",\"signal\":" << util::jsonNumber(risk.signal)
            << ",\"executed\":" << (risk.executed ? "true" : "false")
            << "}";
    }
    out << "],\"counters\":{\"prestaged_plans\":"
        << counters.prestagedPlans
        << ",\"proactive_executions\":"
        << counters.proactiveApplies
        << ",\"forced_restores\":" << counters.forcedRestores
        << "}}";
    return out.str();
}

std::string
ServeDaemon::cmdServeStart(const util::JsonValue &command)
{
    if (frontend_)
        return errorReply("serving already started");
    if (serviceApps_.empty())
        return errorReply(
            "nothing to serve (load-testbed or ingest-manifest first)");

    FrontendConfig frontendConfig = config_.frontend;
    const std::optional<double> duration =
        finiteAt(command, "duration", 600.0);
    const std::optional<double> window =
        finiteAt(command, "window", frontendConfig.windowSec);
    const std::optional<double> rpsScale =
        finiteAt(command, "rps_scale", frontendConfig.rpsScale);
    if (!duration || *duration <= 0.0 || !window ||
        *window < kMinWindowSeconds || !rpsScale)
        return errorReply("serve-start needs finite duration > 0, "
                          "window >= " + util::jsonNumber(kMinWindowSeconds) +
                          " and rps_scale");
    frontendConfig.seed = config_.seed;
    frontendConfig.startAt = events_.now();
    frontendConfig.endAt = events_.now() + *duration;
    frontendConfig.windowSec = *window;
    frontendConfig.rpsScale = *rpsScale;

    const std::string shape = command.stringAt("shape", "steady");
    if (shape == "steady") {
        frontendConfig.curve = apps::RateCurve();
    } else if (shape == "diurnal") {
        frontendConfig.curve = shiftCurve(
            apps::RateCurve::diurnal(*duration, 0.5, 1.5),
            events_.now());
    } else if (shape == "burst") {
        frontendConfig.curve = shiftCurve(
            apps::RateCurve::burst(*duration * 0.4, *duration * 0.3,
                                   1.0, 2.0),
            events_.now());
    } else {
        return errorReply("unknown shape " + util::jsonQuote(shape) +
                          " (steady | diurnal | burst)");
    }

    frontend_ = std::make_unique<ServeFrontend>(
        events_, cluster_, serviceApps_, frontendConfig,
        controller_.get(), forecaster_.get());
    std::ostringstream out;
    out << "{\"ok\":true,\"classes\":"
        << frontend_->classes().size()
        << ",\"until\":" << util::jsonNumber(frontendConfig.endAt)
        << "}";
    return out.str();
}

std::string
ServeDaemon::cmdInjectScenario(const util::JsonValue &command)
{
    const util::JsonValue *steps = command.field("steps");
    std::string error;
    std::optional<std::vector<sim::Scenario::Step>> parsed =
        sim::scenarioStepsFromJson(steps ? *steps : util::JsonValue(),
                                   cluster_.nodeCount(), events_.now(),
                                   &error);
    if (!parsed)
        return errorReply(error);

    sim::ScenarioOptions options;
    const std::optional<uint64_t> seed =
        integerAt<uint64_t>(command, "seed", config_.seed);
    const std::optional<size_t> zones =
        integerAt<size_t>(command, "zones", options.zoneCount);
    if (!seed || !zones)
        return errorReply(
            "inject-scenario needs an integral 'seed' and 'zones'");
    options.seed = *seed;
    options.zoneCount = *zones;
    runners_.push_back(std::make_unique<sim::ScenarioRunner>(
        events_, cluster_, sim::Scenario(std::move(*parsed)), options));
    // A step at an instant already past fires now.
    const double first = runners_.back()->firstFailureAt();
    std::ostringstream out;
    out << "{\"ok\":true,\"steps\":" << steps->items.size()
        << ",\"first_failure_at\":"
        << util::jsonNumber(first < 0.0 ? first
                                        : std::max(first, events_.now()))
        << "}";
    return out.str();
}

std::string
ServeDaemon::cmdAdvance(const util::JsonValue &command)
{
    const std::optional<double> seconds =
        finiteAt(command, "seconds", 0.0);
    if (!seconds || *seconds <= 0.0 || *seconds > kMaxAdvanceSeconds)
        return errorReply("advance needs seconds in (0, " +
                          util::jsonNumber(kMaxAdvanceSeconds) + "]");
    events_.runUntil(events_.now() + *seconds);
    std::ostringstream out;
    out << "{\"ok\":true,\"t\":" << util::jsonNumber(events_.now())
        << "}";
    return out.str();
}

std::string
ServeDaemon::cmdObserve()
{
    const auto running = cluster_.runningPods();
    std::map<sim::AppId, size_t> runningByApp;
    for (const sim::PodRef &pod : running)
        ++runningByApp[pod.app];

    std::ostringstream out;
    out << "{\"ok\":true,\"t\":" << util::jsonNumber(events_.now())
        << ",\"nodes\":" << cluster_.nodeCount()
        << ",\"ready_capacity\":"
        << util::jsonNumber(cluster_.readyCapacity())
        << ",\"total_capacity\":"
        << util::jsonNumber(cluster_.totalCapacity())
        << ",\"running\":" << running.size()
        << ",\"pending\":" << cluster_.pendingCount()
        << ",\"apps\":[";
    bool first = true;
    for (const sim::Application &app : cluster_.apps()) {
        if (!first)
            out << ",";
        first = false;
        const auto it = runningByApp.find(app.id);
        out << "{\"id\":" << app.id
            << ",\"name\":" << util::jsonQuote(app.name)
            << ",\"services\":" << app.services.size()
            << ",\"running\":"
            << (it == runningByApp.end() ? 0 : it->second) << "}";
    }
    out << "]}";
    return out.str();
}

std::string
ServeDaemon::cmdPodVerb(const std::string &verb,
                        const util::JsonValue &command)
{
    const util::JsonValue *app = command.field("app");
    const util::JsonValue *ms = command.field("ms");
    const std::optional<sim::AppId> appId =
        app ? integerOf<sim::AppId>(*app) : std::nullopt;
    const std::optional<sim::MsId> msId =
        ms ? integerOf<sim::MsId>(*ms) : std::nullopt;
    const std::optional<uint32_t> replica =
        integerAt<uint32_t>(command, "replica", 0);
    if (!appId || !msId || !replica)
        return errorReply(verb + " needs integral 'app' and 'ms' (and "
                                 "'replica', when given)");
    const sim::PodRef ref{*appId, *msId, *replica};
    if (!cluster_.pod(ref))
        return errorReply("no such pod");

    // The kube verbs ignore a node that does not exist; say so instead
    // of replying ok.
    const util::JsonValue *node = command.field("node");
    const std::optional<sim::NodeId> nodeId =
        node ? integerOf<sim::NodeId>(*node) : std::nullopt;
    const bool nodeExists = nodeId && *nodeId < cluster_.nodeCount();
    if (verb == "delete-pod") {
        cluster_.deletePod(ref);
    } else if (verb == "restart-pod") {
        if (node && !nodeExists) // 'node' is optional here
            return nodeIdError(verb, cluster_.nodeCount());
        cluster_.startPod(ref, nodeId);
    } else { // migrate-pod
        if (!nodeExists)
            return nodeIdError(verb, cluster_.nodeCount());
        cluster_.migratePod(ref, *nodeId);
    }
    return "{\"ok\":true}";
}

std::string
ServeDaemon::cmdStats()
{
    if (!frontend_)
        return errorReply("serving not started");
    std::ostringstream out;
    out << "{\"ok\":true,\"t\":" << util::jsonNumber(events_.now())
        << ",\"offered\":" << frontend_->totalOffered()
        << ",\"served\":" << frontend_->totalServed()
        << ",\"shed\":" << frontend_->totalShed()
        << ",\"failed\":" << frontend_->totalFailed()
        << ",\"admit_level\":" << frontend_->admission().admitLevel()
        << ",\"classes\":[";
    bool first = true;
    for (const ClassReport &rep : frontend_->report()) {
        if (!first)
            out << ",";
        first = false;
        out << "{\"class\":" << util::jsonQuote(rep.meta.label())
            << ",\"criticality\":" << rep.meta.criticality
            << ",\"offered\":" << rep.offered
            << ",\"served\":" << rep.served
            << ",\"shed\":" << rep.shed
            << ",\"failed\":" << rep.failed
            << ",\"p95_ms\":" << util::jsonNumber(rep.p95Ms)
            << ",\"slo_violation_seconds\":"
            << util::jsonNumber(rep.sloViolationSeconds) << "}";
    }
    out << "]}";
    return out.str();
}

std::string
ServeDaemon::cmdMetrics()
{
    std::ostringstream out;
    out << "{\"ok\":true,\"enabled\":"
        << (obs::metricsEnabled() ? "true" : "false")
        << ",\"metrics\":[";
    bool first = true;
    for (const obs::MetricSample &sample :
         obs::Registry::global().snapshot()) {
        if (!first)
            out << ",";
        first = false;
        const char *kind = sample.kind == obs::MetricKind::Counter
                               ? "counter"
                               : sample.kind == obs::MetricKind::Gauge
                                     ? "gauge"
                                     : "histogram";
        out << "{\"name\":" << util::jsonQuote(sample.name)
            << ",\"kind\":\"" << kind << "\""
            << ",\"count\":" << sample.count
            << ",\"value\":" << util::jsonNumber(sample.value);
        if (sample.kind == obs::MetricKind::Histogram) {
            out << ",\"p50\":" << util::jsonNumber(sample.p50)
                << ",\"p90\":" << util::jsonNumber(sample.p90)
                << ",\"p99\":" << util::jsonNumber(sample.p99);
        }
        out << "}";
    }
    out << "]}";
    return out.str();
}

} // namespace phoenix::serve
