/**
 * @file
 * Tests for the serving layer (src/serve): request-class derivation,
 * windowed SLO accounting, criticality-aware admission control with
 * hysteresis and plan-aware shedding, the end-to-end serving harness
 * (exp::runServe: determinism + exact admission accounting), and the
 * phoenixd command protocol.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "exp/serving.h"
#include "serve/admission.h"
#include "serve/daemon.h"
#include "serve/serve.h"
#include "serve/slo.h"
#include "sim/scenario_json.h"
#include "util/json.h"

using namespace phoenix;
using namespace phoenix::serve;
using exp::runServe;
using exp::ServeConfig;
using exp::ServeResult;
using exp::TestbedScheme;

namespace {

/** Two-service app: front (C1) and extras (C5), three request types —
 * one touching only front, one requiring both, one where extras is
 * optional. */
apps::ServiceApp
tinyApp(sim::AppId id)
{
    apps::ServiceApp sapp;
    sapp.app.id = id;
    sapp.app.name = "tiny" + std::to_string(id);
    sapp.app.pricePerUnit = 1.0;

    sim::Microservice front;
    front.id = 0;
    front.name = "front";
    front.cpu = 2.0;
    front.criticality = sim::kC1;
    sim::Microservice extras;
    extras.id = 1;
    extras.name = "extras";
    extras.cpu = 1.0;
    extras.criticality = 5;
    sapp.app.services = {front, extras};

    apps::RequestType core;
    core.name = "core";
    core.offeredRps = 10.0;
    core.path.push_back(apps::PathComponent{0, true, 1.0, 40.0});

    apps::RequestType both;
    both.name = "both";
    both.offeredRps = 4.0;
    both.path.push_back(apps::PathComponent{0, true, 0.6, 40.0});
    both.path.push_back(apps::PathComponent{1, true, 0.4, 20.0});

    apps::RequestType opt;
    opt.name = "opt";
    opt.offeredRps = 2.0;
    opt.path.push_back(apps::PathComponent{0, true, 0.8, 10.0});
    opt.path.push_back(apps::PathComponent{1, false, 0.2, 5.0});

    sapp.requests = {core, both, opt};
    sapp.criticalRequest = "core";
    return sapp;
}

RequestClass
classWith(sim::Criticality criticality,
          std::vector<apps::PathComponent> path = {})
{
    RequestClass cls;
    cls.appName = "app";
    cls.name = "c" + std::to_string(criticality);
    cls.criticality = criticality;
    cls.path = std::move(path);
    return cls;
}

} // namespace

// ---- Request-class derivation -------------------------------------

TEST(RequestClasses, CriticalityIsMaxOverRequiredComponents)
{
    const auto classes = buildRequestClasses({tinyApp(0), tinyApp(1)});
    ASSERT_EQ(classes.size(), 6u);

    // Dense indexing in testbed order.
    for (size_t i = 0; i < classes.size(); ++i)
        EXPECT_EQ(classes[i].index, i);

    EXPECT_EQ(classes[0].label(), "tiny0/core");
    EXPECT_EQ(classes[0].criticality, sim::kC1);

    // A required C5 dependency drags the class down to C5.
    EXPECT_EQ(classes[1].label(), "tiny0/both");
    EXPECT_EQ(classes[1].criticality, 5);

    // An optional C5 dependency does not.
    EXPECT_EQ(classes[2].label(), "tiny0/opt");
    EXPECT_EQ(classes[2].criticality, sim::kC1);

    // Second app instance keeps its own identity.
    EXPECT_EQ(classes[3].appName, "tiny1");
    EXPECT_EQ(classes[3].app, 1u);
}

TEST(RequestClasses, SloLatencyTargetsTrackNominalPathLatency)
{
    const auto classes = buildRequestClasses({tinyApp(0)});
    ASSERT_EQ(classes.size(), 3u);
    // 2x nominal (sum over all components), floored at 50 ms.
    EXPECT_NEAR(classes[0].slo.latencyP95Ms, 80.0, 1e-9);  // 2*40
    EXPECT_NEAR(classes[1].slo.latencyP95Ms, 120.0, 1e-9); // 2*60
    EXPECT_NEAR(classes[2].slo.latencyP95Ms, 50.0, 1e-9);  // floor
    for (const RequestClass &cls : classes)
        EXPECT_NEAR(cls.slo.availabilityTarget, 0.99, 1e-12);
}

// ---- Windowed SLO accounting --------------------------------------

TEST(SloTracker, WindowEvaluationAndViolationSeconds)
{
    RequestClass cls = classWith(sim::kC1);
    cls.slo.latencyP95Ms = 100.0;
    cls.slo.availabilityTarget = 0.99;
    SloTracker tracker({cls}, 5.0);

    // Healthy window: everything served, fast.
    for (int i = 0; i < 100; ++i)
        tracker.recordServed(0, 10.0);
    EXPECT_NEAR(tracker.closeWindow(), 0.0, 1e-12);

    // Availability breach: 2 shed of 100 -> 0.98 < 0.99.
    for (int i = 0; i < 98; ++i)
        tracker.recordServed(0, 10.0);
    tracker.recordShed(0);
    tracker.recordShed(0);
    EXPECT_NEAR(tracker.closeWindow(), 5.0, 1e-12);

    // Idle window: no demand, no violation.
    EXPECT_NEAR(tracker.closeWindow(), 0.0, 1e-12);

    // Latency breach: served but slow.
    for (int i = 0; i < 10; ++i)
        tracker.recordServed(0, 200.0);
    EXPECT_NEAR(tracker.closeWindow(), 5.0, 1e-12);

    // Total failure: one failed request, nothing served.
    tracker.recordFailed(0);
    EXPECT_NEAR(tracker.closeWindow(), 5.0, 1e-12);

    const auto reports = tracker.report();
    ASSERT_EQ(reports.size(), 1u);
    const ClassReport &rep = reports[0];
    EXPECT_EQ(rep.offered, 211u);
    EXPECT_EQ(rep.served, 208u);
    EXPECT_EQ(rep.shed, 2u);
    EXPECT_EQ(rep.failed, 1u);
    EXPECT_EQ(rep.windows, 5u);
    EXPECT_EQ(rep.violationWindows, 3u);
    EXPECT_NEAR(rep.sloViolationSeconds, 15.0, 1e-12);
    EXPECT_NEAR(rep.goodput(), 208.0 / 211.0, 1e-12);
    EXPECT_NEAR(rep.shedFraction(), 2.0 / 211.0, 1e-12);
    // Overall percentiles over every served latency.
    EXPECT_GT(rep.p50Ms, 0.0);
    EXPECT_LE(rep.p50Ms, rep.p95Ms);
    EXPECT_LE(rep.p95Ms, rep.p99Ms);
}

TEST(SloTracker, ViolationSecondsSplitByCriticality)
{
    RequestClass critical = classWith(sim::kC1);
    RequestClass degradable = classWith(5);
    SloTracker tracker({critical, degradable}, 10.0);

    tracker.recordServed(0, 1.0); // critical class fine
    tracker.recordShed(1);        // degradable class fully shed
    EXPECT_NEAR(tracker.closeWindow(), 10.0, 1e-12);

    EXPECT_NEAR(tracker.violationSeconds(/*critical=*/true), 0.0,
                1e-12);
    EXPECT_NEAR(tracker.violationSeconds(/*critical=*/false), 10.0,
                1e-12);
}

TEST(SloTracker, IdleRunReportsPerfectGoodput)
{
    SloTracker tracker({classWith(sim::kC1)}, 5.0);
    tracker.closeWindow();
    const auto reports = tracker.report();
    EXPECT_EQ(reports[0].offered, 0u);
    EXPECT_NEAR(reports[0].goodput(), 1.0, 1e-12);
    EXPECT_LT(reports[0].p95Ms, 0.0); // no-sample convention
}

// ---- Admission control --------------------------------------------

TEST(Admission, CapacityLevelDegradesWithReadyFraction)
{
    AdmissionController admission;
    EXPECT_EQ(admission.admitLevel(), sim::kLowestCriticality);

    // Full capacity admits everything.
    admission.observeCapacity(1.0);
    EXPECT_EQ(admission.admitLevel(), sim::kLowestCriticality);
    EXPECT_EQ(admission.decide(classWith(10)), AdmitDecision::Admit);

    // Half capacity: level = 1 + floor(9 * 0.5 / 0.95) = 5.
    admission.observeCapacity(0.5);
    EXPECT_EQ(admission.admitLevel(), 5);
    EXPECT_EQ(admission.decide(classWith(5)), AdmitDecision::Admit);
    EXPECT_EQ(admission.decide(classWith(6)),
              AdmitDecision::ShedCapacity);

    // Zero capacity: C1 only.
    admission.observeCapacity(0.0);
    EXPECT_EQ(admission.admitLevel(), sim::kC1);
    EXPECT_EQ(admission.decide(classWith(sim::kC1)),
              AdmitDecision::Admit);
    EXPECT_EQ(admission.decide(classWith(2)),
              AdmitDecision::ShedCapacity);
}

TEST(Admission, HysteresisDampsReadmission)
{
    AdmissionController admission;
    admission.observeCapacity(0.5);
    ASSERT_EQ(admission.admitLevel(), 5);

    // A wobble just above the drop point must not re-admit: the
    // margin-adjusted level does not clear the current one.
    admission.observeCapacity(0.55);
    EXPECT_EQ(admission.admitLevel(), 5);

    // A real recovery does, but only to the margin-adjusted level.
    admission.observeCapacity(0.60);
    EXPECT_EQ(admission.admitLevel(), 6);

    // Full recovery restores full service.
    admission.observeCapacity(1.0);
    EXPECT_EQ(admission.admitLevel(), sim::kLowestCriticality);
}

TEST(Admission, PlanAwareShedFailsFastOnSacrificedServices)
{
    AdmissionController admission;
    RequestClass needsBoth = classWith(
        3, {apps::PathComponent{0, true, 1.0, 10.0},
            apps::PathComponent{1, true, 1.0, 10.0}});
    needsBoth.app = 7;
    RequestClass needsFront =
        classWith(2, {apps::PathComponent{0, true, 1.0, 10.0},
                      apps::PathComponent{1, false, 1.0, 10.0}});
    needsFront.app = 7;

    // No plan yet: both admitted.
    EXPECT_FALSE(admission.hasPlan());
    EXPECT_EQ(admission.decide(needsBoth), AdmitDecision::Admit);

    // Planner sacrificed service 1: the class requiring it sheds
    // fail-fast, the one that only optionally touches it does not.
    admission.setPlannedServices(
        {AdmissionController::serviceKey(7, 0)});
    EXPECT_TRUE(admission.hasPlan());
    EXPECT_EQ(admission.decide(needsBoth), AdmitDecision::ShedPlan);
    EXPECT_EQ(admission.decide(needsFront), AdmitDecision::Admit);

    admission.clearPlan();
    EXPECT_EQ(admission.decide(needsBoth), AdmitDecision::Admit);
}

TEST(Admission, DisabledControllerAdmitsEverything)
{
    AdmissionConfig config;
    config.enabled = false;
    AdmissionController admission(config);
    admission.observeCapacity(0.0);
    admission.setPlannedServices({}); // ignored when disabled
    EXPECT_EQ(admission.admitLevel(), sim::kLowestCriticality);
    EXPECT_EQ(admission.decide(classWith(10, {apps::PathComponent{
                  0, true, 1.0, 1.0}})),
              AdmitDecision::Admit);
    EXPECT_FALSE(admission.hasPlan());
}

// ---- End-to-end harness -------------------------------------------

namespace {

ServeConfig
miniConfig(TestbedScheme scheme)
{
    ServeConfig config;
    config.scheme = scheme;
    config.warmupSec = 300.0;
    config.endTime = 700.0;
    config.frontend.rpsScale = 0.2;
    config.frontend.seed = 42;
    config.frontend.admission.enabled = scheme != TestbedScheme::Default;
    return config;
}

} // namespace

TEST(ServeHarness, HealthyClusterServesEverything)
{
    // Phoenix replans once at startup, and the planner's bin-packed
    // placement fits every pod — including the two 7.6-CPU HR1 pods
    // the spread scheduler strands (see the Default test below). A
    // healthy cluster under Phoenix then serves every request.
    const ServeResult result =
        runServe(miniConfig(TestbedScheme::PhoenixCost));
    EXPECT_GT(result.offered, 0u);
    EXPECT_EQ(result.offered, result.served + result.shed +
                                  result.failed);
    EXPECT_EQ(result.shed, 0u);
    EXPECT_EQ(result.failed, 0u);
    EXPECT_EQ(result.invariantViolations, 0u);
    EXPECT_NEAR(result.totalGoodput, 1.0, 1e-12);
    EXPECT_NEAR(result.shedFraction, 0.0, 1e-12);
    EXPECT_EQ(result.criticalViolationSeconds, 0.0);
    EXPECT_LT(result.firstFailureAt, 0.0); // no scenario
    // 29 CloudLab request classes, every one exercised.
    EXPECT_EQ(result.classes.size(), 29u);
    for (const ClassReport &rep : result.classes)
        EXPECT_GT(rep.offered, 0u) << rep.meta.label();
}

TEST(ServeHarness, SpreadSchedulerStrandsLargePodsUnderDefault)
{
    // The kube default scheduler spreads (least-allocated scoring), so
    // by the time HR1's 7.6-CPU frontend and reservation pods come up
    // in PodRef order every node has some usage and neither ever
    // binds. All four HR1 request classes route through at least one
    // of the stranded services and fail outright; every other class
    // is untouched. This is the placement-fragility motivation for
    // planner-driven placement, pinned as serving-layer behavior.
    const ServeResult result =
        runServe(miniConfig(TestbedScheme::Default));
    EXPECT_EQ(result.offered, result.served + result.shed +
                                  result.failed);
    EXPECT_EQ(result.shed, 0u);
    EXPECT_EQ(result.invariantViolations, 0u);
    EXPECT_GT(result.failed, 0u);
    size_t failedClasses = 0;
    for (const ClassReport &rep : result.classes) {
        EXPECT_GT(rep.offered, 0u) << rep.meta.label();
        if (rep.failed > 0) {
            ++failedClasses;
            // Down from the first request: all-or-nothing.
            EXPECT_EQ(rep.failed, rep.offered) << rep.meta.label();
            EXPECT_EQ(rep.served, 0u) << rep.meta.label();
            EXPECT_EQ(rep.meta.app, 4) << rep.meta.label(); // HR1
        }
    }
    EXPECT_EQ(failedClasses, 4u);
}

TEST(ServeHarness, RunsAreDeterministic)
{
    const ServeResult a = runServe(miniConfig(TestbedScheme::PhoenixCost));
    const ServeResult b = runServe(miniConfig(TestbedScheme::PhoenixCost));
    EXPECT_EQ(a.offered, b.offered);
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.shed, b.shed);
    EXPECT_EQ(a.failed, b.failed);
    ASSERT_EQ(a.classes.size(), b.classes.size());
    for (size_t i = 0; i < a.classes.size(); ++i) {
        EXPECT_EQ(a.classes[i].offered, b.classes[i].offered);
        EXPECT_EQ(a.classes[i].p95Ms, b.classes[i].p95Ms); // exact
        EXPECT_EQ(a.classes[i].sloViolationSeconds,
                  b.classes[i].sloViolationSeconds);
    }

    // A different seed moves the arrival draws.
    ServeConfig other = miniConfig(TestbedScheme::PhoenixCost);
    other.frontend.seed = 43;
    const ServeResult c = runServe(other);
    EXPECT_NE(a.offered, c.offered);
}

TEST(ServeHarness, CapacityCrunchProtectsCriticalClasses)
{
    // Half the cluster fails mid-trace; under PhoenixCost the shed
    // lands on degradable classes and every critical class keeps
    // serving (strictly less SLO damage than the no-admission run
    // would take — the bench smoke gate covers the full comparison).
    ServeConfig config = miniConfig(TestbedScheme::PhoenixCost);
    config.endTime = 900.0;
    config.scenario.failCapacityFraction(500.0, 0.5);
    config.scenarioOptions.seed = 7;
    const ServeResult result = runServe(config);

    EXPECT_EQ(result.offered, result.served + result.shed +
                                  result.failed);
    EXPECT_GT(result.shed, 0u);
    EXPECT_EQ(result.invariantViolations, 0u);
    EXPECT_GT(result.replans, 0u);
    EXPECT_NEAR(result.firstFailureAt, 500.0, 1e-9);
    // Critical traffic keeps flowing.
    EXPECT_GT(result.criticalGoodput, 0.8);
    EXPECT_LT(result.criticalViolationSeconds,
              result.nonCriticalViolationSeconds);
}

// ---- Daemon protocol ----------------------------------------------

namespace {

util::JsonValue
reply(ServeDaemon &daemon, const std::string &line)
{
    util::JsonValue parsed;
    const std::string text = daemon.handleLine(line);
    EXPECT_TRUE(util::parseJson(text, parsed)) << text;
    return parsed;
}

bool
okOf(const util::JsonValue &parsed)
{
    const util::JsonValue *ok = parsed.field("ok");
    return ok && ok->kind == util::JsonValue::Kind::Bool &&
           ok->boolean;
}

} // namespace

TEST(ServeDaemon, LifecycleRoundTrip)
{
    ServeDaemon daemon;

    auto loaded = reply(daemon, R"({"cmd":"load-testbed"})");
    EXPECT_TRUE(okOf(loaded));
    EXPECT_GT(loaded.numberAt("nodes"), 0.0);

    auto controller = reply(
        daemon, R"({"cmd":"start-controller","scheme":"PhoenixCost"})");
    EXPECT_TRUE(okOf(controller));

    auto serve = reply(
        daemon,
        R"({"cmd":"serve-start","duration":200,"shape":"diurnal"})");
    EXPECT_TRUE(okOf(serve));
    EXPECT_NEAR(serve.numberAt("classes"), 29.0, 1e-12);

    auto advanced =
        reply(daemon, R"({"cmd":"advance","seconds":250})");
    EXPECT_NEAR(advanced.numberAt("t"), 250.0, 1e-9);
    EXPECT_NEAR(daemon.now(), 250.0, 1e-9);

    auto observed = reply(daemon, R"({"cmd":"observe"})");
    EXPECT_GT(observed.numberAt("running"), 0.0);
    EXPECT_GT(observed.numberAt("ready_capacity"), 0.0);

    auto stats = reply(daemon, R"({"cmd":"stats"})");
    EXPECT_GT(stats.numberAt("offered"), 0.0);
    const util::JsonValue *classes = stats.field("classes");
    ASSERT_NE(classes, nullptr);
    EXPECT_TRUE(classes->isArray());
    EXPECT_EQ(classes->items.size(), 29u);

    EXPECT_TRUE(okOf(reply(daemon, R"({"cmd":"shutdown"})")));
    EXPECT_TRUE(daemon.shuttingDown());
}

TEST(ServeDaemon, ForecastStatusReportsRisksAndCounters)
{
    ServeDaemon daemon;
    ASSERT_TRUE(okOf(reply(daemon, R"({"cmd":"load-testbed"})")));

    // Without a forecast-enabled controller the verb is an error.
    auto early = reply(daemon, R"({"cmd":"forecast-status"})");
    EXPECT_FALSE(okOf(early));
    EXPECT_FALSE(early.stringAt("error").empty());

    ASSERT_TRUE(okOf(reply(
        daemon, R"({"cmd":"start-controller","scheme":"PhoenixCost",)"
                R"("forecast":true,"zones":4})")));
    reply(daemon, R"({"cmd":"advance","seconds":60})");

    auto status = reply(daemon, R"({"cmd":"forecast-status"})");
    ASSERT_TRUE(okOf(status));
    const util::JsonValue *risks = status.field("risks");
    ASSERT_NE(risks, nullptr);
    ASSERT_TRUE(risks->isArray());
    // One zone-loss risk per forecast zone, then decay, then surge.
    ASSERT_EQ(risks->items.size(), 4u + 2u);
    for (size_t i = 0; i < risks->items.size(); ++i) {
        const util::JsonValue &risk = risks->items[i];
        const std::string cls = risk.stringAt("class");
        if (i < 4) {
            EXPECT_EQ(cls, "zone-loss");
            ASSERT_NE(risk.field("zone"), nullptr);
            EXPECT_EQ(risk.numberAt("zone"), static_cast<double>(i));
        } else {
            EXPECT_EQ(cls, i == 4 ? "capacity-decay" : "load-surge");
            EXPECT_EQ(risk.field("zone"), nullptr);
        }
        const util::JsonValue *armed = risk.field("armed");
        const util::JsonValue *signal = risk.field("signal");
        const util::JsonValue *executed = risk.field("executed");
        ASSERT_NE(armed, nullptr) << cls;
        ASSERT_NE(signal, nullptr) << cls;
        ASSERT_NE(executed, nullptr) << cls;
        EXPECT_EQ(armed->kind, util::JsonValue::Kind::Bool);
        EXPECT_TRUE(signal->isNumber());
        EXPECT_EQ(executed->kind, util::JsonValue::Kind::Bool);
        EXPECT_EQ(risk.field("staged"), nullptr) << cls;
    }

    const util::JsonValue *counters = status.field("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_TRUE(counters->isObject());
    std::vector<std::string> keys;
    for (const auto &[key, value] : counters->fields) {
        keys.push_back(key);
        EXPECT_TRUE(value.isNumber()) << key;
    }
    EXPECT_EQ(keys, (std::vector<std::string>{"prestaged_plans",
                                              "proactive_executions",
                                              "forced_restores"}));
}

TEST(ServeDaemon, IngestManifestSurfacesStructuredErrors)
{
    ServeDaemon daemon;
    const std::string manifest = "application: good\\n"
                                 "services:\\n"
                                 "  - name: web\\n"
                                 "    cpu: 2.0\\n"
                                 "---\\n"
                                 "application: broken\\n"
                                 "services:\\n"
                                 "  - name: a\\n"
                                 "    cpu: nope\\n";
    auto parsed = reply(daemon, std::string(R"({"cmd":"ingest-manifest","text":")") +
                                    manifest + R"("})");
    EXPECT_FALSE(okOf(parsed)); // a document was rejected
    // Accepted apps are reported by name; the broken doc is absent.
    const util::JsonValue *apps = parsed.field("apps");
    ASSERT_NE(apps, nullptr);
    ASSERT_EQ(apps->items.size(), 1u);
    EXPECT_EQ(apps->items[0].kind, util::JsonValue::Kind::String);
    EXPECT_EQ(apps->items[0].text, "good");

    const util::JsonValue *errors = parsed.field("errors");
    ASSERT_NE(errors, nullptr);
    ASSERT_EQ(errors->items.size(), 1u);
    EXPECT_NEAR(errors->items[0].numberAt("line"), 9.0, 1e-12);
    EXPECT_EQ(errors->items[0].stringAt("field"), "cpu");
}

TEST(ServeDaemon, RejectsMalformedCommands)
{
    ServeDaemon daemon;
    auto bad = reply(daemon, "not json at all");
    EXPECT_FALSE(okOf(bad));
    EXPECT_FALSE(bad.stringAt("error").empty());

    auto unknown = reply(daemon, R"({"cmd":"frobnicate"})");
    EXPECT_FALSE(okOf(unknown));

    // serve-start before any testbed/manifest is an error, not a crash.
    auto early = reply(daemon, R"({"cmd":"serve-start"})");
    EXPECT_FALSE(okOf(early));

    // Integer fields must be finite integers in their type's range,
    // node ids must name existing nodes, and other numeric fields must
    // be finite numbers (1e999 parses as infinity). A rejected command
    // changes nothing, and the daemon keeps answering.
    ASSERT_TRUE(okOf(reply(daemon, R"({"cmd":"load-testbed"})")));
    const size_t nodes = daemon.cluster().nodeCount();
    ASSERT_EQ(nodes, 25u);
    const double t0 = reply(daemon, R"({"cmd":"observe"})").numberAt("t");
    const std::string inject = R"({"cmd":"inject-scenario","steps":[)";
    for (const std::string &line : {
             // Accepted, these five would hang advance, re-arm the
             // window tick at one instant forever (so the next advance
             // hangs), and make observe print ready_capacity null. The
             // first two are finite: one advance runs at most a
             // simulated day, and a window is at least 1 s.
             std::string(R"({"cmd":"advance","seconds":1e300})"),
             std::string(R"({"cmd":"serve-start","window":1e-300})"),
             std::string(R"({"cmd":"advance","seconds":1e999})"),
             std::string(R"({"cmd":"serve-start","window":0})"),
             std::string(R"({"cmd":"add-nodes","capacity":1e999})"),
             std::string(R"({"cmd":"advance","seconds":"5"})"),
             std::string(R"({"cmd":"advance","seconds":-1e999})"),
             std::string(R"({"cmd":"serve-start","window":-5})"),
             std::string(R"({"cmd":"serve-start","window":"5"})"),
             std::string(R"({"cmd":"serve-start","duration":1e999})"),
             std::string(R"({"cmd":"serve-start","rps_scale":1e999})"),
             std::string(R"({"cmd":"add-nodes","capacity":"8"})"),
             std::string(
                 R"({"cmd":"load-testbed","demand_fraction":1e999})"),
             std::string(R"({"cmd":"start-controller","horizon":1e999})"),
             inject + R"({"kind":"fail-count","at":1e999}]})",
             inject + R"({"kind":"fail-count","at":"1"}]})",
             inject + R"({"kind":"rolling-fail","at":1,"interval":1e999}]})",
             inject +
                 R"({"kind":"fail-capacity-fraction","at":1,"fraction":"x"}]})",
             inject +
                 R"({"kind":"flap","at":1,"nodes":[0],"downtime":1e999}]})",
             inject + R"({"kind":"recover-all","at":1,"stagger":1e999}]})",
             inject + R"({"kind":"fail","at":1,"nodes":[25]}]})",
             inject + R"({"kind":"fail","at":1,"nodes":["x"]}]})",
             std::string(R"({"cmd":"add-nodes","count":2.5})"),
             inject + R"({"kind":"fail","at":1,"nodes":[1000]}]})",
             inject + R"({"kind":"fail","at":1,"nodes":[-1]}]})",
             inject + R"({"kind":"recover","at":1,"nodes":[25]}]})",
             inject + R"({"kind":"flap","at":1,"nodes":[25]}]})",
             inject + R"({"kind":"flap","at":1,"nodes":[1.5]}]})",
             inject + R"({"kind":"fail-count","at":1,"count":-1}]})",
             inject + R"({"kind":"rolling-fail","at":1,"count":1e30}]})",
             inject + R"({"kind":"fail-zone","at":1,"zone":0.5}]})",
             // A rolling fail of more nodes than exist, all at one
             // instant: accepted, it re-armed 4.3e9 times.
             inject + R"({"kind":"rolling-fail","at":1,"interval":0,)"
                      R"("count":4294967295}]})",
             inject + R"({"kind":"fail-count","at":1,"count":26}]})",
             // The other fault classes, each out of its domain: a
             // time past the script ceiling, a window below 0, a
             // degrade factor of 0, an infinite skew, an outage that
             // names a node, and a field the kind does not take (the
             // old flap 'node').
             inject + R"({"kind":"partition","at":1e300,"nodes":[0]}]})",
             inject + R"({"kind":"partition-zone","at":1,"downtime":1e300}]})",
             inject + R"({"kind":"heal","at":1,"nodes":[25]}]})",
             inject + R"({"kind":"outage","at":1,"downtime":-1}]})",
             inject + R"({"kind":"outage","at":1,"nodes":[0]}]})",
             inject + R"({"kind":"degrade","at":1,"nodes":[0],"factor":0}]})",
             inject + R"({"kind":"degrade-zone","at":1,"factor":2}]})",
             inject + R"({"kind":"skew","at":1,"nodes":[0],"skew":1e999}]})",
             inject + R"({"kind":"fail-capacity-fraction","fraction":1.5}]})",
             inject + R"({"kind":"flap","at":1,"node":0}]})",
             inject + R"({"kind":"fail-nodes","at":1,"nodes":[0]}]})",
             std::string(R"({"cmd":"inject-scenario","seed":-3,)") +
                 R"("steps":[{"kind":"fail-count","at":1}]})",
             std::string(R"({"cmd":"inject-scenario","zones":"2",)") +
                 R"("steps":[{"kind":"fail-count","at":1}]})",
             std::string(R"({"cmd":"add-nodes","count":-1})"),
             std::string(R"({"cmd":"add-nodes","count":1e12})"),
             std::string(R"({"cmd":"add-nodes","count":4294967295})"),
             std::string(R"({"cmd":"delete-pod","app":0.5,"ms":0})"),
             std::string(R"({"cmd":"delete-pod","app":0,"ms":-1})"),
             std::string(
                 R"({"cmd":"restart-pod","app":0,"ms":0,"replica":1e10})"),
             std::string(
                 R"({"cmd":"restart-pod","app":0,"ms":0,"node":-2})"),
             std::string(R"({"cmd":"migrate-pod","app":0,"ms":0,)") +
                 R"("node":4294967296})",
             std::string(
                 R"({"cmd":"migrate-pod","app":0,"ms":0,"node":25})"),
             std::string(
                 R"({"cmd":"restart-pod","app":0,"ms":0,"node":25})"),
             std::string(R"({"cmd":"start-controller","zones":-1})"),
         }) {
        const util::JsonValue rejected = reply(daemon, line);
        ASSERT_FALSE(okOf(rejected)) << line;
        // Each input is refused for its own fault, not for a kind name
        // the codec no longer knows (the last one excepted).
        if (line.find("fail-nodes") == std::string::npos) {
            EXPECT_EQ(rejected.stringAt("error").find("unknown"),
                      std::string::npos)
                << line << " -> " << rejected.stringAt("error");
        }
        EXPECT_EQ(daemon.cluster().nodeCount(), nodes) << line;
        const auto observed = reply(daemon, R"({"cmd":"observe"})");
        ASSERT_TRUE(okOf(observed)) << line;
        EXPECT_EQ(observed.numberAt("t"), t0) << line;
    }
    // No scenario was armed: every node is still Ready well past the
    // heartbeat grace period.
    ASSERT_TRUE(
        okOf(reply(daemon, R"({"cmd":"advance","seconds":600})")));
    const auto observed = reply(daemon, R"({"cmd":"observe"})");
    EXPECT_EQ(observed.numberAt("ready_capacity"),
              observed.numberAt("total_capacity"));
    // start-controller with a bad field started nothing either.
    EXPECT_TRUE(okOf(reply(daemon, R"({"cmd":"start-controller"})")));
}

TEST(ServeDaemon, InstantsAreBoundedFromTheDaemonsClock)
{
    // A week and 10 s in, an explicit instant is still accepted: the
    // script ceiling counts from the daemon's clock, not from zero.
    ServeDaemon daemon;
    ASSERT_TRUE(okOf(reply(daemon, R"({"cmd":"load-testbed"})")));
    for (int day = 0; day < 7; ++day) {
        ASSERT_TRUE(okOf(
            reply(daemon, R"({"cmd":"advance","seconds":86400})")));
    }
    ASSERT_TRUE(okOf(reply(daemon, R"({"cmd":"advance","seconds":10})")));
    const double now = reply(daemon, R"({"cmd":"observe"})").numberAt("t");
    ASSERT_EQ(now, 604810.0);
    const auto inject = [&](double at) {
        return reply(daemon, R"({"cmd":"inject-scenario","steps":[)"
                             R"({"kind":"fail","nodes":[0],"at":)" +
                                 util::jsonNumber(at) + "}]}");
    };
    const util::JsonValue repro = inject(now);
    EXPECT_TRUE(okOf(repro)) << repro.stringAt("error");
    EXPECT_EQ(repro.numberAt("first_failure_at"), now);
    const util::JsonValue last = inject(now + sim::kMaxScriptSeconds);
    EXPECT_TRUE(okOf(last)) << last.stringAt("error");
    const util::JsonValue beyond =
        inject(now + sim::kMaxScriptSeconds + 1.0);
    EXPECT_FALSE(okOf(beyond));
    EXPECT_EQ(beyond.stringAt("error"),
              "step 0: fail needs 'at' in [0, 1209610]");
}

TEST(ServeDaemon, InjectScenarioTakesEveryKindAndCorpusSteps)
{
    // phoenixd and the check corpus share one step codec: every
    // committed corpus entry's steps array is a valid inject-scenario
    // payload as written, and so is one step of each of the 15 kinds.
    ServeDaemon daemon;
    ASSERT_TRUE(okOf(reply(daemon, R"({"cmd":"load-testbed"})")));
    const std::vector<std::string> everyKind = {
        R"({"at":10,"kind":"fail","nodes":[0,1]})",
        R"({"at":10,"kind":"fail-count","count":2})",
        R"({"at":10,"kind":"fail-capacity-fraction","fraction":0.2})",
        R"({"at":10,"kind":"fail-zone","zone":1})",
        R"({"at":10,"kind":"rolling-fail","count":3,"interval":5})",
        R"({"at":10,"kind":"flap","nodes":[2],"downtime":30})",
        R"({"at":20,"kind":"recover","nodes":[0]})",
        R"({"at":30,"kind":"recover-all","stagger":2})",
        R"({"at":10,"kind":"partition","nodes":[3],"downtime":60})",
        R"({"at":10,"kind":"partition-zone","zone":2})",
        R"({"at":40,"kind":"heal","nodes":[3]})",
        R"({"at":10,"kind":"degrade","nodes":[4],"factor":0.5})",
        R"({"at":10,"kind":"degrade-zone","zone":3,"factor":0.25,)"
        R"("downtime":100})",
        R"({"at":10,"kind":"outage","downtime":30})",
        R"({"at":10,"kind":"skew","nodes":[5],"skew":-20})",
    };
    std::set<std::string> kinds;
    for (const std::string &step : everyKind) {
        util::JsonValue parsed;
        ASSERT_TRUE(util::parseJson(step, parsed));
        kinds.insert(parsed.stringAt("kind"));
        const auto accepted = reply(
            daemon, R"({"cmd":"inject-scenario","steps":[)" + step + "]}");
        EXPECT_TRUE(okOf(accepted))
            << step << " -> " << accepted.stringAt("error");
    }
    EXPECT_EQ(kinds.size(), 15u);

    size_t entries = 0;
    for (const auto &entry :
         std::filesystem::directory_iterator(PHOENIX_CORPUS_DIR)) {
        if (entry.path().extension() != ".json")
            continue;
        std::ifstream in(entry.path());
        std::ostringstream text;
        text << in.rdbuf();
        // The steps array exactly as the file spells it.
        const std::string doc = text.str();
        const size_t key = doc.find("\"steps\":");
        ASSERT_NE(key, std::string::npos) << entry.path();
        const size_t open = doc.find('[', key);
        const size_t close = doc.rfind(']');
        ASSERT_LT(open, close) << entry.path();
        const auto accepted = reply(
            daemon, R"({"cmd":"inject-scenario","steps":)" +
                        doc.substr(open, close - open + 1) + "}");
        EXPECT_TRUE(okOf(accepted))
            << entry.path() << " -> " << accepted.stringAt("error");
        ++entries;
    }
    EXPECT_EQ(entries, 13u);
    ASSERT_TRUE(
        okOf(reply(daemon, R"({"cmd":"advance","seconds":600})")));
    EXPECT_TRUE(okOf(reply(daemon, R"({"cmd":"observe"})")));
}

TEST(ServeDaemon, ReplStopsOnShutdown)
{
    ServeDaemon daemon;
    std::istringstream in(
        "{\"cmd\":\"load-testbed\"}\n"
        "{\"cmd\":\"shutdown\"}\n"
        "{\"cmd\":\"observe\"}\n"); // never reached
    std::ostringstream out;
    EXPECT_EQ(daemon.repl(in, out), 0);
    // One reply line per consumed command, none after shutdown.
    size_t lines = 0;
    std::istringstream replies(out.str());
    std::string line;
    while (std::getline(replies, line))
        ++lines;
    EXPECT_EQ(lines, 2u);
}
