/**
 * @file
 * Whole-epoch benchmark harness: one workload per process, timed from
 * the failure through snapshot -> plan -> pack -> execute -> kube
 * convergence, with a correctness gate on every iteration.
 *
 *   epoch_bench --workload zonekill-10k|adapt-100k|churn-5k
 *               --seed N --seconds S --trace 0|1
 *               [--nodes N] [--trace-out PATH]
 *
 * A run covers kEpochs inputs derived from --seed. Each iteration sets
 * the system up (timed as setup_s) and runs the scenario (timed as
 * run_s). After every input ran once, iterations repeat while the next
 * one fits in --seconds; set-up is then repeated alone until enough
 * set-up samples exist. Times are medians per input, averaged over
 * the inputs.
 *
 * --trace 1 runs each input untraced and then traced; the difference
 * is the tracing overhead. Tracing wraps the program's public
 * surface from outside: a ResilienceScheme decorator, a ForecastHook
 * decorator, and this file's own EventQueue::step() loop, which
 * classifies each step by whether the controller replanned in it. The
 * spans are written as Chrome trace-event JSON at exit.
 *
 * The last stdout line is one JSON object: {"correct", "attempted",
 * "failed", "metrics"}; end-to-end metrics with --trace 0, per-layer
 * metrics with --trace 1.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adaptlab/environment.h"
#include "core/controller.h"
#include "core/schemes.h"
#include "forecast/forecaster.h"
#include "kube/kube.h"
#include "obs/registry.h"
#include "sim/event_queue.h"
#include "sim/failure.h"
#include "sim/metrics.h"
#include "sim/scenario.h"
#include "util/log.h"
#include "util/rng.h"

using namespace phoenix;

namespace {

// ---------------------------------------------------------------------
// Clock, statistics, hashing

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMiB()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

/** FNV-1a over 64-bit words. */
class Digest
{
  public:
    void
    add(uint64_t word)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (word >> (8 * i)) & 0xff;
            hash_ *= 1099511628211ull;
        }
    }
    void
    add(double value)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        add(bits);
    }
    void
    add(const sim::PodRef &ref)
    {
        add((static_cast<uint64_t>(ref.app) << 32) | ref.ms);
        add(static_cast<uint64_t>(ref.replica));
    }
    uint64_t value() const { return hash_; }

  private:
    uint64_t hash_ = 1469598103934665603ull;
};

// ---------------------------------------------------------------------
// Spans: kept in memory, written out as Chrome trace-event JSON at exit.

class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
        int iteration = 0;
    };

    void setIteration(int iteration) { iteration_ = iteration; }

    int
    open(const std::string &name)
    {
        const int id = static_cast<int>(spans_.size());
        spans_.push_back(Span{name, nowS(), 0.0,
                              stack_.empty() ? -1 : stack_.back(),
                              iteration_});
        stack_.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        spans_[id].end = nowS();
        stack_.pop_back();
    }

    /** A finished span; adopts every parentless span recorded since
     * @p firstChild (the calls made inside it). */
    void
    addParent(const std::string &name, double start, double end,
              size_t firstChild)
    {
        const int id = static_cast<int>(spans_.size());
        for (size_t i = firstChild; i < spans_.size(); ++i) {
            if (spans_[i].parent < 0)
                spans_[i].parent = id;
        }
        spans_.push_back(Span{name, start, end, -1, iteration_});
    }

    size_t size() const { return spans_.size(); }

    /** Per-class event-step aggregate (count, total, max). */
    void
    aggregate(const std::string &cls, double seconds)
    {
        Agg &agg = aggregates_[cls];
        ++agg.count;
        agg.total += seconds;
        agg.max = std::max(agg.max, seconds);
    }

    bool
    write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out)
            return false;
        const double base = spans_.empty() ? 0.0 : spans_.front().start;
        out << "{\"traceEvents\":[";
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            char buf[512];
            std::snprintf(buf, sizeof buf,
                          "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                          "\"args\":{\"id\":%zu,\"parent\":%d}}",
                          i ? "," : "", s.name.c_str(),
                          s.name.substr(0, s.name.find('.')).c_str(),
                          (s.start - base) * 1e6, (s.end - s.start) * 1e6,
                          s.iteration, i, s.parent);
            out << buf << "\n";
        }
        out << "],\"stepAggregates\":{";
        bool first = true;
        for (const auto &[cls, agg] : aggregates_) {
            char buf[256];
            std::snprintf(buf, sizeof buf,
                          "%s\"%s\":{\"count\":%" PRIu64
                          ",\"total_s\":%.9f,\"max_s\":%.9f}",
                          first ? "" : ",", cls.c_str(), agg.count,
                          agg.total, agg.max);
            out << buf;
            first = false;
        }
        out << "}}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Agg
    {
        uint64_t count = 0;
        double total = 0.0;
        double max = 0.0;
    };
    std::vector<Span> spans_;
    std::vector<int> stack_;
    std::map<std::string, Agg> aggregates_;
    int iteration_ = 0;
};

/** RAII span; a no-op without a log (untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name)
        : log_(log), id_(log ? log->open(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    int id_;
};

// ---------------------------------------------------------------------
// Timing adapters (bench-only decorators over public interfaces)

struct SchemeTally
{
    double applyS = 0.0;
    double planS = 0.0;
    double packS = 0.0;
    double reconcileS = 0.0;
    core::OpCounters ops;
    uint64_t actions = 0;
};

/** Times every apply() of the wrapped scheme into a tally. */
class TimedScheme final : public core::ResilienceScheme
{
  public:
    TimedScheme(std::unique_ptr<core::ResilienceScheme> inner,
                SchemeTally &tally, SpanLog *spans, const char *spanName)
        : inner_(std::move(inner)), tally_(tally), spans_(spans),
          spanName_(spanName)
    {
    }

    std::string name() const override { return inner_->name(); }

    core::SchemeResult
    apply(const std::vector<sim::Application> &apps,
          const sim::ClusterState &current) override
    {
        ScopedSpan span(spans_, spanName_);
        const double t0 = nowS();
        core::SchemeResult result = inner_->apply(apps, current);
        tally_.applyS += nowS() - t0;
        tally_.planS += result.planSeconds;
        tally_.packS += result.packSeconds;
        tally_.reconcileS += result.pack.reconcileSeconds;
        tally_.ops += result.planOps;
        tally_.ops += result.pack.ops;
        tally_.actions += result.pack.actions.size();
        return result;
    }

    void
    noteDirtyNodes(const std::vector<sim::NodeId> &nodes) override
    {
        inner_->noteDirtyNodes(nodes);
    }

  private:
    std::unique_ptr<core::ResilienceScheme> inner_;
    SchemeTally &tally_;
    SpanLog *spans_;
    const char *spanName_;
};

struct ForecastTally
{
    double tickS = 0.0;
    double matchS = 0.0;
};

/** Times the Forecaster's per-poll work (tick, warm match). */
class TimedForecast final : public core::ForecastHook
{
  public:
    TimedForecast(forecast::Forecaster &inner, ForecastTally &tally,
                  SpanLog *spans)
        : inner_(inner), tally_(tally), spans_(spans)
    {
    }

    void
    tick() override
    {
        ScopedSpan span(spans_, "forecast.tick");
        const double t0 = nowS();
        inner_.tick();
        tally_.tickS += nowS() - t0;
    }

    bool takeForceReplan() override { return inner_.takeForceReplan(); }

    const core::SchemeResult *
    matchWarm(const std::vector<sim::Application> &apps,
              const sim::ClusterState &observed) override
    {
        ScopedSpan span(spans_, "forecast.match");
        const double t0 = nowS();
        const core::SchemeResult *warm = inner_.matchWarm(apps, observed);
        tally_.matchS += nowS() - t0;
        return warm;
    }

    const core::SchemeResult *
    takeProactive() override
    {
        return inner_.takeProactive();
    }

  private:
    forecast::Forecaster &inner_;
    ForecastTally &tally_;
    SpanLog *spans_;
};

// ---------------------------------------------------------------------
// Workloads

/** Alibaba-style environment with the fig8b >= 1k-node settings. */
adaptlab::EnvironmentConfig
environmentConfig(size_t nodes, uint64_t seed)
{
    adaptlab::EnvironmentConfig config;
    config.nodeCount = nodes;
    config.seed = seed;
    config.demandFraction = 0.8;
    config.nodeCapacity = 16.0;
    config.alibaba.appCount = 18;
    config.alibaba.sizeScale =
        std::max(0.05, std::min(1.0, static_cast<double>(nodes) / 1e5));
    config.resources.model = workloads::ResourceModel::CallsPerMinute;
    config.resources.minCpu = 0.5;
    config.resources.maxCpu = 8.0;
    config.tagging.scheme = workloads::TaggingScheme::ServiceLevel;
    config.tagging.percentile = 0.9;
    return config;
}

// Independent per-layer seed streams derived from --seed.
constexpr uint64_t kKubeStream = 1;
constexpr uint64_t kScenarioStream = 2;
constexpr uint64_t kFailureStream = 3;

constexpr size_t kZones = 10;
/** A step at least this long gets its own span in the trace. */
constexpr double kLongStepSeconds = 0.05;

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    size_t nodes = 0; // 0 = the workload's own scale
    std::string traceOut;
};

/** Per-iteration layer split (traced iterations fill all of it). */
struct Layers
{
    double envS = 0.0;
    double kubeSetupS = 0.0;
    double kubeLoopS = 0.0;
    double stepMaxS = 0.0;
    uint64_t events = 0;
    uint64_t evictedPods = 0;
    uint64_t migrationsRejected = 0;
    double snapshotS = 0.0;
    double runningPodsS = 0.0;
    uint64_t invariantViolations = 0;
    uint64_t replans = 0;
    uint64_t deletes = 0;
    uint64_t migrations = 0;
    uint64_t restarts = 0;
    double replanStepS = 0.0;
    double overheadS = 0.0;
    SchemeTally scheme;
    double stateCopyS = 0.0;
    double failS = 0.0;
    ForecastTally forecast;
    SchemeTally stage;
    uint64_t prestaged = 0;
    uint64_t warmApplies = 0;
    uint64_t stalePlans = 0;
};

struct Iteration
{
    bool traced = false;
    double setupS = 0.0;
    double runS = 0.0;
    /** Host time of the steps in which the controller decided. */
    double decideTotalS = 0.0;
    uint64_t decisions = 0;
    double critAvail = 0.0;
    double revenueFrac = 0.0;
    double recoverSimS = 0.0;
    double unconvergedFrac = 0.0;
    uint64_t plannedPods = 0;
    uint64_t unconvergedPods = 0;
    uint64_t digest = 0;
    std::string failure; // empty = every check passed
    Layers layers;
};

/** Timed-scenario description of a kube workload. */
struct KubeSpec
{
    size_t nodes = 0;
    bool forecast = false;
    double horizon = 0.0;
    std::function<void(sim::Scenario &)> script;
};

KubeSpec
zonekillSpec(size_t nodes)
{
    KubeSpec spec;
    spec.nodes = nodes ? nodes : 10000;
    spec.horizon = 900.0;
    // Initial placement converges well before t=300; the kill takes
    // zones 0-2 (30% of capacity) below demand, so Phoenix degrades.
    spec.script = [](sim::Scenario &s) {
        for (size_t zone = 0; zone < 3; ++zone)
            s.failZone(300.0, zone);
    };
    return spec;
}

KubeSpec
churnSpec(size_t nodes)
{
    KubeSpec spec;
    spec.nodes = nodes ? nodes : 5000;
    spec.forecast = true;
    spec.horizon = 1200.0;
    spec.script = [](sim::Scenario &s) {
        s.degradeZone(240.0, 1, 0.6);
        s.degradeZone(420.0, 1, 0.25);
        s.failZone(600.0, 1);
        s.rollingFail(300.0, 20, 30.0);
        s.recoverAll(900.0, 10.0);
    };
    return spec;
}

std::unique_ptr<core::ResilienceScheme>
phoenixCost()
{
    return std::make_unique<core::PhoenixScheme>(core::Objective::Cost);
}

/** Everything a kube workload builds during set-up. Heap-allocated and
 * never moved: the controller and cluster hold references into it. */
struct KubeSystem
{
    adaptlab::Environment env;
    sim::EventQueue events;
    std::unique_ptr<kube::KubeCluster> cluster;
    SchemeTally applyTally;
    SchemeTally stageTally;
    ForecastTally forecastTally;
    std::unique_ptr<core::PhoenixController> controller;
    std::unique_ptr<forecast::Forecaster> forecaster;
    std::unique_ptr<TimedForecast> timedForecast;
    std::unique_ptr<sim::ScenarioRunner> runner;
};

std::unique_ptr<KubeSystem>
setupKube(const KubeSpec &spec, const Options &opt, SpanLog *spans,
          Layers &layers)
{
    auto sys = std::make_unique<KubeSystem>();
    {
        ScopedSpan span(spans, "adaptlab.env");
        const double t0 = nowS();
        sys->env = adaptlab::buildEnvironment(
            environmentConfig(spec.nodes, opt.seed));
        layers.envS = nowS() - t0;
    }
    {
        ScopedSpan span(spans, "kube.setup");
        const double t0 = nowS();
        kube::KubeConfig config;
        config.seed = util::cellSeed(opt.seed, kKubeStream);
        sys->cluster =
            std::make_unique<kube::KubeCluster>(sys->events, config);
        for (size_t n = 0; n < spec.nodes; ++n) {
            sys->cluster->addNode(sys->env.config.nodeCapacity,
                                  static_cast<uint32_t>(n % kZones));
        }
        for (const auto &app : sys->env.apps)
            sys->cluster->addApplication(app);
        layers.kubeSetupS = nowS() - t0;
    }
    ScopedSpan span(spans, "controller.setup");
    std::unique_ptr<core::ResilienceScheme> scheme = phoenixCost();
    if (spans) {
        scheme = std::make_unique<TimedScheme>(
            std::move(scheme), sys->applyTally, spans, "scheme.apply");
    }
    sys->controller = std::make_unique<core::PhoenixController>(
        sys->events, *sys->cluster, std::move(scheme));
    if (spec.forecast) {
        forecast::SchemeFactory factory = phoenixCost;
        if (spans) {
            KubeSystem *raw = sys.get();
            factory = [raw, spans]() {
                return std::unique_ptr<core::ResilienceScheme>(
                    std::make_unique<TimedScheme>(
                        phoenixCost(), raw->stageTally, spans,
                        "forecast.stage_apply"));
            };
        }
        forecast::ForecastConfig config;
        config.fallbackZoneCount = kZones;
        sys->forecaster = std::make_unique<forecast::Forecaster>(
            *sys->cluster, std::move(factory), config);
        core::ForecastHook *hook = sys->forecaster.get();
        if (spans) {
            sys->timedForecast = std::make_unique<TimedForecast>(
                *sys->forecaster, sys->forecastTally, spans);
            hook = sys->timedForecast.get();
        }
        sys->controller->attachForecast(hook);
    }
    sim::Scenario scenario;
    spec.script(scenario);
    sim::ScenarioOptions scenario_options;
    scenario_options.seed = util::cellSeed(opt.seed, kScenarioStream);
    scenario_options.zoneCount = kZones;
    sys->runner = std::make_unique<sim::ScenarioRunner>(
        sys->events, *sys->cluster, std::move(scenario), scenario_options);
    return sys;
}

/** Capacity-feasible, planned pods on healthy nodes, no violations. */
std::string
checkKube(const KubeSystem &sys)
{
    const kube::KubeCluster &cluster = *sys.cluster;
    if (cluster.invariantViolations() != 0)
        return "kube invariant violations";
    std::vector<double> used(cluster.nodeCount(), 0.0);
    for (const auto &app : cluster.apps()) {
        for (const auto &ms : app.services) {
            for (int r = 0; r < std::max(ms.replicas, 1); ++r) {
                const kube::Pod *pod = cluster.pod(
                    {app.id, ms.id, static_cast<uint32_t>(r)});
                if (pod && pod->phase != kube::PodPhase::Pending)
                    used[pod->node] += pod->cpu;
            }
        }
    }
    for (size_t n = 0; n < used.size(); ++n) {
        const double cap = cluster.nodeCapacity(static_cast<sim::NodeId>(n));
        if (used[n] > cap * (1.0 + 1e-9) + 1e-9)
            return "node " + std::to_string(n) + " over capacity";
    }
    for (const sim::PodRef &ref : sys.controller->currentTarget()) {
        const kube::Pod *pod = cluster.pod(ref);
        if (!pod)
            return "planned pod unknown to kube";
        if ((pod->phase == kube::PodPhase::Starting ||
             pod->phase == kube::PodPhase::Running) &&
            !cluster.isReady(pod->node))
            return "planned pod on a NotReady node";
    }
    return {};
}

Iteration
runKube(const KubeSpec &spec, const Options &opt, SpanLog *spans)
{
    Iteration it;
    it.traced = spans != nullptr;
    Layers &L = it.layers;

    const double s0 = nowS();
    std::unique_ptr<KubeSystem> sys = setupKube(spec, opt, spans, L);
    it.setupS = nowS() - s0;

    sim::EventQueue &events = sys->events;
    kube::KubeCluster &cluster = *sys->cluster;
    const core::PhoenixController &controller = *sys->controller;
    size_t seen = 0;
    // kube counts rejected migrations only in its obs registry, which
    // records while metrics are enabled: traced iterations only.
    obs::setMetricsEnabled(spans != nullptr);
    const obs::Counter &rejected =
        obs::Registry::global().counter("kube.migrations.rejected");
    const uint64_t rejectedBefore = rejected.value();

    const double r0 = nowS();
    double last = r0;
    while (!events.empty() && events.nextEventAt() <= spec.horizon) {
        const double applyBefore = sys->applyTally.applyS;
        const double forecastBefore =
            sys->forecastTally.tickS + sys->forecastTally.matchS;
        const size_t firstChild = spans ? spans->size() : 0;
        events.step();
        double t = nowS();
        const double dt = t - last;
        ++L.events;
        const size_t replans = controller.history().size();
        if (replans != seen) {
            seen = replans;
            ++it.decisions;
            it.decideTotalS += dt;
            if (spans) {
                const double forecastIn = sys->forecastTally.tickS +
                                          sys->forecastTally.matchS -
                                          forecastBefore;
                L.replanStepS += dt;
                L.overheadS += dt - (sys->applyTally.applyS - applyBefore) -
                               forecastIn;
                spans->aggregate("controller.replan_step", dt);
                spans->addParent("controller.replan_step", last, t,
                                 firstChild);
                // Probes: one extra snapshot and running-set build.
                const double p0 = nowS();
                {
                    ScopedSpan span(spans, "kube.snapshot_probe");
                    const sim::ClusterState probe = cluster.observedState();
                    (void)probe;
                }
                const double p1 = nowS();
                L.snapshotS += p1 - p0;
                {
                    ScopedSpan span(spans, "kube.running_pods_probe");
                    const auto probe = cluster.runningPods();
                    (void)probe;
                }
                t = nowS();
                L.runningPodsS += t - p1;
            }
        } else {
            L.stepMaxS = std::max(L.stepMaxS, dt);
            if (spans) {
                const double forecastIn = sys->forecastTally.tickS +
                                          sys->forecastTally.matchS -
                                          forecastBefore;
                L.kubeLoopS += dt - forecastIn;
                spans->aggregate("kube.step", dt);
                if (spans->size() != firstChild)
                    spans->addParent("controller.poll", last, t,
                                     firstChild);
                else if (dt >= kLongStepSeconds)
                    spans->addParent("kube.step", last, t, firstChild);
            }
        }
        last = t;
    }
    it.runS = nowS() - r0;
    L.migrationsRejected = rejected.value() - rejectedBefore;
    obs::setMetricsEnabled(false);

    // Outcome (untimed): serving set = Running pods.
    const auto running = cluster.runningPods();
    const std::vector<sim::PodRef> &target = controller.currentTarget();
    for (const sim::PodRef &ref : target)
        it.unconvergedPods += running.count(ref) ? 0 : 1;
    it.plannedPods = target.size();
    it.unconvergedFrac =
        target.empty() ? 1.0
                       : static_cast<double>(it.unconvergedPods) /
                             static_cast<double>(target.size());
    sim::ClusterState serving = cluster.liveState();
    std::vector<sim::PodRef> starting;
    for (const auto &[ref, node] : serving.assignment()) {
        (void)node;
        if (!running.count(ref))
            starting.push_back(ref);
    }
    for (const sim::PodRef &ref : starting)
        serving.evict(ref);
    const sim::ActiveSet active =
        sim::activeSetFromCluster(cluster.apps(), serving);
    it.critAvail = sim::criticalFractionAvailability(cluster.apps(), active);
    it.revenueFrac = sim::revenueNormalized(cluster.apps(), active);

    const auto &history = controller.history();
    const double firstFailure = sys->runner->firstFailureAt();
    double recovered = spec.horizon;
    if (!history.empty() && history.back().recoveredAt >= 0.0)
        recovered = std::min(history.back().recoveredAt, spec.horizon);
    it.recoverSimS = std::max(0.0, recovered - firstFailure);

    L.evictedPods = cluster.evictedPodCount();
    L.invariantViolations = cluster.invariantViolations();
    L.replans = history.size();
    for (const auto &rec : history) {
        L.deletes += rec.deletes;
        L.migrations += rec.migrations;
        L.restarts += rec.restarts;
    }
    L.scheme = sys->applyTally;
    L.stage = sys->stageTally;
    L.forecast = sys->forecastTally;
    if (sys->forecaster) {
        const auto &c = sys->forecaster->counters();
        L.prestaged = c.prestagedPlans;
        L.warmApplies = c.warmApplies;
        L.stalePlans = c.stalePlans;
    }

    it.failure = checkKube(*sys);

    Digest digest;
    for (const sim::PodRef &ref : target)
        digest.add(ref);
    for (const auto &[ref, node] : serving.assignment()) {
        digest.add(ref);
        digest.add(static_cast<uint64_t>(node));
    }
    for (const auto &rec : history) {
        digest.add(rec.detectedAt);
        digest.add(rec.recoveredAt);
        digest.add(static_cast<uint64_t>(rec.deletes));
        digest.add(static_cast<uint64_t>(rec.migrations));
        digest.add(static_cast<uint64_t>(rec.restarts));
    }
    digest.add(L.events);
    digest.add(L.evictedPods);
    digest.add(it.critAvail);
    digest.add(it.revenueFrac);
    digest.add(it.recoverSimS);
    digest.add(it.unconvergedFrac);
    it.digest = digest.value();
    return it;
}

/** A packed state is capacity-feasible with pods on healthy nodes
 * only, and fails exactly the nodes of the failed input state. */
std::string
checkPacked(const sim::ClusterState &input, const sim::ClusterState &packed,
            const char *scheme)
{
    const std::string who = std::string(scheme) + ": ";
    if (packed.nodeCount() != input.nodeCount())
        return who + "node count changed";
    std::vector<double> used(packed.nodeCount(), 0.0);
    for (const auto &[ref, node] : packed.assignment()) {
        if (!packed.isHealthy(node) || !input.isHealthy(node))
            return who + "pod on a failed node";
        used[node] += packed.podCpu(ref);
    }
    for (sim::NodeId n = 0; n < packed.nodeCount(); ++n) {
        if (packed.isHealthy(n) != input.isHealthy(n))
            return who + "node health changed";
        const double cap = packed.node(n).capacity;
        if (used[n] > cap * (1.0 + 1e-9) + 1e-9)
            return who + "node " + std::to_string(n) + " over capacity";
    }
    return {};
}

/** Everything adapt-100k builds during set-up. */
struct AdaptSystem
{
    adaptlab::Environment env;
    std::unique_ptr<core::ResilienceScheme> cost;
    std::unique_ptr<core::ResilienceScheme> fair;
};

std::unique_ptr<AdaptSystem>
setupAdapt(size_t nodes, const Options &opt, SpanLog *spans, Layers &layers)
{
    auto sys = std::make_unique<AdaptSystem>();
    {
        ScopedSpan span(spans, "adaptlab.env");
        const double t0 = nowS();
        sys->env =
            adaptlab::buildEnvironment(environmentConfig(nodes, opt.seed));
        layers.envS = nowS() - t0;
    }
    sys->cost = std::make_unique<core::PhoenixScheme>(core::Objective::Cost);
    sys->fair = std::make_unique<core::PhoenixScheme>(core::Objective::Fair);
    if (spans) {
        sys->cost = std::make_unique<TimedScheme>(
            std::move(sys->cost), layers.scheme, spans, "scheme.apply");
        sys->fair = std::make_unique<TimedScheme>(
            std::move(sys->fair), layers.scheme, spans, "scheme.apply");
    }
    return sys;
}

Iteration
runAdapt(size_t nodes, const Options &opt, SpanLog *spans)
{
    Iteration it;
    it.traced = spans != nullptr;
    Layers &L = it.layers;

    const double s0 = nowS();
    std::unique_ptr<AdaptSystem> sys = setupAdapt(nodes, opt, spans, L);
    it.setupS = nowS() - s0;
    const std::vector<sim::Application> &apps = sys->env.apps;

    // Copy the healthy state, fail half its capacity, apply each
    // objective once, cold.
    const double r0 = nowS();
    sim::ClusterState state;
    {
        ScopedSpan span(spans, "sim.state_copy");
        state = sys->env.cluster;
    }
    const double r1 = nowS();
    {
        ScopedSpan span(spans, "sim.fail");
        sim::FailureInjector injector(
            util::Rng(util::cellSeed(opt.seed, kFailureStream)));
        injector.failCapacityFraction(state, 0.5);
    }
    const double r2 = nowS();
    const core::SchemeResult costResult = sys->cost->apply(apps, state);
    const core::SchemeResult fairResult = sys->fair->apply(apps, state);
    const double r3 = nowS();
    it.runS = r3 - r0;
    it.decisions = 2;
    it.decideTotalS = r3 - r2;
    if (spans) {
        L.stateCopyS = r1 - r0;
        L.failS = r2 - r1;
    }

    // Outcome (untimed): serving set = PhoenixCost's packed state.
    const sim::ActiveSet active =
        sim::activeSetFromCluster(apps, costResult.pack.state);
    it.critAvail = sim::criticalFractionAvailability(apps, active);
    it.revenueFrac = sim::revenueNormalized(apps, active);

    it.failure = checkPacked(state, costResult.pack.state, "PhoenixCost");
    if (it.failure.empty())
        it.failure = checkPacked(state, fairResult.pack.state, "PhoenixFair");
    if (it.failure.empty() && (costResult.failed || fairResult.failed))
        it.failure = "scheme reported failure";

    Digest digest;
    for (const core::SchemeResult *r : {&costResult, &fairResult}) {
        for (const auto &[ref, node] : r->pack.state.assignment()) {
            digest.add(ref);
            digest.add(static_cast<uint64_t>(node));
        }
        digest.add(static_cast<uint64_t>(r->pack.actions.size()));
    }
    digest.add(it.critAvail);
    digest.add(it.revenueFrac);
    it.digest = digest.value();
    return it;
}

// ---------------------------------------------------------------------
// Command line and reporting

struct Workload
{
    const char *name;
    /** One epoch: set-up, timed scenario, checks. */
    std::function<Iteration(const Options &, SpanLog *)> run;
    /** Set-up alone (built and torn down); returns its seconds. */
    std::function<double(const Options &)> setup;
};

template <typename Setup>
double
timeSetup(Setup build)
{
    Layers scratch;
    const double t0 = nowS();
    const auto sys = build(scratch);
    return nowS() - t0; // read before the teardown
}

std::vector<Workload>
workloadTable()
{
    auto kube = [](const char *name, KubeSpec (*spec)(size_t)) {
        return Workload{
            name,
            [spec](const Options &o, SpanLog *s) {
                return runKube(spec(o.nodes), o, s);
            },
            [spec](const Options &o) {
                return timeSetup([&](Layers &l) {
                    return setupKube(spec(o.nodes), o, nullptr, l);
                });
            }};
    };
    auto adaptNodes = [](const Options &o) {
        return o.nodes ? o.nodes : size_t{100000};
    };
    return {
        kube("zonekill-10k", zonekillSpec),
        Workload{"adapt-100k",
                 [adaptNodes](const Options &o, SpanLog *s) {
                     return runAdapt(adaptNodes(o), o, s);
                 },
                 [adaptNodes](const Options &o) {
                     return timeSetup([&](Layers &l) {
                         return setupAdapt(adaptNodes(o), o, nullptr, l);
                     });
                 }},
        kube("churn-5k", churnSpec),
    };
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

std::string
formatNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.12g", value);
    return buf;
}

void
usage()
{
    std::cerr << "usage: epoch_bench --workload NAME --seed N --seconds S"
                 " --trace 0|1 [--nodes N] [--trace-out PATH]\n"
                 "workloads: zonekill-10k adapt-100k churn-5k\n";
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            opt.workload = value;
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return false;
            opt.trace = value == "1";
        } else if (flag == "--nodes") {
            opt.nodes = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--trace-out") {
            opt.traceOut = value;
        } else {
            return false;
        }
        if (end && *end != '\0')
            return false;
    }
    return !opt.workload.empty() && opt.seconds > 0.0;
}

/**
 * A run measures kEpochs epochs, each on its own input derived from
 * --seed: different seeds change the generated applications, and a
 * single epoch's cost moves with them by about 10%. Averaging a fixed
 * set of epochs keeps the run's figure steadier across seeds.
 */
constexpr size_t kEpochs = 2;
constexpr uint64_t kEpochStream = 4;
/** Set-up-only samples: at least kMinSetupSamples in all, and more
 * (up to kMaxSetupSamples) while they cost under kSetupSampleSeconds. */
constexpr size_t kMinSetupSamples = 5;
constexpr size_t kMaxSetupSamples = 15;
constexpr double kSetupSampleSeconds = 1.0;

/** The iterations one epoch input received. */
struct Epoch
{
    Options options;
    std::vector<Iteration> untraced;
    std::vector<Iteration> traced;
};

/** Median over the iterations that passed their checks (a failed
 * iteration is counted, not timed); over all when none passed. */
template <typename Field>
double
medianOver(const std::vector<Iteration> &its, Field field)
{
    std::vector<double> passed;
    std::vector<double> all;
    for (const Iteration &it : its) {
        all.push_back(field(it));
        if (it.failure.empty())
            passed.push_back(field(it));
    }
    return median(passed.empty() ? all : passed);
}

/** Mean over epochs of a per-epoch figure. */
template <typename Field>
double
meanOverEpochs(const std::vector<Epoch> &epochs, Field field)
{
    double sum = 0.0;
    for (const Epoch &e : epochs)
        sum += field(e);
    return epochs.empty() ? 0.0 : sum / static_cast<double>(epochs.size());
}

void
printIteration(size_t epoch, const Iteration &it)
{
    std::printf("epoch %zu traced=%d setup_s=%.6f run_s=%.6f "
                "decide_total_s=%.6f decisions=%" PRIu64
                " digest=%016" PRIx64 "%s%s\n",
                epoch, it.traced ? 1 : 0, it.setupS, it.runS,
                it.decideTotalS, it.decisions, it.digest,
                it.failure.empty() ? "" : " FAILED: ", it.failure.c_str());
    std::fflush(stdout);
}

std::vector<Metric>
endToEndMetrics(const std::vector<Epoch> &epochs,
                const std::vector<double> &setups)
{
    auto med = [](const Epoch &e, auto field) {
        return medianOver(e.untraced, field);
    };
    double decideTotal = 0.0;
    double decisions = 0.0;
    for (const Epoch &e : epochs) {
        decideTotal +=
            med(e, [](const Iteration &i) { return i.decideTotalS; });
        decisions += static_cast<double>(e.untraced.front().decisions);
    }
    return {
        {"setup_s", median(setups), "s"},
        {"run_s", meanOverEpochs(epochs, [&](const Epoch &e) {
             return med(e, [](const Iteration &i) { return i.runS; });
         }),
         "s"},
        {"decide_s", decisions > 0.0 ? decideTotal / decisions : 0.0, "s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
        {"crit_avail", meanOverEpochs(epochs, [](const Epoch &e) {
             return e.untraced.front().critAvail;
         }),
         "fraction"},
        {"revenue_frac", meanOverEpochs(epochs, [](const Epoch &e) {
             return e.untraced.front().revenueFrac;
         }),
         "fraction"},
    };
}

std::vector<Metric>
perLayerMetrics(const std::vector<Epoch> &epochs)
{
    // Per-epoch means over the run's traced epochs (one per input).
    auto mean = [&](auto field) {
        return meanOverEpochs(epochs, [&](const Epoch &e) {
            return static_cast<double>(field(e.traced.front()));
        });
    };
    auto layer = [&](auto field) {
        return mean([&](const Iteration &i) { return field(i.layers); });
    };
    double prestaged = 0.0;
    double warm = 0.0;
    for (const Epoch &e : epochs) {
        prestaged += static_cast<double>(e.traced.front().layers.prestaged);
        warm += static_cast<double>(e.traced.front().layers.warmApplies);
    }
    const double tracedRun = mean([](const Iteration &i) { return i.runS; });
    const double untracedRun = meanOverEpochs(
        epochs, [](const Epoch &e) { return e.untraced.front().runS; });
    // The disjoint layer times; together they should cover run_s.
    const double layerSum = layer([](const Layers &l) {
        return l.kubeLoopS + l.forecast.tickS + l.forecast.matchS +
               l.scheme.applyS + l.overheadS + l.snapshotS +
               l.runningPodsS + l.stateCopyS + l.failS;
    });
    return {
        {"adaptlab.env_s", layer([](const Layers &l) { return l.envS; }),
         "s"},
        {"kube.setup_s", layer([](const Layers &l) { return l.kubeSetupS; }),
         "s"},
        {"kube.loop_s", layer([](const Layers &l) { return l.kubeLoopS; }),
         "s"},
        {"kube.step_max_s", layer([](const Layers &l) { return l.stepMaxS; }),
         "s"},
        {"kube.events", layer([](const Layers &l) { return l.events; }),
         "count"},
        {"kube.evicted_pods",
         layer([](const Layers &l) { return l.evictedPods; }), "count"},
        {"kube.migrations_rejected",
         layer([](const Layers &l) { return l.migrationsRejected; }),
         "count"},
        {"kube.snapshot_s", layer([](const Layers &l) { return l.snapshotS; }),
         "s"},
        {"kube.running_pods_s",
         layer([](const Layers &l) { return l.runningPodsS; }), "s"},
        {"kube.invariant_violations",
         layer([](const Layers &l) { return l.invariantViolations; }),
         "count"},
        {"controller.replans", layer([](const Layers &l) { return l.replans; }),
         "count"},
        {"controller.deletes", layer([](const Layers &l) { return l.deletes; }),
         "count"},
        {"controller.migrations",
         layer([](const Layers &l) { return l.migrations; }), "count"},
        {"controller.restarts",
         layer([](const Layers &l) { return l.restarts; }), "count"},
        {"controller.replan_step_s",
         layer([](const Layers &l) { return l.replanStepS; }), "s"},
        {"controller.overhead_s",
         layer([](const Layers &l) { return l.overheadS; }), "s"},
        {"scheme.apply_s",
         layer([](const Layers &l) { return l.scheme.applyS; }), "s"},
        {"scheme.plan_s", layer([](const Layers &l) { return l.scheme.planS; }),
         "s"},
        {"scheme.pack_s", layer([](const Layers &l) { return l.scheme.packS; }),
         "s"},
        {"scheme.reconcile_s",
         layer([](const Layers &l) { return l.scheme.reconcileS; }), "s"},
        {"scheme.ops.heap_pushes",
         layer([](const Layers &l) { return l.scheme.ops.heapPushes; }),
         "count"},
        {"scheme.ops.best_fit_probes",
         layer([](const Layers &l) { return l.scheme.ops.bestFitProbes; }),
         "count"},
        {"scheme.ops.kv_ops",
         layer([](const Layers &l) { return l.scheme.ops.kvOps; }), "count"},
        {"scheme.actions",
         layer([](const Layers &l) { return l.scheme.actions; }), "count"},
        {"sim.state_copy_s",
         layer([](const Layers &l) { return l.stateCopyS; }), "s"},
        {"sim.fail_s", layer([](const Layers &l) { return l.failS; }), "s"},
        {"forecast.tick_s",
         layer([](const Layers &l) { return l.forecast.tickS; }), "s"},
        {"forecast.match_s",
         layer([](const Layers &l) { return l.forecast.matchS; }), "s"},
        {"forecast.stage_apply_s",
         layer([](const Layers &l) { return l.stage.applyS; }), "s"},
        {"forecast.prestaged",
         layer([](const Layers &l) { return l.prestaged; }), "count"},
        {"forecast.warm_applies",
         layer([](const Layers &l) { return l.warmApplies; }), "count"},
        {"forecast.stale_plans",
         layer([](const Layers &l) { return l.stalePlans; }), "count"},
        {"forecast.warm_hit_ratio", prestaged > 0.0 ? warm / prestaged : 0.0,
         "fraction"},
        {"outcome.decisions", mean([](const Iteration &i) {
             return i.decisions;
         }),
         "count"},
        {"outcome.recover_sim_s", mean([](const Iteration &i) {
             return i.recoverSimS;
         }),
         "sim_s"},
        {"outcome.unconverged_frac", mean([](const Iteration &i) {
             return i.unconvergedFrac;
         }),
         "fraction"},
        {"trace.run_s", tracedRun, "s"},
        {"trace.overhead_s", tracedRun - untracedRun, "s"},
        {"trace.layer_sum_frac", tracedRun > 0.0 ? layerSum / tracedRun : 0.0,
         "fraction"},
    };
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    const std::vector<Workload> all = workloadTable();
    const Workload *workload = nullptr;
    for (const Workload &w : all) {
        if (opt.workload == w.name)
            workload = &w;
    }
    if (!workload) {
        usage();
        return 2;
    }
    // ~150 "migrate ... rejected" warnings on zonekill-10k would
    // otherwise land inside the timed loop.
    util::setLogLevel(util::LogLevel::Error);

    std::vector<Epoch> epochs(kEpochs);
    for (size_t k = 0; k < kEpochs; ++k) {
        epochs[k].options = opt;
        epochs[k].options.seed = util::cellSeed(opt.seed, kEpochStream, k);
    }
    SpanLog spans;
    std::vector<double> setups;
    size_t runs = 0;
    const double start = nowS();
    if (!opt.trace) {
        // Every input once, then repeats while the budget allows.
        double last = 0.0;
        for (size_t i = 0;
             i < kEpochs || nowS() - start + last <= opt.seconds; ++i) {
            Epoch &e = epochs[i % kEpochs];
            const double t0 = nowS();
            e.untraced.push_back(workload->run(e.options, nullptr));
            last = nowS() - t0;
            setups.push_back(e.untraced.back().setupS);
            printIteration(i % kEpochs, e.untraced.back());
            ++runs;
        }
        // Set-up alone until the set-up median has enough samples.
        const double setupStart = nowS();
        for (size_t i = setups.size();
             i < kMinSetupSamples ||
             (i < kMaxSetupSamples &&
              nowS() - setupStart < kSetupSampleSeconds);
             ++i)
            setups.push_back(workload->setup(epochs[i % kEpochs].options));
        std::printf("setup samples:");
        for (double s : setups)
            std::printf(" %.6f", s);
        std::printf("\n");
    } else {
        // Every input untraced, then traced right after: adjacent pairs
        // give the tracing overhead.
        for (size_t k = 0; k < kEpochs; ++k) {
            Epoch &e = epochs[k];
            e.untraced.push_back(workload->run(e.options, nullptr));
            printIteration(k, e.untraced.back());
            spans.setIteration(static_cast<int>(k));
            e.traced.push_back(workload->run(e.options, &spans));
            printIteration(k, e.traced.back());
            runs += 2;
        }
    }

    // Correctness: every iteration passed its checks, and the
    // iterations of one input agree on its outcome digest.
    uint64_t failed = 0;
    bool sameDigest = true;
    Digest combined;
    for (const Epoch &e : epochs) {
        const Iteration &ref =
            e.untraced.empty() ? e.traced.front() : e.untraced.front();
        for (const auto *its : {&e.untraced, &e.traced}) {
            for (const Iteration &it : *its) {
                failed += it.failure.empty() ? 0 : 1;
                sameDigest = sameDigest && it.digest == ref.digest;
            }
        }
        combined.add(ref.digest);
        std::printf("outcome seed=%" PRIu64 " decisions=%" PRIu64
                    " crit_avail=%.9f revenue_frac=%.9f"
                    " recover_sim_s=%.3f unconverged_frac=%.9f"
                    " (%" PRIu64 " of %" PRIu64 " planned pods)\n",
                    e.options.seed, ref.decisions, ref.critAvail,
                    ref.revenueFrac, ref.recoverSimS, ref.unconvergedFrac,
                    ref.unconvergedPods, ref.plannedPods);
    }
    if (!sameDigest)
        std::printf("digest mismatch between iterations of one input\n");
    std::printf("digest %s seed=%" PRIu64 " %016" PRIx64 "\n",
                opt.workload.c_str(), opt.seed, combined.value());

    const std::vector<Metric> metrics =
        opt.trace ? perLayerMetrics(epochs) : endToEndMetrics(epochs, setups);
    if (opt.trace && !opt.traceOut.empty() && !spans.write(opt.traceOut))
        std::fprintf(stderr, "cannot write trace %s\n", opt.traceOut.c_str());

    std::ostringstream out;
    out << "{\"correct\": " << (failed == 0 && sameDigest ? "true" : "false")
        << ", \"attempted\": " << runs << ", \"failed\": " << failed
        << ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << formatNumber(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    out << "}}";
    std::printf("%s\n", out.str().c_str());
    return 0;
}
