/**
 * @file
 * Figure 6: end-to-end recovery time-series on the mini-Kubernetes
 * substrate. The run mirrors the paper's: five application instances
 * on a 25-node / 200-CPU cluster; at t1=600 s kubelet is stopped on 14
 * nodes (capacity drops to ~42-44%); at t5=1500 s the kubelets
 * restart. PhoenixCost and Kubernetes Default are each run once;
 * --jobs 2 runs the two simulations concurrently.
 *
 * Output:
 *  (a/b) critical-service availability over time for both schemes,
 *        with the t1..t5 event markers;
 *  (c/d) Overleaf0 per-request-type RPS and utility over time;
 *  (e/f) HR1 per-request-type RPS and utility over time.
 */

#include <iostream>
#include <map>
#include <set>

#include "bench/bench_common.h"
#include "exp/testbed.h"
#include "sim/metrics.h"
#include "util/table.h"

using namespace phoenix;
using namespace phoenix::core;
using sim::PodRef;

namespace {

constexpr double kFailAt = 600.0;
constexpr double kRecoverAt = 1500.0;
constexpr double kEnd = 2000.0;
constexpr double kSample = 30.0;
constexpr size_t kFailedNodes = 14;

struct RunResult
{
    /** time -> critical availability (fraction of apps OK). */
    std::map<double, double> availability;
    /** time -> request name -> served RPS, for Overleaf0 and HR1. */
    std::map<double, std::map<std::string, double>> overleafRps;
    std::map<double, std::map<std::string, double>> hrRps;
    std::map<double, std::map<std::string, double>> overleafUtil;
    std::map<double, std::map<std::string, double>> hrUtil;
    std::vector<ReplanRecord> history;
};

RunResult
run(bool with_phoenix)
{
    exp::Testbed bed(with_phoenix ? exp::TestbedScheme::PhoenixCost
                                  : exp::TestbedScheme::Default,
                     {}, {});
    sim::EventQueue &events = bed.events;
    kube::KubeCluster &cluster = bed.cluster;
    const apps::CloudLabTestbed &testbed = bed.cloudlab;

    RunResult result;
    auto sample = [&] {
        const double t = events.now();
        sim::ActiveSet active = sim::emptyActiveSet(cluster.apps());
        std::set<sim::MsId> overleaf_up;
        std::set<sim::MsId> hr_up;
        for (const PodRef &pod : cluster.runningPods()) {
            active[pod.app][pod.ms] = true;
            if (pod.app == 0)
                overleaf_up.insert(pod.ms);
            if (pod.app == 4)
                hr_up.insert(pod.ms);
        }
        result.availability[t] =
            sim::criticalServiceAvailability(cluster.apps(), active);
        const double util = cluster.liveState().utilization();
        for (const auto &point : apps::evaluateTraffic(
                 testbed.serviceApps[0], overleaf_up, util)) {
            result.overleafRps[t][point.request] = point.servedRps;
            result.overleafUtil[t][point.request] = point.utility;
        }
        for (const auto &point : apps::evaluateTraffic(
                 testbed.serviceApps[4], hr_up, util)) {
            result.hrRps[t][point.request] = point.servedRps;
            result.hrUtil[t][point.request] = point.utility;
        }
    };

    for (double t = kSample; t <= kEnd; t += kSample)
        events.schedule(t, sample);
    events.schedule(kFailAt, [&] {
        for (sim::NodeId n = 0; n < kFailedNodes; ++n)
            cluster.stopKubelet(n);
    });
    events.schedule(kRecoverAt, [&] {
        for (sim::NodeId n = 0; n < kFailedNodes; ++n)
            cluster.startKubelet(n);
    });

    events.runUntil(kEnd);
    if (bed.controller)
        result.history = bed.controller->history();
    return result;
}

util::Table
seriesTable(const std::string &title,
            const std::map<double, std::map<std::string, double>> &series)
{
    bench::banner(title);
    std::vector<std::string> keys;
    if (!series.empty()) {
        for (const auto &[name, value] : series.begin()->second) {
            (void)value;
            keys.push_back(name);
        }
    }
    std::vector<std::string> header{"t(s)"};
    header.insert(header.end(), keys.begin(), keys.end());
    util::Table table(header);
    for (const auto &[t, row] : series) {
        if (std::fmod(t, 90.0) != 0.0)
            continue; // thin the series for print
        table.row().cell(t, 0);
        for (const auto &key : keys)
            table.cell(row.at(key), 2);
    }
    table.print(std::cout);
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    const auto options = bench::parseOptions(argc, argv, "fig6");
    bench::applyObs(options);
    bench::banner(
        "Figure 6 | recovery run: fail 14/25 nodes at t=600 s, "
        "restore at t=1500 s");
    std::cout << "events: t1=600 failure injected; detection after the "
                 "~100 s node grace;\n        t5=1500 nodes return\n";

    // The two recovery simulations are independent; run them as two
    // tasks on the shared pool.
    RunResult results[2];
    exp::parallelFor(options.jobs, 2, [&](size_t i) {
        results[i] = run(i == 0);
    });
    const RunResult &phoenix = results[0];
    const RunResult &fallback = results[1];

    bench::banner("(a)/(b) critical service availability over time");
    util::Table avail({"t(s)", "PhoenixCost", "Default"});
    for (const auto &[t, value] : phoenix.availability) {
        if (std::fmod(t, 90.0) != 0.0)
            continue;
        avail.row().cell(t, 0).cell(value, 2).cell(
            fallback.availability.at(t), 2);
    }
    avail.print(std::cout);

    bench::banner("Phoenix replanning timeline");
    util::Table timeline({"detected(t2)", "plan(s)", "deletes",
                          "migrations", "restarts", "recovered(t4)"});
    for (const auto &record : phoenix.history) {
        timeline.row()
            .cell(record.detectedAt, 0)
            .cell(record.planSeconds, 4)
            .cell(record.deletes)
            .cell(record.migrations)
            .cell(record.restarts)
            .cell(record.recoveredAt, 0);
    }
    timeline.print(std::cout);

    const auto overleaf_rps = seriesTable(
        "(c) Overleaf0 served RPS under Phoenix", phoenix.overleafRps);
    const auto overleaf_util =
        seriesTable("(d) Overleaf0 end-user utility under Phoenix",
                    phoenix.overleafUtil);
    const auto hr_rps =
        seriesTable("(e) HR1 served RPS under Phoenix", phoenix.hrRps);
    const auto hr_util = seriesTable(
        "(f) HR1 end-user utility under Phoenix", phoenix.hrUtil);

    // Headline numbers.
    double phoenix_min = 1.0;
    double default_min = 1.0;
    for (const auto &[t, value] : phoenix.availability) {
        if (t > kFailAt + 300 && t < kRecoverAt) {
            phoenix_min = std::min(phoenix_min, value);
            default_min =
                std::min(default_min, fallback.availability.at(t));
        }
    }
    std::cout << "\nDuring the failure window Phoenix keeps "
              << phoenix_min * 5 << "/5 apps critically available vs "
              << default_min * 5 << "/5 for Default ("
              << (default_min > 0 ? phoenix_min / default_min : 0)
              << "x).\n";

    exp::Report report("fig6");
    report.meta("fail_at_s", kFailAt);
    report.meta("recover_at_s", kRecoverAt);
    report.meta("phoenix_min_availability", phoenix_min);
    report.meta("default_min_availability", default_min);
    report.addTable("availability", avail);
    report.addTable("replan_timeline", timeline);
    report.addTable("overleaf_rps", overleaf_rps);
    report.addTable("overleaf_utility", overleaf_util);
    report.addTable("hr_rps", hr_rps);
    report.addTable("hr_utility", hr_util);
    bench::finishReport(report, options);
    return 0;
}
