/**
 * @file
 * Microbenchmarks for the hot components behind the Fig 8(b)
 * planning-time numbers.
 *
 * The default mode is a self-contained harness that races the old
 * container-based data structures against their flat replacements —
 * std::multiset vs util::BucketedKv, and
 * std::set<pair> vs util::IndexedDaryHeap — on insert/erase/best-fit
 * mixes from 1e3 to 1e6 elements, reporting ops/sec and allocations
 * per operation (this binary installs the util/alloc_counter hook),
 * and exporting BENCH_micro.json through exp::Report like every other
 * harness.
 *
 * A second table times the cluster-state operations every controller
 * epoch pays: copying a sim::ClusterState (10k and 100k nodes, from
 * buildEnvironment), building a KubeCluster snapshot with
 * observedState() (1k and 10k nodes), and a warm PackingScheduler::pack
 * (5k nodes after one node failure, the shape of a small replan; 100k
 * nodes after half the capacity failed), with allocations per op.
 * Neither table is a gate.
 *
 * MICRO_GBENCH=1 switches to the google-benchmark suite covering the
 * planner stages, the packing scheduler, the simplex solver, and the
 * graph traversals (pass regular google-benchmark flags through).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <set>

#include "adaptlab/environment.h"
#include "core/packing.h"
#include "core/planner.h"
#include "exp/options.h"
#include "exp/report.h"
#include "kube/kube.h"
#include "lp/simplex.h"
#include "sim/failure.h"
#include "util/alloc_counter.h"
#include "util/bucketed_kv.h"
#include "util/heap.h"
#include "util/rng.h"
#include "util/table.h"

PHOENIX_INSTALL_ALLOC_COUNTER();

using namespace phoenix;
using namespace phoenix::core;

namespace {

adaptlab::EnvironmentConfig
environmentConfig(size_t nodes)
{
    adaptlab::EnvironmentConfig config;
    config.nodeCount = nodes;
    config.alibaba.appCount = 18;
    config.alibaba.sizeScale =
        std::max(0.01, static_cast<double>(nodes) / 100000.0);
    return config;
}

adaptlab::Environment &
environmentForNodes(size_t nodes)
{
    static std::map<size_t, adaptlab::Environment> cache;
    auto it = cache.find(nodes);
    if (it == cache.end()) {
        it = cache.emplace(nodes, adaptlab::buildEnvironment(
                                      environmentConfig(nodes)))
                 .first;
    }
    return it->second;
}

void
BM_PriorityEstimator(benchmark::State &state)
{
    const auto &env =
        environmentForNodes(static_cast<size_t>(state.range(0)));
    size_t services = 0;
    for (const auto &app : env.apps)
        services += app.services.size();
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            Planner::priorityEstimator(env.apps));
    }
    state.counters["services"] = static_cast<double>(services);
}
BENCHMARK(BM_PriorityEstimator)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void
BM_GlobalRank(benchmark::State &state)
{
    const auto &env =
        environmentForNodes(static_cast<size_t>(state.range(0)));
    const auto ranks = Planner::priorityEstimator(env.apps);
    Planner planner;
    for (auto _ : state) {
        FairObjective fair;
        benchmark::DoNotOptimize(planner.globalRank(
            env.apps, ranks, fair,
            env.cluster.healthyCapacity() * 0.5));
    }
}
BENCHMARK(BM_GlobalRank)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void
BM_PackAfterFailure(benchmark::State &state)
{
    const auto &env =
        environmentForNodes(static_cast<size_t>(state.range(0)));
    sim::ClusterState failed = env.cluster;
    sim::FailureInjector injector{util::Rng(5)};
    injector.failCapacityFraction(failed, 0.5);
    Planner planner;
    FairObjective fair;
    const GlobalRank rank =
        planner.plan(env.apps, fair, failed.healthyCapacity());
    PackingScheduler packer;
    for (auto _ : state) {
        benchmark::DoNotOptimize(packer.pack(env.apps, failed, rank));
    }
    state.counters["ranked"] = static_cast<double>(rank.size());
}
BENCHMARK(BM_PackAfterFailure)->Arg(1000)->Arg(10000)
    ->Unit(benchmark::kMillisecond);

void
BM_SimplexDense(benchmark::State &state)
{
    // A transportation-style LP: n suppliers x n consumers.
    const int n = static_cast<int>(state.range(0));
    util::Rng rng(9);
    lp::Model model;
    std::vector<std::vector<lp::VarId>> x(n,
                                          std::vector<lp::VarId>(n));
    lp::LinExpr objective;
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            x[i][j] = model.addVar(0.0, 10.0);
            objective.push_back({x[i][j], rng.uniform(1.0, 5.0)});
        }
    }
    for (int i = 0; i < n; ++i) {
        lp::LinExpr row;
        for (int j = 0; j < n; ++j)
            row.push_back({x[i][j], 1.0});
        model.addConstraint(row, lp::Relation::LessEq, 5.0 * n);
        lp::LinExpr col;
        for (int j = 0; j < n; ++j)
            col.push_back({x[j][i], 1.0});
        model.addConstraint(col, lp::Relation::GreaterEq, 1.0 * n);
    }
    model.setObjective(objective, false);

    for (auto _ : state) {
        lp::SimplexSolver solver(model);
        const auto solution = solver.solve();
        if (solution.status != lp::SolveStatus::Optimal)
            state.SkipWithError("simplex failed");
        benchmark::DoNotOptimize(solution);
    }
    state.counters["vars"] = static_cast<double>(n) * n;
}
BENCHMARK(BM_SimplexDense)->Arg(8)->Arg(16)->Arg(32)
    ->Unit(benchmark::kMillisecond);

void
BM_GraphTopoSort(benchmark::State &state)
{
    const size_t n = static_cast<size_t>(state.range(0));
    util::Rng rng(11);
    graph::DiGraph g(n);
    for (graph::NodeId v = 1; v < n; ++v) {
        const int parents = static_cast<int>(rng.uniformInt(1, 3));
        for (int p = 0; p < parents; ++p) {
            g.addEdge(static_cast<graph::NodeId>(
                          rng.uniformInt(0, v - 1)),
                      v);
        }
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(g.topologicalOrder());
    state.counters["edges"] = static_cast<double>(g.edgeCount());
}
BENCHMARK(BM_GraphTopoSort)->Arg(3000)->Arg(30000)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------
// Container race: old vs flat structures, ops/sec + allocations/op.
// ---------------------------------------------------------------------

constexpr double kMaxKey = 64.0;

/** One timed phase of a container mix. */
struct PhaseResult
{
    const char *phase;
    size_t ops = 0;
    double seconds = 0.0;
    uint64_t allocs = 0;

    double
    opsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(ops) / seconds : 0.0;
    }

    double
    allocsPerOp() const
    {
        return ops > 0 ? static_cast<double>(allocs) /
                             static_cast<double>(ops)
                       : 0.0;
    }
};

template <typename Fn>
PhaseResult
timedPhase(const char *phase, size_t ops, Fn &&fn)
{
    PhaseResult result;
    result.phase = phase;
    result.ops = ops;
    const uint64_t allocs_before = util::allocCount();
    const auto started = std::chrono::steady_clock::now();
    fn();
    result.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - started)
                         .count();
    result.allocs = util::allocCount() - allocs_before;
    return result;
}

/**
 * Fill + churn mix shared by both key/value containers, reached through
 * @p insert, @p erase and @p first_at_least: @p n inserts, then churn
 * rounds of (erase one live entry, insert a fresh one, best-fit query)
 * — the packer's steady-state access pattern. The checksum keeps the
 * optimizer honest and doubles as an old-vs-new agreement check.
 */
template <typename Insert, typename Erase, typename FirstAtLeast>
std::pair<std::vector<PhaseResult>, double>
runKvMix(size_t n, size_t churn, Insert insert, Erase erase,
         FirstAtLeast first_at_least)
{
    util::Rng rng(2718);
    std::vector<std::pair<double, uint32_t>> live;
    live.reserve(n);
    double checksum = 0.0;

    std::vector<PhaseResult> phases;
    phases.push_back(timedPhase("insert", n, [&] {
        for (size_t i = 0; i < n; ++i) {
            const double key =
                kMaxKey * static_cast<double>(rng.uniformInt(0, 4096)) /
                4096.0;
            const auto value = static_cast<uint32_t>(i);
            insert(key, value);
            live.emplace_back(key, value);
        }
    }));

    // erase + insert + firstAtLeast per round: 3 container ops.
    phases.push_back(timedPhase("churn", churn * 3, [&] {
        for (size_t i = 0; i < churn; ++i) {
            const size_t pick = static_cast<size_t>(
                rng.uniformInt(0, live.size() - 1));
            erase(live[pick].first, live[pick].second);
            const double key =
                kMaxKey * static_cast<double>(rng.uniformInt(0, 4096)) /
                4096.0;
            insert(key, live[pick].second);
            live[pick].first = key;
            const auto hit = first_at_least(rng.uniform(0.0, kMaxKey));
            if (hit)
                checksum += hit->first;
        }
    }));
    return {phases, checksum};
}

void
addRows(util::Table &table, exp::Report &report, const char *section,
        const char *container, size_t elements,
        const std::vector<PhaseResult> &phases)
{
    (void)report;
    (void)section;
    for (const PhaseResult &phase : phases) {
        table.row()
            .cell(container)
            .cell(elements)
            .cell(phase.phase)
            .cell(phase.opsPerSec() / 1e6, 3)
            .cell(phase.allocsPerOp(), 3);
    }
}

void
kvRace(util::Table &table, exp::Report &report)
{
    for (const size_t n : {1000ul, 10000ul, 100000ul, 1000000ul}) {
        const size_t churn = std::min<size_t>(n, 100000);

        using Pair = std::pair<double, uint32_t>;
        std::multiset<Pair> multiset;
        const auto [multiset_phases, multiset_sum] = runKvMix(
            n, churn,
            [&](double key, uint32_t value) { multiset.emplace(key, value); },
            [&](double key, uint32_t value) {
                multiset.erase(multiset.find(Pair(key, value)));
            },
            [&](double bound) {
                const auto fit = multiset.lower_bound(Pair(bound, 0));
                return fit == multiset.end() ? std::optional<Pair>()
                                             : std::optional<Pair>(*fit);
            });
        addRows(table, report, "kv", "std::multiset", n, multiset_phases);

        util::BucketedKv<uint32_t> bucketed;
        const auto [bucketed_phases, bucketed_sum] = runKvMix(
            n, churn,
            [&](double key, uint32_t value) { bucketed.insert(key, value); },
            [&](double key, uint32_t value) { bucketed.erase(key, value); },
            [&](double bound) { return bucketed.firstAtLeast(bound); });
        addRows(table, report, "kv", "BucketedKv(flat)", n,
                bucketed_phases);

        if (multiset_sum != bucketed_sum) {
            std::cerr << "warning: kv containers disagree at n=" << n
                      << " (" << multiset_sum << " vs " << bucketed_sum
                      << ")\n";
        }
    }
}

void
heapRace(util::Table &table, exp::Report &report)
{
    for (const size_t n : {1000ul, 10000ul, 100000ul, 1000000ul}) {
        const size_t churn = std::min<size_t>(n, 100000);
        util::Rng keys_rng(31337);
        std::vector<double> keys(n);
        for (double &key : keys)
            key = keys_rng.uniform(0.0, 1.0);

        // Old: std::set<pair<key, id>> — erase(begin) as pop.
        {
            std::set<std::pair<double, uint32_t>> queue;
            double checksum = 0.0;
            std::vector<PhaseResult> phases;
            phases.push_back(timedPhase("push", n, [&] {
                for (uint32_t id = 0; id < n; ++id)
                    queue.emplace(keys[id], id);
            }));
            // pop + re-push per round: 2 queue ops.
            util::Rng rng(8128);
            phases.push_back(timedPhase("pop+push", churn * 2, [&] {
                for (size_t i = 0; i < churn; ++i) {
                    const auto head = *queue.begin();
                    queue.erase(queue.begin());
                    checksum += head.first;
                    queue.emplace(head.first + rng.uniform(0.0, 1.0),
                                  head.second);
                }
            }));
            addRows(table, report, "heap", "std::set<pair>", n, phases);
            benchmark::DoNotOptimize(checksum);
        }

        // Flat: indexed 4-ary heap over the same dense ids.
        {
            util::IndexedDaryHeap<double> heap;
            heap.reset(n);
            double checksum = 0.0;
            std::vector<PhaseResult> phases;
            phases.push_back(timedPhase("push", n, [&] {
                for (uint32_t id = 0; id < n; ++id)
                    heap.push(id, keys[id]);
            }));
            util::Rng rng(8128);
            phases.push_back(timedPhase("pop+push", churn * 2, [&] {
                for (size_t i = 0; i < churn; ++i) {
                    const uint32_t id = heap.top();
                    const double key = heap.keyOf(id);
                    heap.pop();
                    checksum += key;
                    heap.push(id, key + rng.uniform(0.0, 1.0));
                }
            }));
            addRows(table, report, "heap", "IndexedDaryHeap", n,
                    phases);
            benchmark::DoNotOptimize(checksum);
        }
    }
}

void
addStateRow(util::Table &table, const char *operation, size_t nodes,
            size_t pods, const PhaseResult &phase)
{
    table.row()
        .cell(operation)
        .cell(nodes)
        .cell(pods)
        .cell(1e3 * phase.seconds / static_cast<double>(phase.ops), 3)
        .cell(phase.allocsPerOp(), 1);
}

/** The epoch benchmark's environment shape: about 16 pods per 16-CPU
 * node, so 100k nodes hold about 1.4M pods. */
adaptlab::EnvironmentConfig
denseEnvironmentConfig(size_t nodes)
{
    adaptlab::EnvironmentConfig config = environmentConfig(nodes);
    config.nodeCapacity = 16.0;
    config.alibaba.sizeScale =
        std::clamp(static_cast<double>(nodes) / 100000.0, 0.05, 1.0);
    config.resources.model = workloads::ResourceModel::CallsPerMinute;
    config.resources.minCpu = 0.5;
    config.resources.maxCpu = 8.0;
    return config;
}

/** ClusterState copies and KubeCluster snapshots, per op. */
void
stateCosts(util::Table &table)
{
    for (const size_t nodes : {10000ul, 100000ul}) {
        const adaptlab::Environment env =
            adaptlab::buildEnvironment(denseEnvironmentConfig(nodes));
        const size_t reps = nodes > 10000 ? 5 : 20;
        size_t checksum = 0;
        const PhaseResult copy = timedPhase("copy", reps, [&] {
            for (size_t i = 0; i < reps; ++i) {
                const sim::ClusterState state = env.cluster;
                checksum += state.assignment().size();
            }
        });
        benchmark::DoNotOptimize(checksum);
        addStateRow(table, "ClusterState copy", nodes,
                    env.cluster.assignment().size(), copy);
    }
    for (const size_t nodes : {1000ul, 10000ul}) {
        const adaptlab::Environment env =
            adaptlab::buildEnvironment(denseEnvironmentConfig(nodes));
        sim::EventQueue events;
        kube::KubeCluster cluster(events);
        for (size_t n = 0; n < nodes; ++n)
            cluster.addNode(env.config.nodeCapacity);
        for (const auto &app : env.apps)
            cluster.addApplication(app);
        events.runUntil(300.0); // every pod bound
        const size_t reps = nodes > 1000 ? 20 : 100;
        size_t pods = 0;
        const PhaseResult snapshot = timedPhase("snapshot", reps, [&] {
            for (size_t i = 0; i < reps; ++i)
                pods = cluster.observedState().assignment().size();
        });
        addStateRow(table, "KubeCluster::observedState", nodes, pods,
                    snapshot);
    }
}

/** Warm PhoenixCost packs, per op, on the epoch benchmark's
 * environment shape. The pack state includes the result's copy of the
 * input state. */
void
packCosts(util::Table &table)
{
    struct Case
    {
        const char *operation;
        size_t nodes;
        size_t reps;
    };
    for (const Case &c :
         {Case{"pack, 1 node failed", 5000, 50},
          Case{"pack, 50% capacity failed", 100000, 3}}) {
        const adaptlab::Environment env =
            adaptlab::buildEnvironment(denseEnvironmentConfig(c.nodes));
        sim::ClusterState failed = env.cluster;
        sim::FailureInjector injector{util::Rng(5)};
        if (c.nodes > 10000)
            injector.failCapacityFraction(failed, 0.5);
        else
            injector.failNodeCount(failed, 1);
        Planner planner;
        CostObjective cost;
        const GlobalRank ranked =
            planner.plan(env.apps, cost, failed.healthyCapacity());
        const PackingScheduler packer;
        (void)packer.pack(env.apps, failed, ranked); // warm the scratch
        size_t actions = 0;
        const PhaseResult pack = timedPhase("pack", c.reps, [&] {
            for (size_t i = 0; i < c.reps; ++i)
                actions += packer.pack(env.apps, failed, ranked)
                               .actions.size();
        });
        benchmark::DoNotOptimize(actions);
        addStateRow(table, c.operation, c.nodes,
                    failed.assignment().size(), pack);
    }
}

int
microMain(int argc, char **argv)
{
    auto options = exp::parseOptions(argc, argv, "micro");
    std::cout << "\n=== Microbench | flat hot-path containers vs the "
                 "structures they replaced ===\n";
    if (!util::allocCounterActive())
        std::cout << "note: alloc counter inactive (sanitizer build); "
                     "allocs/op reads 0\n";

    exp::Report report("micro");
    report.meta("alloc_counter",
                static_cast<int64_t>(util::allocCounterActive() ? 1 : 0));

    util::Table kv_table(
        {"container", "elements", "phase", "Mops/s", "allocs/op"});
    kvRace(kv_table, report);
    kv_table.print(std::cout);
    report.addTable("multiset_vs_bucketed_kv", kv_table);

    util::Table heap_table(
        {"container", "elements", "phase", "Mops/s", "allocs/op"});
    heapRace(heap_table, report);
    heap_table.print(std::cout);
    report.addTable("set_vs_indexed_heap", heap_table);

    util::Table state_table(
        {"operation", "nodes", "pods", "ms/op", "allocs/op"});
    stateCosts(state_table);
    packCosts(state_table);
    state_table.print(std::cout);
    report.addTable("state_copy_and_snapshot", state_table);

    std::cout << "Reading: the flat containers report ~0 allocs/op "
                 "(the trees pay one node allocation per insert). The "
                 "heap wins every row; BucketedKv wins once the tree "
                 "falls out of cache (1e5+ elements, the Fig 8(b) "
                 "regime) and roughly ties below. A state copy or a "
                 "snapshot allocates a fixed handful of flat arrays "
                 "however many pods it holds; a warm pack allocates "
                 "about that copy plus its action list.\n";
    exp::Options report_options = options;
    if (report.writeJsonFile(report_options.jsonPath))
        std::cout << "[report] JSON written to "
                  << report_options.jsonPath << "\n";
    if (report.writeCsvFile(report_options.csvPath))
        std::cout << "[report] CSV written to "
                  << report_options.csvPath << "\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *gbench = std::getenv("MICRO_GBENCH");
    if (gbench && std::string(gbench) == "1") {
        benchmark::Initialize(&argc, argv);
        if (benchmark::ReportUnrecognizedArguments(argc, argv))
            return 1;
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
        return 0;
    }
    return microMain(argc, argv);
}
