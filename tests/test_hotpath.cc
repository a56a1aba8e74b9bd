/**
 * @file
 * Hot-path allocation tests: the PlanScratch/indexed-heap/BucketedKv
 * claim is "zero allocation in steady state", a cluster state's claim
 * is a byte budget per slot and per node, and this binary installs the
 * util/alloc_counter operator-new hook to assert both as numbers.
 * Keep these in their own binary — the hook counts every allocation in
 * the process, so it must not be linked into unrelated suites.
 */

#include <gtest/gtest.h>

#include "adaptlab/environment.h"
#include "check/reference.h"
#include "core/packing.h"
#include "core/planner.h"
#include "core/schemes.h"
#include "kube/kube.h"
#include "sim/event_queue.h"
#include "sim/failure.h"
#include "util/alloc_counter.h"
#include "util/rng.h"

PHOENIX_INSTALL_ALLOC_COUNTER();

using namespace phoenix;
using namespace phoenix::core;

namespace {

adaptlab::Environment
mediumEnvironment()
{
    adaptlab::EnvironmentConfig config;
    config.nodeCount = 120;
    config.nodeCapacity = 32.0;
    config.demandFraction = 0.8;
    config.seed = 2024;
    config.alibaba.appCount = 8;
    config.alibaba.sizeScale = 0.05;
    config.resources.maxCpu = 16.0;
    return adaptlab::buildEnvironment(config);
}

/** A kube cluster of @p nodes nodes running about ten pods per node
 * (four apps of five services), every pod bound. */
struct KubeFixture
{
    sim::EventQueue events;
    kube::KubeCluster cluster{events};

    explicit KubeFixture(size_t nodes)
    {
        for (size_t n = 0; n < nodes; ++n)
            cluster.addNode(16.0, static_cast<uint32_t>(n % 3));
        for (sim::AppId a = 0; a < 4; ++a) {
            sim::Application app;
            app.services.resize(5);
            for (sim::MsId m = 0; m < 5; ++m) {
                app.services[m].id = m;
                app.services[m].cpu = 1.0;
                app.services[m].replicas =
                    static_cast<int>(nodes / 2);
            }
            cluster.addApplication(app);
        }
        events.runUntil(120.0);
    }
};

} // namespace

TEST(HotPath, SnapshotAllocationsDoNotGrowWithNodes)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    // A snapshot is a few flat arrays over the shared pod index, so a
    // warm observedState() allocates the same at 200 and 2,000 nodes.
    uint64_t allocs[2] = {0, 0};
    const size_t sizes[2] = {200, 2000};
    for (int i = 0; i < 2; ++i) {
        KubeFixture fixture(sizes[i]);
        ASSERT_EQ(fixture.cluster.pendingCount(), 0u);
        (void)fixture.cluster.observedState(); // warm
        allocs[i] = util::allocationsDuring([&] {
            const sim::ClusterState state =
                fixture.cluster.observedState();
            EXPECT_EQ(state.assignment().size(), sizes[i] * 10);
        });
    }
    EXPECT_GT(allocs[0], 0u);
    EXPECT_EQ(allocs[0], allocs[1]);
}

TEST(HotPath, StateBytesPerSlotAndPerNodeStayInBudget)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    // Node-major storage: a state keeps a node (4 B) and a cpu (8 B)
    // per slot and 4 B per placed pod in its node's run; per node a
    // Node (24 B), its usage (8 B) and its run (12 B). The index keeps
    // a 4-byte row per slot. Linked slot records took 24 B per slot in
    // every state and a 12-byte PodRef per slot in the index, over
    // each budget here.
    constexpr uint64_t kStatePerSlot = 16;
    constexpr uint64_t kStatePerNode = 44;
    constexpr uint64_t kIndexPerSlot = 4;
    constexpr uint64_t kFixed = 4096; // rows, apps, control blocks
    const size_t nodes = 2000;
    KubeFixture fixture(nodes);
    ASSERT_EQ(fixture.cluster.pendingCount(), 0u);
    (void)fixture.cluster.observedState(); // warm: builds the index

    sim::ClusterState snapshot;
    const uint64_t snapshot_bytes = util::bytesAllocatedDuring(
        [&] { snapshot = fixture.cluster.observedState(); });
    const uint64_t slots = snapshot.podIndex()->slotCount();
    ASSERT_EQ(snapshot.assignment().size(), slots); // every pod placed
    uint64_t copy_bytes = 0;
    {
        sim::ClusterState copy;
        copy_bytes = util::bytesAllocatedDuring([&] { copy = snapshot; });
        EXPECT_TRUE(copy.assignment() == snapshot.assignment());
    }
    std::shared_ptr<const sim::PodIndex> index;
    const uint64_t index_bytes = util::bytesAllocatedDuring(
        [&] { index = sim::PodIndex::of(fixture.cluster.apps()); });
    ASSERT_EQ(index->slotCount(), slots);

    const uint64_t state_budget =
        kStatePerSlot * slots + kStatePerNode * nodes + kFixed;
    EXPECT_LE(snapshot_bytes, state_budget);
    EXPECT_LE(copy_bytes, state_budget);
    EXPECT_LE(index_bytes, kIndexPerSlot * slots + kFixed);
}

TEST(HotPath, SnapshotCopyAndPackShareTheProducersIndex)
{
    // Nothing re-indexes per snapshot, per copy or per pack: all of
    // them hold the pod index the producer built from its apps.
    KubeFixture fixture(60);
    const sim::ClusterState snapshot = fixture.cluster.observedState();
    EXPECT_EQ(fixture.cluster.observedState().podIndex(),
              snapshot.podIndex());
    const sim::ClusterState copy = snapshot;
    EXPECT_EQ(copy.podIndex(), snapshot.podIndex());
    PhoenixScheme scheme(Objective::Cost);
    const SchemeResult result =
        scheme.apply(fixture.cluster.apps(), snapshot);
    EXPECT_EQ(result.pack.state.podIndex(), snapshot.podIndex());

    const adaptlab::Environment env = mediumEnvironment();
    sim::ClusterState failed = env.cluster;
    sim::FailureInjector injector{util::Rng(3)};
    injector.failCapacityFraction(failed, 0.3);
    EXPECT_EQ(failed.podIndex(), env.cluster.podIndex());
    const SchemeResult packed = scheme.apply(env.apps, failed);
    EXPECT_FALSE(packed.pack.actions.empty());
    EXPECT_EQ(packed.pack.state.podIndex(), env.cluster.podIndex());
}

TEST(HotPath, SteadyStatePlanAllocatesNothing)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    const adaptlab::Environment env = mediumEnvironment();
    const double capacity = env.cluster.healthyCapacity();

    Planner planner;
    // CostObjective::begin is stateless; FairObjective's water-fill
    // legitimately builds its share table per plan, so the zero-alloc
    // claim is asserted on the cost path.
    CostObjective cost;
    GlobalRank out;
    // Warm-up grows every scratch buffer to the workload's size.
    planner.planInto(env.apps, cost, capacity, out);

    const uint64_t steady = util::allocationsDuring(
        [&] { planner.planInto(env.apps, cost, capacity, out); });
    EXPECT_EQ(steady, 0u) << "planInto allocated on a warm scratch";
}

TEST(HotPath, FlatPackerAllocatesFarLessThanReference)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    const adaptlab::Environment env = mediumEnvironment();
    sim::ClusterState failed = env.cluster;
    sim::FailureInjector injector{util::Rng(99)};
    injector.failCapacityFraction(failed, 0.4);

    Planner planner;
    FairObjective fair;
    const GlobalRank ranked =
        planner.plan(env.apps, fair, failed.healthyCapacity());

    const PackingScheduler flat;

    // Warm the flat scratch arena, then compare a steady-state pass
    // with the reference, which builds its bookkeeping afresh per call.
    (void)flat.pack(env.apps, failed, ranked);

    PackResult flat_result;
    PackResult ref_result;
    const uint64_t flat_allocs = util::allocationsDuring(
        [&] { flat_result = flat.pack(env.apps, failed, ranked); });
    const uint64_t ref_allocs = util::allocationsDuring([&] {
        ref_result = check::referencePack(env.apps, failed, ranked);
    });
    // Both implementations pay the same unavoidable output cost: the
    // scratch ClusterState copy that becomes result.state (plus the
    // action vector). Subtract it so the comparison isolates the
    // bookkeeping allocations the flat packer is supposed to remove.
    const uint64_t copy_cost = util::allocationsDuring([&] {
        sim::ClusterState scratch = failed;
        (void)scratch;
    });

    // Identical packing decisions...
    EXPECT_EQ(flat_result.placed, ref_result.placed);
    EXPECT_EQ(flat_result.state.assignment(),
              ref_result.state.assignment());
    // ...but beyond the shared result copy the flat bookkeeping keeps
    // its indexes in the recycled scratch arena, while the reference
    // books rebuild map/set/multiset nodes every pass — so its
    // bookkeeping allocations must exceed the flat ones by a wide
    // margin.
    ASSERT_GE(flat_allocs, copy_cost);
    ASSERT_GE(ref_allocs, copy_cost);
    const uint64_t flat_book = flat_allocs - copy_cost;
    const uint64_t ref_book = ref_allocs - copy_cost;
    EXPECT_LT(flat_book * 2, ref_book)
        << "flat=" << flat_allocs << " reference=" << ref_allocs
        << " shared-copy=" << copy_cost;
}

TEST(HotPath, LongLivedSchemeReachesAllocationFloor)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    const adaptlab::Environment env = mediumEnvironment();
    sim::ClusterState failed = env.cluster;
    sim::FailureInjector injector{util::Rng(7)};
    injector.failCapacityFraction(failed, 0.3);

    // One controller epoch after another on the same scheme instance:
    // after the first apply, allocations per epoch must settle to a
    // constant (the unavoidable result/state copies), i.e. epoch 3
    // costs no more than epoch 2 — the scratch arenas stopped growing.
    PhoenixScheme scheme(Objective::Fair);
    (void)scheme.apply(env.apps, failed);
    const uint64_t second = util::allocationsDuring(
        [&] { (void)scheme.apply(env.apps, failed); });
    const uint64_t third = util::allocationsDuring(
        [&] { (void)scheme.apply(env.apps, failed); });
    EXPECT_LE(third, second);
    EXPECT_GT(second, 0u); // the result copies are real allocations
}

TEST(HotPath, WarmPodTimersAllocateNothing)
{
    if (!util::allocCounterActive())
        GTEST_SKIP() << "alloc counter not installed (sanitizer build)";

    // Start and drain timers capture (this, slot, epoch) in 16 bytes,
    // which std::function stores inline, so once the event heap and
    // the node lists have grown, a cycle that binds, starts, deletes,
    // drains and restarts 2,000 pods allocates nothing.
    sim::EventQueue events;
    kube::KubeConfig config;
    config.validateInvariants = false; // the sweep's rebuilds allocate
    kube::KubeCluster cluster{events, config};
    for (int n = 0; n < 200; ++n)
        cluster.addNode(16.0);
    sim::Application app;
    app.services.resize(1);
    app.services[0].id = 0;
    app.services[0].cpu = 1.0;
    app.services[0].replicas = 2000;
    cluster.addApplication(app);
    std::vector<sim::PodRef> refs;
    for (uint32_t r = 0; r < 2000; ++r)
        refs.push_back(sim::PodRef{0, 0, r});

    size_t running = 0;
    size_t drained = 0;
    const auto cycle = [&] {
        // A tick binds within 5 s; startup takes at most 60 s.
        events.runUntil(events.now() + 70.0);
        running = 0;
        for (const sim::PodRef &ref : refs)
            running += cluster.pod(ref)->phase == kube::PodPhase::Running;
        for (const sim::PodRef &ref : refs)
            cluster.deletePod(ref);
        events.runUntil(events.now() + 15.0); // 10 s drains
        drained = 0;
        for (const sim::PodRef &ref : refs)
            drained += cluster.pod(ref)->phase == kube::PodPhase::Pending;
        for (const sim::PodRef &ref : refs)
            cluster.startPod(ref);
    };
    cycle(); // warm-up grows the event heap and the node lists
    ASSERT_EQ(running, 2000u);
    ASSERT_EQ(drained, 2000u);
    const uint64_t allocs = util::allocationsDuring(cycle);
    EXPECT_EQ(running, 2000u);
    EXPECT_EQ(drained, 2000u);
    EXPECT_EQ(allocs, 0u) << "a warm pod lifecycle cycle allocated";
}
