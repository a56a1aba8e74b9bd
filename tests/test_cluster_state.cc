/**
 * @file
 * Tests for the slot-table ClusterState and its PodIndex, chiefly a
 * seeded differential test against the std::map reference model
 * (map_cluster_state.h): random op sequences run on both, and every
 * observable must agree after every op.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "map_cluster_state.h"
#include "sim/cluster.h"
#include "util/rng.h"

namespace phoenix::sim {
// Readable PodRefs in failure messages.
void
PrintTo(const PodRef &pod, std::ostream *os)
{
    *os << "{" << pod.app << "," << pod.ms << "," << pod.replica << "}";
}
} // namespace phoenix::sim

using namespace phoenix;
using namespace phoenix::sim;
using phoenix::reference::MapClusterState;

namespace {

std::vector<Application>
randomApps(util::Rng &rng, int maxReplicas = 3)
{
    std::vector<Application> apps(3);
    for (size_t a = 0; a < apps.size(); ++a) {
        apps[a].id = static_cast<AppId>(a);
        apps[a].services.resize(
            static_cast<size_t>(rng.uniformInt(1, 4)));
        for (size_t m = 0; m < apps[a].services.size(); ++m) {
            apps[a].services[m].id = static_cast<MsId>(m);
            apps[a].services[m].cpu = 1.0;
            apps[a].services[m].replicas =
                static_cast<int>(rng.uniformInt(0, maxReplicas));
        }
    }
    return apps;
}

/** Every PodRef the ops may name: the apps' pods plus refs past every
 * edge of their index (extra apps, services and replicas). */
std::vector<PodRef>
podUniverse(uint32_t replicas = 4)
{
    std::vector<PodRef> pods;
    for (AppId a = 0; a < 5; ++a) {
        for (MsId m = 0; m < 6; ++m) {
            for (uint32_t r = 0; r < replicas; ++r)
                pods.push_back(PodRef{a, m, r});
        }
    }
    return pods;
}

template <typename View>
auto
sequence(const View &view)
{
    using Value = std::decay_t<decltype(*view.begin())>;
    std::vector<std::pair<PodRef, typename Value::second_type>> out;
    for (const auto &[pod, value] : view)
        out.emplace_back(pod, value);
    return out;
}

size_t
pickIndex(util::Rng &rng, size_t count)
{
    return static_cast<size_t>(
        rng.uniformInt(0, static_cast<int64_t>(count) - 1));
}

struct StatePair
{
    ClusterState flat;
    MapClusterState ref;
};

void
expectSame(const StatePair &p, const std::vector<PodRef> &universe,
           const std::string &where)
{
    SCOPED_TRACE(where);
    const ClusterState &flat = p.flat;
    const MapClusterState &ref = p.ref;
    ASSERT_EQ(flat.nodeCount(), ref.nodeCount());
    for (NodeId n = 0; n < flat.nodeCount(); ++n) {
        EXPECT_EQ(flat.isHealthy(n), ref.isHealthy(n)) << "node " << n;
        EXPECT_EQ(flat.node(n).capacity, ref.node(n).capacity)
            << "node " << n;
        EXPECT_EQ(flat.used(n), ref.used(n)) << "node " << n;
        EXPECT_EQ(flat.remaining(n), ref.remaining(n)) << "node " << n;
        EXPECT_EQ(flat.podsOn(n).size(), ref.podsOn(n).size())
            << "node " << n;
        EXPECT_EQ(flat.podsOn(n).empty(), ref.podsOn(n).empty())
            << "node " << n;
        EXPECT_EQ(sequence(flat.podsOn(n)), sequence(ref.podsOn(n)))
            << "node " << n;
    }
    EXPECT_EQ(flat.assignment().size(), ref.assignment().size());
    EXPECT_EQ(flat.assignment().empty(), ref.assignment().empty());
    EXPECT_EQ(sequence(flat.assignment()), sequence(ref.assignment()));
    for (const PodRef &pod : universe) {
        EXPECT_EQ(flat.nodeOf(pod), ref.nodeOf(pod));
        EXPECT_EQ(flat.podCpu(pod), ref.podCpu(pod));
        EXPECT_EQ(flat.isActive(pod), ref.isActive(pod));
    }
}

/**
 * How one op sequence is shaped. The default is a few pods per node on
 * a handful of nodes. A crowd puts dozens of pods on two to five
 * nodes in random slot order, so runs fill and move, often several
 * times, before a copy lays them out again. It copies a pair right
 * after a run reaches a power-of-two size (where a run grown from
 * empty fills), over an existing pair once four exist. It also widens
 * the index (coverApps, a no-op for the map model) between moves, and
 * places batches through placeAll(), which the model takes one place()
 * at a time.
 */
struct DiffShape
{
    bool crowd = false;
    int steps = 300;
    int maxReplicas = 3;
    uint32_t universeReplicas = 4;
    int nodes = 3;
    double capacity = 6.0;
    int64_t maxCpuQuarters = 12;
};

bool
isFillPoint(size_t pods)
{
    return pods >= 4 && (pods & (pods - 1)) == 0;
}

/**
 * One seeded op sequence. Several state pairs exist at once: a copy
 * taken mid-sequence is mutated on its own afterwards, and every pair
 * is compared after every op, so a copy that shares mutable storage
 * with its source shows up on the source.
 */
void
runDifferential(uint64_t seed, const DiffShape &shape = DiffShape())
{
    util::Rng rng(seed * 7919 + 13);
    const std::vector<Application> apps = randomApps(rng, shape.maxReplicas);
    const std::vector<PodRef> universe = podUniverse(shape.universeReplicas);

    std::vector<StatePair> pairs(1);
    if (seed % 2 == 0)
        pairs[0].flat = ClusterState(PodIndex::of(apps));
    for (int n = 0; n < shape.nodes; ++n) {
        pairs[0].flat.addNode(shape.capacity, static_cast<uint32_t>(n));
        pairs[0].ref.addNode(shape.capacity, static_cast<uint32_t>(n));
    }

    for (int step = 0; step < shape.steps; ++step) {
        StatePair &p = pairs[pickIndex(rng, pairs.size())];
        const auto nodes = static_cast<int64_t>(p.flat.nodeCount());
        const auto pick_pod = [&] {
            // Half the time a placed pod, so evicts and duplicate
            // places hit.
            const auto placed = sequence(p.ref.assignment());
            if (!placed.empty() && rng.bernoulli(0.5))
                return placed[pickIndex(rng, placed.size())].first;
            return universe[pickIndex(rng, universe.size())];
        };
        const auto copy_pair = [&](StatePair &from) {
            if (pairs.size() < 4) {
                // pairs may reallocate: copy before pushing.
                StatePair copy = from;
                pairs.push_back(std::move(copy));
            } else {
                // Copy-assign over a pair that holds runs of its own.
                StatePair &to = pairs[1 + pickIndex(rng, pairs.size() - 1)];
                if (&to != &from)
                    to = from;
            }
        };
        const double op = rng.uniform();
        std::ostringstream what;
        what << "seed " << seed << " step " << step << ": ";
        if (op < 0.05 && nodes < (shape.crowd ? 5 : 12)) {
            const double capacity =
                shape.crowd ? shape.capacity : rng.uniform(2.0, 10.0);
            const auto zone = static_cast<uint32_t>(rng.uniformInt(0, 2));
            EXPECT_EQ(p.flat.addNode(capacity, zone),
                      p.ref.addNode(capacity, zone));
            what << "addNode";
        } else if (op < 0.50) {
            const PodRef pod = pick_pod();
            // One past the last node exercises the range check.
            const auto node = static_cast<NodeId>(rng.uniformInt(0, nodes));
            const double cpu =
                0.25 * static_cast<double>(
                           rng.uniformInt(1, shape.maxCpuQuarters));
            const bool placed = p.flat.place(pod, node, cpu);
            EXPECT_EQ(placed, p.ref.place(pod, node, cpu));
            what << "place on " << node;
            if (shape.crowd && placed &&
                isFillPoint(p.flat.podsOn(node).size())) {
                copy_pair(p);
                what << " and copy";
            }
        } else if (op < 0.72) {
            const PodRef pod = pick_pod();
            EXPECT_EQ(p.flat.evict(pod), p.ref.evict(pod));
            what << "evict";
        } else if (op < 0.79 && nodes > 0) {
            const auto node =
                static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
            EXPECT_EQ(p.flat.failNode(node), p.ref.failNode(node));
            what << "failNode " << node;
        } else if (op < 0.86 && nodes > 0) {
            const auto node =
                static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
            p.flat.restoreNode(node);
            p.ref.restoreNode(node);
            what << "restoreNode " << node;
        } else if (op < 0.93 && nodes > 0) {
            const auto node =
                static_cast<NodeId>(rng.uniformInt(0, nodes - 1));
            const double capacity =
                shape.crowd ? rng.uniform(0.0, shape.capacity)
                            : rng.uniform(0.0, 10.0);
            p.flat.setNodeCapacity(node, capacity);
            p.ref.setNodeCapacity(node, capacity);
            what << "setNodeCapacity " << node;
        } else if (shape.crowd && op < 0.95) {
            const std::vector<Application> wider =
                randomApps(rng, shape.maxReplicas + 4);
            p.flat.coverApps(wider);
            EXPECT_TRUE(p.flat.podIndex()->covers(wider));
            what << "coverApps";
        } else if (shape.crowd && op < 0.97) {
            // Places booked as one batch; the runs are laid out after.
            const auto count = rng.uniformInt(1, 12);
            p.flat.placeAll([&](const auto &place) {
                for (int64_t i = 0; i < count; ++i) {
                    const PodRef pod = pick_pod();
                    const auto node =
                        static_cast<NodeId>(rng.uniformInt(0, nodes));
                    const double cpu =
                        0.25 * static_cast<double>(
                                   rng.uniformInt(1, shape.maxCpuQuarters));
                    EXPECT_EQ(place(pod, node, cpu),
                              p.ref.place(pod, node, cpu));
                }
            });
            what << "placeAll of " << count;
        } else if (pairs.size() < 4) {
            copy_pair(p);
            what << "copy";
        }
        for (size_t i = 0; i < pairs.size(); ++i) {
            expectSame(pairs[i], universe,
                       what.str() + " (pair " + std::to_string(i) + ")");
            const bool flat_equal =
                pairs[0].flat.assignment() == pairs[i].flat.assignment();
            const bool ref_equal =
                pairs[0].ref.assignment() == pairs[i].ref.assignment();
            EXPECT_EQ(flat_equal, ref_equal) << what.str();
        }
        if (::testing::Test::HasFailure())
            return;
    }
}

/** Every slot of @p index names a pod that maps back to it, in its
 * row, in PodRef order. */
void
expectRoundTrip(const PodIndex &index)
{
    for (Slot s = 0; s < index.slotCount(); ++s) {
        const PodRef pod = index.pod(s);
        EXPECT_EQ(index.slotOf(pod), s) << "slot " << s;
        EXPECT_EQ(index.rowOfSlot(s), index.rowOf(pod.app, pod.ms))
            << "slot " << s;
        if (s > 0) {
            EXPECT_LT(index.pod(s - 1), pod) << "slot " << s;
        }
    }
}

} // namespace

TEST(ClusterStateDiff, RandomOpsMatchMapModel)
{
    for (uint64_t seed = 0; seed < 40; ++seed) {
        runDifferential(seed);
        if (HasFailure())
            return;
    }
    // Crowded nodes: up to about 80 pods on each of two to five nodes.
    DiffShape crowd;
    crowd.crowd = true;
    crowd.steps = 500;
    crowd.maxReplicas = 12;
    crowd.universeReplicas = 16;
    crowd.nodes = 2;
    crowd.capacity = 40.0;
    crowd.maxCpuQuarters = 4;
    for (uint64_t seed = 40; seed < 64; ++seed) {
        runDifferential(seed, crowd);
        if (HasFailure())
            return;
    }
}

TEST(PodIndex, PodOfEverySlotRoundTripsAfterAppendAndWiden)
{
    util::Rng rng(11);
    std::vector<Application> apps = randomApps(rng);
    apps.push_back(Application{}); // an app with no services
    const std::vector<Application> more = randomApps(rng, 6);

    PodIndex index;
    index.append(apps);
    index.append(more);
    ASSERT_EQ(index.appCount(), apps.size() + more.size());
    expectRoundTrip(index);

    const auto wider = index.widenedBy(PodRef{9, 3, 5});
    EXPECT_NE(wider->slotOf(PodRef{9, 3, 5}), kNoSlot);
    expectRoundTrip(*wider);
    const auto widest = wider->widenedBy(randomApps(rng, 9));
    expectRoundTrip(*widest);
}

TEST(PodIndex, SlotsRunInPodRefOrder)
{
    util::Rng rng(5);
    const std::vector<Application> apps = randomApps(rng);
    const auto index = PodIndex::of(apps);
    size_t pods = 0;
    for (const auto &app : apps) {
        for (const auto &ms : app.services)
            pods += static_cast<size_t>(std::max(ms.replicas, 1));
    }
    ASSERT_EQ(index->slotCount(), pods);
    EXPECT_TRUE(index->covers(apps));
    for (Slot s = 0; s < index->slotCount(); ++s) {
        EXPECT_EQ(index->slotOf(index->pod(s)), s);
        if (s > 0) {
            EXPECT_LT(index->pod(s - 1), index->pod(s));
        }
    }
    EXPECT_EQ(index->slotOf(PodRef{3, 0, 0}), kNoSlot);
    EXPECT_EQ(index->slotOf(PodRef{0, 4, 0}), kNoSlot);
    EXPECT_EQ(index->slotOf(PodRef{0, 0, 3}), kNoSlot);

    // Widening keeps PodRef order and holds the new pod.
    const auto wider = index->widenedBy(PodRef{4, 1, 2});
    EXPECT_EQ(wider->slotCount(), pods + 3);
    EXPECT_NE(wider->slotOf(PodRef{4, 1, 2}), kNoSlot);
    for (Slot s = 1; s < wider->slotCount(); ++s)
        EXPECT_LT(wider->pod(s - 1), wider->pod(s));
}

TEST(ClusterState, CopiesShareTheIndexUntilOneGrows)
{
    std::vector<Application> apps(1);
    apps[0].services.resize(2);
    apps[0].services[1].id = 1;
    apps[0].services[1].replicas = 2;
    ClusterState state(PodIndex::of(apps));
    state.addNode(10.0);
    ASSERT_TRUE(state.place(PodRef{0, 1, 1}, 0, 1.0));

    ClusterState copy = state;
    EXPECT_EQ(copy.podIndex(), state.podIndex());
    copy.coverApps(apps); // already covered: no new index
    EXPECT_EQ(copy.podIndex(), state.podIndex());

    // A pod outside the index widens the copy's index only.
    ASSERT_TRUE(copy.place(PodRef{0, 0, 5}, 0, 1.0));
    EXPECT_NE(copy.podIndex(), state.podIndex());
    EXPECT_FALSE(state.isActive(PodRef{0, 0, 5}));
    EXPECT_EQ(copy.nodeOf(PodRef{0, 1, 1}), NodeId{0});
    EXPECT_EQ(state.assignment().size(), 1u);
    EXPECT_EQ(copy.assignment().size(), 2u);
    EXPECT_FALSE(copy.assignment() == state.assignment());
    ASSERT_TRUE(copy.evict(PodRef{0, 0, 5}));
    EXPECT_TRUE(copy.assignment() == state.assignment());
}
