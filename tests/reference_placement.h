/**
 * @file
 * Reference model of adaptlab::buildEnvironment's initial placement for
 * the differential test: best-fit decreasing one pod at a time. Every
 * pod becomes an item, the items are sorted by (cpu desc, PodRef asc),
 * and each asks a std::multiset capacity index (util::SortedKv) for the
 * node with the least remaining capacity that fits it. Written for
 * obvious correctness rather than speed.
 */

#ifndef PHOENIX_TESTS_REFERENCE_PLACEMENT_H
#define PHOENIX_TESTS_REFERENCE_PLACEMENT_H

#include <algorithm>
#include <vector>

#include "sim/cluster.h"
#include "util/sorted_kv.h"

namespace phoenix::reference {

/** @p apps placed on @p node_count empty nodes of @p node_capacity;
 * a pod no node fits stays unplaced. */
inline sim::ClusterState
bestFitDecreasing(const std::vector<sim::Application> &apps,
                  size_t node_count, double node_capacity)
{
    sim::ClusterState cluster(sim::PodIndex::of(apps));
    for (size_t n = 0; n < node_count; ++n)
        cluster.addNode(node_capacity);

    struct Item
    {
        double cpu;
        sim::PodRef pod;
    };
    std::vector<Item> items;
    for (size_t a = 0; a < apps.size(); ++a) {
        for (const auto &ms : apps[a].services) {
            for (int r = 0; r < std::max(ms.replicas, 1); ++r) {
                items.push_back(Item{
                    ms.cpu, sim::PodRef{static_cast<sim::AppId>(a), ms.id,
                                        static_cast<uint32_t>(r)}});
            }
        }
    }
    std::sort(items.begin(), items.end(),
              [](const Item &x, const Item &y) {
                  if (x.cpu != y.cpu)
                      return x.cpu > y.cpu;
                  return x.pod < y.pod;
              });

    util::SortedKv<double, sim::NodeId> by_remaining;
    for (sim::NodeId id : cluster.healthyNodes())
        by_remaining.insert(cluster.remaining(id), id);
    for (const Item &item : items) {
        const auto slot = by_remaining.firstAtLeast(item.cpu);
        if (!slot)
            continue;
        by_remaining.erase(slot->first, slot->second);
        cluster.place(item.pod, slot->second, item.cpu);
        by_remaining.insert(cluster.remaining(slot->second),
                            slot->second);
    }
    return cluster;
}

} // namespace phoenix::reference

#endif // PHOENIX_TESTS_REFERENCE_PLACEMENT_H
