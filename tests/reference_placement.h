/**
 * @file
 * Reference model of adaptlab::buildEnvironment's initial placement for
 * the differential test: best-fit decreasing one pod at a time. Every
 * pod becomes an item, the items are sorted by (cpu desc, PodRef asc),
 * and each asks a std::multiset capacity index of (remaining, node)
 * pairs for the node with the least remaining capacity that fits it.
 * Written for obvious correctness rather than speed.
 */

#ifndef PHOENIX_TESTS_REFERENCE_PLACEMENT_H
#define PHOENIX_TESTS_REFERENCE_PLACEMENT_H

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "sim/cluster.h"

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

    std::multiset<std::pair<double, sim::NodeId>> by_remaining;
    for (sim::NodeId id : cluster.healthyNodes())
        by_remaining.emplace(cluster.remaining(id), id);
    for (const Item &item : items) {
        const auto fit = by_remaining.lower_bound({item.cpu, 0});
        if (fit == by_remaining.end())
            continue;
        const sim::NodeId node = fit->second;
        by_remaining.erase(fit);
        cluster.place(item.pod, node, item.cpu);
        by_remaining.emplace(cluster.remaining(node), node);
    }
    return cluster;
}

} // namespace phoenix::reference

#endif // PHOENIX_TESTS_REFERENCE_PLACEMENT_H
