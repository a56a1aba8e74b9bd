/**
 * @file
 * Reference model of sim::ClusterState for the differential test: the
 * original std::map representation (a pod -> cpu map per node plus a
 * global pod -> node map). Same public contract, written for obvious
 * correctness rather than speed.
 */

#ifndef PHOENIX_TESTS_MAP_CLUSTER_STATE_H
#define PHOENIX_TESTS_MAP_CLUSTER_STATE_H

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "sim/cluster.h"

namespace phoenix::reference {

class MapClusterState
{
  public:
    sim::NodeId
    addNode(double capacity, uint32_t zone = 0)
    {
        const auto id = static_cast<sim::NodeId>(nodes_.size());
        nodes_.push_back(sim::Node{id, capacity, true, zone});
        used_.push_back(0.0);
        podsOn_.emplace_back();
        return id;
    }

    size_t nodeCount() const { return nodes_.size(); }
    const sim::Node &node(sim::NodeId id) const { return nodes_.at(id); }
    bool isHealthy(sim::NodeId id) const { return nodes_.at(id).healthy; }

    std::vector<sim::PodRef>
    failNode(sim::NodeId id)
    {
        std::vector<sim::PodRef> evicted;
        sim::Node &n = nodes_.at(id);
        if (!n.healthy)
            return evicted;
        n.healthy = false;
        for (const auto &[pod, cpu] : podsOn_[id]) {
            (void)cpu;
            evicted.push_back(pod);
            assignment_.erase(pod);
        }
        podsOn_[id].clear();
        used_[id] = 0.0;
        return evicted;
    }

    void restoreNode(sim::NodeId id) { nodes_.at(id).healthy = true; }

    void
    setNodeCapacity(sim::NodeId id, double capacity)
    {
        sim::Node &n = nodes_.at(id);
        n.capacity = std::max(capacity, used_.at(id));
    }

    bool
    place(const sim::PodRef &pod, sim::NodeId node, double cpu)
    {
        if (node >= nodes_.size())
            return false;
        const sim::Node &n = nodes_[node];
        if (!n.healthy)
            return false;
        if (assignment_.count(pod))
            return false;
        if (used_[node] + cpu > n.capacity + 1e-9)
            return false;
        assignment_[pod] = node;
        podsOn_[node][pod] = cpu;
        used_[node] += cpu;
        return true;
    }

    bool
    evict(const sim::PodRef &pod)
    {
        auto it = assignment_.find(pod);
        if (it == assignment_.end())
            return false;
        const sim::NodeId node = it->second;
        auto pit = podsOn_[node].find(pod);
        used_[node] -= pit->second;
        if (used_[node] < 0.0)
            used_[node] = 0.0;
        podsOn_[node].erase(pit);
        assignment_.erase(it);
        return true;
    }

    std::optional<sim::NodeId>
    nodeOf(const sim::PodRef &pod) const
    {
        auto it = assignment_.find(pod);
        if (it == assignment_.end())
            return std::nullopt;
        return it->second;
    }

    bool isActive(const sim::PodRef &pod) const
    {
        return assignment_.count(pod) > 0;
    }

    double used(sim::NodeId id) const { return used_.at(id); }
    double
    remaining(sim::NodeId id) const
    {
        const sim::Node &n = nodes_.at(id);
        return n.healthy ? n.capacity - used_.at(id) : 0.0;
    }

    const std::map<sim::PodRef, double> &
    podsOn(sim::NodeId id) const
    {
        return podsOn_.at(id);
    }

    const std::map<sim::PodRef, sim::NodeId> &
    assignment() const
    {
        return assignment_;
    }

    double
    podCpu(const sim::PodRef &pod) const
    {
        auto it = assignment_.find(pod);
        if (it == assignment_.end())
            return 0.0;
        return podsOn_[it->second].at(pod);
    }

  private:
    std::vector<sim::Node> nodes_;
    std::vector<double> used_;
    std::vector<std::map<sim::PodRef, double>> podsOn_;
    std::map<sim::PodRef, sim::NodeId> assignment_;
};

} // namespace phoenix::reference

#endif // PHOENIX_TESTS_MAP_CLUSTER_STATE_H
