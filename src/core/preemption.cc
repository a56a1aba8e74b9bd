#include "preemption.h"

#include <algorithm>
#include <chrono>
#include <limits>

#include "core/planner.h"
#include "util/bucketed_kv.h"

namespace phoenix::core {

using sim::Application;
using sim::ClusterState;
using sim::NodeId;
using sim::PodRef;

namespace {

using Clock = std::chrono::steady_clock;

/** PriorityClass of a pod: lower number = higher priority. */
int
priorityOf(const std::vector<Application> &apps, const PodRef &pod)
{
    return effectiveCriticality(apps[pod.app],
                                apps[pod.app].services[pod.ms]);
}

} // namespace

SchemeResult
KubePreemptionScheme::apply(const std::vector<Application> &apps,
                            const ClusterState &current)
{
    SchemeResult result;
    const auto start = Clock::now();
    result.pack.state = current;
    ClusterState &state = result.pack.state;

    // Pending pods in PriorityClass order (the K8s scheduling queue is
    // priority-sorted).
    struct Pending
    {
        int priority;
        PodRef pod;
        double cpu;

        bool
        operator<(const Pending &other) const
        {
            if (priority != other.priority)
                return priority < other.priority;
            return pod < other.pod;
        }
    };
    std::vector<Pending> queue;
    // PodRefs carry the *index* into apps, not Application::id — with
    // sparse/non-contiguous app ids the two diverge, and priorityOf
    // indexes apps by pod.app.
    for (size_t a = 0; a < apps.size(); ++a) {
        const Application &app = apps[a];
        for (const auto &ms : app.services) {
            for (int r = 0; r < std::max(ms.replicas, 1); ++r) {
                const PodRef pod{static_cast<sim::AppId>(a), ms.id,
                                 static_cast<uint32_t>(r)};
                if (!state.isActive(pod)) {
                    queue.push_back(Pending{
                        effectiveCriticality(app, ms), pod, ms.cpu});
                }
            }
        }
    }
    std::sort(queue.begin(), queue.end());

    std::vector<std::pair<double, NodeId>> healthy;
    for (NodeId id : state.healthyNodes())
        healthy.emplace_back(state.remaining(id), id);
    std::sort(healthy.begin(), healthy.end());
    util::BucketedKv<NodeId> by_remaining;
    by_remaining.loadSorted(healthy);

    auto place = [&](const PodRef &pod, NodeId node, double cpu) {
        const double before = state.remaining(node);
        state.place(pod, node, cpu);
        by_remaining.erase(before, node);
        by_remaining.insert(state.remaining(node), node);
        Action action;
        action.kind = ActionKind::Restart;
        action.pod = pod;
        action.to = node;
        result.pack.actions.push_back(action);
    };

    result.pack.complete = true;
    for (const Pending &pending : queue) {
        // Normal scheduling attempt: spread (least allocated).
        const auto top = by_remaining.largest();
        if (top && top->first + 1e-9 >= pending.cpu) {
            place(pending.pod, top->second, pending.cpu);
            ++result.pack.placed;
            continue;
        }

        // Preemption: on each node, victims are strictly lower
        // priority pods, evicted most-recently-lowest first; pick the
        // node needing the fewest victims (K8s minimizes disruption).
        constexpr size_t kCandidates = 64;
        std::optional<NodeId> best_node;
        std::vector<PodRef> best_victims;
        size_t considered = 0;
        by_remaining.scanDescending([&](const auto &entry) {
            if (considered++ == kCandidates)
                return false;
            const NodeId node = entry.second;
            double free = entry.first;
            std::vector<std::pair<int, PodRef>> victims;
            for (const auto &[pod, cpu] : state.podsOn(node)) {
                (void)cpu;
                const int prio = priorityOf(apps, pod);
                if (prio > pending.priority)
                    victims.emplace_back(prio, pod);
            }
            // Lowest-priority victims first.
            std::sort(victims.begin(), victims.end(),
                      [](const auto &x, const auto &y) {
                          return x.first > y.first;
                      });
            std::vector<PodRef> chosen;
            for (const auto &[prio, pod] : victims) {
                (void)prio;
                if (free + 1e-9 >= pending.cpu)
                    break;
                free += state.podCpu(pod);
                chosen.push_back(pod);
            }
            if (free + 1e-9 >= pending.cpu &&
                (!best_node || chosen.size() < best_victims.size())) {
                best_node = node;
                best_victims = std::move(chosen);
            }
            return true;
        });

        if (!best_node) {
            result.pack.complete = false;
            continue; // unschedulable, stays pending
        }
        for (const PodRef &victim : best_victims) {
            const auto node = state.nodeOf(victim);
            const double before = state.remaining(*node);
            state.evict(victim);
            by_remaining.erase(before, *node);
            by_remaining.insert(state.remaining(*node), *node);
            Action action;
            action.kind = ActionKind::Delete;
            action.pod = victim;
            action.from = *node;
            result.pack.actions.push_back(action);
        }
        place(pending.pod, *best_node, pending.cpu);
        ++result.pack.placed;
    }

    result.planSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return result;
}

} // namespace phoenix::core
