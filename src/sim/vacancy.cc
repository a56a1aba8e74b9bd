#include "vacancy.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace phoenix::sim {

void
VacancyAllocator::build(const std::vector<Application> &apps,
                        std::shared_ptr<const PodIndex> index)
{
    empty_ = true;
    for (const auto &app : apps) {
        if (app.topologyConstrained()) {
            empty_ = false;
            break;
        }
    }
    // An empty allocator keys nothing; holding the index anyway would
    // keep a caller's old index alive (and its memory) between builds.
    index_ = empty_ ? nullptr : std::move(index);
    if (empty_)
        return;

    assert(index_->covers(apps));
    serviceScope_.assign(index_->rowCount(), -1);
    groupScope_.assign(index_->rowCount(), -1);
    pdbBudget_.assign(index_->rowCount(), -1);
    scopes_.clear();

    for (size_t a = 0; a < apps.size(); ++a) {
        const auto &app = apps[a];
        // One scope per declared group; remember its scope id so
        // member services can join below. Group ids are small app-local
        // integers; a linear probe per service is fine.
        std::vector<std::pair<int, int>> group_scopes; // (group id, scope)
        for (const auto &g : app.placementGroups) {
            if (g.maxPerNode <= 0 && g.maxPerZone <= 0)
                continue;
            Scope s;
            s.maxPerNode = g.maxPerNode;
            s.maxPerZone = g.maxPerZone;
            group_scopes.emplace_back(
                g.id, static_cast<int>(scopes_.size()));
            scopes_.push_back(std::move(s));
        }
        for (size_t m = 0; m < app.services.size(); ++m) {
            const auto &ms = app.services[m];
            const size_t row = index_->rowOf(static_cast<AppId>(a),
                                             static_cast<MsId>(m));
            pdbBudget_[row] = ms.pdbMaxUnavailable;
            const int zone_cap = ms.effectiveZoneCap();
            if (ms.maxPerNode > 0 || zone_cap > 0) {
                Scope s;
                s.maxPerNode = ms.maxPerNode;
                s.maxPerZone = zone_cap;
                serviceScope_[row] = static_cast<int>(scopes_.size());
                scopes_.push_back(std::move(s));
            }
            if (ms.antiAffinityGroup >= 0) {
                for (const auto &[gid, scope] : group_scopes) {
                    if (gid == ms.antiAffinityGroup) {
                        groupScope_[row] = scope;
                        break;
                    }
                }
            }
        }
    }
}

void
VacancyAllocator::build(const std::vector<Application> &apps,
                        const ClusterState &state)
{
    build(apps, state.podIndex());
    if (empty_)
        return;
    for (const auto &[pod, node] : state.assignment())
        add(pod, node, state.zoneOf(node), 1);
}

int
VacancyAllocator::zoneMembers(const Scope &s, uint32_t zone)
{
    return zone < s.zoneCount.size() ? s.zoneCount[zone] : 0;
}

bool
VacancyAllocator::vacant(const PodRef &pod, NodeId node,
                         uint32_t zone) const
{
    const size_t row = index_->rowOf(pod.app, pod.ms);
    if (row == PodIndex::kNoRow)
        return true;
    for (const int id : {serviceScope_[row], groupScope_[row]}) {
        if (id < 0)
            continue;
        const Scope &s = scopes_[id];
        if (s.maxPerNode > 0) {
            auto it = s.nodeCount.find(node);
            if (it != s.nodeCount.end() && it->second >= s.maxPerNode)
                return false;
        }
        if (s.maxPerZone > 0 && zoneMembers(s, zone) >= s.maxPerZone)
            return false;
    }
    return true;
}

void
VacancyAllocator::add(const PodRef &pod, NodeId node, uint32_t zone,
                      int delta)
{
    const size_t row = index_->rowOf(pod.app, pod.ms);
    if (row == PodIndex::kNoRow)
        return;
    for (const int id : {serviceScope_[row], groupScope_[row]}) {
        if (id < 0)
            continue;
        Scope &s = scopes_[id];
        auto it = s.nodeCount.try_emplace(node, 0).first;
        it->second += delta;
        if (it->second <= 0)
            s.nodeCount.erase(it);
        if (zone >= s.zoneCount.size())
            s.zoneCount.resize(zone + 1, 0);
        s.zoneCount[zone] = std::max(s.zoneCount[zone] + delta, 0);
    }
}

bool
VacancyAllocator::sameCounts(const VacancyAllocator &other) const
{
    if (empty_ || other.empty_)
        return empty_ == other.empty_;
    if (scopes_.size() != other.scopes_.size())
        return false;
    for (size_t i = 0; i < scopes_.size(); ++i) {
        const Scope &a = scopes_[i];
        const Scope &b = other.scopes_[i];
        if (a.nodeCount != b.nodeCount)
            return false;
        const size_t zones =
            std::max(a.zoneCount.size(), b.zoneCount.size());
        for (uint32_t z = 0; z < zones; ++z) {
            if (zoneMembers(a, z) != zoneMembers(b, z))
                return false;
        }
    }
    return true;
}

int
VacancyAllocator::pdbRemaining(const PodRef &pod) const
{
    if (empty_)
        return std::numeric_limits<int>::max();
    const size_t row = index_->rowOf(pod.app, pod.ms);
    if (row == PodIndex::kNoRow || pdbBudget_[row] < 0)
        return std::numeric_limits<int>::max();
    return pdbBudget_[row];
}

void
VacancyAllocator::consumePdb(const PodRef &pod)
{
    if (empty_)
        return;
    const size_t row = index_->rowOf(pod.app, pod.ms);
    if (row != PodIndex::kNoRow && pdbBudget_[row] > 0)
        --pdbBudget_[row];
}

} // namespace phoenix::sim
