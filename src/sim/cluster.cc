#include "cluster.h"

#include <algorithm>

namespace phoenix::sim {

namespace {
constexpr double kCapacityEps = 1e-9;

/** Slots a service takes: one per replica, at least one. */
Slot
slotsOf(const Microservice &ms)
{
    return static_cast<Slot>(std::max(ms.replicas, 1));
}
} // namespace

// ---- PodIndex --------------------------------------------------------

std::shared_ptr<const PodIndex>
PodIndex::of(const std::vector<Application> &apps)
{
    return PodIndex().widenedBy(apps);
}

const std::shared_ptr<const PodIndex> &
PodIndex::empty()
{
    static const std::shared_ptr<const PodIndex> index =
        std::make_shared<const PodIndex>();
    return index;
}

void
PodIndex::append(std::span<const Application> apps)
{
    size_t rows = 0;
    size_t slots = 0;
    for (const Application &app : apps) {
        rows += app.services.size();
        for (const Microservice &ms : app.services)
            slots += slotsOf(ms);
    }
    const auto grow = [](auto &table, size_t more) {
        if (table.capacity() < table.size() + more) {
            table.reserve(std::max(table.size() + more,
                                   2 * table.size()));
        }
    };
    grow(pods_, slots);
    grow(rowSlot_, rows);
    grow(appRow_, apps.size());
    for (const Application &app : apps) {
        const AppId a = static_cast<AppId>(appCount());
        for (size_t m = 0; m < app.services.size(); ++m) {
            const Slot count = slotsOf(app.services[m]);
            for (Slot r = 0; r < count; ++r)
                pods_.push_back(PodRef{a, static_cast<MsId>(m), r});
            rowSlot_.push_back(static_cast<Slot>(pods_.size()));
        }
        appRow_.push_back(rowSlot_.size() - 1);
    }
}

bool
PodIndex::covers(const std::vector<Application> &apps) const
{
    for (size_t a = 0; a < apps.size(); ++a) {
        const auto &services = apps[a].services;
        for (size_t m = 0; m < services.size(); ++m) {
            const size_t row = rowOf(static_cast<AppId>(a),
                                     static_cast<MsId>(m));
            if (row == kNoRow ||
                rowSlot_[row + 1] - rowSlot_[row] < slotsOf(services[m]))
                return false;
        }
    }
    return true;
}

PodIndex::Shape
PodIndex::shape() const
{
    Shape shape(appCount());
    for (size_t a = 0; a < shape.size(); ++a) {
        for (size_t row = appRow_[a]; row < appRow_[a + 1]; ++row)
            shape[a].push_back(rowSlot_[row + 1] - rowSlot_[row]);
    }
    return shape;
}

std::shared_ptr<const PodIndex>
PodIndex::build(const Shape &shape)
{
    auto index = std::make_shared<PodIndex>();
    size_t slots = 0;
    for (const auto &rows : shape) {
        for (const Slot count : rows)
            slots += count;
    }
    index->pods_.reserve(slots);
    for (size_t a = 0; a < shape.size(); ++a) {
        for (size_t m = 0; m < shape[a].size(); ++m) {
            for (Slot r = 0; r < shape[a][m]; ++r) {
                index->pods_.push_back(PodRef{static_cast<AppId>(a),
                                              static_cast<MsId>(m), r});
            }
            index->rowSlot_.push_back(
                static_cast<Slot>(index->pods_.size()));
        }
        index->appRow_.push_back(index->rowSlot_.size() - 1);
    }
    return index;
}

std::shared_ptr<const PodIndex>
PodIndex::widenedBy(const PodRef &pod) const
{
    Shape s = shape();
    if (s.size() <= pod.app)
        s.resize(static_cast<size_t>(pod.app) + 1);
    auto &rows = s[pod.app];
    if (rows.size() <= pod.ms)
        rows.resize(static_cast<size_t>(pod.ms) + 1, 0);
    rows[pod.ms] = std::max(rows[pod.ms], pod.replica + 1);
    return build(s);
}

std::shared_ptr<const PodIndex>
PodIndex::widenedBy(const std::vector<Application> &apps) const
{
    Shape s = shape();
    if (s.size() < apps.size())
        s.resize(apps.size());
    for (size_t a = 0; a < apps.size(); ++a) {
        const auto &services = apps[a].services;
        auto &rows = s[a];
        if (rows.size() < services.size())
            rows.resize(services.size(), 0);
        for (size_t m = 0; m < services.size(); ++m)
            rows[m] = std::max(rows[m], slotsOf(services[m]));
    }
    return build(s);
}

// ---- ClusterState ----------------------------------------------------

bool
operator==(const ClusterState::AssignmentView &a,
           const ClusterState::AssignmentView &b)
{
    return a.size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin(), b.end());
}

ClusterState::ClusterState() : index_(PodIndex::empty()) {}

ClusterState::ClusterState(std::shared_ptr<const PodIndex> index)
    : index_(index ? std::move(index) : PodIndex::empty()),
      slots_(index_->slotCount())
{
}

NodeId
ClusterState::addNode(double capacity, uint32_t zone)
{
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{id, capacity, true, zone});
    used_.push_back(0.0);
    lists_.emplace_back();
    return id;
}

void
ClusterState::reserveNodes(size_t count)
{
    nodes_.reserve(count);
    used_.reserve(count);
    lists_.reserve(count);
}

size_t
ClusterState::zoneCount() const
{
    uint32_t max_zone = 0;
    for (const auto &n : nodes_)
        max_zone = std::max(max_zone, n.zone);
    return nodes_.empty() ? 0 : static_cast<size_t>(max_zone) + 1;
}

std::vector<PodRef>
ClusterState::failNode(NodeId id)
{
    std::vector<PodRef> evicted;
    Node &n = nodes_.at(id);
    if (!n.healthy)
        return evicted;
    n.healthy = false;
    PodList &list = lists_[id];
    evicted.reserve(list.size);
    for (Slot slot = list.head; slot != kNoSlot;) {
        SlotRec &rec = slots_[slot];
        evicted.push_back(index_->pod(slot));
        rec.node = kNoNode;
        slot = rec.next;
        rec.prev = rec.next = kNoSlot;
    }
    active_ -= list.size;
    list = PodList{};
    used_[id] = 0.0;
    return evicted;
}

void
ClusterState::restoreNode(NodeId id)
{
    nodes_.at(id).healthy = true;
}

void
ClusterState::setNodeCapacity(NodeId id, double capacity)
{
    Node &n = nodes_.at(id);
    n.capacity = std::max(capacity, used_.at(id));
}

bool
ClusterState::place(const PodRef &pod, NodeId node, double cpu)
{
    if (node >= nodes_.size())
        return false;
    const Node &n = nodes_[node];
    if (!n.healthy)
        return false;
    Slot slot = index_->slotOf(pod);
    if (slot != kNoSlot && slots_[slot].node != kNoNode)
        return false;
    if (used_[node] + cpu > n.capacity + kCapacityEps)
        return false;
    if (slot == kNoSlot) {
        reindex(index_->widenedBy(pod));
        slot = index_->slotOf(pod);
    }
    slots_[slot].cpu = cpu;
    link(slot, node);
    used_[node] += cpu;
    ++active_;
    return true;
}

bool
ClusterState::evict(const PodRef &pod)
{
    const Slot slot = index_->slotOf(pod);
    if (slot == kNoSlot || slots_[slot].node == kNoNode)
        return false;
    const NodeId node = slots_[slot].node;
    used_[node] -= slots_[slot].cpu;
    if (used_[node] < 0.0)
        used_[node] = 0.0;
    unlink(slot);
    --active_;
    return true;
}

void
ClusterState::link(Slot slot, NodeId node)
{
    PodList &list = lists_[node];
    // Walk back from the tail to the last slot below this one; appends
    // in PodRef order stop at once.
    Slot before = list.tail;
    while (before != kNoSlot && before > slot)
        before = slots_[before].prev;
    SlotRec &rec = slots_[slot];
    rec.node = node;
    rec.prev = before;
    rec.next = before == kNoSlot ? list.head : slots_[before].next;
    if (before == kNoSlot)
        list.head = slot;
    else
        slots_[before].next = slot;
    if (rec.next == kNoSlot)
        list.tail = slot;
    else
        slots_[rec.next].prev = slot;
    ++list.size;
}

void
ClusterState::unlink(Slot slot)
{
    SlotRec &rec = slots_[slot];
    PodList &list = lists_[rec.node];
    if (rec.prev == kNoSlot)
        list.head = rec.next;
    else
        slots_[rec.prev].next = rec.next;
    if (rec.next == kNoSlot)
        list.tail = rec.prev;
    else
        slots_[rec.next].prev = rec.prev;
    --list.size;
    rec = SlotRec{rec.cpu, kNoNode, kNoSlot, kNoSlot};
}

void
ClusterState::coverApps(const std::vector<Application> &apps)
{
    if (!index_->covers(apps))
        reindex(index_->widenedBy(apps));
}

void
ClusterState::reindex(std::shared_ptr<const PodIndex> wider)
{
    // Both indexes run in PodRef order, so the remap is monotone and
    // every node list stays in slot order.
    const auto remap = [&](Slot slot) {
        return slot == kNoSlot ? kNoSlot
                               : wider->slotOf(index_->pod(slot));
    };
    std::vector<SlotRec> slots(wider->slotCount());
    for (Slot slot = 0; slot < slots_.size(); ++slot) {
        const SlotRec &rec = slots_[slot];
        if (rec.node == kNoNode)
            continue;
        slots[remap(slot)] =
            SlotRec{rec.cpu, rec.node, remap(rec.prev), remap(rec.next)};
    }
    for (PodList &list : lists_) {
        list.head = remap(list.head);
        list.tail = remap(list.tail);
    }
    slots_ = std::move(slots);
    index_ = std::move(wider);
}

std::vector<NodeId>
ClusterState::healthyNodes() const
{
    std::vector<NodeId> out;
    for (const auto &n : nodes_) {
        if (n.healthy)
            out.push_back(n.id);
    }
    return out;
}

double
ClusterState::totalCapacity() const
{
    double total = 0.0;
    for (const auto &n : nodes_)
        total += n.capacity;
    return total;
}

double
ClusterState::healthyCapacity() const
{
    double total = 0.0;
    for (const auto &n : nodes_) {
        if (n.healthy)
            total += n.capacity;
    }
    return total;
}

double
ClusterState::usedCapacity() const
{
    double total = 0.0;
    for (size_t i = 0; i < nodes_.size(); ++i) {
        if (nodes_[i].healthy)
            total += used_[i];
    }
    return total;
}

double
ClusterState::utilization() const
{
    const double healthy = healthyCapacity();
    if (healthy <= 0.0)
        return 0.0;
    return usedCapacity() / healthy;
}

} // namespace phoenix::sim
