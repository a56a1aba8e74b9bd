#include "cluster.h"

#include <algorithm>

namespace phoenix::sim {

namespace {
constexpr double kCapacityEps = 1e-9;
/** Room a run that fills for the first time moves to. */
constexpr uint32_t kMinRunRoom = 4;

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

template <typename SlotsOf>
void
PodIndex::appendApp(size_t services, SlotsOf slotsOf)
{
    const AppId app = static_cast<AppId>(appCount());
    for (size_t m = 0; m < services; ++m) {
        const auto row = static_cast<uint32_t>(rowCount());
        rowApp_.push_back(app);
        slotRow_.insert(slotRow_.end(), slotsOf(m), row);
        rowSlot_.push_back(static_cast<Slot>(slotRow_.size()));
    }
    appRow_.push_back(rowSlot_.size() - 1);
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
    grow(slotRow_, slots);
    grow(rowSlot_, rows);
    grow(rowApp_, rows);
    grow(appRow_, apps.size());
    for (const Application &app : apps) {
        appendApp(app.services.size(),
                  [&](size_t m) { return slotsOf(app.services[m]); });
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
    size_t rows = 0;
    size_t slots = 0;
    for (const auto &app : shape) {
        rows += app.size();
        for (const Slot count : app)
            slots += count;
    }
    index->appRow_.reserve(shape.size() + 1);
    index->rowSlot_.reserve(rows + 1);
    index->rowApp_.reserve(rows);
    index->slotRow_.reserve(slots);
    for (const auto &app : shape)
        index->appendApp(app.size(), [&](size_t m) { return app[m]; });
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
      slotNode_(index_->slotCount(), kNoNode),
      slotCpu_(index_->slotCount(), 0.0)
{
}

ClusterState::ClusterState(const ClusterState &other)
{
    *this = other;
}

ClusterState &
ClusterState::operator=(const ClusterState &other)
{
    if (this == &other)
        return *this;
    index_ = other.index_;
    nodes_ = other.nodes_;
    used_ = other.used_;
    slotNode_ = other.slotNode_;
    slotCpu_ = other.slotCpu_;
    active_ = other.active_;
    runs_ = other.runs_;
    copyRuns(other.pool_);
    return *this;
}

void
ClusterState::copyRuns(const std::vector<Slot> &from)
{
    std::vector<Slot> pool;
    pool.reserve(active_);
    for (Run &run : runs_) {
        const auto first = from.begin() + run.begin;
        run.begin = static_cast<uint32_t>(pool.size());
        run.cap = run.size;
        pool.insert(pool.end(), first, first + run.size);
    }
    pool_ = std::move(pool);
}

NodeId
ClusterState::addNode(double capacity, uint32_t zone)
{
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(Node{id, capacity, true, zone});
    used_.push_back(0.0);
    runs_.emplace_back();
    return id;
}

void
ClusterState::reserveNodes(size_t count)
{
    nodes_.reserve(count);
    used_.reserve(count);
    runs_.reserve(count);
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
    Run &run = runs_[id];
    evicted.reserve(run.size);
    const Slot *first = pool_.data() + run.begin;
    for (const Slot *at = first; at != first + run.size; ++at) {
        evicted.push_back(index_->pod(*at));
        slotNode_[*at] = kNoNode;
    }
    active_ -= run.size;
    run.size = 0;
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
    const Slot slot = book(pod, node, cpu);
    if (slot == kNoSlot)
        return false;
    link(slot, node);
    return true;
}

Slot
ClusterState::book(const PodRef &pod, NodeId node, double cpu)
{
    if (node >= nodes_.size())
        return kNoSlot;
    const Node &n = nodes_[node];
    if (!n.healthy)
        return kNoSlot;
    Slot slot = index_->slotOf(pod);
    if (slot != kNoSlot && slotNode_[slot] != kNoNode)
        return kNoSlot;
    if (used_[node] + cpu > n.capacity + kCapacityEps)
        return kNoSlot;
    if (slot == kNoSlot) {
        reindex(index_->widenedBy(pod));
        slot = index_->slotOf(pod);
    }
    slotNode_[slot] = node;
    slotCpu_[slot] = cpu;
    used_[node] += cpu;
    ++active_;
    return slot;
}

void
ClusterState::layOutFromSlots()
{
    // Count each node's pods, then scatter the slots in ascending order,
    // so every run comes out sorted.
    for (Run &run : runs_)
        run.size = 0;
    for (const NodeId node : slotNode_) {
        if (node != kNoNode)
            ++runs_[node].size;
    }
    uint32_t begin = 0;
    for (Run &run : runs_) {
        run.begin = begin;
        run.cap = run.size;
        begin += run.size;
        run.size = 0;
    }
    std::vector<Slot> pool(active_);
    for (Slot slot = 0; slot < slotNode_.size(); ++slot) {
        if (slotNode_[slot] != kNoNode) {
            Run &run = runs_[slotNode_[slot]];
            pool[run.begin + run.size++] = slot;
        }
    }
    pool_ = std::move(pool);
}

bool
ClusterState::evict(const PodRef &pod)
{
    const Slot slot = index_->slotOf(pod);
    if (slot == kNoSlot || slotNode_[slot] == kNoNode)
        return false;
    const NodeId node = slotNode_[slot];
    used_[node] -= slotCpu_[slot];
    if (used_[node] < 0.0)
        used_[node] = 0.0;
    unlink(slot);
    --active_;
    return true;
}

void
ClusterState::link(Slot slot, NodeId node)
{
    Run &run = runs_[node];
    if (run.size == run.cap)
        growRun(run);
    Slot *first = pool_.data() + run.begin;
    Slot *last = first + run.size;
    // Appends in PodRef order land at the end without a search.
    Slot *at = run.size == 0 || last[-1] < slot
                   ? last
                   : std::upper_bound(first, last, slot);
    std::copy_backward(at, last, last + 1);
    *at = slot;
    ++run.size;
}

void
ClusterState::unlink(Slot slot)
{
    Run &run = runs_[slotNode_[slot]];
    Slot *first = pool_.data() + run.begin;
    Slot *last = first + run.size;
    Slot *at = std::lower_bound(first, last, slot);
    std::copy(at + 1, last, at);
    --run.size;
    slotNode_[slot] = kNoNode;
}

void
ClusterState::growRun(Run &run)
{
    // Each move at least doubles the run's room, so the room a run has
    // left behind stays below the room it holds, and the pool below
    // twice what the runs hold: no compaction is needed.
    const auto begin = static_cast<uint32_t>(pool_.size());
    const uint32_t cap = std::max<uint32_t>(2 * run.size, kMinRunRoom);
    pool_.resize(begin + cap);
    std::copy_n(pool_.begin() + run.begin, run.size,
                pool_.begin() + begin);
    run.begin = begin;
    run.cap = cap;
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
    // every run stays ascending. The slot tables move by themselves:
    // inside placeAll() they hold pods no run holds yet.
    const auto remap = [&](Slot slot) {
        return wider->slotOf(index_->pod(slot));
    };
    std::vector<NodeId> nodes(wider->slotCount(), kNoNode);
    std::vector<double> cpus(wider->slotCount(), 0.0);
    for (Slot slot = 0; slot < slotNode_.size(); ++slot) {
        if (slotNode_[slot] == kNoNode)
            continue;
        const Slot to = remap(slot);
        nodes[to] = slotNode_[slot];
        cpus[to] = slotCpu_[slot];
    }
    for (const Run &run : runs_) {
        Slot *first = pool_.data() + run.begin;
        for (Slot *at = first; at != first + run.size; ++at)
            *at = remap(*at);
    }
    slotNode_ = std::move(nodes);
    slotCpu_ = std::move(cpus);
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
