#include "kube.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

#include "util/log.h"

namespace phoenix::kube {

using sim::ClusterState;
using sim::NodeId;
using sim::PodRef;

namespace {

/** Slack for capacity comparisons (same as the scheduler's). */
constexpr double kCapacityEps = 1e-9;
/** Slack for incremental-vs-scan usage equality (fp accumulation). */
constexpr double kUsageEps = 1e-6;

const char *
phaseName(PodPhase phase)
{
    switch (phase) {
    case PodPhase::Pending: return "Pending";
    case PodPhase::Starting: return "Starting";
    case PodPhase::Running: return "Running";
    case PodPhase::Terminating: return "Terminating";
    }
    return "?";
}

/** Static trace-event names per transition target (the tracer stores
 * the pointers). */
const char *
transitionEventName(PodPhase to)
{
    switch (to) {
    case PodPhase::Pending: return "pod->Pending";
    case PodPhase::Starting: return "pod->Starting";
    case PodPhase::Running: return "pod->Running";
    case PodPhase::Terminating: return "pod->Terminating";
    }
    return "pod->?";
}

} // namespace

KubeCluster::KubeCluster(sim::EventQueue &events, KubeConfig config)
    : events_(events), config_(config), rng_(config.seed),
      podIndex_(std::make_shared<sim::PodIndex>())
{
    obs::Registry &registry = obs::Registry::global();
    obs_.transitions[0] =
        &registry.counter("kube.pod_transitions", "to", "Pending");
    obs_.transitions[1] =
        &registry.counter("kube.pod_transitions", "to", "Starting");
    obs_.transitions[2] =
        &registry.counter("kube.pod_transitions", "to", "Running");
    obs_.transitions[3] =
        &registry.counter("kube.pod_transitions", "to", "Terminating");
    obs_.binds = &registry.counter("kube.scheduler.binds");
    obs_.nodeProbes = &registry.counter("kube.scheduler.node_probes");
    obs_.pendingVisits =
        &registry.counter("kube.scheduler.pending_visits");
    obs_.evictedPods = &registry.counter("kube.evictions.pods");
    obs_.evictionEpisodes =
        &registry.counter("kube.evictions.episodes");
    obs_.invariantViolations =
        &registry.counter("kube.invariant_violations");
    obs_.migrationsRejected =
        &registry.counter("kube.migrations.rejected");
    obs_.nodeNotReady = &registry.counter("kube.node.not_ready");
    obs_.nodeReady = &registry.counter("kube.node.ready");

    // Control-plane loops. These chains reschedule themselves forever;
    // drive the simulation with runUntil(), not runAll().
    events_.scheduleAfter(config_.heartbeatPeriod,
                          [this] { nodeControllerTick(); });
    events_.scheduleAfter(config_.schedulerPeriod,
                          [this] { schedulerTick(); });
}

NodeId
KubeCluster::addNode(double capacity, uint32_t zone)
{
    const NodeId id = static_cast<NodeId>(nodes_.size());
    NodeRec rec;
    rec.id = id;
    rec.capacity = capacity;
    rec.zone = zone;
    rec.lastHeartbeat = events_.now();
    if (zone != 0)
        hasExplicitZones_ = true;
    nodes_.push_back(rec);
    nodeUsed_.push_back(0.0);
    nodePods_.emplace_back();
    nodeKey_.push_back(freeKey(rec));
    capacityIndex_.insert(nodeKey_.back(), id);
    nodeEvictionEpisodes_.push_back(0);
    startHeartbeatChain(id);
    return id;
}

void
KubeCluster::addApplication(const sim::Application &app)
{
    // Slots are appended in PodRef order, which needs every ms.id to
    // be its index.
    for (size_t m = 0; m < app.services.size(); ++m) {
        if (app.services[m].id != m) {
            throw std::invalid_argument(
                "KubeCluster::addApplication: service " +
                std::to_string(m) + " of app '" + app.name +
                "' has id " + std::to_string(app.services[m].id));
        }
    }
    apps_.push_back(app);
    const sim::AppId app_id = static_cast<sim::AppId>(apps_.size() - 1);
    apps_.back().id = app_id;
    const Slot first = static_cast<Slot>(pods_.size());
    for (const auto &ms : apps_.back().services) {
        const int replicas = std::max(ms.replicas, 1);
        for (int r = 0; r < replicas; ++r) {
            Pod pod;
            pod.ref = PodRef{app_id, ms.id, static_cast<uint32_t>(r)};
            pod.cpu = ms.cpu;
            pods_.push_back(pod);
        }
    }
    // The allocators let go of the index, so that podIndex() can
    // append to it in place: they are rebuilt below and on the next
    // sweep.
    vacancy_ = sim::VacancyAllocator();
    validateVacancy_ = sim::VacancyAllocator();
    podEpoch_.resize(pods_.size(), 0);
    podPos_.resize(pods_.size(), 0);
    // New pods are appended Pending; earlier slots keep their bits.
    pendingBits_.resize((pods_.size() + 63) / 64, 0);
    for (Slot slot = first; slot < pods_.size(); ++slot)
        syncPending(slot);
    // Pods registered earlier may already occupy nodes.
    buildVacancy(vacancy_);
}

const std::shared_ptr<sim::PodIndex> &
KubeCluster::podIndex() const
{
    if (indexedApps_ < apps_.size()) {
        // Whatever else holds the index (a snapshot, the outage-frozen
        // state, a packed plan) keeps it as it is.
        if (podIndex_.use_count() > 1)
            podIndex_ = std::make_shared<sim::PodIndex>(*podIndex_);
        podIndex_->append(std::span(apps_).subspan(indexedApps_));
        indexedApps_ = apps_.size();
        assert(podIndex_->slotCount() == pods_.size());
    }
    return podIndex_;
}

void
KubeCluster::buildVacancy(sim::VacancyAllocator &vacancy) const
{
    // An allocator over unconstrained apps keeps no index, so only a
    // constrained app brings the index up to date here.
    const bool constrained =
        std::any_of(apps_.begin(), apps_.end(), [](const auto &app) {
            return app.topologyConstrained();
        });
    vacancy.build(apps_, constrained ? podIndex() : nullptr);
    if (vacancy.empty())
        return;
    for (const Pod &pod : pods_) {
        if (occupiesNode(pod.phase))
            vacancy.onPlace(pod.ref, pod.node, nodes_[pod.node].zone);
    }
}

void
KubeCluster::startHeartbeatChain(NodeId node)
{
    // The chain's own event would carry the next sequence number; when
    // that number directly follows the last armed group's and both are
    // due at one instant, the two events would fire back to back, so
    // one event serves both. Merging on the instant alone would let a
    // chain started after a node-controller tick beat ahead of the
    // next tick.
    if (!beatGroups_.empty()) {
        BeatGroup &last = beatGroups_[lastBeatGroup_];
        if (last.armed && events_.nextSeq() == lastBeatSeq_ + 1 &&
            last.due == events_.now() + config_.heartbeatPeriod) {
            last.members.push_back(node);
            return;
        }
    }
    uint32_t group = static_cast<uint32_t>(beatGroups_.size());
    if (freeBeatGroups_.empty()) {
        beatGroups_.emplace_back();
    } else {
        group = freeBeatGroups_.back();
        freeBeatGroups_.pop_back();
    }
    beatGroups_[group].members.push_back(node);
    armBeatGroup(group);
}

void
KubeCluster::armBeatGroup(uint32_t group)
{
    BeatGroup &g = beatGroups_[group];
    g.armed = true;
    g.due = events_.now() + config_.heartbeatPeriod;
    lastBeatGroup_ = group;
    lastBeatSeq_ = events_.nextSeq();
    events_.scheduleAfter(config_.heartbeatPeriod,
                          [this, group] { beat(group); });
}

void
KubeCluster::beat(uint32_t group)
{
    BeatGroup &g = beatGroups_[group];
    g.armed = false;
    size_t kept = 0;
    for (const NodeId node : g.members) {
        NodeRec &rec = nodes_[node];
        if (!rec.kubeletRunning)
            continue; // chain dies; startKubelet starts a new one
        // A partitioned kubelet keeps beating, but the updates never
        // reach the node controller; a skewed clock stamps the status
        // with its own (wrong) time.
        if (!rec.partitioned)
            rec.lastHeartbeat = events_.now() + rec.clockSkew;
        g.members[kept++] = node;
    }
    g.members.resize(kept);
    if (kept == 0)
        freeBeatGroups_.push_back(group);
    else
        armBeatGroup(group);
}

void
KubeCluster::stopKubelet(NodeId node)
{
    nodes_[node].kubeletRunning = false;
}

void
KubeCluster::startKubelet(NodeId node)
{
    NodeRec &rec = nodes_[node];
    if (rec.kubeletRunning)
        return;
    rec.kubeletRunning = true;
    if (!rec.partitioned)
        rec.lastHeartbeat = events_.now() + rec.clockSkew;
    startHeartbeatChain(node);
}

void
KubeCluster::partitionNode(NodeId node)
{
    NodeRec &rec = nodes_[node];
    if (rec.partitioned)
        return;
    rec.partitioned = true;
}

void
KubeCluster::healPartition(NodeId node)
{
    NodeRec &rec = nodes_[node];
    if (!rec.partitioned)
        return;
    rec.partitioned = false;
    // No lastHeartbeat bump here: the next in-flight heartbeat (within
    // heartbeatPeriod) is the first status the controller sees again.
}

void
KubeCluster::degradeNode(NodeId node, double factor)
{
    NodeRec &rec = nodes_[node];
    factor = std::clamp(factor, sim::kMinDegradeFactor, 1.0);
    if (rec.degradeFactor == factor)
        return;
    rec.degradeFactor = factor;
    rekeyNode(node);
}

void
KubeCluster::setClockSkew(NodeId node, double skewSeconds)
{
    nodes_[node].clockSkew = skewSeconds;
}

void
KubeCluster::beginApiOutage()
{
    if (apiOutage_)
        return;
    // Order matters: capture the surface before raising the flag so
    // the frozen values are the live ones at freeze time.
    frozenState_ = buildState();
    frozenReadyCapacity_ = readyCapacity();
    frozenFingerprint_ = readyFingerprint();
    apiOutage_ = true;
}

void
KubeCluster::endApiOutage()
{
    apiOutage_ = false;
    // Nothing reads the frozen state outside an outage; releasing it
    // lets the index take later apps in place.
    frozenState_ = sim::ClusterState();
}

void
KubeCluster::nodeControllerTick()
{
    for (NodeRec &rec : nodes_) {
        // The NotReady boundary is pinned: a heartbeat whose age is
        // *exactly* nodeGracePeriod is still fresh (<=, not <). Clock
        // skew puts real runs precisely on this edge — with a
        // heartbeat period of 10, a grace of 100, and a skew of -100,
        // every age the controller computes is an exact multiple of
        // 10 — so the comparison must have one defined outcome.
        // test_kube pins it with a regression test.
        const bool fresh =
            events_.now() - rec.lastHeartbeat <= config_.nodeGracePeriod;
        if (rec.ready && !fresh) {
            rec.ready = false;
            capacityIndex_.erase(nodeKey_[rec.id], rec.id);
            PHOENIX_INFO("node " << rec.id << " NotReady at t="
                                 << events_.now());
            PHOENIX_COUNT(*obs_.nodeNotReady, 1);
            PHOENIX_TRACE_INSTANT(
                "kube", "node NotReady", events_.now(),
                (obs::TraceArg{"node", static_cast<double>(rec.id)}));
            evictPodsOn(rec.id);
        } else if (!rec.ready && fresh && rec.kubeletRunning) {
            rec.ready = true;
            nodeKey_[rec.id] = freeKey(rec);
            capacityIndex_.insert(nodeKey_[rec.id], rec.id);
            PHOENIX_INFO("node " << rec.id << " Ready at t="
                                 << events_.now());
            PHOENIX_COUNT(*obs_.nodeReady, 1);
            PHOENIX_TRACE_INSTANT(
                "kube", "node Ready", events_.now(),
                (obs::TraceArg{"node", static_cast<double>(rec.id)}));
        }
    }
    validateAfterEvent();
    events_.scheduleAfter(config_.heartbeatPeriod,
                          [this] { nodeControllerTick(); });
}

bool
KubeCluster::occupiesNode(PodPhase phase)
{
    return phase == PodPhase::Starting || phase == PodPhase::Running ||
           phase == PodPhase::Terminating;
}

bool
KubeCluster::legalTransition(PodPhase from, PodPhase to)
{
    switch (from) {
    case PodPhase::Pending:
        return to == PodPhase::Starting;
    case PodPhase::Starting:
        // Starting -> Starting is a migration rebind (new node, new
        // startup clock).
        return to == PodPhase::Starting || to == PodPhase::Running ||
               to == PodPhase::Pending || to == PodPhase::Terminating;
    case PodPhase::Running:
        // Running -> Running is a live migration (node change only).
        return to == PodPhase::Running || to == PodPhase::Pending ||
               to == PodPhase::Terminating;
    case PodPhase::Terminating:
        // A drain only ever completes back into Pending.
        return to == PodPhase::Pending;
    }
    return false;
}

void
KubeCluster::transition(Slot slot, PodPhase to, NodeId node)
{
    Pod &pod = pods_[slot];
    if (!legalTransition(pod.phase, to)) {
        recordViolation(std::string("illegal pod transition ") +
                        phaseName(pod.phase) + " -> " + phaseName(to));
    }
    const bool was_on = occupiesNode(pod.phase);
    const bool now_on = occupiesNode(to);
    const NodeId from = pod.node;
    if (was_on)
        nodeUsed_[from] -= pod.cpu;
    pod.phase = to;
    pod.node = node;
    if (now_on)
        nodeUsed_[node] += pod.cpu;

    const bool moved = was_on != now_on || from != node;
    if (was_on && moved) {
        // Swap-remove from the old node's list.
        std::vector<Slot> &list = nodePods_[from];
        const Slot last = list.back();
        list[podPos_[slot]] = last;
        podPos_[last] = podPos_[slot];
        list.pop_back();
        vacancy_.onEvict(pod.ref, from, nodes_[from].zone);
    }
    if (now_on && moved) {
        podPos_[slot] = static_cast<Slot>(nodePods_[node].size());
        nodePods_[node].push_back(slot);
        vacancy_.onPlace(pod.ref, node, nodes_[node].zone);
    }
    if (was_on)
        rekeyNode(from);
    if (now_on && moved)
        rekeyNode(node);
    syncPending(slot);
    PHOENIX_COUNT(*obs_.transitions[static_cast<size_t>(to)], 1);
    PHOENIX_TRACE_INSTANT(
        "kube", transitionEventName(to), events_.now(),
        (obs::TraceArg{"app", static_cast<double>(pod.ref.app)}),
        (obs::TraceArg{"ms", static_cast<double>(pod.ref.ms)}),
        (obs::TraceArg{"node", static_cast<double>(node)}));
}

void
KubeCluster::syncPending(Slot slot)
{
    const Pod &pod = pods_[slot];
    const uint64_t bit = uint64_t{1} << (slot % 64);
    if (pod.phase == PodPhase::Pending && !pod.scaledDown)
        pendingBits_[slot / 64] |= bit;
    else
        pendingBits_[slot / 64] &= ~bit;
}

double
KubeCluster::usedOn(NodeId node) const
{
    return nodeUsed_[node];
}

double
KubeCluster::freeKey(const NodeRec &rec) const
{
    // The spread scheduler's free capacity, negated exactly.
    return -(rec.capacity * rec.degradeFactor - usedOn(rec.id));
}

void
KubeCluster::rekeyNode(NodeId node)
{
    const NodeRec &rec = nodes_[node];
    if (!rec.ready)
        return;
    const double key = freeKey(rec);
    if (key == nodeKey_[node])
        return;
    capacityIndex_.erase(nodeKey_[node], node);
    nodeKey_[node] = key;
    capacityIndex_.insert(key, node);
}

void
KubeCluster::recordViolation(const std::string &what)
{
    ++invariantViolations_;
    PHOENIX_COUNT(*obs_.invariantViolations, 1);
    PHOENIX_ERROR("kube invariant violated at t=" << events_.now()
                                                  << ": " << what);
    assert(false && "kube invariant violated");
}

void
KubeCluster::validateAfterEvent()
{
    if (!config_.validateInvariants)
        return;
    validateScratch_.assign(nodes_.size(), 0.0);
    validateCounts_.assign(nodes_.size(), 0);
    for (const Pod &pod : pods_) {
        if (!occupiesNode(pod.phase))
            continue;
        if (pod.node >= nodes_.size()) {
            recordViolation("pod " + std::to_string(pod.ref.app) + "/" +
                            std::to_string(pod.ref.ms) +
                            " placed on nonexistent node");
            continue;
        }
        validateScratch_[pod.node] += pod.cpu;
        ++validateCounts_[pod.node];
    }
    for (size_t n = 0; n < nodes_.size(); ++n) {
        // Pod list: exactly the slots occupying n, positions in sync.
        const std::vector<Slot> &list = nodePods_[n];
        bool list_ok = list.size() == validateCounts_[n];
        for (size_t i = 0; list_ok && i < list.size(); ++i) {
            const Slot slot = list[i];
            list_ok = slot < pods_.size() && podPos_[slot] == i &&
                      occupiesNode(pods_[slot].phase) &&
                      pods_[slot].node == n;
        }
        if (!list_ok) {
            recordViolation("node " + std::to_string(n) + " pod list (" +
                            std::to_string(list.size()) +
                            " slots) != its " +
                            std::to_string(validateCounts_[n]) +
                            " occupying pods");
        }
        const double scan = validateScratch_[n];
        if (std::abs(scan - nodeUsed_[n]) > kUsageEps) {
            recordViolation("node " + std::to_string(n) +
                            " incremental usage " +
                            std::to_string(nodeUsed_[n]) +
                            " != scanned " + std::to_string(scan));
        }
        if (scan > nodes_[n].capacity + kUsageEps) {
            recordViolation("node " + std::to_string(n) +
                            " overcommitted: used " +
                            std::to_string(scan) + " > capacity " +
                            std::to_string(nodes_[n].capacity));
        }
    }
    // Capacity index: exactly the Ready nodes, each under its key.
    validateCounts_.assign(nodes_.size(), 0);
    capacityIndex_.scanDescending([&](const auto &entry) {
        const auto &[key, id] = entry;
        if (id >= nodes_.size() || !nodes_[id].ready ||
            validateCounts_[id]++ > 0 || key != freeKey(nodes_[id])) {
            recordViolation("capacity index entry for node " +
                            std::to_string(id) + " key " +
                            std::to_string(key) +
                            " is stale, duplicate or NotReady");
        }
        return true;
    });
    for (size_t n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].ready && validateCounts_[n] == 0) {
            recordViolation("Ready node " + std::to_string(n) +
                            " missing from the capacity index");
        }
    }
    buildVacancy(validateVacancy_);
    if (!vacancy_.sameCounts(validateVacancy_))
        recordViolation("vacancy counts != a rescan of occupying pods");

    // Pending bitset: exactly the Pending, not scaled-down slots.
    for (Slot slot = 0; slot < pods_.size(); ++slot) {
        const Pod &pod = pods_[slot];
        const bool want = pod.phase == PodPhase::Pending && !pod.scaledDown;
        if (((pendingBits_[slot / 64] >> (slot % 64)) & 1) != want) {
            recordViolation("pending bit of slot " + std::to_string(slot) +
                            " != its phase " + phaseName(pod.phase) +
                            (pod.scaledDown ? " (scaled down)" : ""));
        }
    }

    // Beat groups: armed ones are non-empty and name real nodes, and
    // every running kubelet belongs to one.
    validateCounts_.assign(nodes_.size(), 0);
    for (const BeatGroup &group : beatGroups_) {
        if (!group.armed)
            continue;
        if (group.members.empty())
            recordViolation("armed heartbeat group without members");
        for (const NodeId node : group.members) {
            if (node >= nodes_.size()) {
                recordViolation("heartbeat group member " +
                                std::to_string(node) + " is no node");
                continue;
            }
            validateCounts_[node] = 1;
        }
    }
    for (size_t n = 0; n < nodes_.size(); ++n) {
        if (nodes_[n].kubeletRunning && validateCounts_[n] == 0) {
            recordViolation("node " + std::to_string(n) +
                            " runs its kubelet but is in no heartbeat "
                            "group");
        }
    }
}

void
KubeCluster::bindPod(Slot slot, NodeId node)
{
    PHOENIX_COUNT(*obs_.binds, 1);
    transition(slot, PodPhase::Starting, node);
    // Bumping the epoch cancels any armed start-completion timer, so a
    // rebind (migrate-while-Starting) restarts the startup clock.
    const uint32_t epoch = ++podEpoch_[slot];
    // Draw first, then scale: a degraded (slow) node stretches the
    // startup delay by 1/factor without perturbing the rng sequence.
    double delay =
        rng_.uniform(config_.podStartupMin, config_.podStartupMax);
    if (nodes_[node].degradeFactor < 1.0)
        delay /= nodes_[node].degradeFactor;
    events_.scheduleAfter(delay, [this, slot, epoch] {
        if (podEpoch_[slot] != epoch)
            return;
        if (pods_[slot].phase == PodPhase::Starting) {
            transition(slot, PodPhase::Running, pods_[slot].node);
            validateAfterEvent();
        }
    });
}

void
KubeCluster::evictPodsOn(NodeId node)
{
    ++nodeEvictionEpisodes_[node];
    PHOENIX_COUNT(*obs_.evictionEpisodes, 1);
    // Evict in PodRef (= slot) order: the node's usage is debited in
    // the same sequence as a walk over every pod would.
    std::vector<Slot> slots = nodePods_[node];
    std::sort(slots.begin(), slots.end());
    for (const Slot slot : slots) {
        // Documented semantics: Terminating pods keep their graceful
        // drain (the drain timer lands them in Pending; a scaled-down
        // pod parks there and never reschedules).
        if (pods_[slot].phase == PodPhase::Terminating)
            continue;
        ++podEpoch_[slot];
        transition(slot, PodPhase::Pending, node);
        ++evictedPods_;
        PHOENIX_COUNT(*obs_.evictedPods, 1);
    }
}

size_t
KubeCluster::evictionEpisodes(NodeId node) const
{
    return nodeEvictionEpisodes_.at(node);
}

void
KubeCluster::schedulerTick()
{
    // Deterministic PodRef order, over the pending bits only. A bind
    // clears only its own slot's bit, so walking a copy of each word
    // visits what a walk over every slot would.
    uint64_t probes = 0;
    uint64_t visits = 0;
    for (size_t word = 0; word < pendingBits_.size(); ++word) {
        for (uint64_t bits = pendingBits_[word]; bits != 0;
             bits &= bits - 1) {
            ++visits;
            tryBind(static_cast<Slot>(word * 64 + std::countr_zero(bits)),
                    probes);
        }
    }
    PHOENIX_COUNT(*obs_.nodeProbes, probes);
    PHOENIX_COUNT(*obs_.pendingVisits, visits);
    validateAfterEvent();
    events_.scheduleAfter(config_.schedulerPeriod,
                          [this] { schedulerTick(); });
}

void
KubeCluster::tryBind(Slot slot, uint64_t &probes)
{
    // Spread (least-allocated) scoring; pinned pods try only their pin.
    const Pod &pod = pods_[slot];
    if (pod.pinnedNode) {
        ++probes;
        const NodeId target = *pod.pinnedNode;
        if (nodes_[target].ready &&
            usedOn(target) + pod.cpu <=
                effectiveCapacity(target) + kCapacityEps &&
            vacancy_.canPlace(pod.ref, target, nodes_[target].zone)) {
            bindPod(slot, target);
        }
        return;
    }

    if (!config_.enableDefaultScheduler)
        return;

    // The index yields Ready nodes most free first, lowest id on
    // ties: the first that fits and has a vacancy is the node a
    // scan keeping the strictly largest free capacity would pick.
    NodeId best = 0;
    double best_free = -1.0;
    capacityIndex_.scanAtLeast(
        -std::numeric_limits<double>::infinity(),
        [&](const std::pair<double, NodeId> &entry) {
            ++probes;
            const double free = -entry.first;
            if (free < pod.cpu - kCapacityEps)
                return false; // every later node is fuller
            if (!vacancy_.canPlace(pod.ref, entry.second,
                                   nodes_[entry.second].zone))
                return true;
            best_free = free;
            best = entry.second;
            return false;
        });
    if (best_free >= 0.0)
        bindPod(slot, best);
}

void
KubeCluster::deletePod(const PodRef &ref)
{
    const Slot slot = podIndex()->slotOf(ref);
    if (slot == kNoSlot)
        return;
    Pod &pod = pods_[slot];
    pod.scaledDown = true;
    pod.pinnedNode.reset();
    syncPending(slot);
    if (pod.phase == PodPhase::Pending ||
        pod.phase == PodPhase::Terminating) {
        return;
    }
    // Graceful drain: endpoints removed, SIGTERM, then gone.
    transition(slot, PodPhase::Terminating, pod.node);
    const uint32_t epoch = ++podEpoch_[slot];
    events_.scheduleAfter(config_.podTerminationSeconds,
                          [this, slot, epoch] {
                              if (podEpoch_[slot] != epoch)
                                  return;
                              if (pods_[slot].phase ==
                                  PodPhase::Terminating) {
                                  transition(slot, PodPhase::Pending,
                                             pods_[slot].node);
                                  validateAfterEvent();
                              }
                          });
    validateAfterEvent();
}

void
KubeCluster::startPod(const PodRef &ref,
                      std::optional<NodeId> pinned)
{
    const Slot slot = podIndex()->slotOf(ref);
    if (slot == kNoSlot || (pinned && *pinned >= nodes_.size()))
        return;
    Pod &pod = pods_[slot];
    pod.scaledDown = false;
    pod.pinnedNode = pinned;
    syncPending(slot);

    if (pod.phase == PodPhase::Running ||
        pod.phase == PodPhase::Starting) {
        if (pinned && pod.node != *pinned)
            migratePod(ref, *pinned);
        return;
    }
    if (pod.phase == PodPhase::Terminating) {
        // Deletion raced with a restart: bring it back after the
        // drain completes (scheduler will pick it up as Pending).
        return;
    }
    // Pending: the scheduler tick will bind it (possibly pinned).
}

void
KubeCluster::migratePod(const PodRef &ref, NodeId to)
{
    const Slot slot = podIndex()->slotOf(ref);
    if (slot == kNoSlot || to >= nodes_.size())
        return;
    Pod &pod = pods_[slot];
    pod.scaledDown = false;
    pod.pinnedNode = to;
    syncPending(slot);
    if (pod.phase == PodPhase::Pending) {
        return; // plain (re)start on the target
    }
    if (pod.phase == PodPhase::Terminating) {
        // Finish the drain; the pin re-places the pod afterwards.
        return;
    }
    if (pod.node == to)
        return;

    // Validate the target exactly like the scheduler would: rebinding
    // onto a NotReady or full node silently overcommits it. Keep the
    // pin — the next replan resolves the conflict. The moving pod
    // does not count against its own target (a move inside a zone at
    // its cap stays legal), so lift it out of the counts to ask.
    const NodeRec &target = nodes_[to];
    vacancy_.onEvict(ref, pod.node, nodes_[pod.node].zone);
    const bool vacant = vacancy_.canPlace(ref, to, target.zone);
    vacancy_.onPlace(ref, pod.node, nodes_[pod.node].zone);
    if (!target.ready ||
        usedOn(to) + pod.cpu >
            target.capacity * target.degradeFactor + kCapacityEps ||
        !vacant) {
        PHOENIX_WARN("migrate " << ref.app << "/" << ref.ms
                                << " -> node " << to << " rejected: "
                                << (!target.ready ? "NotReady"
                                                  : "full/no vacancy"));
        PHOENIX_COUNT(*obs_.migrationsRejected, 1);
        return;
    }

    if (pod.phase == PodPhase::Starting) {
        // The replica never finished starting: moving it restarts the
        // startup clock on the target (bindPod bumps the epoch, which
        // cancels the old start-completion timer — no free cross-node
        // "migration").
        bindPod(slot, to);
        validateAfterEvent();
        return;
    }
    // Running: the two-stage migration collapses to an immediate
    // rebind in the model — capacity moves to the target now and the
    // service stays live (requests reroute to the new instance as it
    // starts; see Appendix E).
    transition(slot, PodPhase::Running, to);
    validateAfterEvent();
}

bool
KubeCluster::isReady(NodeId node) const
{
    return nodes_.at(node).ready;
}

bool
KubeCluster::kubeletRunning(NodeId node) const
{
    return nodes_.at(node).kubeletRunning;
}

bool
KubeCluster::isPartitioned(NodeId node) const
{
    return nodes_.at(node).partitioned;
}

double
KubeCluster::degradeFactor(NodeId node) const
{
    return nodes_.at(node).degradeFactor;
}

double
KubeCluster::clockSkew(NodeId node) const
{
    return nodes_.at(node).clockSkew;
}

double
KubeCluster::effectiveCapacity(NodeId node) const
{
    const NodeRec &rec = nodes_.at(node);
    return rec.capacity * rec.degradeFactor;
}

double
KubeCluster::nodeCapacity(NodeId node) const
{
    return nodes_.at(node).capacity;
}

int
KubeCluster::nodeZone(NodeId node) const
{
    if (!hasExplicitZones_)
        return -1;
    return static_cast<int>(nodes_.at(node).zone);
}

double
KubeCluster::readyCapacity() const
{
    double total = 0.0;
    for (const NodeRec &rec : nodes_) {
        if (rec.ready)
            total += rec.capacity * rec.degradeFactor;
    }
    return total;
}

double
KubeCluster::totalCapacity() const
{
    double total = 0.0;
    for (const NodeRec &rec : nodes_)
        total += rec.capacity;
    return total;
}

double
KubeCluster::observedCapacity(const NodeRec &rec) const
{
    if (rec.degradeFactor >= 1.0)
        return rec.capacity;
    // Report the degraded capacity, but never below current usage:
    // pods placed before the degrade keep running (slow-not-dead never
    // evicts) and must stay representable in the snapshot.
    return std::max(rec.capacity * rec.degradeFactor, usedOn(rec.id));
}

ClusterState
KubeCluster::buildState() const
{
    // The snapshot shares the index and takes the pods in one batch, in
    // slot order, so each node's run is laid out once.
    ClusterState state(podIndex());
    state.reserveNodes(nodes_.size());
    for (const NodeRec &rec : nodes_) {
        state.addNode(observedCapacity(rec), rec.zone);
        if (!rec.ready)
            state.failNode(rec.id);
    }
    state.placeAll([&](const auto &place) {
        for (const Pod &pod : pods_) {
            if (occupiesNode(pod.phase))
                place(pod.ref, pod.node, pod.cpu);
        }
    });
    return state;
}

ClusterState
KubeCluster::observedState() const
{
    return apiOutage_ ? frozenState_ : buildState();
}

ClusterState
KubeCluster::liveState() const
{
    return buildState();
}

double
KubeCluster::observedReadyCapacity() const
{
    return apiOutage_ ? frozenReadyCapacity_ : readyCapacity();
}

uint64_t
KubeCluster::readyFingerprint() const
{
    uint64_t hash = 1469598103934665603ull; // FNV-1a offset basis
    const auto mix = [&hash](uint64_t v) {
        hash ^= v;
        hash *= 1099511628211ull;
    };
    for (const NodeRec &rec : nodes_) {
        mix(rec.ready ? 0x9e3779b97f4a7c15ull : 0x2545f4914f6cdd1dull);
        const double effective = rec.capacity * rec.degradeFactor;
        uint64_t bits = 0;
        std::memcpy(&bits, &effective, sizeof(bits));
        mix(bits);
    }
    return hash;
}

uint64_t
KubeCluster::observedReadyFingerprint() const
{
    return apiOutage_ ? frozenFingerprint_ : readyFingerprint();
}

size_t
KubeCluster::forecastZoneCount(size_t fallbackZoneCount) const
{
    if (hasExplicitZones_) {
        uint32_t max_zone = 0;
        for (const NodeRec &rec : nodes_)
            max_zone = std::max(max_zone, rec.zone);
        return static_cast<size_t>(max_zone) + 1;
    }
    const size_t fallback = std::max<size_t>(fallbackZoneCount, 1);
    return std::min(fallback, std::max<size_t>(nodes_.size(), 1));
}

size_t
KubeCluster::forecastZoneOf(NodeId node, size_t fallbackZoneCount) const
{
    if (hasExplicitZones_)
        return nodes_.at(node).zone;
    return static_cast<size_t>(node) %
           std::max<size_t>(fallbackZoneCount, 1);
}

std::optional<double>
KubeCluster::observedReadyCapacityOf(const NodeRec &rec) const
{
    if (!apiOutage_) {
        if (!rec.ready)
            return std::nullopt;
        return observedCapacity(rec);
    }
    if (rec.id >= frozenState_.nodeCount() ||
        !frozenState_.isHealthy(rec.id))
        return std::nullopt;
    return frozenState_.node(rec.id).capacity;
}

std::vector<KubeCluster::ZoneCapacity>
KubeCluster::observedZoneCapacities(size_t fallbackZoneCount) const
{
    std::vector<ZoneCapacity> zones(forecastZoneCount(fallbackZoneCount));
    // Static side: nameplate capacities (never frozen — labels and
    // nameplates are deployment facts, not observations). Ready side:
    // the observation surface, so outages freeze it.
    for (const NodeRec &rec : nodes_) {
        const size_t z = forecastZoneOf(rec.id, fallbackZoneCount);
        if (z >= zones.size())
            continue;
        zones[z].staticCapacity += rec.capacity;
        if (const std::optional<double> ready =
                observedReadyCapacityOf(rec))
            zones[z].readyCapacity += *ready;
    }
    return zones;
}

std::optional<sim::ClusterState>
KubeCluster::observedStateWithout(
    const std::vector<sim::NodeId> &doomed) const
{
    if (doomed.empty())
        return std::nullopt;
    std::optional<sim::ClusterState> state = observedState();
    for (const sim::NodeId id : doomed)
        state->failNode(id);
    return state;
}

std::optional<sim::ClusterState>
KubeCluster::projectedZoneLossState(size_t zone,
                                    size_t fallbackZoneCount) const
{
    std::vector<sim::NodeId> doomed;
    for (const NodeRec &rec : nodes_) {
        if (forecastZoneOf(rec.id, fallbackZoneCount) == zone &&
            observedReadyCapacityOf(rec))
            doomed.push_back(rec.id);
    }
    return observedStateWithout(doomed);
}

std::optional<sim::ClusterState>
KubeCluster::projectedDecayState() const
{
    std::vector<sim::NodeId> doomed;
    for (const NodeRec &rec : nodes_) {
        // Observed below nameplate == degraded (observedCapacity
        // reports max(capacity * factor, usage)).
        const std::optional<double> ready = observedReadyCapacityOf(rec);
        if (ready && *ready < rec.capacity * (1.0 - 1e-12))
            doomed.push_back(rec.id);
    }
    return observedStateWithout(doomed);
}

std::set<PodRef>
KubeCluster::runningPods() const
{
    // Slot order is PodRef order: every insert appends at the end.
    std::set<PodRef> running;
    for (const Pod &pod : pods_) {
        if (pod.phase == PodPhase::Running)
            running.insert(running.end(), pod.ref);
    }
    return running;
}

size_t
KubeCluster::pendingCount() const
{
    size_t count = 0;
    for (const uint64_t word : pendingBits_)
        count += static_cast<size_t>(std::popcount(word));
    return count;
}

const Pod *
KubeCluster::pod(const PodRef &ref) const
{
    const Slot slot = podIndex()->slotOf(ref);
    return slot == kNoSlot ? nullptr : &pods_[slot];
}

} // namespace phoenix::kube
