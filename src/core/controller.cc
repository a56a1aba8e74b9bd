#include "controller.h"

#include <algorithm>

#include "util/log.h"

namespace phoenix::core {

using sim::PodRef;

PhoenixController::PhoenixController(
    sim::EventQueue &events, kube::KubeCluster &cluster,
    std::unique_ptr<ResilienceScheme> scheme)
    : events_(events), cluster_(cluster), scheme_(std::move(scheme))
{
    auto &registry = obs::Registry::global();
    obs_.polls = &registry.counter("controller.polls");
    obs_.replans = &registry.counter("controller.replans");
    obs_.membershipReplans =
        &registry.counter("controller.membership_replans");
    obs_.deletes =
        &registry.counter("controller.actions", "kind", "delete");
    obs_.migrations =
        &registry.counter("controller.actions", "kind", "migrate");
    obs_.restarts =
        &registry.counter("controller.actions", "kind", "restart");
    obs_.deferredSuperseded =
        &registry.counter("controller.deferred_superseded");
    obs_.drainApplies = &registry.counter("controller.drain_applies");
    obs_.planSeconds = &registry.histogram("controller.plan_seconds");
    obs_.recoverySeconds =
        &registry.histogram("controller.recovery_seconds");

    events_.scheduleAfter(kPollPeriod, [this] { poll(); });
}

void
PhoenixController::poll()
{
    // Observed surface only — frozen during an API-server outage.
    const double capacity = cluster_.observedReadyCapacity();
    const uint64_t fingerprint = cluster_.observedReadyFingerprint();
    PHOENIX_COUNT(*obs_.polls, 1);

    // Mark recovery of the pending replan once every planned pod runs.
    if (!history_.empty() && history_.back().recoveredAt < 0.0) {
        const bool all_running =
            std::all_of(target_.begin(), target_.end(),
                        [this](const PodRef &ref) {
                            const kube::Pod *pod = cluster_.pod(ref);
                            return pod &&
                                   pod->phase == kube::PodPhase::Running;
                        });
        if (all_running) {
            ReplanRecord &rec = history_.back();
            rec.recoveredAt = events_.now();
            PHOENIX_OBSERVE(*obs_.recoverySeconds,
                            rec.recoveredAt - rec.detectedAt);
            PHOENIX_TRACE_ASYNC_END("controller", "replan",
                                    history_.size() - 1,
                                    rec.recoveredAt);
            PHOENIX_TRACE_COMPLETE(
                "controller", "epoch", rec.detectedAt,
                rec.recoveredAt - rec.detectedAt,
                (obs::TraceArg{"deletes",
                               static_cast<double>(rec.deletes)}),
                (obs::TraceArg{"migrations",
                               static_cast<double>(rec.migrations)}),
                (obs::TraceArg{"restarts",
                               static_cast<double>(rec.restarts)}));
        }
    }

    // Forecast, when attached, observes every poll (models + risk
    // gates + proactive candidacy) before the replan decision.
    if (forecast_)
        forecast_->tick();
    const bool forceReplan = forecast_ && forecast_->takeForceReplan();

    // The first poll always plans (Phoenix owns initial placement and
    // repairs whatever spread placement left pending); afterwards
    // capacity changes *or* ready-set membership changes trigger
    // replanning. The fingerprint catches equal-capacity swaps the
    // aggregate misses: without it a pod pinned to the swapped-out
    // node strands Pending, since nothing retries its pin.
    const bool capacityChanged =
        lastCapacity_ < 0.0 ||
        std::abs(capacity - lastCapacity_) >
            kCapacityChangeThreshold * std::max(lastCapacity_, 1.0);
    const bool membershipChanged =
        lastCapacity_ >= 0.0 && fingerprint != lastFingerprint_;
    const bool changed =
        capacityChanged || membershipChanged || forceReplan;
    if (changed) {
        if (!capacityChanged && membershipChanged)
            PHOENIX_COUNT(*obs_.membershipReplans, 1);
        PHOENIX_INFO("controller: capacity change " << lastCapacity_
                                                    << " -> " << capacity
                                                    << " at t="
                                                    << events_.now());
        ReplanRecord record;
        record.detectedAt = events_.now();
        record.capacityBefore = lastCapacity_;
        record.capacityAfter = capacity;
        PHOENIX_COUNT(*obs_.replans, 1);
        PHOENIX_TRACE_ASYNC_BEGIN(
            "controller", "replan", history_.size(), record.detectedAt,
            (obs::TraceArg{"capacity_before", record.capacityBefore}),
            (obs::TraceArg{"capacity_after", record.capacityAfter}));

        const SchemeResult result =
            scheme_->apply(cluster_.apps(), cluster_.observedState());
        record.planSeconds = result.planSeconds + result.packSeconds;
        applyResult(result, record);
    } else if (forecast_) {
        // No replan trigger: an armed risk may ask for proactive
        // execution of its projection plan — evacuate / degrade ahead
        // of the anticipated fault so the fault itself is a non-event.
        if (const SchemeResult *proactive = forecast_->takeProactive()) {
            ReplanRecord record;
            record.detectedAt = events_.now();
            record.capacityBefore = capacity;
            record.capacityAfter = capacity;
            record.proactive = true;
            record.planSeconds = 0.0;
            PHOENIX_COUNT(*obs_.replans, 1);
            PHOENIX_TRACE_ASYNC_BEGIN(
                "controller", "replan", history_.size(),
                record.detectedAt,
                (obs::TraceArg{"capacity_before",
                               record.capacityBefore}),
                (obs::TraceArg{"capacity_after",
                               record.capacityAfter}));
            applyResult(*proactive, record);
        }
    }
    lastCapacity_ = capacity;
    lastFingerprint_ = fingerprint;

    events_.scheduleAfter(kPollPeriod, [this] { poll(); });
}

void
PhoenixController::applyResult(const SchemeResult &result,
                               ReplanRecord record)
{
    PHOENIX_OBSERVE(*obs_.planSeconds, record.planSeconds);
    // No wall-time duration here: the canonical trace carries sim
    // time only (plan compute cost lives in the plan_seconds
    // histogram, exempt like every wall-clock field).
    PHOENIX_TRACE_INSTANT(
        "controller", "plan", record.detectedAt,
        (obs::TraceArg{
            "actions",
            static_cast<double>(result.pack.actions.size())}));

    // assignment() iterates ascending by PodRef, so the vector
    // comes out sorted.
    target_.clear();
    target_.reserve(result.pack.state.assignment().size());
    for (const auto &[pod, node] : result.pack.state.assignment()) {
        (void)node;
        target_.push_back(pod);
    }

    for (const Action &action : result.pack.actions) {
        switch (action.kind) {
          case ActionKind::Delete:
            ++record.deletes;
            PHOENIX_COUNT(*obs_.deletes, 1);
            break;
          case ActionKind::Migrate:
            ++record.migrations;
            PHOENIX_COUNT(*obs_.migrations, 1);
            break;
          case ActionKind::Restart:
            ++record.restarts;
            PHOENIX_COUNT(*obs_.restarts, 1);
            break;
        }
    }
    PHOENIX_TRACE_INSTANT(
        "controller", "execute", events_.now(),
        (obs::TraceArg{"deletes", static_cast<double>(record.deletes)}),
        (obs::TraceArg{"migrations",
                       static_cast<double>(record.migrations)}),
        (obs::TraceArg{"restarts",
                       static_cast<double>(record.restarts)}));
    execute(result);
    history_.push_back(record);
    if (observer_)
        observer_(result, history_.back());
}

void
PhoenixController::execute(const SchemeResult &result)
{
    // Phase 1: every deletion, including scale-down of pods outside
    // the target state (without the scale-down, pods evicted by a node
    // failure but not selected by the plan would sit Pending and the
    // default scheduler would race them onto capacity the plan
    // reserved for pinned critical containers).
    bool any_delete = false;
    for (const Action &action : result.pack.actions) {
        if (action.kind == ActionKind::Delete) {
            cluster_.deletePod(action.pod);
            any_delete = true;
        }
    }
    for (const auto &app : cluster_.apps()) {
        for (const auto &ms : app.services) {
            const int replicas = std::max(ms.replicas, 1);
            for (int r = 0; r < replicas; ++r) {
                const PodRef ref{app.id, ms.id,
                                 static_cast<uint32_t>(r)};
                // Not planned: target_ lists the planned state's pods.
                if (!result.pack.state.isActive(ref)) {
                    const auto *pod = cluster_.pod(ref);
                    if (pod && !pod->scaledDown) {
                        cluster_.deletePod(ref);
                        any_delete = true;
                    }
                }
            }
        }
    }

    // Restarts are issued immediately: startPod only pins the pod and
    // hands it to the scheduler, whose bind is capacity-checked and
    // retried every tick, so it settles once drains complete. Issuing
    // them now also keeps the default scheduler from spread-binding
    // the plan's pods somewhere else in the meantime.
    for (const Action &action : result.pack.actions) {
        if (action.kind == ActionKind::Restart)
            cluster_.startPod(action.pod, action.to);
    }

    // Migrations are one-shot: the kubelet rejects a rebind onto a
    // node that is still full, and nothing retries it. Graceful
    // deletion keeps Terminating pods' capacity occupied until the
    // drain completes, so when phase 1 deleted anything the
    // migrations only become valid after the drain window. A newer
    // replan supersedes any still-deferred ones.
    deferredMoves_.clear();
    deferredWaves_.clear();
    size_t max_wave = 0;
    {
        // PDB-aware sequencing: a service with pdbMaxUnavailable = b
        // keeps at most b replicas in flight per drain window, so its
        // i-th migration rides wave i/b (waves kDrainWaitSeconds
        // apart). Everything else rides wave 0 — byte-identical to
        // the pre-PDB single-shot behaviour.
        std::vector<std::pair<uint64_t, int>> seen;
        const auto &apps = cluster_.apps();
        for (const Action &action : result.pack.actions) {
            if (action.kind != ActionKind::Migrate)
                continue;
            size_t wave = 0;
            if (action.pod.app < apps.size() &&
                action.pod.ms <
                    apps[action.pod.app].services.size()) {
                const int b = apps[action.pod.app]
                                  .services[action.pod.ms]
                                  .pdbMaxUnavailable;
                if (b > 0) {
                    const uint64_t key =
                        (static_cast<uint64_t>(action.pod.app) << 32) |
                        action.pod.ms;
                    size_t slot = seen.size();
                    for (size_t i = 0; i < seen.size(); ++i) {
                        if (seen[i].first == key) {
                            slot = i;
                            break;
                        }
                    }
                    if (slot == seen.size())
                        seen.emplace_back(key, 0);
                    wave = static_cast<size_t>(seen[slot].second / b);
                    ++seen[slot].second;
                }
            }
            deferredMoves_.push_back(action);
            deferredWaves_.push_back(wave);
            max_wave = std::max(max_wave, wave);
        }
    }
    const uint64_t generation = ++planGeneration_;
    auto apply_wave = [this, generation, max_wave](size_t wave) {
        if (generation != planGeneration_) {
            if (wave == 0)
                PHOENIX_COUNT(*obs_.deferredSuperseded, 1);
            return; // a newer plan owns the cluster now
        }
        size_t moves = 0;
        for (size_t i = 0; i < deferredMoves_.size(); ++i) {
            if (deferredWaves_[i] == wave)
                ++moves;
        }
        if (moves > 0) {
            PHOENIX_COUNT(*obs_.drainApplies, 1);
            PHOENIX_TRACE_INSTANT(
                "controller", "drain.apply", events_.now(),
                (obs::TraceArg{"moves", static_cast<double>(moves)}),
                (obs::TraceArg{"wave", static_cast<double>(wave)}));
        }
        for (size_t i = 0; i < deferredMoves_.size(); ++i) {
            if (deferredWaves_[i] == wave) {
                cluster_.migratePod(deferredMoves_[i].pod,
                                    deferredMoves_[i].to);
            }
        }
        if (wave == max_wave) {
            deferredMoves_.clear();
            deferredWaves_.clear();
        }
    };
    if (deferredMoves_.empty())
        return;
    const double base = any_delete ? kDrainWaitSeconds : 0.0;
    for (size_t w = 0; w <= max_wave; ++w) {
        const double delay =
            base + static_cast<double>(w) * kDrainWaitSeconds;
        if (delay <= 0.0)
            apply_wave(w);
        else
            events_.scheduleAfter(delay,
                                  [apply_wave, w] { apply_wave(w); });
    }
}

} // namespace phoenix::core
