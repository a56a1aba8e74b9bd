#include "shrink.h"

#include <algorithm>
#include <set>

namespace phoenix::check {

namespace {

/** Properties the original failure exhibited. */
std::set<std::string>
violatedProperties(const OracleResult &result)
{
    std::set<std::string> properties;
    for (const auto &v : result.violations)
        properties.insert(v.property);
    return properties;
}

bool
stillFails(const CheckCase &candidate, const OracleOptions &oracle,
           const std::set<std::string> &targets, size_t &checks)
{
    ++checks;
    const OracleResult result = checkCase(candidate, oracle);
    for (const auto &v : result.violations) {
        if (targets.count(v.property))
            return true;
    }
    return false;
}

CheckCase
withoutApp(const CheckCase &c, size_t app)
{
    CheckCase out = c;
    out.apps.erase(out.apps.begin() + static_cast<long>(app));
    return out;
}

CheckCase
withoutService(const CheckCase &c, size_t app, sim::MsId ms)
{
    CheckCase out = c;
    auto &target = out.apps[app];
    if (target.hasDependencyGraph) {
        std::vector<graph::NodeId> keep;
        for (graph::NodeId m = 0; m < target.services.size(); ++m) {
            if (m != ms)
                keep.push_back(m);
        }
        target.dag = target.dag.subgraph(keep);
        target.hasDependencyGraph = target.dag.edgeCount() > 0;
    }
    target.services.erase(target.services.begin() + ms);
    for (sim::MsId m = 0; m < target.services.size(); ++m)
        target.services[m].id = m;
    return out;
}

CheckCase
withoutNode(const CheckCase &c, sim::NodeId node)
{
    CheckCase out = c;
    out.nodeCapacities.erase(out.nodeCapacities.begin() + node);
    if (!out.nodeZones.empty())
        out.nodeZones.erase(out.nodeZones.begin() + node);
    std::vector<sim::Scenario::Step> steps;
    for (sim::Scenario::Step step : out.steps) {
        std::vector<sim::NodeId> nodes;
        for (sim::NodeId n : step.nodes) {
            if (n == node)
                continue;
            nodes.push_back(n > node ? n - 1 : n);
        }
        // A step left with no node goes; an outage never named one.
        if (nodes.empty() && !step.nodes.empty())
            continue;
        step.nodes = std::move(nodes);
        steps.push_back(std::move(step));
    }
    out.steps = std::move(steps);
    return out;
}

CheckCase
withoutStep(const CheckCase &c, size_t step)
{
    CheckCase out = c;
    out.steps.erase(out.steps.begin() + static_cast<long>(step));
    return out;
}

CheckCase
withoutDag(const CheckCase &c, size_t app)
{
    CheckCase out = c;
    out.apps[app].dag = graph::DiGraph();
    out.apps[app].hasDependencyGraph = false;
    return out;
}

CheckCase
withSingleReplicas(const CheckCase &c)
{
    CheckCase out = c;
    for (auto &app : out.apps) {
        for (auto &ms : app.services) {
            ms.replicas = 1;
            ms.quorum = 0;
        }
    }
    return out;
}

CheckCase
withoutLifecycle(const CheckCase &c)
{
    CheckCase out = c;
    out.lifecycle = false;
    return out;
}

} // namespace

ShrinkOutcome
shrinkCase(const CheckCase &failing,
           const OracleOptions &oracle_options,
           const ShrinkOptions &options)
{
    ShrinkOutcome outcome;
    outcome.shrunk = failing;
    const std::set<std::string> targets =
        violatedProperties(checkCase(failing, oracle_options));
    outcome.checks = 1;
    if (targets.empty())
        return outcome; // nothing to preserve; caller passed a pass

    CheckCase &current = outcome.shrunk;
    const auto accept = [&](const CheckCase &candidate) {
        if (outcome.checks >= options.maxChecks)
            return false;
        if (!stillFails(candidate, oracle_options, targets,
                        outcome.checks))
            return false;
        current = candidate;
        ++outcome.stepsApplied;
        return true;
    };

    bool progressed = true;
    while (progressed && outcome.checks < options.maxChecks) {
        progressed = false;

        // Whole applications first: the largest cut.
        for (size_t a = 0; current.apps.size() > 1 &&
                           a < current.apps.size();) {
            if (accept(withoutApp(current, a)))
                progressed = true;
            else
                ++a;
        }
        // Then individual services.
        for (size_t a = 0; a < current.apps.size(); ++a) {
            for (sim::MsId m = 0;
                 current.apps[a].services.size() > 1 &&
                 m < current.apps[a].services.size();) {
                if (accept(withoutService(current, a, m)))
                    progressed = true;
                else
                    ++m;
            }
        }
        // Nodes (renumbering failure-step references).
        for (sim::NodeId n = 0; current.nodeCapacities.size() > 1 &&
                                n < current.nodeCapacities.size();) {
            if (accept(withoutNode(current, n)))
                progressed = true;
            else
                ++n;
        }
        // Failure steps.
        for (size_t s = 0; s < current.steps.size();) {
            if (accept(withoutStep(current, s)))
                progressed = true;
            else
                ++s;
        }
        // Structure simplifications.
        for (size_t a = 0; a < current.apps.size(); ++a) {
            if (current.apps[a].hasDependencyGraph &&
                accept(withoutDag(current, a)))
                progressed = true;
        }
        if (!current.singleReplica() &&
            accept(withSingleReplicas(current)))
            progressed = true;
        if (current.lifecycle && accept(withoutLifecycle(current)))
            progressed = true;
    }

    const OracleResult final_result =
        checkCase(current, oracle_options);
    ++outcome.checks;
    for (const auto &property : violatedProperties(final_result)) {
        if (targets.count(property))
            outcome.properties.push_back(property);
    }
    return outcome;
}

} // namespace phoenix::check
