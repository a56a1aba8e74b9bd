/**
 * @file
 * The CloudLab testbed stack every end-to-end harness runs on (§6.1,
 * Fig 6): the event queue, the mini-Kubernetes cluster with its
 * invariant checker forced on, the 25 CloudLab nodes, the five
 * application instances and, under a Phoenix scheme, the controller
 * with an optional forecaster. The recovery harness, the chaos soak,
 * the serving harness and bench_fig6 build through it and arm only
 * their own scenario runner, samplers, checks and front end.
 *
 * Construction order is part of the contract: events due at the same
 * instant fire first-in first-out, so the cluster's timers, the node
 * heartbeats and the controller's first poll are armed before
 * anything the caller schedules afterwards.
 */

#ifndef PHOENIX_EXP_TESTBED_H
#define PHOENIX_EXP_TESTBED_H

#include <cstdint>
#include <memory>
#include <vector>

#include "apps/cloudlab.h"
#include "core/controller.h"
#include "forecast/forecaster.h"
#include "kube/kube.h"
#include "sim/event_queue.h"

namespace phoenix::exp {

/** Which resilience scheme drives a testbed run. */
enum class TestbedScheme { Default, PhoenixCost, PhoenixFair };

const char *testbedSchemeName(TestbedScheme scheme);

/**
 * Make the testbed topology-constrained without changing its demand:
 * every single-replica C1 service is split into two half-size
 * replicas with quorum 1, minZoneSpread 2 (the implied per-zone cap
 * keeps the pair in distinct zones) and pdbMaxUnavailable 1. Requires
 * a deployment with at least two zones to be satisfiable.
 */
void applyTopologyOverlay(std::vector<sim::Application> &apps);

/** Zone label of testbed node @p node: node % zoneCount, 0 without
 * zones. */
uint32_t testbedZone(size_t node, size_t zoneCount);

/** The testbed's applications as deployed over @p zoneCount zones:
 * with 2 or more zones the topology overlay is applied. */
std::vector<sim::Application>
testbedApplications(const apps::CloudLabTestbed &cloudlab,
                    size_t zoneCount);

/** One assembled testbed stack. Not copyable: the cluster and the
 * controller hold references into it. */
struct Testbed
{
    /**
     * Build the stack. Nodes are striped over @p zoneCount zones
     * (testbedZone); 0 keeps the classic untopologied testbed. With
     * @p forecast non-null and a Phoenix scheme, a Forecaster built
     * from it is attached to the controller; a zoned testbed
     * overrides its fallbackZoneCount.
     */
    Testbed(TestbedScheme scheme, const apps::CloudLabConfig &config,
            const kube::KubeConfig &kube, size_t zoneCount = 0,
            const forecast::ForecastConfig *forecast = nullptr);

    Testbed(const Testbed &) = delete;
    Testbed &operator=(const Testbed &) = delete;

    /** Request models and node shape (un-overlaid applications). */
    const apps::CloudLabTestbed cloudlab;
    sim::EventQueue events;
    kube::KubeCluster cluster;
    /** Null under TestbedScheme::Default. */
    std::unique_ptr<core::PhoenixController> controller;
    /** Null unless a forecast config was given to a Phoenix scheme. */
    std::unique_ptr<forecast::Forecaster> forecaster;
};

} // namespace phoenix::exp

#endif // PHOENIX_EXP_TESTBED_H
