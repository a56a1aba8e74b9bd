/**
 * @file
 * phoenixd's engine: a long-running sim daemon driven by a
 * kube-API-like command protocol — one JSON object per line in, one
 * JSON object per line out.
 *
 * The daemon owns an EventQueue + KubeCluster and advances sim time
 * only on command ("advance"), so a driver script fully controls the
 * clock. Commands cover the lifecycle a cluster operator would walk
 * through:
 *
 *   {"cmd":"load-testbed"}                     CloudLab testbed (Fig 4)
 *   {"cmd":"add-nodes","count":5,"capacity":8}
 *   {"cmd":"ingest-manifest","text":"application: a\n..."}
 *   {"cmd":"start-controller","scheme":"PhoenixCost","forecast":true}
 *   {"cmd":"forecast-status"}
 *   {"cmd":"serve-start","duration":600,"shape":"diurnal"}
 *   {"cmd":"inject-scenario","steps":[{"kind":"fail","at":900,"nodes":[0,1]}]}
 *   {"cmd":"inject-scenario","steps":[{"kind":"partition-zone","zone":2}]}
 *   {"cmd":"advance","seconds":300}
 *   {"cmd":"observe"}  {"cmd":"stats"}  {"cmd":"metrics"}
 *   {"cmd":"delete-pod","app":0,"ms":2}  {"cmd":"restart-pod",...}
 *   {"cmd":"migrate-pod","app":0,"ms":2,"node":4}
 *   {"cmd":"shutdown"}
 *
 * inject-scenario reads its steps through sim/scenario_json.h, the
 * codec the check corpus uses too. Manifest ingestion uses the
 * structured parser: well-formed applications are admitted (ids
 * rebased past existing apps), every rejected document is reported
 * with its line and field. Manifest
 * apps get a synthesized request model (one request class per
 * service) so serve-start works on them too.
 *
 * Every reply is a single line: {"ok":true,...} or
 * {"ok":false,"error":"..."}. handleLine() is the testable core; the
 * stdin/stdout REPL in tools/phoenixd.cc is a thin wrapper.
 */

#ifndef PHOENIX_SERVE_DAEMON_H
#define PHOENIX_SERVE_DAEMON_H

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/controller.h"
#include "kube/kube.h"
#include "serve/frontend.h"
#include "util/json.h"

namespace phoenix::serve {

/** Daemon tunables. */
struct DaemonConfig
{
    kube::KubeConfig kube;
    /** Template for serve-start (seed, sigma, admission, window). */
    FrontendConfig frontend;
    uint64_t seed = 42;
    /** Synthesized offered rate per manifest-ingested service. */
    double manifestRps = 5.0;
};

class ServeDaemon
{
  public:
    explicit ServeDaemon(DaemonConfig config = {});

    /** Handle one command line; returns the reply line (no '\n'). */
    std::string handleLine(const std::string &line);

    /** Read commands from @p in until EOF or shutdown, writing one
     * reply line each. Returns the process exit code. */
    int repl(std::istream &in, std::ostream &out);

    bool shuttingDown() const { return shutdown_; }
    sim::SimTime now() const { return events_.now(); }
    kube::KubeCluster &cluster() { return cluster_; }
    const ServeFrontend *frontend() const { return frontend_.get(); }

  private:
    std::string handle(const util::JsonValue &command);

    std::string cmdLoadTestbed(const util::JsonValue &command);
    std::string cmdAddNodes(const util::JsonValue &command);
    std::string cmdIngestManifest(const util::JsonValue &command);
    std::string cmdStartController(const util::JsonValue &command);
    std::string cmdForecastStatus();
    std::string cmdServeStart(const util::JsonValue &command);
    std::string cmdInjectScenario(const util::JsonValue &command);
    std::string cmdAdvance(const util::JsonValue &command);
    std::string cmdObserve();
    std::string cmdPodVerb(const std::string &verb,
                           const util::JsonValue &command);
    std::string cmdStats();
    std::string cmdMetrics();

    DaemonConfig config_;
    sim::EventQueue events_;
    kube::KubeCluster cluster_;
    /** Request models for serve-start (testbed + synthesized). */
    std::vector<apps::ServiceApp> serviceApps_;
    std::unique_ptr<core::PhoenixController> controller_;
    /** Present when start-controller was given "forecast":true. */
    std::unique_ptr<forecast::Forecaster> forecaster_;
    std::unique_ptr<ServeFrontend> frontend_;
    /** Runners must outlive the simulation; one per inject-scenario. */
    std::vector<std::unique_ptr<sim::ScenarioRunner>> runners_;
    sim::AppId nextAppId_ = 0;
    bool shutdown_ = false;
};

} // namespace phoenix::serve

#endif // PHOENIX_SERVE_DAEMON_H
