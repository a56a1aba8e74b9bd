/**
 * phoenixd: the long-running serving daemon. Reads one JSON command
 * per line on stdin, writes one JSON reply per line on stdout (see
 * serve/daemon.h for the command set). Sim time advances only on
 * {"cmd":"advance",...}, so a driver script fully controls the clock.
 *
 * Quick start:
 *
 *   $ ./tools/phoenixd --scheme=PhoenixCost --metrics
 *   {"cmd":"load-testbed"}
 *   {"cmd":"start-controller","scheme":"PhoenixCost"}
 *   {"cmd":"serve-start","duration":1200,"shape":"diurnal"}
 *   {"cmd":"inject-scenario","steps":[{"kind":"fail-zone","at":600}]}
 *   {"cmd":"inject-scenario","steps":[{"kind":"partition","at":700,"nodes":[3]}]}
 *   {"cmd":"advance","seconds":1200}
 *   {"cmd":"stats"}
 *   {"cmd":"shutdown"}
 *
 * The step kinds, fields, defaults and bounds are those of
 * src/sim/scenario_json.h (and README's phoenixd table).
 */

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "obs/obs.h"
#include "serve/daemon.h"

namespace {

int
usage(int code)
{
    std::cerr
        << "usage: phoenixd [--seed=N] [--metrics] "
           "[--trace-out=FILE] [--manifest-rps=R]\n"
           "  Line-delimited JSON command REPL on stdin/stdout.\n"
           "  --seed=N          base seed for serving streams "
           "(default 42)\n"
           "  --metrics         enable the obs metrics registry "
           "(the 'metrics' command reports live values)\n"
           "  --trace-out=FILE  record sim-time spans/instants and "
           "write a Chrome trace on exit\n"
           "  --manifest-rps=R  synthesized offered rps per "
           "manifest service (default 5)\n";
    return code;
}

} // namespace

int
main(int argc, char **argv)
{
    phoenix::serve::DaemonConfig config;
    std::string traceOut;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return usage(0);
        if (arg == "--metrics") {
            phoenix::obs::setMetricsEnabled(true);
            continue;
        }
        if (arg.rfind("--trace-out=", 0) == 0) {
            traceOut = arg.substr(12);
            phoenix::obs::setTraceEnabled(true);
            continue;
        }
        if (arg.rfind("--seed=", 0) == 0) {
            config.seed = static_cast<uint64_t>(
                std::strtoull(arg.c_str() + 7, nullptr, 10));
            continue;
        }
        if (arg.rfind("--manifest-rps=", 0) == 0) {
            config.manifestRps =
                std::strtod(arg.c_str() + 15, nullptr);
            continue;
        }
        std::cerr << "phoenixd: unknown flag " << arg << "\n";
        return usage(2);
    }

    phoenix::serve::ServeDaemon daemon(std::move(config));
    const int rc = daemon.repl(std::cin, std::cout);

    if (!traceOut.empty()) {
        std::ofstream trace(traceOut);
        if (trace) {
            phoenix::obs::Tracer::global().exportChromeJson(trace);
        } else {
            std::cerr << "phoenixd: cannot write trace to "
                      << traceOut << "\n";
        }
    }
    return rc;
}
