/**
 * @file
 * chaossoak: continuous chaos soak over the mini-Kubernetes substrate
 * (src/exp/soak.h) — hours of simulated time with overlapping seeded
 * waves from the full fault taxonomy, the kube invariant checker and
 * the convergence oracle running the whole way.
 *
 *   chaossoak --hours 2 --seed 7
 *   chaossoak --hours 0.5 --seed 7,8,9 --scheme fair
 *   chaossoak --hours 1 --zones 5       # zone-correlated waves vs
 *                                       # spread-constrained services
 *   chaossoak --inject-fault 0.5 --hours 0.25 --corpus tests/corpus
 *   SOAK_HOURS=6 chaossoak --hours-env --seed 7
 *
 * On any violation the tool dumps the Perfetto trace window for that
 * seed (sim start through the first violation, ring-capped) and a
 * CheckCase repro of the fault script — shrunk through src/check when
 * the differential oracle reproduces the failure — into the corpus
 * directory.
 *
 * Exit codes: 0 every seed ran clean, 1 violations found, 2 usage or
 * I/O error, 77 skipped (--hours-env without SOAK_HOURS set — ctest's
 * SKIP_RETURN_CODE).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracle.h"
#include "check/shrink.h"
#include "exp/soak.h"
#include "obs/obs.h"
#include "sim/scenario_json.h"

namespace {

using phoenix::exp::TestbedScheme;
using phoenix::exp::SoakConfig;
using phoenix::exp::SoakResult;

int
usage(std::ostream &out, int code)
{
    out << "usage: chaossoak [options]\n"
           "  --hours H          simulated soak length, at most 168\n"
           "                     (default 2)\n"
           "  --hours-env        read the length from $SOAK_HOURS;\n"
           "                     exit 77 (skip) when it is not set\n"
           "  --seed S[,S...]    soak seeds (default 7)\n"
           "  --scheme NAME      cost | fair | default (default cost)\n"
           "  --wave-gap G       mean seconds between waves (default "
           "240)\n"
           "  --check-period P   oracle cadence seconds (default 60)\n"
           "  --zones Z          stripe nodes over Z zones, apply the\n"
           "                     spread/PDB overlay to C1 services, "
           "and\n"
           "                     let waves upgrade to zone-correlated\n"
           "                     failures (default 0 = no topology)\n"
           "  --inject-fault F   enable the deliberately-tight "
           "capacity\n"
           "                     invariant (used(node) <= F * "
           "capacity)\n"
           "  --corpus DIR       violation artifact directory "
           "(default\n"
           "                     tests/corpus)\n"
           "  --trace-out FILE   also write the Perfetto trace of the\n"
           "                     last seed's run to FILE\n"
           "  --json             machine-readable summary on stdout\n";
    return code;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << content;
    return out.good();
}

/** Dump the trace window + (shrunk) repro for one violating seed. */
void
dumpViolationArtifacts(const SoakConfig &config,
                       const SoakResult &result,
                       const std::string &corpus_dir)
{
    const std::string stem =
        corpus_dir + "/soak-" + std::to_string(config.seed) + "-" +
        result.violations.front().property;

    // Perfetto trace window: re-run the deterministic prefix with a
    // horizon just past the first violation, so the exported trace
    // ends at the failure instead of spanning the whole soak. The
    // horizon keeps every wave that starts by the violation in the
    // regenerated schedule (generation is a sequential function of
    // the seed), so the prefix replays bit-for-bit.
    {
        SoakConfig window = config;
        window.hours =
            (result.firstViolationAt + 480.0 +
             phoenix::exp::kSoakSettleSeconds + 120.0 +
             1.5 * config.meanWaveGap + 1.0) /
            3600.0;
        phoenix::obs::Tracer::global().clear();
        (void)phoenix::exp::runSoak(window);
        std::ostringstream trace;
        phoenix::obs::Tracer::global().exportChromeJson(trace);
        if (writeFile(stem + ".trace.json", trace.str())) {
            std::cerr << "chaossoak: wrote trace window " << stem
                      << ".trace.json\n";
        }
    }

    // CheckCase repro of the fault script up to the violation; shrink
    // it when the differential oracle reproduces a failure.
    phoenix::check::CheckCase repro = phoenix::exp::makeSoakRepro(
        config, result.waves, result.firstViolationAt);
    repro.name = "soak-" + std::to_string(config.seed) + "-" +
                 result.violations.front().property;
    repro.notes = "chaossoak seed " + std::to_string(config.seed) +
                  ": " + result.violations.front().property + " at " +
                  std::to_string(result.firstViolationAt) + "s — " +
                  result.violations.front().detail;

    phoenix::check::OracleOptions oracle;
    oracle.runLp = false;
    oracle.lifecycle = false;
    if (config.injectFault)
        oracle.injectTightCapacityFraction =
            config.injectTightCapacityFraction;

    const auto check = phoenix::check::checkCase(repro, oracle);
    if (!check.ok()) {
        const auto shrunk =
            phoenix::check::shrinkCase(repro, oracle);
        phoenix::check::CheckCase out = shrunk.shrunk;
        out.name = repro.name;
        out.notes = repro.notes + " (shrunk, " +
                    std::to_string(shrunk.stepsApplied) + " steps)";
        if (writeFile(stem + ".json", out.toJson()))
            std::cerr << "chaossoak: wrote shrunk repro " << stem
                      << ".json\n";
    } else {
        repro.notes +=
            " (static oracle did not reproduce; unshrunk script)";
        if (writeFile(stem + ".json", repro.toJson()))
            std::cerr << "chaossoak: wrote repro " << stem
                      << ".json\n";
    }
}

void
printSummary(const SoakConfig &config, const SoakResult &result,
             bool json)
{
    if (json) {
        std::cout << "{\"seed\": " << config.seed
                  << ", \"hours\": " << config.hours
                  << ", \"waves\": " << result.waves.size()
                  << ", \"checks\": " << result.checkTicks
                  << ", \"violations\": " << result.violationCount
                  << ", \"invariant_violations\": "
                  << result.invariantViolations
                  << ", \"evicted\": " << result.evictedPods
                  << ", \"replans\": " << result.replans
                  << ", \"min_availability\": "
                  << result.minAvailability
                  << ", \"mean_availability\": "
                  << result.meanAvailability << "}\n";
        return;
    }
    std::cout << "SOAK seed=" << config.seed
              << " scheme=" << testbedSchemeName(config.scheme)
              << " hours=" << config.hours
              << " waves=" << result.waves.size()
              << " checks=" << result.checkTicks
              << " violations=" << result.violationCount
              << " invariants=" << result.invariantViolations
              << " evicted=" << result.evictedPods
              << " replans=" << result.replans
              << " minAvail=" << result.minAvailability
              << " meanAvail=" << result.meanAvailability
              << " maxPending=" << result.maxPending << "\n";
    for (const auto &violation : result.violations) {
        std::cout << "  VIOLATION t=" << violation.at << " "
                  << violation.property << ": " << violation.detail
                  << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    SoakConfig config;
    std::vector<uint64_t> seeds;
    std::string corpus_dir = "tests/corpus";
    std::string trace_out;
    bool json = false;
    bool hours_from_env = false;

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto next = [&]() -> const std::string & {
            if (i + 1 >= args.size()) {
                std::cerr << "chaossoak: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return args[++i];
        };
        if (arg == "--hours") {
            config.hours = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--hours-env") {
            hours_from_env = true;
        } else if (arg == "--seed") {
            std::stringstream list(next());
            std::string token;
            while (std::getline(list, token, ','))
                seeds.push_back(
                    std::strtoull(token.c_str(), nullptr, 10));
        } else if (arg == "--scheme") {
            const std::string name = next();
            if (name == "cost")
                config.scheme = TestbedScheme::PhoenixCost;
            else if (name == "fair")
                config.scheme = TestbedScheme::PhoenixFair;
            else if (name == "default")
                config.scheme = TestbedScheme::Default;
            else
                return usage(std::cerr, 2);
        } else if (arg == "--wave-gap") {
            config.meanWaveGap = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--check-period") {
            config.checkPeriod = std::strtod(next().c_str(), nullptr);
        } else if (arg == "--zones") {
            config.zoneCount =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--inject-fault") {
            config.injectFault = true;
            config.injectTightCapacityFraction =
                std::strtod(next().c_str(), nullptr);
        } else if (arg == "--corpus") {
            corpus_dir = next();
        } else if (arg == "--trace-out") {
            trace_out = next();
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else {
            std::cerr << "chaossoak: unknown option " << arg << "\n";
            return usage(std::cerr, 2);
        }
    }

    if (hours_from_env) {
        const char *env = std::getenv("SOAK_HOURS");
        if (!env || !*env) {
            std::cerr << "chaossoak: SOAK_HOURS not set; skipping\n";
            return 77;
        }
        config.hours = std::strtod(env, nullptr);
    }
    // A repro of the soak names instants up to hours × 3600 s, and a
    // case file must stay inside the script ceiling to load again.
    const double max_hours = phoenix::sim::kMaxScriptSeconds / 3600.0;
    if (!(config.hours > 0.0 && config.hours <= max_hours)) {
        std::cerr << "chaossoak: --hours must be in (0, " << max_hours
                  << "]\n";
        return 2;
    }
    if (seeds.empty())
        seeds.push_back(7);

    phoenix::obs::setMetricsEnabled(true);
    phoenix::obs::setTraceEnabled(true);

    bool any_violation = false;
    for (uint64_t seed : seeds) {
        config.seed = seed;
        phoenix::obs::Tracer::global().clear();
        const SoakResult result = phoenix::exp::runSoak(config);
        printSummary(config, result, json);
        if (!result.ok()) {
            any_violation = true;
            if (!result.violations.empty())
                dumpViolationArtifacts(config, result, corpus_dir);
        }
        if (!trace_out.empty()) {
            std::ostringstream trace;
            phoenix::obs::Tracer::global().exportChromeJson(trace);
            if (!writeFile(trace_out, trace.str())) {
                std::cerr << "chaossoak: cannot write " << trace_out
                          << "\n";
                return 2;
            }
        }
    }
    return any_violation ? 1 : 0;
}
