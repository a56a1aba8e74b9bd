/**
 * @file
 * fuzzcheck: differential-oracle fuzzing CLI over src/check.
 *
 *   fuzzcheck --cases 200 --seed 1 --out build/fuzz-repros
 *   fuzzcheck --replay tests/corpus/some-case.json
 *   FUZZ_CASES=20000 fuzzcheck --cases-env --seed 7
 *
 * Exit codes: 0 all properties held, 1 violations found, 2 usage or
 * I/O error, 77 skipped (--cases-env without FUZZ_CASES set — ctest's
 * SKIP_RETURN_CODE).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "check/fuzzer.h"

namespace {

using phoenix::check::CheckCase;
using phoenix::check::FuzzOptions;
using phoenix::check::OracleResult;

int
usage(std::ostream &out, int code)
{
    out << "usage: fuzzcheck [options]\n"
           "  --cases N          generated cases to run (default 200)\n"
           "  --cases-env        read the case count from $FUZZ_CASES;\n"
           "                     exit 77 (skip) when it is not set\n"
           "  --cases-env-var V  like --cases-env but read $V instead\n"
           "                     (ctest gates each long run on its own\n"
           "                     opt-in variable)\n"
           "  --seed S           base seed (default 1)\n"
           "  --shrink / --no-shrink   shrink failing cases (default on)\n"
           "  --out DIR          write failing-case repros to DIR\n"
           "  --replay FILE      check one serialized case instead of "
           "fuzzing\n"
           "  --inject-fault F   enable the deliberately-tight capacity\n"
           "                     invariant (used(node) <= F * capacity)\n"
           "  --constraints P    emit placement policies (anti-affinity\n"
           "                     groups, PDBs, minZoneSpread) with\n"
           "                     probability P per draw (default 0)\n"
           "  --no-lp            skip the LP differential\n"
           "  --no-lifecycle     skip the kube lifecycle oracle\n"
           "  --json             machine-readable summary on stdout\n"
           "  --verbose          periodic progress\n";
    return code;
}

int
replayFile(const std::string &file, const FuzzOptions &options,
           bool json)
{
    std::ifstream in(file);
    if (!in) {
        std::cerr << "fuzzcheck: cannot open " << file << "\n";
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::string error;
    const auto parsed = CheckCase::fromJson(buffer.str(), &error);
    if (!parsed) {
        std::cerr << "fuzzcheck: " << file << ": " << error << "\n";
        return 2;
    }
    const OracleResult result =
        phoenix::check::checkCase(*parsed, options.oracle);
    if (json) {
        std::cout << "{\"case\": \"" << parsed->name
                  << "\", \"violations\": " << result.violations.size()
                  << "}\n";
    } else {
        for (const auto &v : result.violations) {
            std::cout << v.property << " [" << v.scheme << "] "
                      << v.detail << "\n";
        }
        std::cout << file << ": " << result.violations.size()
                  << " violations\n";
    }
    return result.ok() ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzOptions options;
    std::string replay;
    bool json = false;
    bool cases_from_env = false;
    std::string cases_env_var = "FUZZ_CASES";

    const std::vector<std::string> args(argv + 1, argv + argc);
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto next = [&]() -> const std::string & {
            if (i + 1 >= args.size()) {
                std::cerr << "fuzzcheck: " << arg
                          << " needs a value\n";
                std::exit(2);
            }
            return args[++i];
        };
        if (arg == "--cases") {
            options.cases =
                static_cast<size_t>(std::strtoull(next().c_str(),
                                                  nullptr, 10));
        } else if (arg == "--cases-env") {
            cases_from_env = true;
        } else if (arg == "--cases-env-var") {
            cases_from_env = true;
            cases_env_var = next();
        } else if (arg == "--seed") {
            options.seed =
                std::strtoull(next().c_str(), nullptr, 10);
        } else if (arg == "--shrink") {
            options.shrink = true;
        } else if (arg == "--no-shrink") {
            options.shrink = false;
        } else if (arg == "--out") {
            options.outDir = next();
        } else if (arg == "--replay") {
            replay = next();
        } else if (arg == "--inject-fault") {
            options.oracle.injectTightCapacityFraction =
                std::atof(next().c_str());
        } else if (arg == "--constraints") {
            const double p = std::atof(next().c_str());
            options.gen.antiAffinityProbability = p;
            options.gen.pdbProbability = p;
            options.gen.zoneSpreadProbability = p;
            options.gen.nodeCapProbability = p;
        } else if (arg == "--no-lp") {
            options.oracle.runLp = false;
        } else if (arg == "--no-lifecycle") {
            options.oracle.lifecycle = false;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--verbose") {
            options.verbose = true;
        } else if (arg == "--help" || arg == "-h") {
            return usage(std::cout, 0);
        } else {
            std::cerr << "fuzzcheck: unknown option " << arg << "\n";
            return usage(std::cerr, 2);
        }
    }

    if (!replay.empty())
        return replayFile(replay, options, json);

    if (cases_from_env) {
        const char *env = std::getenv(cases_env_var.c_str());
        if (!env || !*env) {
            std::cerr << "fuzzcheck: " << cases_env_var
                      << " not set; skipping long fuzz run\n";
            return 77;
        }
        options.cases = static_cast<size_t>(
            std::strtoull(env, nullptr, 10));
    }

    const phoenix::check::FuzzStats stats =
        phoenix::check::runFuzz(options, std::cerr);

    if (json) {
        std::cout << "{\"cases\": " << stats.casesRun
                  << ", \"failures\": " << stats.failures
                  << ", \"lp_cost_runs\": " << stats.lpCostRuns
                  << ", \"lp_fair_runs\": " << stats.lpFairRuns
                  << ", \"lifecycle_runs\": " << stats.lifecycleRuns
                  << "}\n";
    } else {
        std::cout << "fuzzcheck: " << stats.casesRun << " cases, "
                  << stats.failures << " failures (LP cost/fair ran "
                  << stats.lpCostRuns << "/" << stats.lpFairRuns
                  << ", lifecycle " << stats.lifecycleRuns << ")\n";
        for (const auto &failure : stats.failureList) {
            std::cout << "  case " << failure.caseIndex << " seed "
                      << failure.caseSeed << ": "
                      << failure.firstViolation.property;
            if (!failure.reproFile.empty())
                std::cout << " -> " << failure.reproFile;
            std::cout << "\n";
        }
    }
    return stats.ok() ? 0 : 1;
}
