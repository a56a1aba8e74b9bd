#include "perfdiff_lib.h"

#include <cstdio>
#include <fstream>
#include <ostream>
#include <map>
#include <sstream>

namespace phoenix::tools {

using util::JsonValue;

std::vector<std::pair<std::string, PerfCell>>
collectPerfCells(const JsonValue &root)
{
    std::vector<std::pair<std::string, PerfCell>> cells;
    const JsonValue *sections = root.field("sections");
    if (!sections)
        return cells;
    for (const JsonValue &section : sections->items) {
        const JsonValue *name = section.field("name");
        const JsonValue *sweep = section.field("sweep");
        if (!name || !sweep)
            continue;
        for (const JsonValue &agg : sweep->items) {
            const JsonValue *scheme = agg.field("scheme");
            if (!scheme)
                continue;
            std::ostringstream key;
            key << name->text << "/" << scheme->text << "@"
                << agg.numberAt("failure_rate");
            PerfCell cell;
            cell.planSeconds = agg.numberAt("plan_seconds.mean");
            cell.packSeconds = agg.numberAt("pack_seconds.mean");
            cell.heapPushes = agg.numberAt("ops_heap_pushes.mean");
            cell.bestFitProbes =
                agg.numberAt("ops_best_fit_probes.mean");
            cells.emplace_back(key.str(), cell);
        }
    }
    return cells;
}

PerfDiffResult
diffPerfReports(const JsonValue &baseline_root, const JsonValue &fresh_root,
                double require_speedup, double max_ops_regression)
{
    PerfDiffResult result;
    const auto baseline_cells = collectPerfCells(baseline_root);
    const auto fresh_cells = collectPerfCells(fresh_root);
    std::map<std::string, PerfCell> baseline;
    for (const auto &[key, cell] : baseline_cells)
        baseline.emplace(key, cell);
    {
        std::map<std::string, PerfCell> fresh_by_key;
        for (const auto &[key, cell] : fresh_cells)
            fresh_by_key.emplace(key, cell);
        for (const auto &[key, cell] : baseline_cells) {
            (void)cell;
            if (!fresh_by_key.count(key))
                result.removed.push_back(key);
        }
    }

    for (const auto &[key, fresh] : fresh_cells) {
        const auto it = baseline.find(key);
        if (it == baseline.end()) {
            result.added.push_back(key);
            continue;
        }
        PerfDiffRow row;
        row.cell = key;
        row.baseline = it->second;
        row.fresh = fresh;
        row.speedup = fresh.total() > 0.0
                          ? it->second.total() / fresh.total()
                          : 0.0;
        if (result.worstCell.empty() ||
            row.speedup < result.worstSpeedup) {
            result.worstSpeedup = row.speedup;
            result.worstCell = key;
        }
        if (require_speedup > 0.0 && row.speedup < require_speedup)
            result.met = false;
        if (it->second.ops() > 0.0) {
            const double ratio = fresh.ops() / it->second.ops();
            if (result.worstOpsCell.empty() ||
                ratio > result.worstOpsRatio) {
                result.worstOpsRatio = ratio;
                result.worstOpsCell = key;
            }
            if (max_ops_regression >= 0.0 &&
                ratio > 1.0 + max_ops_regression)
                result.opsMet = false;
        }
        result.rows.push_back(std::move(row));
    }
    return result;
}

bool
loadPerfReport(const std::string &file, JsonValue &out, std::ostream &err)
{
    std::ifstream in(file);
    if (!in) {
        err << "perfdiff: cannot open " << file << "\n";
        return false;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    if (!util::parseJson(buffer.str(), out)) {
        err << "perfdiff: " << file << " is not valid JSON\n";
        return false;
    }
    return true;
}

namespace {

std::string
formatSeconds(double s)
{
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.4f", s);
    return buffer;
}

std::string
formatRow(const char *cell, const char *base, const char *fresh,
          const char *speedup, const char *pushes, const char *probes)
{
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  "%-44s %10s %10s %8s %12s %12s\n", cell, base, fresh,
                  speedup, pushes, probes);
    return buffer;
}

} // namespace

int
runPerfDiff(const std::vector<std::string> &args, std::ostream &out,
            std::ostream &err)
{
    std::vector<std::string> files;
    double require_speedup = 0.0;
    double max_ops_regression = -1.0;
    for (size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg == "--require-speedup" && i + 1 < args.size()) {
            require_speedup = std::atof(args[++i].c_str());
        } else if (arg == "--max-ops-regression" &&
                   i + 1 < args.size()) {
            max_ops_regression = std::atof(args[++i].c_str());
        } else if (arg == "--help" || arg == "-h") {
            out << "usage: perfdiff BASELINE.json NEW.json "
                   "[--require-speedup X] [--max-ops-regression F]\n";
            return 0;
        } else {
            files.push_back(arg);
        }
    }
    if (files.size() != 2) {
        err << "usage: perfdiff BASELINE.json NEW.json "
               "[--require-speedup X] [--max-ops-regression F]\n";
        return 2;
    }

    JsonValue baseline_root;
    JsonValue fresh_root;
    if (!loadPerfReport(files[0], baseline_root, err) ||
        !loadPerfReport(files[1], fresh_root, err))
        return 2;

    const PerfDiffResult result =
        diffPerfReports(baseline_root, fresh_root, require_speedup,
                        max_ops_regression);
    if (result.rows.empty() && result.added.empty() &&
        result.removed.empty()) {
        err << "perfdiff: the two reports share no cells and none were "
               "added or removed\n";
        return 2;
    }

    if (!result.rows.empty())
        out << formatRow("cell", "base(s)", "new(s)", "speedup",
                         "d-pushes", "d-probes");
    for (const PerfDiffRow &row : result.rows) {
        char speedup[24];
        std::snprintf(speedup, sizeof(speedup), "%.2fx", row.speedup);
        char pushes[24];
        std::snprintf(pushes, sizeof(pushes), "%.0f",
                      row.fresh.heapPushes - row.baseline.heapPushes);
        char probes[24];
        std::snprintf(probes, sizeof(probes), "%.0f",
                      row.fresh.bestFitProbes -
                          row.baseline.bestFitProbes);
        out << formatRow(row.cell.c_str(),
                         formatSeconds(row.baseline.total()).c_str(),
                         formatSeconds(row.fresh.total()).c_str(),
                         speedup, pushes, probes);
    }
    // Cells present in only one report are informational: a growing
    // bench adds sizes/schemes, a retired scheme drops them. Neither is
    // a comparison failure.
    for (const std::string &key : result.added)
        out << "added cell: " << key << "\n";
    for (const std::string &key : result.removed)
        out << "removed cell: " << key << "\n";
    if (!result.rows.empty()) {
        char worst[128];
        std::snprintf(worst, sizeof(worst), "worst cell: %s at %.2fx\n",
                      result.worstCell.c_str(), result.worstSpeedup);
        out << worst;
    }
    if (max_ops_regression >= 0.0 && !result.worstOpsCell.empty()) {
        char verdict[160];
        std::snprintf(verdict, sizeof(verdict),
                      "ops bound: <= +%.0f%% on every shared cell "
                      "(worst %s at %+.2f%%) -> %s\n",
                      max_ops_regression * 100.0,
                      result.worstOpsCell.c_str(),
                      (result.worstOpsRatio - 1.0) * 100.0,
                      result.opsMet ? "PASS" : "FAIL");
        out << verdict;
    }
    int exit_code = 0;
    if (require_speedup > 0.0) {
        char verdict[96];
        std::snprintf(verdict, sizeof(verdict),
                      "required: %.2fx on every shared cell -> %s\n",
                      require_speedup, result.met ? "PASS" : "FAIL");
        out << verdict;
        if (!result.met)
            exit_code = 1;
    }
    if (max_ops_regression >= 0.0 && !result.opsMet)
        exit_code = 1;
    return exit_code;
}

} // namespace phoenix::tools
