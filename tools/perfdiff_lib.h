/**
 * @file
 * perfdiff core: compare two exp::Report JSON documents cell by cell.
 *
 * A cell is a (section, scheme, failure_rate) triple; the compared
 * quantity is plan_seconds.mean + pack_seconds.mean, with the
 * deterministic op counters diffed alongside (wall-clock is noisy, the
 * counters are not, so a perf claim should move both). Split out of
 * the perfdiff executable so the parsing, per-cell speedup math, and
 * the --require-speedup exit semantics are unit-testable.
 */

#ifndef PHOENIX_TOOLS_PERFDIFF_LIB_H
#define PHOENIX_TOOLS_PERFDIFF_LIB_H

#include <iosfwd>
#include <string>
#include <vector>

#include "util/json.h"

namespace phoenix::tools {

/** Timing/op aggregate of one sweep cell. */
struct PerfCell
{
    double planSeconds = 0.0;
    double packSeconds = 0.0;
    double heapPushes = 0.0;
    double bestFitProbes = 0.0;

    double total() const { return planSeconds + packSeconds; }

    /** Deterministic pack-phase work: heap pushes + best-fit probes.
     * Unlike wall-clock these never carry machine noise, so a bound
     * on their growth is a machine-independent overhead claim. */
    double ops() const { return heapPushes + bestFitProbes; }
};

/**
 * Extract every sweep cell of a parsed exp::Report, keyed
 * "section/scheme@rate", in file order.
 */
std::vector<std::pair<std::string, PerfCell>>
collectPerfCells(const util::JsonValue &root);

/** One compared cell of a diff. */
struct PerfDiffRow
{
    std::string cell;
    PerfCell baseline;
    PerfCell fresh;
    /** base total / fresh total; 0 when fresh total is 0. */
    double speedup = 0.0;
};

/** Outcome of comparing two reports. */
struct PerfDiffResult
{
    std::vector<PerfDiffRow> rows; //!< cells present in both reports
    /** Cells only in the fresh report (new sizes/schemes are expected
     * when a bench grows — reported, never an error). */
    std::vector<std::string> added;
    /** Cells only in the baseline report. */
    std::vector<std::string> removed;
    double worstSpeedup = 0.0;
    std::string worstCell;
    /** Every shared cell met the required speedup (true when no
     * requirement was given; cells present in only one report are
     * exempt). */
    bool met = true;
    /** Largest fresh/baseline ops() ratio across shared cells (1.0 =
     * identical work; only cells with baseline ops > 0 count). */
    double worstOpsRatio = 0.0;
    std::string worstOpsCell;
    /** Every shared cell stayed within the allowed ops regression
     * (true when no bound was given). */
    bool opsMet = true;
};

/**
 * Compare two parsed reports. @p require_speedup <= 0 disables the
 * requirement check; @p max_ops_regression < 0 disables the op-count
 * bound (e.g. 0.05 allows fresh ops() up to 5% above baseline on
 * every shared cell).
 */
PerfDiffResult diffPerfReports(const util::JsonValue &baseline,
                               const util::JsonValue &fresh,
                               double require_speedup = 0.0,
                               double max_ops_regression = -1.0);

/** Load and parse a report file; errors go to @p err. */
bool loadPerfReport(const std::string &file, util::JsonValue &out,
                    std::ostream &err);

/**
 * Full CLI semantics: parse args, load both reports, print the diff
 * table to @p out. Returns the process exit code: 0 ok / requirement
 * met, 1 requirement missed, 2 usage or input error.
 */
int runPerfDiff(const std::vector<std::string> &args, std::ostream &out,
                std::ostream &err);

} // namespace phoenix::tools

#endif // PHOENIX_TOOLS_PERFDIFF_LIB_H
