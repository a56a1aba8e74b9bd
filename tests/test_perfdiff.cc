/**
 * @file
 * Unit tests for the perfdiff core (tools/perfdiff_lib): report JSON
 * parsing into cells, per-cell speedup math, worst-cell tracking, and
 * the --require-speedup CLI exit semantics (0 pass / 1 miss / 2 usage
 * or input error).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "perfdiff_lib.h"

using namespace phoenix;
using tools::PerfDiffResult;
using util::JsonValue;

namespace {

/** A minimal exp::Report document with one section and two cells. */
std::string
report(double plan_a, double pack_a, double plan_b, double pack_b,
       double pushes = 100.0)
{
    std::ostringstream os;
    os << "{\"sections\": [{\"name\": \"sweep\", \"sweep\": ["
       << "{\"scheme\": \"PhoenixCost\", \"failure_rate\": 0.1, "
       << "\"plan_seconds\": {\"mean\": " << plan_a << "}, "
       << "\"pack_seconds\": {\"mean\": " << pack_a << "}, "
       << "\"ops_heap_pushes\": {\"mean\": " << pushes << "}, "
       << "\"ops_best_fit_probes\": {\"mean\": 50}},"
       << "{\"scheme\": \"PhoenixFair\", \"failure_rate\": 0.5, "
       << "\"plan_seconds\": {\"mean\": " << plan_b << "}, "
       << "\"pack_seconds\": {\"mean\": " << pack_b << "}, "
       << "\"ops_heap_pushes\": {\"mean\": " << pushes << "}, "
       << "\"ops_best_fit_probes\": {\"mean\": 50}}]}]}";
    return os.str();
}

JsonValue
parsed(const std::string &text)
{
    JsonValue value;
    EXPECT_TRUE(util::parseJson(text, value));
    return value;
}

/** RAII temp file under the build tree's cwd. */
class TempFile
{
  public:
    TempFile(const std::string &name, const std::string &content)
        : path_("perfdiff_test_" + name)
    {
        std::ofstream out(path_);
        out << content;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace

TEST(PerfDiff, CollectsCellsKeyedBySectionSchemeRate)
{
    const JsonValue root = parsed(report(0.2, 0.1, 0.4, 0.2));
    const auto cells = tools::collectPerfCells(root);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].first, "sweep/PhoenixCost@0.1");
    EXPECT_EQ(cells[1].first, "sweep/PhoenixFair@0.5");
    EXPECT_DOUBLE_EQ(cells[0].second.planSeconds, 0.2);
    EXPECT_DOUBLE_EQ(cells[0].second.packSeconds, 0.1);
    EXPECT_DOUBLE_EQ(cells[0].second.total(), 0.3);
    EXPECT_DOUBLE_EQ(cells[0].second.heapPushes, 100.0);

    // Malformed shapes degrade to no cells, not a crash.
    EXPECT_TRUE(tools::collectPerfCells(parsed("{}")).empty());
    EXPECT_TRUE(
        tools::collectPerfCells(parsed("{\"sections\": [{}]}")).empty());
}

TEST(PerfDiff, SpeedupIsBaselineOverFreshPerCell)
{
    // Cell 1: 0.3s -> 0.1s = 3x. Cell 2: 0.6s -> 0.3s = 2x.
    const JsonValue baseline = parsed(report(0.2, 0.1, 0.4, 0.2));
    const JsonValue fresh = parsed(report(0.05, 0.05, 0.1, 0.2));
    const PerfDiffResult result =
        tools::diffPerfReports(baseline, fresh);
    ASSERT_EQ(result.rows.size(), 2u);
    EXPECT_NEAR(result.rows[0].speedup, 3.0, 1e-9);
    EXPECT_NEAR(result.rows[1].speedup, 2.0, 1e-9);
    EXPECT_EQ(result.worstCell, "sweep/PhoenixFair@0.5");
    EXPECT_NEAR(result.worstSpeedup, 2.0, 1e-9);
    EXPECT_TRUE(result.met); // no requirement given
}

TEST(PerfDiff, RequirementComparesEverySharedCell)
{
    const JsonValue baseline = parsed(report(0.2, 0.1, 0.4, 0.2));
    const JsonValue fresh = parsed(report(0.05, 0.05, 0.1, 0.2));
    EXPECT_TRUE(tools::diffPerfReports(baseline, fresh, 1.5).met);
    // 2.5x requirement: the 2x cell misses even though the other is 3x.
    EXPECT_FALSE(tools::diffPerfReports(baseline, fresh, 2.5).met);
}

TEST(PerfDiff, OpsRegressionBoundIsMachineIndependent)
{
    // Identical op counters: ratio 1.0, any bound passes (wall time
    // regressed 2x, which the ops bound deliberately ignores).
    const JsonValue baseline = parsed(report(0.1, 0.1, 0.1, 0.1));
    const JsonValue slower = parsed(report(0.2, 0.2, 0.2, 0.2));
    {
        const PerfDiffResult result =
            tools::diffPerfReports(baseline, slower, 0.0, 0.0);
        EXPECT_TRUE(result.opsMet);
        EXPECT_NEAR(result.worstOpsRatio, 1.0, 1e-9);
    }

    // 100+50 -> 130+50 ops = +20%: inside a 25% bound, outside 5%.
    const JsonValue more_ops =
        parsed(report(0.1, 0.1, 0.1, 0.1, 130.0));
    EXPECT_TRUE(
        tools::diffPerfReports(baseline, more_ops, 0.0, 0.25).opsMet);
    {
        const PerfDiffResult result =
            tools::diffPerfReports(baseline, more_ops, 0.0, 0.05);
        EXPECT_FALSE(result.opsMet);
        EXPECT_NEAR(result.worstOpsRatio, 180.0 / 150.0, 1e-9);
    }
    // Negative bound disables the check entirely.
    EXPECT_TRUE(
        tools::diffPerfReports(baseline, more_ops, 0.0, -1.0).opsMet);
}

TEST(PerfDiff, OpsRegressionCliExitCodes)
{
    const TempFile baseline("ops_base.json",
                            report(0.1, 0.1, 0.1, 0.1));
    const TempFile more_ops("ops_new.json",
                            report(0.1, 0.1, 0.1, 0.1, 130.0));
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(tools::runPerfDiff({baseline.path(), more_ops.path(),
                                  "--max-ops-regression", "0.25"},
                                 out, err),
              0);
    EXPECT_NE(out.str().find("ops bound"), std::string::npos);
    EXPECT_NE(out.str().find("PASS"), std::string::npos);
    EXPECT_EQ(tools::runPerfDiff({baseline.path(), more_ops.path(),
                                  "--max-ops-regression", "0.05"},
                                 out, err),
              1);
    EXPECT_NE(out.str().find("FAIL"), std::string::npos);
}

TEST(PerfDiff, DisjointReportsShareNoCells)
{
    const JsonValue baseline = parsed(report(0.2, 0.1, 0.4, 0.2));
    JsonValue other = parsed(
        "{\"sections\": [{\"name\": \"elsewhere\", \"sweep\": ["
        "{\"scheme\": \"PhoenixCost\", \"failure_rate\": 0.1, "
        "\"plan_seconds\": {\"mean\": 1}, "
        "\"pack_seconds\": {\"mean\": 1}}]}]}");
    const PerfDiffResult result =
        tools::diffPerfReports(baseline, other, 2.0);
    EXPECT_TRUE(result.rows.empty());
    EXPECT_TRUE(result.met) << "no shared cells means nothing missed";
    // Fully disjoint reports surface every cell as added or removed.
    ASSERT_EQ(result.added.size(), 1u);
    EXPECT_EQ(result.added[0], "elsewhere/PhoenixCost@0.1");
    ASSERT_EQ(result.removed.size(), 2u);
    EXPECT_EQ(result.removed[0], "sweep/PhoenixCost@0.1");
    EXPECT_EQ(result.removed[1], "sweep/PhoenixFair@0.5");
}

TEST(PerfDiff, AddedAndRemovedCellsAreReportedNotFatal)
{
    // Baseline has cells A+B; fresh has B+C: A removed, C added, B
    // shared. A grown bench (new sizes/schemes) must diff cleanly
    // against an older baseline.
    const JsonValue baseline = parsed(report(0.2, 0.1, 0.4, 0.2));
    JsonValue fresh = parsed(
        "{\"sections\": [{\"name\": \"sweep\", \"sweep\": ["
        "{\"scheme\": \"PhoenixFair\", \"failure_rate\": 0.5, "
        "\"plan_seconds\": {\"mean\": 0.1}, "
        "\"pack_seconds\": {\"mean\": 0.1}, "
        "\"ops_heap_pushes\": {\"mean\": 100}, "
        "\"ops_best_fit_probes\": {\"mean\": 50}},"
        "{\"scheme\": \"PhoenixFair-sharded\", \"failure_rate\": 0.5, "
        "\"plan_seconds\": {\"mean\": 0.1}, "
        "\"pack_seconds\": {\"mean\": 0.1}, "
        "\"ops_heap_pushes\": {\"mean\": 100}, "
        "\"ops_best_fit_probes\": {\"mean\": 50}}]}]}");
    const PerfDiffResult result =
        tools::diffPerfReports(baseline, fresh, 2.0);
    ASSERT_EQ(result.rows.size(), 1u);
    EXPECT_EQ(result.rows[0].cell, "sweep/PhoenixFair@0.5");
    ASSERT_EQ(result.added.size(), 1u);
    EXPECT_EQ(result.added[0], "sweep/PhoenixFair-sharded@0.5");
    ASSERT_EQ(result.removed.size(), 1u);
    EXPECT_EQ(result.removed[0], "sweep/PhoenixCost@0.1");
    // Only the shared cell counts against --require-speedup: 0.6s ->
    // 0.2s = 3x meets 2x even though the added/removed cells have no
    // counterpart to compare.
    EXPECT_TRUE(result.met);

    // CLI: exit 0, table for the shared cell, one line per one-sided
    // cell. Exit 2 is reserved for zero overlap AND zero churn.
    const TempFile base_file("churn_base.json",
                             report(0.2, 0.1, 0.4, 0.2));
    const TempFile fresh_file(
        "churn_new.json",
        "{\"sections\": [{\"name\": \"sweep\", \"sweep\": ["
        "{\"scheme\": \"PhoenixFair\", \"failure_rate\": 0.5, "
        "\"plan_seconds\": {\"mean\": 0.1}, "
        "\"pack_seconds\": {\"mean\": 0.1}, "
        "\"ops_heap_pushes\": {\"mean\": 100}, "
        "\"ops_best_fit_probes\": {\"mean\": 50}},"
        "{\"scheme\": \"PhoenixFair-sharded\", \"failure_rate\": 0.5, "
        "\"plan_seconds\": {\"mean\": 0.1}, "
        "\"pack_seconds\": {\"mean\": 0.1}, "
        "\"ops_heap_pushes\": {\"mean\": 100}, "
        "\"ops_best_fit_probes\": {\"mean\": 50}}]}]}");
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(
        tools::runPerfDiff({base_file.path(), fresh_file.path()}, out,
                           err),
        0);
    EXPECT_NE(
        out.str().find("added cell: sweep/PhoenixFair-sharded@0.5"),
        std::string::npos);
    EXPECT_NE(out.str().find("removed cell: sweep/PhoenixCost@0.1"),
              std::string::npos);
    EXPECT_NE(out.str().find("worst cell"), std::string::npos);
}

TEST(PerfDiff, CliExitCodes)
{
    const TempFile baseline("base.json", report(0.2, 0.1, 0.4, 0.2));
    const TempFile fresh("new.json", report(0.05, 0.05, 0.1, 0.2));
    std::ostringstream out;
    std::ostringstream err;

    // Plain diff: exit 0 and a table mentioning both cells.
    EXPECT_EQ(tools::runPerfDiff({baseline.path(), fresh.path()}, out,
                                 err),
              0);
    EXPECT_NE(out.str().find("sweep/PhoenixCost@0.1"),
              std::string::npos);
    EXPECT_NE(out.str().find("worst cell"), std::string::npos);

    // Requirement met -> 0, missed -> 1.
    EXPECT_EQ(tools::runPerfDiff({baseline.path(), fresh.path(),
                                  "--require-speedup", "1.5"},
                                 out, err),
              0);
    EXPECT_EQ(tools::runPerfDiff({baseline.path(), fresh.path(),
                                  "--require-speedup", "2.5"},
                                 out, err),
              1);

    // Usage and input errors -> 2.
    EXPECT_EQ(tools::runPerfDiff({baseline.path()}, out, err), 2);
    EXPECT_EQ(tools::runPerfDiff({baseline.path(), "no-such-file.json"},
                                 out, err),
              2);
    const TempFile garbage("garbage.json", "not json");
    EXPECT_EQ(
        tools::runPerfDiff({baseline.path(), garbage.path()}, out, err),
        2);

    // --help prints usage and exits 0.
    std::ostringstream help;
    EXPECT_EQ(tools::runPerfDiff({"--help"}, help, err), 0);
    EXPECT_NE(help.str().find("usage"), std::string::npos);
}
