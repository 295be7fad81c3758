/**
 * @file
 * Tests for the run-comparison reporting backend
 * (analysis/report.hh): the `--json` result format round-trips
 * exactly through the shared writer/parser pair, compareRuns flags
 * changes and regressions with correct threshold semantics, and the
 * Markdown/CSV renderings carry the delta table `stems_report`
 * prints.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/report.hh"
#include "test_util.hh"

namespace stems {
namespace {

class ReportTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = test::uniqueTempPath("stems_report_test");
        std::filesystem::remove_all(dir_);
        std::filesystem::create_directories(dir_);
    }

    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string
    path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

    std::string dir_;
};

/** A small synthetic two-workload sweep result. */
std::vector<WorkloadResult>
sampleResults()
{
    std::vector<WorkloadResult> results(2);
    results[0].workload = "oltp-db2";
    results[0].workloadClass = WorkloadClass::kOltp;
    results[0].baselineMisses = 10000;
    results[0].baselineIpc = 0.75;
    results[0].baselineCycles = 1.0e7;
    results[0].strideCycles = 9.0e6;
    EngineResult e;
    e.engine = "stems";
    e.coverage = 0.62;
    e.uncovered = 0.38;
    e.overprediction = 0.29;
    e.speedup = 1.3100000000000001;
    e.stats.svbHits = 5000;
    e.stats.l2PrefetchHits = 1200;
    e.stats.prefetchesIssued = 9000;
    e.stats.offChipReads = 3800;
    e.extra["placed"] = 0.1 + 0.2; // not exactly 0.3
    results[0].engines.push_back(e);
    e.engine = "sms";
    e.coverage = 0.54;
    e.extra.clear();
    results[0].engines.push_back(e);

    results[1].workload = "em3d \"quoted\\name\"";
    results[1].workloadClass = WorkloadClass::kScientific;
    results[1].baselineMisses = 1;
    EngineResult s;
    s.engine = "tms";
    s.coverage = 0.001;
    results[1].engines.push_back(s);
    return results;
}

TEST_F(ReportTest, JsonRoundTripIsExact)
{
    auto results = sampleResults();
    std::string file = path("run.json");
    std::string error;
    ASSERT_TRUE(writeResultsJson(file, 500000, 42, results, &error))
        << error;

    RunData run;
    ASSERT_TRUE(loadResultsJson(file, run, &error)) << error;
    EXPECT_EQ(run.records, 500000u);
    EXPECT_EQ(run.seed, 42u);
    ASSERT_EQ(run.workloads.size(), 2u);

    const RunWorkloadRow &w = run.workloads[0];
    EXPECT_EQ(w.workload, "oltp-db2");
    EXPECT_EQ(w.workloadClass, "OLTP");
    EXPECT_EQ(w.baselineMisses, 10000u);
    EXPECT_EQ(w.baselineIpc, 0.75);
    EXPECT_EQ(w.baselineCycles, 1.0e7);
    EXPECT_EQ(w.strideCycles, 9.0e6);
    ASSERT_EQ(w.engines.size(), 2u);
    const RunEngineRow &e = w.engines[0];
    EXPECT_EQ(e.engine, "stems");
    EXPECT_EQ(e.coverage, 0.62);
    EXPECT_EQ(e.uncovered, 0.38);
    EXPECT_EQ(e.overprediction, 0.29);
    // %.17g doubles round-trip bitwise.
    EXPECT_EQ(e.speedup, 1.3100000000000001);
    EXPECT_EQ(e.prefetchesIssued, 9000u);
    EXPECT_EQ(e.offChipReads, 3800u);
    EXPECT_EQ(e.covered, 6200u); // svbHits + l2PrefetchHits
    ASSERT_EQ(e.extra.count("placed"), 1u);
    EXPECT_EQ(e.extra.at("placed"), 0.1 + 0.2);

    // Escaped workload names survive the trip.
    EXPECT_EQ(run.workloads[1].workload, "em3d \"quoted\\name\"");
    EXPECT_NE(run.find("em3d \"quoted\\name\"", "tms"), nullptr);
    EXPECT_EQ(run.find("nope", "tms"), nullptr);
}

TEST_F(ReportTest, LoadRejectsMissingAndMalformedFiles)
{
    RunData run;
    std::string error;
    EXPECT_FALSE(loadResultsJson(path("absent.json"), run, &error));
    EXPECT_NE(error.find("cannot read"), std::string::npos);

    std::FILE *f = std::fopen(path("bad.json").c_str(), "w");
    std::fputs("{\"records\": 5, \"workloads\": [", f);
    std::fclose(f);
    EXPECT_FALSE(loadResultsJson(path("bad.json"), run, &error));

    f = std::fopen(path("noarray.json").c_str(), "w");
    std::fputs("{\"records\": 5}", f);
    std::fclose(f);
    EXPECT_FALSE(loadResultsJson(path("noarray.json"), run, &error));
    EXPECT_NE(error.find("workloads"), std::string::npos);
}

TEST_F(ReportTest, IdenticalRunsCompareClean)
{
    auto results = sampleResults();
    std::string error;
    ASSERT_TRUE(writeResultsJson(path("a.json"), 1000, 1, results,
                                 &error));
    RunData a, b;
    ASSERT_TRUE(loadResultsJson(path("a.json"), a, &error));
    ASSERT_TRUE(loadResultsJson(path("a.json"), b, &error));

    RunComparison cmp = compareRuns(a, b, 0.0);
    EXPECT_EQ(cmp.rows.size(), 3u);
    EXPECT_EQ(cmp.changed, 0u);
    EXPECT_EQ(cmp.regressions, 0u);
    EXPECT_FALSE(cmp.configMismatch);
    for (const DeltaRow &row : cmp.rows) {
        EXPECT_TRUE(row.inOld);
        EXPECT_TRUE(row.inNew);
        EXPECT_FALSE(row.changed);
    }
}

TEST_F(ReportTest, RegressionAndThresholdSemantics)
{
    auto old_results = sampleResults();
    auto new_results = sampleResults();
    // Coverage drops by 2pp on (oltp-db2, stems).
    new_results[0].engines[0].coverage = 0.60;
    std::string error;
    ASSERT_TRUE(writeResultsJson(path("old.json"), 1000, 1,
                                 old_results, &error));
    ASSERT_TRUE(writeResultsJson(path("new.json"), 1000, 1,
                                 new_results, &error));
    RunData a, b;
    ASSERT_TRUE(loadResultsJson(path("old.json"), a, &error));
    ASSERT_TRUE(loadResultsJson(path("new.json"), b, &error));

    // Exact comparison flags it as a regression.
    RunComparison exact = compareRuns(a, b, 0.0);
    EXPECT_EQ(exact.changed, 1u);
    EXPECT_EQ(exact.regressions, 1u);
    const DeltaRow *row = nullptr;
    for (const DeltaRow &r : exact.rows)
        if (r.workload == "oltp-db2" && r.engine == "stems")
            row = &r;
    ASSERT_NE(row, nullptr);
    EXPECT_TRUE(row->regression);
    EXPECT_EQ(row->covOld, 0.62);
    EXPECT_EQ(row->covNew, 0.60);

    // A tolerant threshold swallows the 2pp delta.
    RunComparison tolerant = compareRuns(a, b, 0.05);
    EXPECT_EQ(tolerant.changed, 0u);
    EXPECT_EQ(tolerant.regressions, 0u);

    // An *improvement* beyond the threshold is changed, not a
    // regression.
    new_results[0].engines[0].coverage = 0.70;
    ASSERT_TRUE(writeResultsJson(path("new.json"), 1000, 1,
                                 new_results, &error));
    ASSERT_TRUE(loadResultsJson(path("new.json"), b, &error));
    RunComparison improved = compareRuns(a, b, 0.0);
    EXPECT_EQ(improved.changed, 1u);
    EXPECT_EQ(improved.regressions, 0u);
}

TEST_F(ReportTest, AddedAndRemovedCellsAreFlagged)
{
    auto old_results = sampleResults();
    auto new_results = sampleResults();
    new_results[0].engines.pop_back(); // drop (oltp-db2, sms)
    EngineResult added;
    added.engine = "stride";
    new_results[1].engines.push_back(added);

    std::string error;
    ASSERT_TRUE(writeResultsJson(path("old.json"), 1000, 1,
                                 old_results, &error));
    ASSERT_TRUE(writeResultsJson(path("new.json"), 1000, 2,
                                 new_results, &error));
    RunData a, b;
    ASSERT_TRUE(loadResultsJson(path("old.json"), a, &error));
    ASSERT_TRUE(loadResultsJson(path("new.json"), b, &error));

    RunComparison cmp = compareRuns(a, b, 0.0);
    EXPECT_TRUE(cmp.configMismatch); // seeds differ
    EXPECT_EQ(cmp.rows.size(), 4u);  // union of cells
    std::size_t removed = 0, added_rows = 0;
    for (const DeltaRow &row : cmp.rows) {
        if (!row.inNew) {
            ++removed;
            EXPECT_EQ(row.engine, "sms");
            EXPECT_TRUE(row.changed);
        }
        if (!row.inOld) {
            ++added_rows;
            EXPECT_EQ(row.engine, "stride");
            EXPECT_TRUE(row.changed);
        }
    }
    EXPECT_EQ(removed, 1u);
    EXPECT_EQ(added_rows, 1u);
}

TEST_F(ReportTest, RenderingsCarryTheDeltaTable)
{
    auto old_results = sampleResults();
    auto new_results = sampleResults();
    new_results[0].engines[0].coverage = 0.60;
    std::string error;
    ASSERT_TRUE(writeResultsJson(path("old.json"), 1000, 1,
                                 old_results, &error));
    ASSERT_TRUE(writeResultsJson(path("new.json"), 1000, 1,
                                 new_results, &error));
    RunData a, b;
    ASSERT_TRUE(loadResultsJson(path("old.json"), a, &error));
    ASSERT_TRUE(loadResultsJson(path("new.json"), b, &error));
    RunComparison cmp = compareRuns(a, b, 0.0);

    std::string md = renderComparisonMarkdown(cmp, a, b, 0.0);
    EXPECT_NE(md.find("REGRESSION"), std::string::npos);
    EXPECT_NE(md.find("62.00% → 60.00%"), std::string::npos);
    EXPECT_NE(md.find("old.json"), std::string::npos);
    EXPECT_NE(md.find("1 regressions"), std::string::npos);

    std::string csv = renderComparisonCsv(cmp);
    // Header + one line per union cell.
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              1 + cmp.rows.size());
    EXPECT_NE(csv.find("oltp-db2,stems,REGRESSION"),
              std::string::npos);
    EXPECT_NE(csv.find("oltp-db2,sms,ok"), std::string::npos);
}

TEST_F(ReportTest, PreCoveredFilesSkipTheAccuracyColumn)
{
    // Files written before the "covered" field existed cannot
    // report accuracy; comparing them must not fabricate 0% values
    // (which would flag every cell as changed).
    auto results = sampleResults();
    std::string error;
    ASSERT_TRUE(writeResultsJson(path("new.json"), 1000, 1, results,
                                 &error));
    std::string text;
    {
        std::ifstream in(path("new.json"));
        std::stringstream ss;
        ss << in.rdbuf();
        text = ss.str();
    }
    // Simulate the old writer by stripping the covered field.
    for (std::string::size_type pos;
         (pos = text.find(", \"covered\": ")) != std::string::npos;) {
        auto end = text.find_first_of(",}", pos + 13);
        text.erase(pos, end - pos);
    }
    {
        std::ofstream out(path("old.json"));
        out << text;
    }

    RunData a, b;
    ASSERT_TRUE(loadResultsJson(path("old.json"), a, &error))
        << error;
    ASSERT_TRUE(loadResultsJson(path("new.json"), b, &error));
    EXPECT_FALSE(a.workloads[0].engines[0].hasCovered);
    EXPECT_TRUE(b.workloads[0].engines[0].hasCovered);

    // Identical metrics otherwise: zero changes, zero regressions.
    RunComparison cmp = compareRuns(a, b, 0.0);
    EXPECT_EQ(cmp.changed, 0u);
    EXPECT_EQ(cmp.regressions, 0u);
    for (const DeltaRow &row : cmp.rows)
        EXPECT_FALSE(row.accComparable);

    // The renderings mark the column unavailable instead of 0%.
    std::string md = renderComparisonMarkdown(cmp, a, b, 0.0);
    EXPECT_NE(md.find("n/a"), std::string::npos);
    std::string csv = renderComparisonCsv(cmp);
    EXPECT_NE(csv.find(",ok,"), std::string::npos);
    EXPECT_EQ(csv.find("REGRESSION"), std::string::npos);
}

TEST_F(ReportTest, HistoryRenderingOrdersBySaveTime)
{
    std::vector<StoredResultInfo> entries(2);
    entries[0].meta = {"oltp-db2", "stems", 1000, 42,
                       0.62,       0.81,    1.31, true};
    entries[0].savedAtUnix = 1700000000;
    entries[1].meta = {"em3d", "sms", 1000, 42, 0.57, 0.8, 0.0,
                       false};
    entries[1].savedAtUnix = 1700003600;

    std::string md = renderHistoryMarkdown(entries, "/some/store");
    EXPECT_NE(md.find("/some/store"), std::string::npos);
    auto first = md.find("oltp-db2");
    auto second = md.find("em3d");
    ASSERT_NE(first, std::string::npos);
    ASSERT_NE(second, std::string::npos);
    EXPECT_LT(first, second); // oldest first
    EXPECT_NE(md.find("2023-11-14"), std::string::npos);

    std::string csv = renderHistoryCsv(entries);
    EXPECT_NE(csv.find("1700000000,oltp-db2,stems"),
              std::string::npos);

    EXPECT_NE(renderHistoryMarkdown({}, "/x").find("No cached"),
              std::string::npos);
}

} // namespace
} // namespace stems
