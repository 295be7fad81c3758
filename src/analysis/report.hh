/**
 * @file
 * Run-comparison reporting: the machine-readable `--json` result
 * format every bench emits (one writer, one parser, so the two can
 * never drift), per-(workload, engine) delta computation between two
 * stored runs with regression highlighting, and Markdown/CSV
 * rendering — the backend of the `stems_report` tool.
 */

#ifndef STEMS_ANALYSIS_REPORT_HH
#define STEMS_ANALYSIS_REPORT_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "store/trace_store.hh"

namespace stems {

/** One engine's metrics as stored in a `--json` result file. */
struct RunEngineRow
{
    std::string engine;
    double coverage = 0.0;
    double uncovered = 0.0;
    double overprediction = 0.0;
    double speedup = 0.0;
    std::uint64_t covered = 0;
    /// The file carried a "covered" field (older writers did not;
    /// without it the accuracy column cannot be computed).
    bool hasCovered = false;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t offChipReads = 0;
    std::map<std::string, double> extra;

    /** covered / prefetches issued (0 when none were issued). */
    double accuracy() const;
};

/** One workload's row of a stored run. */
struct RunWorkloadRow
{
    std::string workload;
    std::string workloadClass;
    std::uint64_t baselineMisses = 0;
    double baselineIpc = 0.0;
    double baselineCycles = 0.0;
    double strideCycles = 0.0;
    std::vector<RunEngineRow> engines;
};

/** A parsed `--json` result file. */
struct RunData
{
    std::string source; ///< path the run was loaded from
    std::uint64_t records = 0;
    std::uint64_t seed = 0;
    std::vector<RunWorkloadRow> workloads;

    /** Engine row for (workload, engine); null when absent. */
    const RunEngineRow *find(const std::string &workload,
                             const std::string &engine) const;
};

/**
 * Write sweep results as JSON (full %.17g doubles, stable key
 * order) — the single serializer behind every bench's `--json`.
 * @return false (with *error set) when the file cannot be written.
 */
bool writeResultsJson(const std::string &path, std::uint64_t records,
                      std::uint64_t seed,
                      const std::vector<WorkloadResult> &results,
                      std::string *error = nullptr);

/** Parse a file written by writeResultsJson. Unknown fields are
 *  ignored (forward compatibility). */
bool loadResultsJson(const std::string &path, RunData &out,
                     std::string *error = nullptr);

/** One (workload, engine) line of a run comparison. */
struct DeltaRow
{
    std::string workload;
    std::string engine;
    bool inOld = false;
    bool inNew = false;
    double covOld = 0.0, covNew = 0.0;
    double accOld = 0.0, accNew = 0.0;
    /// Both runs carried the data accuracy derives from; when
    /// false (a pre-"covered" file is involved) the accuracy
    /// columns are not compared and render as n/a.
    bool accComparable = true;
    double overOld = 0.0, overNew = 0.0;
    double spOld = 0.0, spNew = 0.0;
    std::uint64_t baseOld = 0, baseNew = 0;
    /// Any watched metric moved beyond the threshold (or the row
    /// exists in only one run, or the baselines differ).
    bool changed = false;
    /// A watched metric moved beyond the threshold in the *bad*
    /// direction: coverage/accuracy/speedup down, overprediction up.
    bool regression = false;
};

/** Comparison of two runs over the union of their cells. */
struct RunComparison
{
    std::vector<DeltaRow> rows;
    std::size_t changed = 0;
    std::size_t regressions = 0;
    /// records/seed differ: deltas compare different experiments.
    bool configMismatch = false;
};

/**
 * Compare two runs cell by cell. A metric counts as changed when
 * |new - old| > threshold, so threshold 0 flags any non-identical
 * value (the CI cold-vs-warm check relies on that exactness).
 */
RunComparison compareRuns(const RunData &old_run,
                          const RunData &new_run, double threshold);

std::string renderComparisonMarkdown(const RunComparison &cmp,
                                     const RunData &old_run,
                                     const RunData &new_run,
                                     double threshold);

std::string renderComparisonCsv(const RunComparison &cmp);

/** Trajectory table over a store's result entries, oldest first
 *  (`stems_report history`). */
std::string
renderHistoryMarkdown(const std::vector<StoredResultInfo> &entries,
                      const std::string &store_dir);

std::string
renderHistoryCsv(const std::vector<StoredResultInfo> &entries);

} // namespace stems

#endif // STEMS_ANALYSIS_REPORT_HH
