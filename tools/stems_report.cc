/**
 * @file
 * stems_report — run-comparison and trajectory reporting over bench
 * `--json` result files and the persistent TraceStore.
 *
 *   stems_report compare <old.json> <new.json>
 *       [--format md|csv] [--threshold F] [-o FILE]
 *       [--fail-on-delta] [--fail-on-regression]
 *     Per-(workload, engine) coverage/accuracy/overprediction/
 *     speedup deltas between two stored runs, with regressions
 *     beyond the threshold highlighted. --fail-on-delta exits 2
 *     when any cell differs (CI uses this with the default
 *     threshold 0 to pin warm == cold); --fail-on-regression exits
 *     2 only when a metric got *worse* beyond the threshold.
 *
 *   stems_report history [--store DIR] [--format md|csv] [-o FILE]
 *     Orders the cell results cached in a store (--store or
 *     $STEMS_STORE) by save timestamp into a trajectory table.
 *
 *   stems_report metrics <metrics.json> [<old-metrics.json>]
 *       [-o FILE]
 *     Renders a stems-metrics-v1 snapshot (written by the bench
 *     --metrics-out flag and `stems_trace run --metrics-out`) as
 *     markdown: counters, gauges and latency-histogram summaries.
 *     With a second file, the first is treated as the newer
 *     snapshot and a delta column is added.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "analysis/report.hh"
#include "common/parse_number.hh"
#include "obs/metrics.hh"
#include "store/trace_store.hh"

using namespace stems;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  stems_report compare <old.json> <new.json>\n"
        "      [--format md|csv] [--threshold F] [-o FILE]\n"
        "      [--fail-on-delta] [--fail-on-regression]\n"
        "  stems_report history [--store DIR] [--format md|csv] "
        "[-o FILE]\n"
        "  stems_report metrics <metrics.json> "
        "[<old-metrics.json>] [-o FILE]\n"
        "\n"
        "  --format md|csv      output format (default: md)\n"
        "  --threshold F        |delta| <= F does not count as a\n"
        "                       change (default: 0 = exact)\n"
        "  -o FILE              write the report to FILE instead of\n"
        "                       stdout\n"
        "  --fail-on-delta      exit 2 when any cell changed\n"
        "  --fail-on-regression exit 2 when any cell regressed\n"
        "  --store DIR          store directory (default:\n"
        "                       $STEMS_STORE when set)\n");
    return 1;
}

struct Args
{
    std::vector<std::string> positional;
    std::string format = "md";
    std::string outPath;
    std::string storeDir;
    double threshold = 0.0;
    bool failOnDelta = false;
    bool failOnRegression = false;
    bool ok = true;

    Args(int argc, char **argv, int first)
    {
        if (const char *env = std::getenv("STEMS_STORE"))
            storeDir = env;
        for (int i = first; i < argc; ++i) {
            std::string arg = argv[i];
            auto value = [&]() -> const char * {
                if (i + 1 >= argc) {
                    std::fprintf(stderr, "%s wants a value\n",
                                 arg.c_str());
                    ok = false;
                    return "";
                }
                return argv[++i];
            };
            if (arg == "--format") {
                format = value();
                if (format != "md" && format != "csv") {
                    std::fprintf(stderr,
                                 "--format wants md or csv\n");
                    ok = false;
                }
            } else if (arg == "--threshold") {
                const char *v = value();
                if (!parseNonNegative(v, threshold)) {
                    std::fprintf(stderr,
                                 "--threshold wants a non-negative "
                                 "number, got '%s'\n",
                                 v);
                    ok = false;
                }
            } else if (arg == "-o" || arg == "--output") {
                outPath = value();
            } else if (arg == "--store") {
                storeDir = value();
            } else if (arg == "--fail-on-delta") {
                failOnDelta = true;
            } else if (arg == "--fail-on-regression") {
                failOnRegression = true;
            } else if (!arg.empty() && arg[0] == '-') {
                std::fprintf(stderr, "unknown option '%s'\n",
                             arg.c_str());
                ok = false;
            } else {
                positional.push_back(arg);
            }
        }
    }
};

int
emit(const std::string &report, const std::string &out_path)
{
    if (out_path.empty()) {
        std::fputs(report.c_str(), stdout);
        return 0;
    }
    std::FILE *f = std::fopen(out_path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    bool ok = std::fwrite(report.data(), 1, report.size(), f) ==
              report.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
    }
    std::fprintf(stderr, "[report] wrote %s\n", out_path.c_str());
    return 0;
}

int
cmdCompare(const Args &args)
{
    if (args.positional.size() != 2)
        return usage();
    RunData old_run, new_run;
    std::string error;
    if (!loadResultsJson(args.positional[0], old_run, &error) ||
        !loadResultsJson(args.positional[1], new_run, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    RunComparison cmp =
        compareRuns(old_run, new_run, args.threshold);
    std::string report =
        args.format == "csv"
            ? renderComparisonCsv(cmp)
            : renderComparisonMarkdown(cmp, old_run, new_run,
                                       args.threshold);
    int rc = emit(report, args.outPath);
    if (rc != 0)
        return rc;
    if (args.failOnDelta && cmp.changed > 0) {
        std::fprintf(stderr, "%zu cells changed\n", cmp.changed);
        return 2;
    }
    if (args.failOnRegression && cmp.regressions > 0) {
        std::fprintf(stderr, "%zu cells regressed\n",
                     cmp.regressions);
        return 2;
    }
    return 0;
}

int
cmdMetrics(const Args &args)
{
    if (args.positional.empty() || args.positional.size() > 2)
        return usage();
    MetricsSnapshot snap;
    std::string error;
    if (!loadMetricsJson(args.positional[0], snap, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    MetricsSnapshot old_snap;
    bool have_old = args.positional.size() == 2;
    if (have_old &&
        !loadMetricsJson(args.positional[1], old_snap, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 1;
    }
    return emit(renderMetricsMarkdown(
                    snap, have_old ? &old_snap : nullptr),
                args.outPath);
}

int
cmdHistory(const Args &args)
{
    if (!args.positional.empty())
        return usage();
    if (args.storeDir.empty()) {
        std::fprintf(stderr,
                     "no store directory (pass --store DIR or set "
                     "STEMS_STORE)\n");
        return 1;
    }
    // Read-only query: a mistyped path must error out, not be
    // silently created (TraceStore's constructor would mkdir it)
    // and reported as an empty history.
    std::error_code ec;
    if (!std::filesystem::is_directory(args.storeDir, ec)) {
        std::fprintf(stderr, "no trace store at '%s'\n",
                     args.storeDir.c_str());
        return 1;
    }
    TraceStore store(args.storeDir);
    if (!store.usable()) {
        std::fprintf(stderr, "cannot open trace store '%s'\n",
                     args.storeDir.c_str());
        return 1;
    }
    auto entries = store.listResults();
    std::string report =
        args.format == "csv"
            ? renderHistoryCsv(entries)
            : renderHistoryMarkdown(entries, store.dir());
    return emit(report, args.outPath);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    Args args(argc, argv, 2);
    if (!args.ok)
        return usage();
    if (std::strcmp(argv[1], "compare") == 0)
        return cmdCompare(args);
    if (std::strcmp(argv[1], "history") == 0)
        return cmdHistory(args);
    if (std::strcmp(argv[1], "metrics") == 0)
        return cmdMetrics(args);
    return usage();
}
