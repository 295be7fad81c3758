/**
 * @file
 * Shared runner for the figure/table benches and examples: one CLI
 * (records, --jobs, --workloads, --engines, --seed) plus glue that
 * builds the parallel ExperimentDriver, so no bench carries its own
 * sweep loop.
 *
 * Usage accepted by every bench:
 *   bench [records] [--records N] [--jobs N] [--seed N]
 *         [--workloads a,b,c] [--engines x,y]
 *         [--store DIR] [--no-store] [--json FILE]
 *         [--checkpoint-every N] [--warmup-records N]
 *         [--plan-out FILE] [--list] [--help]
 *
 * The bare positional `records` argument is the historical interface
 * (e.g. `fig9_streaming_comparison 500000` for a quick run) and keeps
 * working.
 *
 * `--store DIR` (or the STEMS_STORE environment variable) attaches a
 * persistent TraceStore, so re-runs replay traces and cell results
 * from disk instead of regenerating/resimulating them; `--no-store`
 * forces the store off even when STEMS_STORE is set. `--json FILE`
 * writes the sweep results machine-readably, in the format
 * `stems_report compare` reads.
 *
 * `--checkpoint-every N` enables checkpointed execution (requires a
 * store): every cell persists simulator checkpoints every N records
 * and at the trace end, and resumes from the newest matching one, so
 * a re-run — including one extended to more --records — simulates
 * only the unseen suffix. `--warmup-records N` pins the warmup
 * boundary absolutely (instead of the 50% fraction), which keeps the
 * prefix identical across record counts; results stay bitwise
 * identical to an uncheckpointed run either way.
 */

#ifndef STEMS_BENCH_BENCH_UTIL_HH
#define STEMS_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace_span.hh"
#include "sim/driver.hh"

namespace stems {

/** Parsed bench command line. */
struct BenchOptions
{
    /// Records generated per workload trace.
    std::size_t records = 0;
    /// Worker threads (0 = hardware concurrency).
    unsigned jobs = 0;
    /// Trace-generation seed.
    std::uint64_t seed = 42;
    /// Workloads to sweep; empty = the full registered suite.
    std::vector<std::string> workloads;
    /// Engines to sweep; empty = the bench's default set.
    std::vector<std::string> engines;
    /// Persistent trace/result store directory; empty = no store.
    std::string storeDir;
    /// Machine-readable results output path; empty = none.
    std::string jsonPath;
    /// Checkpoint interval in records (--checkpoint-every; 0 = off).
    std::size_t checkpointEvery = 0;
    /// Absolute warmup-record override (0 = 50% fraction).
    std::size_t warmupRecords = 0;
    /// Metrics-snapshot output path (--metrics-out; empty = none).
    std::string metricsOutPath;
    /// Chrome trace-event output path (--trace-out; empty = none).
    std::string traceOutPath;
    /// Run-manifest output path (--manifest-out; empty = none).
    std::string manifestOutPath;
    /// Progress-heartbeat interval in seconds (--progress; 0 = off).
    double progressSeconds = 0.0;
    /// Canonical SweepPlan JSON output path (--plan-out; empty =
    /// none). Written by benchPlan, so any bench invocation can dump
    /// the exact plan it runs.
    std::string planOutPath;
};

/**
 * Parse the shared bench CLI. Exits with a usage message on --help,
 * --list (registry contents) or malformed/unknown arguments;
 * validates workload and engine names against the registries.
 *
 * @param default_records  trace length when none is given.
 */
BenchOptions parseBenchOptions(int argc, char **argv,
                               std::size_t default_records);

/**
 * THE one place that maps the bench CLI onto a declarative
 * SweepPlan: trace knobs (records/seed/warmup), timing mode, and
 * the whole execution policy (jobs/checkpoint/heartbeat)
 * come from `options`; the workload and engine
 * columns are the bench's resolved selections. When --plan-out was
 * given, the canonical plan JSON is written as a side effect (note
 * on stderr), so every bench invocation can dump the exact plan it
 * is about to run. Benches whose engine columns carry non-default
 * options use the PlanEngine overload; probe columns are not
 * serializable — such benches still build the plan here and pass
 * their EngineSpecs to ExperimentDriver::run(plan, specs).
 */
SweepPlan benchPlan(const BenchOptions &options, bool enable_timing,
                    std::vector<std::string> workloads,
                    std::vector<PlanEngine> engines);

/** benchPlan with default-option engine columns. */
SweepPlan benchPlan(const BenchOptions &options, bool enable_timing,
                    std::vector<std::string> workloads,
                    const std::vector<std::string> &engine_names);

/** The non-empty items of a comma-separated list, in order. */
std::vector<std::string> splitList(const std::string &arg);

/** The workloads to sweep: the selection, or the whole registry. */
std::vector<std::string>
benchWorkloads(const BenchOptions &options);

/** The workloads to sweep: the selection, or the bench's default. */
std::vector<std::string>
benchWorkloads(const BenchOptions &options,
               std::vector<std::string> defaults);

/** The engines to sweep: the selection, or the bench's default. */
std::vector<std::string>
benchEngines(const BenchOptions &options,
             std::vector<std::string> defaults);

/**
 * Exit with an error when --engines was given: for benches whose
 * engine set is structural (fixed table columns, parameter sweeps of
 * one engine) a selection would be silently ignored otherwise.
 */
void requireNoEngineSelection(const BenchOptions &options,
                              const char *reason);

/**
 * Exit with an error when --workloads was given: for examples bound
 * to their own workload a selection would be silently ignored.
 */
void requireNoWorkloadSelection(const BenchOptions &options,
                                const char *reason);

/**
 * Exit with an error when --json was given: for analysis benches
 * that do not produce WorkloadResults the flag would be silently
 * ignored.
 */
void requireNoJson(const BenchOptions &options, const char *reason);

/**
 * Attach the persistent TraceStore selected by --store/STEMS_STORE
 * to a driver (no-op when the options carry no store directory;
 * exits with an error when the directory is unusable). Everything
 * else travels in the SweepPlan (benchPlan) that each driver call
 * takes.
 */
void configureBenchDriver(ExperimentDriver &driver,
                          const BenchOptions &options);

/**
 * When --json was given, write the sweep results to the selected
 * file (full doubles, stable key order; the writer is
 * analysis/report.hh's writeResultsJson, the same format
 * `stems_report` parses) and print a one-line note. Exits with an
 * error if the file cannot be written.
 */
void maybeWriteJson(const BenchOptions &options,
                    const std::vector<WorkloadResult> &results);

/**
 * When a store is attached, print the driver's cache diagnostics
 * (trace generations/hits, cell simulations vs result-cache hits)
 * to stderr — stderr so bench stdout stays bitwise identical
 * between cold and warm runs. CI greps this line for `cellSims=0`
 * on warm re-runs. No-op without a store.
 */
void reportStoreStats(const ExperimentDriver &driver);

/** Standard bench banner (records, seed, jobs). */
std::string banner(const std::string &title,
                   const BenchOptions &options);

/**
 * Observability sinks for one bench run — the --metrics-out /
 * --trace-out / --manifest-out surfaces. Construct right after
 * parseBenchOptions (attaches the span collector when --trace-out
 * was given and starts the wall clock), optionally mark phases with
 * phase(), and call finish() once the sweep is done to write every
 * requested artifact. All output goes to the named files and notes
 * to stderr; bench stdout stays bitwise identical whether or not any
 * sink is attached.
 */
class BenchObsSession
{
  public:
    BenchObsSession(const BenchOptions &options, std::string tool);
    ~BenchObsSession();

    BenchObsSession(const BenchObsSession &) = delete;
    BenchObsSession &operator=(const BenchObsSession &) = delete;

    /** Close the current manifest phase and open `name`. */
    void phase(const char *name);

    /** Detach the collector and write the requested artifacts.
     *  Exits with an error if a requested file cannot be written. */
    void finish();

  private:
    BenchOptions options_;
    std::string tool_;
    SpanCollector collector_;
    std::uint64_t startNs_ = 0;
    std::string phaseName_;
    std::uint64_t phaseStartNs_ = 0;
    std::vector<std::pair<std::string, std::uint64_t>> phases_;
    bool finished_ = false;
};

} // namespace stems

#endif // STEMS_BENCH_BENCH_UTIL_HH
