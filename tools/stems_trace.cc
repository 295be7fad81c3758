/**
 * @file
 * stems_trace — command-line trace utility.
 *
 *   stems_trace generate <workload> <records> <out.trc> [seed]
 *       Generate a workload trace and save it (compact v2 format).
 *   stems_trace info <trace.trc>
 *       Print summary statistics for a saved trace.
 *   stems_trace analyze <trace.trc>
 *       Run the Figure 6/8 characterization analyses on a trace.
 *   stems_trace run <trace.trc> <engines> [--jobs N] [--timing]
 *                   [--store DIR] [--metrics-out F] [--trace-out F]
 *                   [--manifest-out F]
 *       Run prefetch engines (comma-separated registry names) over a
 *       trace through the parallel ExperimentDriver and report
 *       coverage and accuracy. Every cell is a lane over one copy
 *       of the trace; the driver's lane scheduler advances the
 *       lanes a chunk at a time on up to --jobs threads. With a store
 *       (--store or $STEMS_STORE), every cell's result — the
 *       baseline's included — is cached under the trace's content
 *       digest, so re-runs simulate nothing.
 *   stems_trace import <in.txt> <out.trc> [--store DIR] [--name N]
 *       Convert an external text/CSV access trace (ChampSim-style
 *       pc,addr,is_write lines; see trace/text_trace.hh) to the
 *       binary format, optionally ingesting it into a TraceStore.
 *   stems_trace export <trace.trc> <out.txt>
 *       Write a binary trace back out as text (import-compatible).
 *   stems_trace cache ls [--store DIR]
 *   stems_trace cache gc <budget-bytes> [--store DIR]
 *       List / evict entries of the persistent store (--store or
 *       $STEMS_STORE selects the directory).
 *   stems_trace list
 *       List the built-in workloads.
 *   stems_trace sweep [bench flags] [--plan FILE] [--timing]
 *       Run a declarative SweepPlan single-process: either built
 *       from the shared bench flags (--workloads/--engines/
 *       --records/--seed/--jobs/...) or loaded from a plan JSON
 *       file (--plan; trace/policy flags are then ignored). With a
 *       store the sweep replays anything already cached.
 *   stems_trace serve [bench flags] [--plan FILE] [--timing]
 *               [--port P] [--serve-timeout S] [--unit-timeout S]
 *       Same plan, distributed: listen for `stems_trace worker`
 *       processes, hand out work units — one per workload — over
 *       the framed TCP protocol (src/net/), and after every unit has
 *       completed merge by running the plan locally over the shared
 *       (now warm) store. A lost worker's unit is requeued at once,
 *       and its next runner resumes each lane from the newest
 *       checkpoint in the store; the slow-worker watchdog requeues
 *       any unit held in flight past --unit-timeout (default: the
 *       serve timeout). Requires a store; stdout is bitwise
 *       identical to `stems_trace sweep` of the same plan.
 *   stems_trace worker --store DIR [--port P] [--host H]
 *               [--connect-timeout S] [--reconnects N]
 *               [--metrics-out FILE]
 *               [--abandon-after N] [--drop-after N] [--dup-done]
 *       Execute work units for a coordinator, simulating each
 *       workload's lanes on the plan's --jobs threads through the
 *       normal driver lane path into the shared store. The
 *       store directory must already exist. Fault hooks for tests
 *       and CI: --abandon-after vanishes without a goodbye after N
 *       units; --drop-after drops the connection once when the
 *       unit after the first N arrives (the coordinator requeues
 *       it), then reconnects and carries on; --dup-done sends every
 *       completion twice.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <filesystem>

#include "analysis/correlation.hh"
#include "analysis/coverage.hh"
#include "bench/bench_util.hh"
#include "common/file_io.hh"
#include "common/parse_number.hh"
#include "net/coord.hh"
#include "net/worker.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sim/driver.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"
#include "trace/text_trace.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"
#include "workloads/trace_workload.hh"

using namespace stems;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  stems_trace generate <workload> <records> <out.trc> "
        "[seed]\n"
        "  stems_trace info <trace.trc>\n"
        "  stems_trace analyze <trace.trc>\n"
        "  stems_trace run <trace.trc> <engine[,engine...]> "
        "[--jobs N] [--timing] [--store DIR]\n"
        "              [--metrics-out F] "
        "[--trace-out F] [--manifest-out F]\n"
        "  stems_trace import <in.txt> <out.trc> [--store DIR] "
        "[--name NAME]\n"
        "  stems_trace export <trace.trc> <out.txt>\n"
        "  stems_trace cache ls [--store DIR]\n"
        "  stems_trace cache gc <budget-bytes> [--store DIR]\n"
        "  stems_trace list\n"
        "  stems_trace sweep [bench flags] [--plan FILE] "
        "[--timing]\n"
        "  stems_trace serve [bench flags] [--plan FILE] "
        "[--timing] [--port P] [--serve-timeout S] "
        "[--unit-timeout S]\n"
        "  stems_trace worker --store DIR [--port P] [--host H] "
        "[--connect-timeout S] [--reconnects N] "
        "[--metrics-out FILE] [--abandon-after N] "
        "[--drop-after N] [--dup-done]\n");
    return 1;
}

/**
 * Parse a numeric argument strictly (common/parse_number.hh) into a
 * field that holds [0, max]; on failure say what `what` wants.
 */
template <typename T>
bool
numberArg(const std::string &what, const char *text, T &out,
          std::uint64_t max = std::numeric_limits<T>::max())
{
    std::uint64_t v = 0;
    if (!parseUnsigned(text, v, max)) {
        std::fprintf(stderr, "%s wants a number from 0 to %llu, got '%s'\n",
                     what.c_str(), static_cast<unsigned long long>(max),
                     text);
        return false;
    }
    out = static_cast<T>(v);
    return true;
}

/** A duration argument: a finite, non-negative number of seconds. */
bool
secondsArg(const std::string &what, const char *text, double &out)
{
    if (parseNonNegative(text, out))
        return true;
    std::fprintf(stderr,
                 "%s wants a non-negative number of seconds, got '%s'\n",
                 what.c_str(), text);
    return false;
}

/** Consume `--flag value` pairs / bare flags from an argv tail. */
struct ArgScanner
{
    std::vector<std::string> positional;
    std::string storeDir;
    std::string name;
    std::string metricsOut;
    std::string traceOut;
    std::string manifestOut;
    unsigned jobs = 1;
    bool timing = false;
    bool ok = true;

    ArgScanner(int argc, char **argv, int first)
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
            if (arg == "--store") {
                storeDir = value();
            } else if (arg == "--name") {
                name = value();
            } else if (arg == "--metrics-out") {
                metricsOut = value();
            } else if (arg == "--trace-out") {
                traceOut = value();
            } else if (arg == "--manifest-out") {
                manifestOut = value();
            } else if (arg == "--jobs" || arg == "-j") {
                ok = numberArg(arg, value(), jobs) && ok;
            } else if (arg == "--timing") {
                timing = true;
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

std::string
baseName(const std::string &path)
{
    std::size_t slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    std::size_t dot = base.find_last_of('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

std::unique_ptr<TraceStore>
openStore(const std::string &dir)
{
    if (dir.empty()) {
        std::fprintf(stderr,
                     "no store directory (pass --store DIR or set "
                     "STEMS_STORE)\n");
        return nullptr;
    }
    auto store = std::make_unique<TraceStore>(dir);
    if (!store->usable()) {
        std::fprintf(stderr, "cannot open trace store '%s'\n",
                     dir.c_str());
        return nullptr;
    }
    return store;
}

int
cmdList()
{
    for (auto &w : makeAllWorkloads())
        std::printf("%-12s (%s)\n", w->name().c_str(),
                    workloadClassName(w->workloadClass()).c_str());
    return 0;
}

int
cmdGenerate(int argc, char **argv)
{
    if (argc < 5)
        return usage();
    auto w = makeWorkload(argv[2]);
    if (!w) {
        std::fprintf(stderr, "unknown workload '%s'\n", argv[2]);
        return 1;
    }
    std::size_t records = 0;
    std::uint64_t seed = 42;
    if (!numberArg("records", argv[3], records) ||
        (argc > 5 && !numberArg("seed", argv[5], seed)))
        return 1;
    Trace t = w->generate(seed, records);
    if (!writeTraceFileV2(argv[4], t)) {
        std::fprintf(stderr, "failed to write %s\n", argv[4]);
        return 1;
    }
    std::printf("wrote %zu records to %s\n", t.size(), argv[4]);
    return 0;
}

bool
loadTrace(const char *path, Trace &t)
{
    if (!readTraceFile(path, t)) {
        std::fprintf(stderr, "failed to read %s\n", path);
        return false;
    }
    return true;
}

int
cmdInfo(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    Trace t;
    if (!loadTrace(argv[2], t))
        return 1;
    TraceSummary s = summarize(t);
    std::printf("records          : %zu\n", s.records);
    std::printf("reads            : %zu (%.1f%% dependent)\n",
                s.reads,
                100.0 * s.dependentReads / (s.reads ? s.reads : 1));
    std::printf("writes           : %zu\n", s.writes);
    std::printf("invalidates      : %zu\n", s.invalidates);
    std::printf("distinct blocks  : %zu (%.1f MB)\n",
                s.distinctBlocks,
                s.distinctBlocks * kBlockBytes / (1024.0 * 1024.0));
    std::printf("distinct regions : %zu\n", s.distinctRegions);
    std::printf("instructions     : %llu\n",
                static_cast<unsigned long long>(s.cpuOps +
                                                s.records));
    std::printf("digest           : %016llx\n",
                static_cast<unsigned long long>(traceDigest(t)));
    return 0;
}

int
cmdAnalyze(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    Trace t;
    if (!loadTrace(argv[2], t))
        return 1;

    JointCoverageAnalyzer joint;
    joint.run(t, t.size() / 2);
    const JointCoverage &jc = joint.result();
    std::printf("joint predictability (%llu warmed misses):\n",
                static_cast<unsigned long long>(jc.total()));
    std::printf("  both %5.1f%%  TMS-only %5.1f%%  SMS-only %5.1f%%"
                "  neither %5.1f%%\n\n",
                100.0 * jc.both / jc.total(),
                100.0 * jc.tmsOnly / jc.total(),
                100.0 * jc.smsOnly / jc.total(),
                100.0 * jc.neither / jc.total());

    CorrelationAnalyzer corr;
    corr.run(t);
    std::printf("intra-generation repetition (%llu pairs):\n",
                static_cast<unsigned long long>(
                    corr.distances().total()));
    std::printf("  perfect (+1) %5.1f%%  |d|<=2 %5.1f%%  |d|<=4 "
                "%5.1f%%\n",
                100.0 * corr.distances().count(1) /
                    (corr.distances().total()
                         ? corr.distances().total()
                         : 1),
                100.0 * corr.fractionWithinWindow(2),
                100.0 * corr.fractionWithinWindow(4));
    return 0;
}

int
cmdRun(int argc, char **argv)
{
    ArgScanner args(argc, argv, 2);
    if (!args.ok || args.positional.size() != 2)
        return usage();
    Trace t;
    if (!loadTrace(args.positional[0].c_str(), t))
        return 1;

    std::vector<std::string> engines =
        splitList(args.positional[1]);
    const EngineRegistry &registry = EngineRegistry::instance();
    for (const std::string &e : engines) {
        if (!registry.contains(e)) {
            std::fprintf(stderr, "unknown engine '%s'\n", e.c_str());
            return 1;
        }
    }

    std::uint64_t digest = traceDigest(t);
    const std::size_t trace_records = t.size();
    FixedTraceWorkload workload(baseName(args.positional[0]),
                                std::move(t));
    // Describe the run as a plan (the trace itself is fixed, so
    // records documents its size and seed is immaterial): it carries
    // both the config and the execution policy.
    SweepPlan plan;
    plan.workloads = {workload.name()};
    for (const std::string &e : engines)
        plan.engines.push_back(PlanEngine{e, "", {}});
    plan.records = trace_records;
    plan.seed = 0;
    plan.timing = args.timing;
    plan.jobs = args.jobs;
    ExperimentDriver driver;
    if (!args.storeDir.empty()) {
        auto store = std::make_shared<TraceStore>(args.storeDir);
        if (store->usable()) {
            // Content-digest keying gives imported/external traces
            // cross-process result caching too.
            driver.setStore(std::move(store));
        } else {
            std::fprintf(stderr,
                         "warning: cannot open trace store '%s'; "
                         "running without it\n",
                         args.storeDir.c_str());
        }
    }
    // Observability sinks: attach the span collector only when a
    // trace file was requested; metrics/manifest snapshot after the
    // run. Stdout stays identical with or without any sink.
    SpanCollector collector;
    if (!args.traceOut.empty())
        collector.attach();
    const std::uint64_t run_start = collector.nowNs();

    WorkloadResult r =
        driver.runWorkload(plan, workload, engineSpecs(engines), digest);

    const std::uint64_t run_ns = collector.nowNs() - run_start;
    collector.detach();
    if (!args.traceOut.empty()) {
        std::string error;
        if (!collector.writeChromeJson(args.traceOut, &error)) {
            std::fprintf(stderr, "failed to write %s: %s\n",
                         args.traceOut.c_str(), error.c_str());
            return 1;
        }
        std::fprintf(stderr, "[obs] wrote trace %s (%zu events)\n",
                     args.traceOut.c_str(), collector.eventCount());
    }
    if (!args.metricsOut.empty() || !args.manifestOut.empty()) {
        MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
        std::string error;
        if (!args.metricsOut.empty()) {
            if (!writeMetricsJson(args.metricsOut, snap, &error)) {
                std::fprintf(stderr, "failed to write %s: %s\n",
                             args.metricsOut.c_str(), error.c_str());
                return 1;
            }
            std::fprintf(stderr, "[obs] wrote metrics %s\n",
                         args.metricsOut.c_str());
        }
        if (!args.manifestOut.empty()) {
            RunManifest manifest;
            manifest.tool = "stems_trace run";
            manifest.host = hostNote();
            manifest.config = {
                {"trace", args.positional[0]},
                {"engines", args.positional[1]},
                {"jobs", std::to_string(args.jobs)},
                {"timing", args.timing ? "true" : "false"},
                {"store", args.storeDir.empty() ? "(none)"
                                                : args.storeDir},
            };
            manifest.phaseNs = {{"run", run_ns}};
            manifest.wallNs = run_ns;
            manifest.metrics = std::move(snap);
            if (!writeRunManifestJson(args.manifestOut, manifest,
                                      &error)) {
                std::fprintf(stderr, "failed to write %s: %s\n",
                             args.manifestOut.c_str(),
                             error.c_str());
                return 1;
            }
            std::fprintf(stderr, "[obs] wrote manifest %s\n",
                         args.manifestOut.c_str());
        }
    }

    std::printf("trace %s: %llu baseline off-chip read misses\n\n",
                workload.name().c_str(),
                static_cast<unsigned long long>(r.baselineMisses));
    std::printf("%-10s %9s %9s %9s %9s%s\n", "engine", "covered",
                "uncovered", "overpred", "accuracy",
                args.timing ? "   speedup" : "");
    for (const EngineResult &e : r.engines) {
        double accuracy =
            e.stats.prefetchesIssued > 0
                ? static_cast<double>(e.stats.covered()) /
                      static_cast<double>(e.stats.prefetchesIssued)
                : 0.0;
        std::printf("%-10s %8.1f%% %8.1f%% %8.1f%% %8.1f%%",
                    e.engine.c_str(), 100.0 * e.coverage,
                    100.0 * e.uncovered, 100.0 * e.overprediction,
                    100.0 * accuracy);
        if (args.timing)
            std::printf(" %+8.1f%%", 100.0 * (e.speedup - 1.0));
        std::printf("\n");
    }
    return 0;
}

int
cmdImport(int argc, char **argv)
{
    ArgScanner args(argc, argv, 2);
    if (!args.ok || args.positional.size() != 2)
        return usage();
    const std::string &in = args.positional[0];
    const std::string &out = args.positional[1];

    Trace t;
    std::string error;
    if (!importTextTrace(in, t, &error)) {
        std::fprintf(stderr, "import failed: %s\n", error.c_str());
        return 1;
    }
    if (!writeTraceFileV2(out, t)) {
        std::fprintf(stderr, "failed to write %s\n", out.c_str());
        return 1;
    }
    std::printf("imported %zu records from %s to %s\n", t.size(),
                in.c_str(), out.c_str());

    // Optional: ingest into the persistent store so driver sweeps
    // can replay it and cache results against its digest.
    if (!args.storeDir.empty()) {
        auto store = openStore(args.storeDir);
        if (!store)
            return 1;
        std::string name = args.name.empty()
                               ? "external:" + baseName(in)
                               : args.name;
        TraceKey key{name, t.size(), 0};
        if (auto info = store->putTrace(key, t)) {
            std::printf(
                "stored as '%s' (digest %016llx, %llu bytes)\n",
                name.c_str(),
                static_cast<unsigned long long>(info->digest),
                static_cast<unsigned long long>(info->bytes));
        } else {
            std::fprintf(stderr, "failed to store entry\n");
            return 1;
        }
    }
    return 0;
}

int
cmdExport(int argc, char **argv)
{
    if (argc < 4)
        return usage();
    Trace t;
    if (!loadTrace(argv[2], t))
        return 1;
    if (!exportTextTrace(argv[3], t)) {
        std::fprintf(stderr, "failed to write %s\n", argv[3]);
        return 1;
    }
    std::printf("exported %zu records to %s\n", t.size(), argv[3]);
    return 0;
}

int
cmdCache(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    std::string sub = argv[2];
    ArgScanner args(argc, argv, 3);
    if (!args.ok)
        return usage();
    auto store = openStore(args.storeDir);
    if (!store)
        return 1;

    if (sub == "ls") {
        auto entries = store->list();
        std::uint64_t total = 0;
        for (const StoreEntry &e : entries) {
            const char *kind = "trace";
            if (e.kind == StoreEntry::Kind::kResult)
                kind = "result";
            else if (e.kind == StoreEntry::Kind::kCheckpoint)
                kind = "checkpoint";
            std::printf("%-10s %10llu B  %6llds  %s\n", kind,
                        static_cast<unsigned long long>(e.bytes),
                        static_cast<long long>(e.ageSeconds),
                        e.description.c_str());
            total += e.bytes;
        }
        std::printf("%zu entries, %llu bytes total in %s\n",
                    entries.size(),
                    static_cast<unsigned long long>(total),
                    store->dir().c_str());
        return 0;
    }
    if (sub == "gc") {
        if (args.positional.empty())
            return usage();
        std::uint64_t budget = 0;
        if (!numberArg("budget-bytes", args.positional[0].c_str(),
                       budget))
            return 1;
        std::uint64_t removed = store->evictWithin(budget);
        std::printf("evicted %llu bytes; store now %llu bytes\n",
                    static_cast<unsigned long long>(removed),
                    static_cast<unsigned long long>(
                        store->totalBytes()));
        return 0;
    }
    return usage();
}

// ---- declarative sweeps: sweep / serve / worker ------------------

/**
 * Service flags peeled off before the shared bench CLI parses the
 * rest, so `sweep`/`serve` accept every bench flag (--workloads,
 * --engines, --records, --store, --json, obs sinks, ...) plus the
 * service-specific ones.
 */
struct ServiceArgs
{
    std::string planPath;
    bool timing = false;
    unsigned port = 0;
    double serveTimeout = 600.0;
    /// Slow-worker watchdog: requeue a unit held in flight longer
    /// than this. Negative = derive from --serve-timeout (a unit
    /// held past the whole serve window can only time the sweep
    /// out, so the watchdog reclaims it first).
    double unitTimeout = -1.0;
    std::vector<char *> rest;
    bool ok = true;

    ServiceArgs(int argc, char **argv)
    {
        rest.push_back(argv[0]);
        for (int i = 2; i < argc; ++i) {
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
            if (arg == "--plan") {
                planPath = value();
            } else if (arg == "--timing") {
                timing = true;
            } else if (arg == "--port") {
                ok = numberArg(arg, value(), port,
                               std::numeric_limits<std::uint16_t>::max()) &&
                     ok;
            } else if (arg == "--serve-timeout") {
                ok = secondsArg(arg, value(), serveTimeout) && ok;
            } else if (arg == "--unit-timeout") {
                ok = secondsArg(arg, value(), unitTimeout) && ok;
            } else {
                rest.push_back(argv[i]);
            }
        }
    }
};

/** The plan for sweep/serve: --plan FILE wins; otherwise built from
 *  the bench flags via the one CLI->plan mapping (benchPlan). */
bool
buildServicePlan(const BenchOptions &opts, const ServiceArgs &svc,
                 SweepPlan &plan)
{
    if (!svc.planPath.empty()) {
        const auto bytes = readFile(svc.planPath);
        if (!bytes) {
            std::fprintf(stderr, "cannot read plan '%s'\n",
                         svc.planPath.c_str());
            return false;
        }
        std::string parse_error;
        if (!parseSweepPlanJson(std::string(bytes->begin(), bytes->end()),
                                plan, &parse_error)) {
            std::fprintf(stderr, "bad plan '%s': %s\n",
                         svc.planPath.c_str(),
                         parse_error.c_str());
            return false;
        }
        return true;
    }
    plan = benchPlan(opts, svc.timing, benchWorkloads(opts),
                     benchEngines(opts, {"tms", "sms", "stems"}));
    return true;
}

/**
 * Banner + results shared verbatim by `sweep` and `serve`: both are
 * derived from the plan and the results only — never from the store
 * directory, port, or worker count — so distributed stdout is
 * bitwise identical to single-process stdout.
 */
void
printPlanBanner(const SweepPlan &plan)
{
    std::printf("sweep plan %016llx: %zu workload(s) x %zu "
                "engine(s), %llu records, seed %llu%s\n\n",
                static_cast<unsigned long long>(
                    sweepPlanDigest(plan)),
                plan.workloads.size(), plan.engines.size(),
                static_cast<unsigned long long>(plan.records),
                static_cast<unsigned long long>(plan.seed),
                plan.timing ? ", timing" : "");
}

void
printSweepResults(const SweepPlan &plan,
                  const std::vector<WorkloadResult> &results)
{
    for (const WorkloadResult &r : results) {
        std::printf("%s: %llu baseline off-chip read misses\n",
                    r.workload.c_str(),
                    static_cast<unsigned long long>(
                        r.baselineMisses));
        std::printf("%-12s %9s %9s %9s%s\n", "engine", "covered",
                    "uncovered", "overpred",
                    plan.timing ? "   speedup" : "");
        for (const EngineResult &e : r.engines) {
            std::printf("%-12s %8.1f%% %8.1f%% %8.1f%%",
                        e.engine.c_str(), 100.0 * e.coverage,
                        100.0 * e.uncovered,
                        100.0 * e.overprediction);
            if (plan.timing)
                std::printf(" %+8.1f%%", 100.0 * (e.speedup - 1.0));
            std::printf("\n");
        }
        std::printf("\n");
    }
}

int
cmdSweep(int argc, char **argv)
{
    ServiceArgs svc(argc, argv);
    if (!svc.ok)
        return usage();
    BenchOptions opts = parseBenchOptions(
        static_cast<int>(svc.rest.size()), svc.rest.data(),
        2'000'000);
    BenchObsSession obs(opts, "stems_trace sweep");
    SweepPlan plan;
    if (!buildServicePlan(opts, svc, plan))
        return 1;
    printPlanBanner(plan);

    ExperimentDriver driver;
    configureBenchDriver(driver, opts);
    const auto results = driver.run(plan);
    maybeWriteJson(opts, results);
    printSweepResults(plan, results);
    reportStoreStats(driver);
    obs.finish();
    return 0;
}

int
cmdServe(int argc, char **argv)
{
    ServiceArgs svc(argc, argv);
    if (!svc.ok)
        return usage();
    BenchOptions opts = parseBenchOptions(
        static_cast<int>(svc.rest.size()), svc.rest.data(),
        2'000'000);
    BenchObsSession obs(opts, "stems_trace serve");
    SweepPlan plan;
    if (!buildServicePlan(opts, svc, plan))
        return 1;
    if (opts.storeDir.empty()) {
        std::fprintf(stderr,
                     "serve needs a shared store (--store DIR or "
                     "STEMS_STORE): workers deliver results "
                     "through it\n");
        return 1;
    }
    printPlanBanner(plan);

    // Workers refuse a store directory that does not exist: open
    // (and so create) it before serving.
    if (!TraceStore(opts.storeDir).usable()) {
        std::fprintf(stderr, "serve: cannot open store '%s'\n",
                     opts.storeDir.c_str());
        return 1;
    }

    SweepCoordinator coord(plan);
    std::string error;
    coord.setUnitTimeoutSeconds(
        svc.unitTimeout >= 0.0 ? svc.unitTimeout
                               : svc.serveTimeout);
    if (!coord.listen(static_cast<std::uint16_t>(svc.port),
                      &error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr, "[serve] listening on port %u, %zu "
                         "workload unit(s)\n",
                 coord.port(), coord.unitCount());
    if (!coord.serve(svc.serveTimeout, &error)) {
        std::fprintf(stderr, "serve: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "[serve] %llu unit(s) completed by %llu worker(s)"
                 " (%llu requeued); merging from store\n",
                 static_cast<unsigned long long>(
                     coord.unitsCompleted()),
                 static_cast<unsigned long long>(
                     coord.workersSeen()),
                 static_cast<unsigned long long>(
                     coord.unitsRequeued()));

    // Merge: the same plan over the now-warm shared store. Every
    // cell the workers ran is a store hit, so this reproduces the
    // single-process output bitwise in fixed plan order.
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);
    const auto results = driver.run(plan);
    maybeWriteJson(opts, results);
    printSweepResults(plan, results);
    reportStoreStats(driver);
    obs.finish();
    return 0;
}

int
cmdWorker(int argc, char **argv)
{
    WorkerOptions w;
    if (const char *env = std::getenv("STEMS_STORE"))
        w.storeDir = env;
    std::string metrics_out;
    bool ok = true;
    for (int i = 2; i < argc; ++i) {
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
        if (arg == "--store") {
            w.storeDir = value();
        } else if (arg == "--port") {
            ok = numberArg(arg, value(), w.port) && ok;
        } else if (arg == "--host") {
            w.host = value();
        } else if (arg == "--connect-timeout") {
            ok = secondsArg(arg, value(), w.connectTimeoutSeconds) && ok;
        } else if (arg == "--abandon-after") {
            ok = numberArg(arg, value(), w.abandonAfterUnits) && ok;
        } else if (arg == "--drop-after") {
            ok = numberArg(arg, value(), w.dropAfterUnits) && ok;
        } else if (arg == "--dup-done") {
            w.duplicateUnitDone = true;
        } else if (arg == "--reconnects") {
            ok = numberArg(arg, value(), w.maxReconnects) && ok;
        } else if (arg == "--metrics-out") {
            metrics_out = value();
        } else {
            std::fprintf(stderr, "unknown option '%s'\n",
                         arg.c_str());
            ok = false;
        }
    }
    if (!ok)
        return usage();
    if (w.port == 0) {
        std::fprintf(stderr, "worker needs --port P\n");
        return usage();
    }
    if (w.storeDir.empty()) {
        std::fprintf(stderr,
                     "worker needs a store (--store DIR or "
                     "STEMS_STORE)\n");
        return 1;
    }
    // Validate the store directory before touching the network:
    // a worker pointed at the wrong path would otherwise connect,
    // take units, and fail them one by one.
    std::error_code ec;
    if (!std::filesystem::is_directory(w.storeDir, ec)) {
        std::fprintf(stderr, "no trace store at '%s'\n",
                     w.storeDir.c_str());
        return 1;
    }

    WorkerReport report;
    std::string error;
    const bool worker_ok = runWorker(w, &report, &error);
    if (!metrics_out.empty()) {
        // Written on failure too: a faulted worker's counters
        // (units completed before the fault, records resumed from
        // the store) are exactly what a post-mortem wants.
        std::string obs_error;
        if (!writeMetricsJson(metrics_out,
                              MetricsRegistry::instance()
                                  .snapshot(),
                              &obs_error))
            std::fprintf(stderr, "worker: %s\n",
                         obs_error.c_str());
    }
    if (!worker_ok) {
        std::fprintf(stderr, "worker: %s\n", error.c_str());
        return 1;
    }
    std::fprintf(stderr,
                 "[worker] %llu unit(s) completed "
                 "(%llu reconnect(s))%s\n",
                 static_cast<unsigned long long>(
                     report.unitsCompleted),
                 static_cast<unsigned long long>(
                     report.reconnects),
                 report.abandoned ? " (abandoned)" : "");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    if (std::strcmp(argv[1], "list") == 0)
        return cmdList();
    if (std::strcmp(argv[1], "generate") == 0)
        return cmdGenerate(argc, argv);
    if (std::strcmp(argv[1], "info") == 0)
        return cmdInfo(argc, argv);
    if (std::strcmp(argv[1], "analyze") == 0)
        return cmdAnalyze(argc, argv);
    if (std::strcmp(argv[1], "run") == 0)
        return cmdRun(argc, argv);
    if (std::strcmp(argv[1], "import") == 0)
        return cmdImport(argc, argv);
    if (std::strcmp(argv[1], "export") == 0)
        return cmdExport(argc, argv);
    if (std::strcmp(argv[1], "cache") == 0)
        return cmdCache(argc, argv);
    if (std::strcmp(argv[1], "sweep") == 0)
        return cmdSweep(argc, argv);
    if (std::strcmp(argv[1], "serve") == 0)
        return cmdServe(argc, argv);
    if (std::strcmp(argv[1], "worker") == 0)
        return cmdWorker(argc, argv);
    return usage();
}
