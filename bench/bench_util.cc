#include "bench/bench_util.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/report.hh"
#include "common/log.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "prefetch/engine_registry.hh"
#include "store/trace_store.hh"
#include "workloads/registry.hh"

namespace stems {

namespace {

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> items;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            items.push_back(item);
    return items;
}

std::string
joinNames(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &n : names) {
        if (!out.empty())
            out += ", ";
        out += n;
    }
    return out;
}

[[noreturn]] void
usage(const char *argv0, int status)
{
    std::fprintf(
        stderr,
        "usage: %s [records] [options]\n"
        "  --records N        records per workload trace\n"
        "  --jobs N           worker threads (default: hardware)\n"
        "  --seed N           trace-generation seed (default: 42)\n"
        "  --workloads a,b,c  restrict the workload sweep\n"
        "  --engines x,y      restrict the engine sweep\n"
        "  --store DIR        persistent trace/result store\n"
        "                     (default: $STEMS_STORE when set)\n"
        "  --no-store         disable the store even if STEMS_STORE\n"
        "                     is set\n"
        "  --json FILE        also write results as JSON\n"
        "  --checkpoint-every N\n"
        "                     checkpoint each cell every N records\n"
        "                     and resume warm prefixes (needs\n"
        "                     --store; stable boundaries across\n"
        "                     --records values; same results,\n"
        "                     bitwise)\n"
        "  --warmup-records N warm up exactly N records instead of\n"
        "                     50%% of the trace (keeps prefixes\n"
        "                     comparable across --records values)\n"
        "  --unit-granularity workload|cell\n"
        "                     distributed work-unit size for\n"
        "                     `stems_trace serve` (same results,\n"
        "                     bitwise)\n"
        "  --metrics-out FILE write a metrics snapshot\n"
        "                     (stems-metrics-v1 JSON)\n"
        "  --trace-out FILE   write Chrome trace-event spans\n"
        "                     (load in Perfetto / chrome://tracing)\n"
        "  --manifest-out FILE\n"
        "                     write a run manifest\n"
        "                     (stems-manifest-v1 JSON)\n"
        "  --progress N       heartbeat every N seconds on stderr\n"
        "                     (cells done, record-steps/s)\n"
        "  --plan-out FILE    write the canonical SweepPlan JSON\n"
        "                     this invocation runs\n"
        "  --list             list registered workloads/engines\n"
        "  --help             this message\n",
        argv0);
    std::exit(status);
}

[[noreturn]] void
listRegistries()
{
    std::printf("workloads: %s\n",
                joinNames(WorkloadRegistry::instance().names())
                    .c_str());
    std::printf("engines  : %s\n",
                joinNames(EngineRegistry::instance().names())
                    .c_str());
    std::exit(0);
}

std::uint64_t
numberArg(const char *argv0, const char *flag, const char *value,
          std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(value, &end, 10);
    // strtoull wraps a leading minus into a huge value and saturates
    // on overflow: reject both, and anything the field cannot hold,
    // rather than run a different number than the one asked for.
    if (end == value || *end != '\0' || value[0] == '-' ||
        errno == ERANGE || v > max) {
        std::fprintf(stderr,
                     "%s: %s wants a number from 0 to %llu, "
                     "got '%s'\n",
                     argv0, flag, static_cast<unsigned long long>(max),
                     value);
        usage(argv0, 1);
    }
    return v;
}

} // namespace

BenchOptions
parseBenchOptions(int argc, char **argv, std::size_t default_records)
{
    BenchOptions options;
    options.records = default_records;
    bool no_store = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s wants a value\n",
                             argv[0], arg.c_str());
                usage(argv[0], 1);
            }
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], 0);
        } else if (arg == "--list") {
            listRegistries();
        } else if (arg == "--records") {
            // Historical contract: 0 keeps the bench default.
            std::uint64_t v = numberArg(argv[0], "--records",
                                        value());
            options.records = v > 0 ? v : default_records;
        } else if (arg == "--jobs" || arg == "-j") {
            options.jobs = static_cast<unsigned>(
                numberArg(argv[0], "--jobs", value(),
                          std::numeric_limits<unsigned>::max()));
        } else if (arg == "--seed") {
            options.seed = numberArg(argv[0], "--seed", value());
        } else if (arg == "--workloads") {
            options.workloads = splitList(value());
        } else if (arg == "--engines") {
            options.engines = splitList(value());
        } else if (arg == "--store") {
            options.storeDir = value();
        } else if (arg == "--no-store") {
            no_store = true;
        } else if (arg == "--json") {
            options.jsonPath = value();
        } else if (arg == "--checkpoint-every") {
            options.checkpointEvery = static_cast<std::size_t>(
                numberArg(argv[0], "--checkpoint-every", value()));
        } else if (arg == "--warmup-records") {
            options.warmupRecords = static_cast<std::size_t>(
                numberArg(argv[0], "--warmup-records", value()));
        } else if (arg == "--unit-granularity") {
            const char *v = value();
            if (!parseUnitGranularity(v,
                                      options.unitGranularity)) {
                std::fprintf(stderr,
                             "%s: --unit-granularity wants "
                             "workload|cell, got '%s'\n",
                             argv[0], v);
                usage(argv[0], 1);
            }
        } else if (arg == "--metrics-out") {
            options.metricsOutPath = value();
        } else if (arg == "--trace-out") {
            options.traceOutPath = value();
        } else if (arg == "--manifest-out") {
            options.manifestOutPath = value();
        } else if (arg == "--plan-out") {
            options.planOutPath = value();
        } else if (arg == "--progress") {
            const char *v = value();
            char *end = nullptr;
            options.progressSeconds = std::strtod(v, &end);
            if (end == v || *end != '\0' ||
                options.progressSeconds < 0) {
                std::fprintf(stderr,
                             "%s: --progress wants a non-negative "
                             "number of seconds, got '%s'\n",
                             argv[0], v);
                usage(argv[0], 1);
            }
        } else if (!arg.empty() && arg[0] != '-') {
            // Historical positional trace-length override; 0 keeps
            // the bench default.
            std::uint64_t v =
                numberArg(argv[0], "records", arg.c_str());
            options.records = v > 0 ? v : default_records;
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n",
                         argv[0], arg.c_str());
            usage(argv[0], 1);
        }
    }

    if (no_store) {
        options.storeDir.clear();
    } else if (options.storeDir.empty()) {
        if (const char *env = std::getenv("STEMS_STORE"))
            options.storeDir = env;
    }

    if (options.checkpointEvery > 0 && options.storeDir.empty()) {
        std::fprintf(stderr,
                     "%s: --checkpoint-every needs a --store to keep "
                     "checkpoints in\n",
                     argv[0]);
        std::exit(1);
    }

    for (const std::string &w : options.workloads) {
        if (!WorkloadRegistry::instance().contains(w)) {
            std::fprintf(
                stderr, "%s: unknown workload '%s' (have: %s)\n",
                argv[0], w.c_str(),
                joinNames(WorkloadRegistry::instance().names())
                    .c_str());
            std::exit(1);
        }
    }
    for (const std::string &e : options.engines) {
        if (!EngineRegistry::instance().contains(e)) {
            std::fprintf(
                stderr, "%s: unknown engine '%s' (have: %s)\n",
                argv[0], e.c_str(),
                joinNames(EngineRegistry::instance().names())
                    .c_str());
            std::exit(1);
        }
    }
    return options;
}

SweepPlan
benchPlan(const BenchOptions &options, bool enable_timing,
          std::vector<std::string> workloads,
          std::vector<PlanEngine> engines)
{
    SweepPlan plan;
    plan.workloads = std::move(workloads);
    plan.engines = std::move(engines);
    plan.records = options.records;
    plan.seed = options.seed;
    plan.warmupRecords = options.warmupRecords;
    plan.timing = enable_timing;
    plan.jobs = options.jobs;
    plan.checkpointEvery = options.checkpointEvery;
    plan.heartbeatSeconds = options.progressSeconds;
    plan.unitGranularity = options.unitGranularity;
    if (!options.planOutPath.empty()) {
        std::string json = sweepPlanJson(plan);
        std::FILE *f = std::fopen(options.planOutPath.c_str(), "w");
        if (!f || std::fwrite(json.data(), 1, json.size(), f) !=
                      json.size()) {
            if (f)
                std::fclose(f);
            logError("cannot write plan to '" + options.planOutPath +
                     "'");
            std::exit(1);
        }
        std::fclose(f);
        // stderr: bench stdout stays bitwise stable across runs.
        logInfo("[plan] wrote " + options.planOutPath);
    }
    return plan;
}

SweepPlan
benchPlan(const BenchOptions &options, bool enable_timing,
          std::vector<std::string> workloads,
          const std::vector<std::string> &engine_names)
{
    std::vector<PlanEngine> engines;
    engines.reserve(engine_names.size());
    for (const std::string &name : engine_names)
        engines.push_back(PlanEngine{name, std::string(), {}});
    return benchPlan(options, enable_timing, std::move(workloads),
                     std::move(engines));
}

std::vector<std::string>
benchWorkloads(const BenchOptions &options)
{
    if (!options.workloads.empty())
        return options.workloads;
    return WorkloadRegistry::instance().names();
}

std::vector<std::string>
benchWorkloads(const BenchOptions &options,
               std::vector<std::string> defaults)
{
    if (!options.workloads.empty())
        return options.workloads;
    return defaults;
}

std::vector<std::string>
benchEngines(const BenchOptions &options,
             std::vector<std::string> defaults)
{
    if (!options.engines.empty())
        return options.engines;
    return defaults;
}

void
requireNoEngineSelection(const BenchOptions &options,
                         const char *reason)
{
    if (options.engines.empty())
        return;
    std::fprintf(stderr,
                 "--engines is not supported by this bench: %s\n",
                 reason);
    std::exit(1);
}

void
requireNoWorkloadSelection(const BenchOptions &options,
                           const char *reason)
{
    if (options.workloads.empty())
        return;
    std::fprintf(stderr,
                 "--workloads is not supported by this bench: %s\n",
                 reason);
    std::exit(1);
}

void
requireNoJson(const BenchOptions &options, const char *reason)
{
    if (options.jsonPath.empty())
        return;
    std::fprintf(stderr,
                 "--json is not supported by this bench: %s\n",
                 reason);
    std::exit(1);
}

void
configureBenchDriver(ExperimentDriver &driver,
                     const BenchOptions &options)
{
    if (options.storeDir.empty())
        return;
    auto store = std::make_shared<TraceStore>(options.storeDir);
    if (!store->usable()) {
        logError("cannot open trace store '" + options.storeDir +
                 "'");
        std::exit(1);
    }
    driver.setStore(std::move(store));
}

void
maybeWriteJson(const BenchOptions &options,
               const std::vector<WorkloadResult> &results)
{
    if (options.jsonPath.empty())
        return;
    std::string error;
    if (!writeResultsJson(options.jsonPath, options.records,
                          options.seed, results, &error)) {
        logError(error);
        std::exit(1);
    }
    std::printf("[json] wrote %s\n", options.jsonPath.c_str());
}

namespace {

/**
 * The `[store]` diagnostics line, sourced from the process-wide
 * metrics registry — the single source of truth the driver and
 * store mirror their counters into. The exact field layout CI greps
 * (`cellSims=0` on warm re-runs, `resumedSims=[1-9]` on incremental
 * runs) is pinned here.
 */
std::string
storeStatsLine(const MetricsSnapshot &snap)
{
    auto counter = [&](const char *name) -> unsigned long long {
        auto it = snap.counters.find(name);
        return it == snap.counters.end()
                   ? 0ull
                   : static_cast<unsigned long long>(it->second);
    };
    char line[512];
    std::snprintf(
        line, sizeof(line),
        "[store] generations=%llu traceHits=%llu "
        "cellSims=%llu resultHits=%llu resultMisses=%llu "
        "resumedSims=%llu "
        "skippedRecords=%llu checkpointsWritten=%llu",
        counter("driver.trace.generated"),
        counter("store.trace.hit"),
        counter("driver.cell.simulated"),
        counter("store.result.hit"),
        counter("store.result.miss"),
        counter("driver.cell.resumed"),
        counter("ckpt.resume.skipped_records"),
        counter("ckpt.written"));
    return line;
}

} // namespace

void
reportStoreStats(const ExperimentDriver &driver)
{
    if (!driver.store())
        return;
    // stderr, not stdout: bench stdout must stay bitwise identical
    // between cold and warm runs, while these counters differ.
    logInfo(storeStatsLine(MetricsRegistry::instance().snapshot()));
}

BenchObsSession::BenchObsSession(const BenchOptions &options,
                                 std::string tool)
    : options_(options), tool_(std::move(tool))
{
    if (!options_.traceOutPath.empty())
        collector_.attach();
    startNs_ = collector_.nowNs();
    phaseName_ = "run";
    phaseStartNs_ = startNs_;
}

BenchObsSession::~BenchObsSession()
{
    collector_.detach();
}

void
BenchObsSession::phase(const char *name)
{
    std::uint64_t now = collector_.nowNs();
    phases_.emplace_back(phaseName_, now - phaseStartNs_);
    phaseName_ = name;
    phaseStartNs_ = now;
}

void
BenchObsSession::finish()
{
    if (finished_)
        return;
    finished_ = true;
    collector_.detach();
    const std::uint64_t end_ns = collector_.nowNs();
    phases_.emplace_back(phaseName_, end_ns - phaseStartNs_);

    std::string error;
    if (!options_.traceOutPath.empty()) {
        if (!collector_.writeChromeJson(options_.traceOutPath,
                                        &error)) {
            logError(error);
            std::exit(1);
        }
        logInfo("[obs] wrote trace " + options_.traceOutPath);
    }

    const bool want_metrics = !options_.metricsOutPath.empty();
    const bool want_manifest = !options_.manifestOutPath.empty();
    if (!want_metrics && !want_manifest)
        return;
    MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    if (want_metrics) {
        if (!writeMetricsJson(options_.metricsOutPath, snap,
                              &error)) {
            logError(error);
            std::exit(1);
        }
        logInfo("[obs] wrote metrics " + options_.metricsOutPath);
    }
    if (want_manifest) {
        RunManifest manifest;
        manifest.tool = tool_;
        manifest.host = hostNote();
        auto add = [&](const char *key, std::string value) {
            manifest.config.emplace_back(key, std::move(value));
        };
        add("records", std::to_string(options_.records));
        add("seed", std::to_string(options_.seed));
        add("jobs", std::to_string(ExperimentDriver::resolveJobs(
                        options_.jobs)));
        add("workloads", options_.workloads.empty()
                             ? "(default)"
                             : joinNames(options_.workloads));
        add("engines", options_.engines.empty()
                           ? "(default)"
                           : joinNames(options_.engines));
        add("store", options_.storeDir.empty() ? "(none)"
                                               : options_.storeDir);
        add("checkpoint_every",
            std::to_string(options_.checkpointEvery));
        add("warmup_records",
            std::to_string(options_.warmupRecords));
        add("unit_granularity",
            unitGranularityName(options_.unitGranularity));
        manifest.phaseNs = phases_;
        manifest.wallNs = end_ns - startNs_;
        manifest.metrics = std::move(snap);
        if (!writeRunManifestJson(options_.manifestOutPath,
                                  manifest, &error)) {
            logError(error);
            std::exit(1);
        }
        logInfo("[obs] wrote manifest " + options_.manifestOutPath);
    }
}

std::string
banner(const std::string &title, const BenchOptions &options)
{
    unsigned jobs = ExperimentDriver::resolveJobs(options.jobs);
    std::string warmup =
        options.warmupRecords > 0
            ? std::to_string(options.warmupRecords) +
                  "-record warmup"
            : std::string("50% warmup");
    return "=== " + title + " ===\n(traces: " +
           std::to_string(options.records) + " records/workload, seed " +
           std::to_string(options.seed) +
           ", measurement after " + warmup + ", " + std::to_string(jobs) +
           (jobs == 1 ? " job" : " jobs") +
           (options.storeDir.empty() ? ""
                                     : ", store " + options.storeDir) +
           ")\n";
}

} // namespace stems
