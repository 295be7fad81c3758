/**
 * @file
 * Benchmark harness for the STeMS reproduction.
 *
 * Times ExperimentDriver sweeps (the end-to-end window is one
 * ExperimentDriver::run(plan)) and, for the traced run, replays each
 * simulator layer's public functions over the same traces so that
 * per-call costs times call counts can be reconciled against the
 * sweep's CPU time. Nothing here instruments the library: every clock
 * read is in this file. Each subcommand prints one JSON document on
 * stdout; run.py drives the subcommands, checks the results and
 * prints the metrics.
 *
 *   perfbench setup  --workload W --seed N --dir DIR [--records R]
 *   perfbench run    --workload W --seed N --dir DIR [--records R]
 *                    [--reference]
 *   perfbench layers --workload W --seed N --dir DIR [--records R]
 *
 * `--records` is the base trace length (default 1M); extend-resume
 * seeds its store at the base length and extends to 1.25x.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/agt.hh"
#include "core/pst.hh"
#include "core/reconstruction.hh"
#include "core/rmob.hh"
#include "core/stream.hh"
#include "mem/hierarchy.hh"
#include "mem/svb.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "prefetch/engine_registry.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/driver.hh"
#include "sim/sweep_plan.hh"
#include "store/trace_store.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace fs = std::filesystem;
using namespace stems;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

constexpr double kMiB = 1024.0 * 1024.0;

// ---------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------

/** One benchmark workload: a pinned sweep plus its thread count. */
struct BenchWorkload
{
    std::string name;
    std::vector<std::string> traces;
    bool timing = false;
    unsigned jobs = 1;
    /// Seed a checkpointed store at the base length, then time the
    /// extension of the same plan to 1.25x the base length.
    bool extend = false;
};

const std::vector<std::string> kEngines = {"tms", "sms", "stems"};
const std::vector<std::string> kFig9Set = {"oltp-db2", "web-apache",
                                           "dss-qry17", "em3d"};
const std::vector<std::string> kFig10Set = {"web-zeus", "oltp-oracle",
                                            "dss-qry2", "ocean"};
/// Threads for store seeding and reference sweeps (not timed runs).
constexpr unsigned kHelperJobs = 4;

const std::vector<BenchWorkload> &
benchWorkloads()
{
    static const std::vector<BenchWorkload> all = {
        {"fig9-cold", kFig9Set, false, 1, false},
        {"fig10-timed", kFig10Set, true, 2, false},
        {"extend-resume", kFig9Set, false, 2, true},
    };
    return all;
}

const BenchWorkload *
findWorkload(const std::string &name)
{
    for (const BenchWorkload &w : benchWorkloads())
        if (w.name == name)
            return &w;
    return nullptr;
}

/** Record counts derived from the base trace length. */
struct Scale
{
    std::uint64_t records = 0;         ///< timed run's trace length
    std::uint64_t seedRecords = 0;     ///< extend: seeded length
    std::uint64_t checkpointEvery = 0; ///< extend only
    std::uint64_t warmupRecords = 0;   ///< extend only (0 = 50%)
};

Scale
scaleFor(const BenchWorkload &w, std::uint64_t base)
{
    if (!w.extend)
        return {base, 0, 0, 0};
    return {base + base / 4, base, base / 4, base / 2};
}

SweepPlan
makePlan(const BenchWorkload &w, std::uint64_t seed,
         std::uint64_t records, const Scale &scale, unsigned jobs,
         bool checkpoints)
{
    SweepPlan plan;
    plan.workloads = w.traces;
    for (const std::string &e : kEngines)
        plan.engines.push_back({e, "", {}});
    plan.records = records;
    plan.seed = seed;
    plan.timing = w.timing;
    plan.jobs = jobs;
    plan.warmupRecords = scale.warmupRecords;
    if (checkpoints)
        plan.checkpointEvery = scale.checkpointEvery;
    return plan;
}

/** Lanes per trace in a sweep: baseline, stride reference under
 *  timing, one per engine column. */
std::size_t
lanesPerTrace(const BenchWorkload &w)
{
    return 1 + (w.timing ? 1 : 0) + kEngines.size();
}

// ---------------------------------------------------------------
// Minimal JSON writer
// ---------------------------------------------------------------

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

class JsonObject
{
  public:
    JsonObject &
    num(const std::string &key, double v)
    {
        return raw(key, jsonNumber(v));
    }

    JsonObject &
    u64(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }

    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, quote(v));
    }

    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        text_ += text_.empty() ? "{" : ",";
        text_ += quote(key) + ":" + json;
        return *this;
    }

    std::string
    done() const
    {
        return text_.empty() ? "{}" : text_ + "}";
    }

  private:
    static std::string
    quote(const std::string &s)
    {
        std::string out = "\"";
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            out += c;
        }
        return out + "\"";
    }

    std::string text_;
};

std::string
statsJson(const SimStats &s)
{
    return JsonObject()
        .u64("records", s.records)
        .u64("reads", s.reads)
        .u64("writes", s.writes)
        .u64("invalidates", s.invalidates)
        .u64("l1_hits", s.l1Hits)
        .u64("l2_hits", s.l2Hits)
        .u64("l2_prefetch_hits", s.l2PrefetchHits)
        .u64("svb_hits", s.svbHits)
        .u64("off_chip_reads", s.offChipReads)
        .u64("off_chip_writes", s.offChipWrites)
        .u64("prefetches_issued", s.prefetchesIssued)
        .u64("overpredictions", s.overpredictions)
        .num("cycles", s.cycles)
        .u64("instructions", s.instructions)
        .done();
}

/** Every result cell's simulated output, keyed "<trace>/<column>". */
std::string
cellsJson(const std::vector<WorkloadResult> &results)
{
    JsonObject cells;
    for (const WorkloadResult &r : results) {
        cells.raw(r.workload + "/baseline",
                  JsonObject()
                      .u64("misses", r.baselineMisses)
                      .num("cycles", r.baselineCycles)
                      .num("stride_cycles", r.strideCycles)
                      .num("stride_ipc", r.baselineIpc)
                      .done());
        for (const EngineResult &e : r.engines)
            cells.raw(r.workload + "/" + e.engine, statsJson(e.stats));
    }
    return cells.done();
}

// ---------------------------------------------------------------
// Process and filesystem probes
// ---------------------------------------------------------------

/** Bytes the process moved through read/write syscalls so far. */
struct IoCounters
{
    std::uint64_t rchar = 0;
    std::uint64_t wchar = 0;
};

IoCounters
readIo()
{
    IoCounters io;
    std::ifstream in("/proc/self/io");
    std::string key;
    std::uint64_t value = 0;
    while (in >> key >> value) {
        if (key == "rchar:")
            io.rchar = value;
        else if (key == "wchar:")
            io.wchar = value;
    }
    return io;
}

std::uint64_t
dirBytes(const std::string &dir)
{
    std::uint64_t total = 0;
    std::error_code ec;
    if (!fs::exists(dir, ec))
        return 0;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec))
        if (e.is_regular_file(ec))
            total += e.file_size(ec);
    return total;
}

/** Clone a store directory with hard links. The store writes every
 *  entry to a temp file and renames it into place, so a clone never
 *  changes the files it shares with its source. */
void
cloneDir(const std::string &from, const std::string &to)
{
    fs::remove_all(to);
    fs::create_directories(to);
    for (const auto &e : fs::recursive_directory_iterator(from)) {
        fs::path dest = fs::path(to) / fs::relative(e.path(), from);
        if (e.is_directory()) {
            fs::create_directories(dest);
        } else {
            std::error_code ec;
            fs::create_hard_link(e.path(), dest, ec);
            if (ec)
                fs::copy_file(e.path(), dest);
        }
    }
}

// ---------------------------------------------------------------
// Timed sweeps
// ---------------------------------------------------------------

struct SweepWindow
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::vector<WorkloadResult> results;
};

/** The end-to-end window: one ExperimentDriver::run(plan). */
SweepWindow
timedSweep(const SweepPlan &plan, const std::shared_ptr<TraceStore> &store)
{
    ExperimentDriver driver;
    if (store)
        driver.setStore(store);
    SweepWindow w;
    const double cpu0 = cpuSeconds();
    const auto t0 = Clock::now();
    w.results = driver.run(plan);
    w.wallS = secondsSince(t0);
    w.cpuS = cpuSeconds() - cpu0;
    return w;
}

std::string
seedStoreDir(const std::string &dir)
{
    return dir + "/seed-store";
}

/** Seed extend-resume's store: the plan at the base length with
 *  checkpoints. @return seconds spent. */
double
seedStore(const BenchWorkload &w, std::uint64_t seed, const Scale &scale,
          const std::string &dir)
{
    fs::remove_all(dir);
    const auto t0 = Clock::now();
    auto store = std::make_shared<TraceStore>(dir);
    timedSweep(makePlan(w, seed, scale.seedRecords, scale, kHelperJobs,
                        true),
               store);
    return secondsSince(t0);
}

/** Actual record count of each stored trace of a plan. */
std::map<std::string, std::uint64_t>
storedTraceRecords(TraceStore &store, const BenchWorkload &w,
                   std::uint64_t records, std::uint64_t seed)
{
    std::map<std::string, std::uint64_t> sizes;
    for (const std::string &t : w.traces)
        if (auto info = store.findTrace({t, records, seed}))
            sizes[t] = info->records;
    return sizes;
}

std::string
sizesJson(const std::map<std::string, std::uint64_t> &sizes)
{
    JsonObject o;
    for (const auto &kv : sizes)
        o.u64(kv.first, kv.second);
    return o.done();
}

// ---------------------------------------------------------------
// Sampled per-call timing for the layer replays
// ---------------------------------------------------------------

/** Cost of one back-to-back pair of clock reads, subtracted from
 *  every sampled call. */
double gClockNs = 0.0;

void
calibrateClock()
{
    constexpr int kPairs = 200000;
    double total = 0.0;
    for (int i = 0; i < kPairs; ++i) {
        const auto a = Clock::now();
        const auto b = Clock::now();
        total += std::chrono::duration<double, std::nano>(b - a).count();
    }
    gClockNs = total / kPairs;
}

/** Counts every call and times one call in (mask + 1). */
class OpTimer
{
  public:
    explicit OpTimer(std::uint64_t sample_mask = 7) : mask_(sample_mask)
    {
    }

    template <class F>
    void
    operator()(F &&f)
    {
        if ((calls_++ & mask_) != 0) {
            f();
            return;
        }
        const auto a = Clock::now();
        f();
        const auto b = Clock::now();
        ns_ += std::chrono::duration<double, std::nano>(b - a).count() -
               gClockNs;
        ++timed_;
    }

    std::uint64_t calls() const { return calls_; }

    double
    meanNs() const
    {
        return timed_ ? std::max(0.0, ns_ / static_cast<double>(timed_))
                      : 0.0;
    }

  private:
    std::uint64_t mask_;
    std::uint64_t calls_ = 0;
    std::uint64_t timed_ = 0;
    double ns_ = 0.0;
};

/**
 * Forwarding engine wrapper: counts every hook call and drained
 * request and times a sample of the hook calls.
 */
class CountingPrefetcher : public Prefetcher
{
  public:
    explicit CountingPrefetcher(std::unique_ptr<Prefetcher> inner)
        : inner_(std::move(inner))
    {
    }

    std::string name() const override { return inner_->name(); }
    std::size_t
    bufferCapacity() const override
    {
        return inner_->bufferCapacity();
    }
    void
    onL1Access(Addr a, Pc pc, bool l1_hit) override
    {
        hooks_([&] { inner_->onL1Access(a, pc, l1_hit); });
    }
    void
    onL1BlockRemoved(Addr a) override
    {
        hooks_([&] { inner_->onL1BlockRemoved(a); });
    }
    void
    onOffChipRead(const OffChipRead &ev) override
    {
        hooks_([&] { inner_->onOffChipRead(ev); });
    }
    void
    onPrefetchHit(Addr a, int stream_id) override
    {
        hooks_([&] { inner_->onPrefetchHit(a, stream_id); });
    }
    void
    onPrefetchDrop(Addr a, int stream_id) override
    {
        hooks_([&] { inner_->onPrefetchDrop(a, stream_id); });
    }
    void
    onPrefetchFiltered(Addr a, int stream_id) override
    {
        hooks_([&] { inner_->onPrefetchFiltered(a, stream_id); });
    }
    void
    onInvalidate(Addr a) override
    {
        hooks_([&] { inner_->onInvalidate(a); });
    }
    void
    drainRequests(std::vector<PrefetchRequest> &out) override
    {
        const std::size_t before = out.size();
        hooks_([&] { inner_->drainRequests(out); });
        requests_ += out.size() - before;
    }
    void saveState(StateWriter &w) const override { inner_->saveState(w); }
    void loadState(StateReader &r) override { inner_->loadState(r); }

    const OpTimer &hooks() const { return hooks_; }
    std::uint64_t requests() const { return requests_; }

  private:
    std::unique_ptr<Prefetcher> inner_;
    OpTimer hooks_{15};
    std::uint64_t requests_ = 0;
};

// ---------------------------------------------------------------
// Layer replays
// ---------------------------------------------------------------

struct MemReplay
{
    OpTimer l1, l2, fill, svb;
    std::uint64_t l1Accesses = 0, l1Hits = 0, l2Accesses = 0, l2Hits = 0;
};

struct CoreReplay
{
    OpTimer agt, pst, rmob, streams;
    OpTimer reconstruct{0};
};

/// Reconstruct on one RMOB hit in this many (each is microseconds).
constexpr std::uint64_t kReconstructEvery = 8;

/**
 * Baseline replay: drives a bare Hierarchy with the trace and, on its
 * off-chip read stream, the STeMS tables (AGT, PST, RMOB,
 * reconstruction, stream queues) and a streamed value buffer the way
 * the STeMS engine uses them.
 */
void
baselineReplay(const Trace &trace, const SystemConfig &sys, MemReplay &m,
               CoreReplay &c)
{
    Hierarchy hier(sys.hierarchy);
    StreamedValueBuffer svb(sys.stems.svbEntries);
    StemsAgt agt(sys.stems.agt);
    PatternSequenceTable pst(sys.stems.pst);
    RegionMissOrderBuffer rmob(sys.stems.rmobEntries);
    Reconstructor recon(rmob, pst, sys.stems.reconstruction);
    StreamQueueSet streams(sys.stems.streams);
    std::vector<SpatialElement> pattern;
    std::vector<PrefetchRequest> reqs;

    agt.setEndCallback([&](const StemsGeneration &g) {
        pst.train(g.index, g.sequence.data(), g.sequence.size(),
                  g.accessMask);
    });
    // L1 victims (evictions and invalidations) end AGT generations.
    // They are handled after the hierarchy call that removed them, so
    // the mem timers exclude AGT work.
    std::vector<Addr> evicted;
    hier.setL1EvictCallback([&](Addr a) { evicted.push_back(a); });

    std::uint64_t rmob_hits = 0;
    for (const MemRecord &r : trace) {
        for (Addr a : evicted)
            c.agt([&] { agt.blockRemoved(a); });
        evicted.clear();
        if (r.isInvalidate()) {
            hier.invalidate(r.vaddr);
            svb.invalidate(r.vaddr);
            continue;
        }
        const Addr region = regionBase(r.vaddr);
        const unsigned offset = regionOffset(r.vaddr);
        ++m.l1Accesses;
        bool l1_hit = false;
        m.l1([&] { l1_hit = hier.accessL1(r.vaddr); });
        c.agt([&] {
            if (StemsGeneration *g = agt.find(region))
                g->accessMask |= 1u << offset;
        });
        if (l1_hit) {
            ++m.l1Hits;
            continue;
        }
        ++m.l2Accesses;
        Hierarchy::L2Result l2;
        m.l2([&] { l2 = hier.accessL2(r.vaddr); });
        if (l2.hit) {
            ++m.l2Hits;
            hier.fillL1(r.vaddr);
            continue;
        }
        const Addr block = blockAlign(r.vaddr);
        m.svb([&] { svb.consume(block); });
        m.svb([&] {
            StreamedValueBuffer::Entry e;
            e.addr = block + kBlockBytes;
            svb.insert(e);
        });
        m.fill([&] { hier.fill(r.vaddr); });
        if (!r.isRead())
            continue;

        const std::uint16_t pc16 = pc16Of(r.pc);
        c.agt([&] {
            StemsGeneration *g = agt.find(region);
            if (g == nullptr) {
                g = &agt.open(region);
                g->regionBase = region;
                g->triggerPc16 = pc16;
                g->triggerOffset = static_cast<std::uint8_t>(offset);
                g->index = stemsPatternIndex(pc16, offset);
                g->mask = g->accessMask = 1u << offset;
            } else if (!g->accessed(offset) && !g->sequence.full()) {
                g->sequence.push_back(
                    {static_cast<std::uint8_t>(offset), 0});
                g->mask |= 1u << offset;
            }
        });
        c.pst([&] { pst.lookup(stemsPatternIndex(pc16, offset), pattern); });
        std::optional<RegionMissOrderBuffer::Position> pos;
        c.rmob([&] { pos = rmob.lookup(block); });
        rmob.append(block, pc16, 0);
        if (pos && rmob_hits++ % kReconstructEvery == 0) {
            Reconstructor::Window window;
            c.reconstruct([&] { window = recon.reconstruct(*pos); });
            if (window.valid && !window.sequence.empty())
                c.streams(
                    [&] { streams.allocate(window.sequence, nullptr); });
        }
        c.streams([&] { streams.resync(block); });
        reqs.clear();
        c.streams([&] { streams.drainRequests(reqs); });
        for (const PrefetchRequest &req : reqs)
            c.streams([&] { streams.onFiltered(req.streamId); });
    }
}

SimParams
simParams(const SystemConfig &sys, bool timing)
{
    SimParams p;
    p.hierarchy = sys.hierarchy;
    p.enableTiming = timing;
    p.timing = sys.timing;
    return p;
}

std::unique_ptr<Prefetcher>
makeEngine(const std::string &engine, const SystemConfig &sys,
           bool scientific)
{
    if (engine == "none")
        return nullptr;
    EngineOptions options;
    options.scientific = scientific;
    return EngineRegistry::instance().make(engine, sys, options);
}

/** One lane stepped by hand, timed before and after `split`. */
struct LaneTiming
{
    double prefixNs = 0.0;
    double suffixNs = 0.0;
    SimStats stats;
};

LaneTiming
stepLane(const Trace &trace, const SimParams &params, Prefetcher *engine,
         std::size_t warmup, std::size_t split,
         const std::function<void(const PrefetchSimulator &)> &at_split)
{
    PrefetchSimulator sim(params, engine);
    if (warmup > 0)
        sim.setMeasuring(false);
    auto step_range = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            if (i == warmup)
                sim.setMeasuring(true);
            sim.step(trace[i]);
        }
    };
    LaneTiming t;
    split = std::min(split, trace.size());
    auto t0 = Clock::now();
    step_range(0, split);
    t.prefixNs = secondsSince(t0) * 1e9;
    if (at_split)
        at_split(sim);
    t0 = Clock::now();
    step_range(split, trace.size());
    t.suffixNs = secondsSince(t0) * 1e9;
    sim.finish();
    t.stats = sim.stats();
    return t;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
mean(const std::vector<double> &v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/** Run fn(0..n-1) on up to `jobs` threads, claiming indices in order. */
void
parallelFor(std::size_t n, unsigned jobs,
            const std::function<void(std::size_t)> &fn)
{
    std::atomic<std::size_t> next{0};
    auto body = [&] {
        for (std::size_t i = next++; i < n; i = next++)
            fn(i);
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < std::max(1u, jobs); ++t)
        pool.emplace_back(body);
    body();
    for (std::thread &t : pool)
        t.join();
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** One reconciliation row: a layer's per-call cost times its calls
 *  in the timed sweep. */
struct LayerRow
{
    std::string layer;
    double perCall = 0.0;
    std::string unit;
    double calls = 0.0;
    double totalS = 0.0;
};

// ---------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------

struct Args
{
    std::string command;
    std::string workload;
    std::string dir;
    std::uint64_t seed = 42;
    std::uint64_t records = 1'000'000;
    bool reference = false;
};

int
cmdSetup(const BenchWorkload &w, const Args &a, const Scale &scale)
{
    fs::create_directories(a.dir);
    JsonObject out;
    if (w.extend) {
        const std::string dir = seedStoreDir(a.dir);
        out.num("setup_s", seedStore(w, a.seed, scale, dir));
        TraceStore store(dir);
        out.raw("trace_records",
                sizesJson(storedTraceRecords(store, w, scale.seedRecords,
                                             a.seed)));
    } else {
        // A cold sweep's inputs are its traces: generate each once.
        std::map<std::string, std::uint64_t> sizes;
        const auto t0 = Clock::now();
        for (const std::string &t : w.traces) {
            auto workload = WorkloadRegistry::instance().make(t);
            sizes[t] = workload->generate(a.seed, scale.records).size();
        }
        out.num("setup_s", secondsSince(t0));
        out.raw("trace_records", sizesJson(sizes));
    }
    std::cout << out.done() << "\n";
    return 0;
}

int
cmdRun(const BenchWorkload &w, const Args &a, const Scale &scale)
{
    JsonObject out;
    if (a.reference) {
        // Storeless, on every core: an independent computation of the
        // cells the timed runs must reproduce.
        const SweepWindow win = timedSweep(
            makePlan(w, a.seed, scale.records, scale, kHelperJobs, false),
            nullptr);
        out.raw("cells", cellsJson(win.results));
        std::cout << out.done() << "\n";
        return 0;
    }

    std::shared_ptr<TraceStore> store;
    const std::string clone = a.dir + "/run-store";
    std::uint64_t bytes_before = 0;
    if (w.extend) {
        cloneDir(seedStoreDir(a.dir), clone);
        bytes_before = dirBytes(clone);
        store = std::make_shared<TraceStore>(clone);
    }
    MetricsRegistry::instance().reset();
    const SweepWindow win = timedSweep(
        makePlan(w, a.seed, scale.records, scale, w.jobs, w.extend), store);
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    auto counter = [&](const char *name) -> std::uint64_t {
        auto it = snap.counters.find(name);
        return it == snap.counters.end() ? 0 : it->second;
    };

    out.num("wall_s", win.wallS)
        .num("cpu_s", win.cpuS)
        .num("peak_rss_mb", peakRssMiB())
        .u64("record_steps", counter("batch.record_steps"))
        .u64("lanes_per_trace", lanesPerTrace(w));
    if (store) {
        out.num("store_growth_mb",
                static_cast<double>(dirBytes(clone) - bytes_before) / kMiB);
        out.raw("trace_records",
                sizesJson(storedTraceRecords(*store, w, scale.records,
                                             a.seed)));
        store.reset();
        fs::remove_all(clone);
    }
    out.raw("cells", cellsJson(win.results));
    std::cout << out.done() << "\n";
    return 0;
}

int
cmdLayers(const BenchWorkload &w, const Args &a, const Scale &scale)
{
    fs::create_directories(a.dir);
    calibrateClock();
    const SweepPlan plan =
        makePlan(w, a.seed, scale.records, scale, w.jobs, w.extend);
    const ExperimentConfig config = planExperimentConfig(plan);
    const SystemConfig &sys = config.system;

    std::map<std::string, std::uint64_t> resume_at;
    if (w.extend) {
        const std::string dir = seedStoreDir(a.dir);
        seedStore(w, a.seed, scale, dir);
        TraceStore seeded(dir);
        resume_at = storedTraceRecords(seeded, w, scale.seedRecords, a.seed);
    }
    const std::string clone = a.dir + "/run-store";
    auto open_clone = [&]() -> std::shared_ptr<TraceStore> {
        if (!w.extend)
            return nullptr;
        cloneDir(seedStoreDir(a.dir), clone);
        return std::make_shared<TraceStore>(clone);
    };

    // ---- untraced, then traced sweep ----
    SweepWindow plain = timedSweep(plan, open_clone());
    fs::remove_all(clone);

    auto traced_store = open_clone();
    const std::uint64_t bytes_before = w.extend ? dirBytes(clone) : 0;
    MetricsRegistry::instance().reset();
    const IoCounters io0 = readIo();
    SpanCollector spans;
    spans.attach();
    SweepWindow traced = timedSweep(plan, traced_store);
    spans.detach();
    const IoCounters io1 = readIo();
    const MetricsSnapshot snap = MetricsRegistry::instance().snapshot();
    const double growth_mb =
        w.extend ? static_cast<double>(dirBytes(clone) - bytes_before) / kMiB
                 : 0.0;
    traced_store.reset();
    fs::remove_all(clone);
    const std::string spans_path = a.dir + "/spans.json";
    spans.writeChromeJson(spans_path);
    auto counter = [&](const char *name) -> double {
        auto it = snap.counters.find(name);
        return it == snap.counters.end()
                   ? 0.0
                   : static_cast<double>(it->second);
    };

    // ---- replays over the same traces ----
    const std::vector<std::string> step_engines = {"none", "stride", "tms",
                                                   "sms", "stems"};
    const std::vector<std::string> hook_engines = {"stride", "tms", "sms",
                                                   "stems"};
    std::map<std::string, double> step_ns, step_records;      // functional
    std::map<std::string, double> timed_ns, timed_records;    // timing on
    std::map<std::string, double> lane_s; // per run lane, summed over traces
    struct HookTotals
    {
        double calls = 0, requests = 0, ns = 0;
        std::uint64_t covered = 0, issued = 0;
    };
    std::map<std::string, HookTotals> hooks;
    MemReplay mem;
    CoreReplay core;
    double generate_s = 0.0, delivered = 0.0, records_total = 0.0;
    double encode_ns = 0.0, encode_records = 0.0, encoded_bytes = 0.0;
    double trace_put_s = 0.0;
    double digest_ns = 0.0, digest_records = 0.0, digested_in_run = 0.0;
    std::vector<double> enc_ms, dec_ms, blob_mb, ckpt_put_s, ckpt_get_s;
    const std::string replay_dir = a.dir + "/replay-store";
    fs::remove_all(replay_dir);
    TraceStore replay_store(replay_dir);

    struct TraceInput
    {
        std::string name;
        bool scientific = false;
        Trace trace;
        std::size_t warmup = 0;
        /// Records each lane executes in the sweep: all of them cold,
        /// the suffix past the seeded run's last checkpoint on resume.
        std::size_t split = 0;
    };
    std::vector<TraceInput> inputs;
    for (const std::string &name : w.traces) {
        TraceInput in;
        in.name = name;
        auto workload = WorkloadRegistry::instance().make(name);
        in.scientific = workload->workloadClass() == WorkloadClass::kScientific;
        auto t0 = Clock::now();
        in.trace = workload->generate(a.seed, scale.records);
        generate_s += secondsSince(t0);
        records_total += static_cast<double>(in.trace.size());
        delivered += static_cast<double>(in.trace.size() * lanesPerTrace(w));
        in.warmup = effectiveWarmupRecords(config, in.trace.size());
        in.split = w.extend ? static_cast<std::size_t>(resume_at[name])
                            : in.trace.size();
        if (w.extend) {
            t0 = Clock::now();
            const std::vector<std::uint8_t> bytes = encodeTraceV2(in.trace);
            encode_ns += secondsSince(t0) * 1e9;
            encode_records += static_cast<double>(in.trace.size());
            encoded_bytes += static_cast<double>(bytes.size());
            t0 = Clock::now();
            replay_store.putTrace({name, scale.records, a.seed}, in.trace);
            trace_put_s += secondsSince(t0);
            t0 = Clock::now();
            tracePrefixDigests(in.trace, {in.trace.size()});
            digest_ns += secondsSince(t0) * 1e9;
            digest_records += static_cast<double>(in.trace.size());
            // The sweep hashes each trace once for its checkpoint
            // boundaries and the resumed prefix once more, because the
            // seeded run's last checkpoint is off the new schedule.
            digested_in_run +=
                static_cast<double>(in.trace.size() + in.split);
        }
        baselineReplay(in.trace, sys, mem, core);
        inputs.push_back(std::move(in));
    }

    // Step every lane by hand, on as many threads as the sweep uses so
    // per-record costs carry the same cache and memory contention.
    struct StepTask
    {
        std::size_t input = 0;
        std::string engine;
        bool timing = false;
        double ns = 0.0;
        std::vector<double> encMs, decMs, blobMb, putS, getS;
    };
    std::vector<StepTask> tasks;
    for (std::size_t i = 0; i < inputs.size(); ++i)
        for (bool timing : {false, true})
            if (!timing || w.timing)
                for (const std::string &e : step_engines)
                    tasks.push_back({i, e, timing, 0.0, {}, {}, {}, {}, {}});
    parallelFor(tasks.size(), w.jobs, [&](std::size_t k) {
        StepTask &task = tasks[k];
        const TraceInput &in = inputs[task.input];
        const SimParams params = simParams(sys, task.timing);
        auto engine = makeEngine(task.engine, sys, in.scientific);
        std::function<void(const PrefetchSimulator &)> at_split;
        if (w.extend) {
            at_split = [&](const PrefetchSimulator &sim) {
                auto c0 = Clock::now();
                const auto blob = encodeCheckpoint(sim, in.split);
                task.encMs.push_back(secondsSince(c0) * 1e3);
                task.blobMb.push_back(static_cast<double>(blob.size()) / kMiB);
                auto fresh_engine = makeEngine(task.engine, sys, in.scientific);
                PrefetchSimulator fresh(params, fresh_engine.get());
                c0 = Clock::now();
                decodeCheckpoint(blob, fresh);
                task.decMs.push_back(secondsSince(c0) * 1e3);
                const std::uint64_t spec = storeDigest(in.name + "/" + task.engine);
                StoredCheckpointMeta meta;
                meta.workload = in.name;
                meta.engine = task.engine;
                meta.index = in.split;
                c0 = Clock::now();
                replay_store.putCheckpoint(spec, 1, in.split, 1, blob, meta);
                task.putS.push_back(secondsSince(c0));
                c0 = Clock::now();
                replay_store.loadCheckpoint(spec, 1, in.split, 1);
                task.getS.push_back(secondsSince(c0));
            };
        }
        const LaneTiming t = stepLane(in.trace, params, engine.get(),
                                      in.warmup, in.split, at_split);
        task.ns = w.extend ? t.suffixNs : t.prefixNs;
    });
    for (const StepTask &task : tasks) {
        const TraceInput &in = inputs[task.input];
        const double executed =
            static_cast<double>(in.trace.size() - (w.extend ? in.split : 0));
        (task.timing ? timed_ns : step_ns)[task.engine] += task.ns;
        (task.timing ? timed_records : step_records)[task.engine] += executed;
        const bool in_run = task.engine != "stride" || w.timing;
        if (task.timing == w.timing && in_run)
            lane_s[task.engine] += task.ns * 1e-9;
        auto append = [](std::vector<double> &to, const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(enc_ms, task.encMs);
        append(dec_ms, task.decMs);
        append(blob_mb, task.blobMb);
        append(ckpt_put_s, task.putS);
        append(ckpt_get_s, task.getS);
    }

    const SimParams hook_params = simParams(sys, w.timing);
    for (const TraceInput &in : inputs) {
        for (const std::string &e : hook_engines) {
            CountingPrefetcher engine(makeEngine(e, sys, in.scientific));
            PrefetchSimulator sim(hook_params, &engine);
            sim.run(in.trace, in.warmup);
            HookTotals &h = hooks[e];
            h.calls += static_cast<double>(engine.hooks().calls());
            h.requests += static_cast<double>(engine.requests());
            h.ns += engine.hooks().meanNs() *
                    static_cast<double>(engine.hooks().calls());
            h.covered += sim.stats().covered();
            h.issued += sim.stats().prefetchesIssued;
        }
    }
    fs::remove_all(replay_dir);

    // ---- per-layer metrics ----
    JsonObject m;
    m.num("workloads.generate_s", generate_s)
        .num("workloads.records", records_total)
        .num("trace.encode_ns_per_record", ratio(encode_ns, encode_records))
        .num("trace.bytes_per_record", ratio(encoded_bytes, encode_records))
        .num("store.trace_put_s", trace_put_s)
        .num("store.ckpt_put_s", median(ckpt_put_s))
        .num("store.ckpt_get_s", median(ckpt_get_s))
        .num("store.bytes_written_mb",
             w.extend ? static_cast<double>(io1.wchar - io0.wchar) / kMiB : 0.0)
        .num("store.bytes_read_mb",
             w.extend ? static_cast<double>(io1.rchar - io0.rchar) / kMiB : 0.0)
        .num("store.growth_mb", growth_mb)
        .num("store.ckpt_probe_hit_ratio",
             ratio(counter("store.ckpt.hit"),
                   counter("store.ckpt.hit") + counter("store.ckpt.miss")))
        .num("ckpt.encode_ms_p50", median(enc_ms))
        .num("ckpt.decode_ms_p50", median(dec_ms))
        .num("ckpt.blob_mb", median(blob_mb))
        .num("ckpt.encodes", counter("ckpt.written"))
        .num("ckpt.decodes", counter("driver.cell.resumed"))
        .num("mem.l1_access_ns", mem.l1.meanNs())
        .num("mem.l2_access_ns", mem.l2.meanNs())
        .num("mem.fill_ns", mem.fill.meanNs())
        .num("mem.l1_hit_ratio",
             ratio(static_cast<double>(mem.l1Hits),
                   static_cast<double>(mem.l1Accesses)))
        .num("mem.l2_hit_ratio",
             ratio(static_cast<double>(mem.l2Hits),
                   static_cast<double>(mem.l2Accesses)))
        .num("mem.svb_op_ns", mem.svb.meanNs());
    double timed_total = 0.0, func_total = 0.0, timed_recs = 0.0;
    for (const std::string &e : step_engines) {
        m.num("sim.step_ns." + e, ratio(step_ns[e], step_records[e]));
        m.num("sim.step_ns_timed." + e, ratio(timed_ns[e], timed_records[e]));
        if (w.timing) {
            timed_total += timed_ns[e];
            func_total += step_ns[e];
            timed_recs += timed_records[e];
        }
    }
    m.num("timing.overhead_ns", ratio(timed_total - func_total, timed_recs));
    const double record_steps = counter("batch.record_steps");
    m.num("sim.record_steps", record_steps)
        .num("sim.work_ratio", ratio(record_steps, delivered));
    for (const std::string &e : hook_engines) {
        const HookTotals &h = hooks[e];
        const std::string p = "prefetch." + e + ".";
        m.num(p + "hook_calls", h.calls)
            .num(p + "requests", h.requests)
            .num(p + "hook_ns", ratio(h.ns, h.calls))
            .num(p + "accuracy", ratio(static_cast<double>(h.covered),
                                       static_cast<double>(h.issued)));
    }
    m.num("core.agt_ns", core.agt.meanNs())
        .num("core.pst_lookup_ns", core.pst.meanNs())
        .num("core.rmob_lookup_ns", core.rmob.meanNs())
        .num("core.reconstruct_us", core.reconstruct.meanNs() / 1e3)
        .num("core.stream_queue_ns", core.streams.meanNs())
        .num("obs.trace_overhead", ratio(traced.wallS, plain.wallS) - 1.0);

    // ---- reconciliation rows (per-call cost x calls in the sweep) ----
    std::vector<LayerRow> rows;
    const double generations = counter("driver.trace.generated");
    rows.push_back({"workloads.generate",
                    ratio(generate_s, static_cast<double>(w.traces.size())),
                    "s", generations,
                    ratio(generate_s, static_cast<double>(w.traces.size())) *
                        generations});
    for (const auto &kv : lane_s) {
        const auto &recs = w.timing ? timed_records : step_records;
        const double calls = recs.at(kv.first);
        rows.push_back({std::string(w.timing ? "sim.step_timed." : "sim.step.") +
                            kv.first,
                        ratio(kv.second * 1e9, calls), "ns", calls, kv.second});
    }
    if (w.extend) {
        const double encodes = counter("ckpt.written");
        const double decodes = counter("driver.cell.resumed");
        const double gets = counter("store.ckpt.hit");
        // Means, not the reported p50s: lanes' states differ in size,
        // and the sweep pays the sum.
        rows.push_back({"ckpt.encode", mean(enc_ms), "ms", encodes,
                        mean(enc_ms) * 1e-3 * encodes});
        rows.push_back({"ckpt.decode", mean(dec_ms), "ms", decodes,
                        mean(dec_ms) * 1e-3 * decodes});
        rows.push_back({"store.ckpt_put", mean(ckpt_put_s) * 1e3, "ms",
                        encodes, mean(ckpt_put_s) * encodes});
        rows.push_back({"store.ckpt_get", mean(ckpt_get_s) * 1e3, "ms",
                        gets, mean(ckpt_get_s) * gets});
        const double per_put =
            ratio(trace_put_s, static_cast<double>(w.traces.size()));
        rows.push_back({"store.trace_put", per_put, "s", generations,
                        per_put * generations});
        const double per_record = ratio(digest_ns, digest_records);
        rows.push_back({"trace.prefix_digest", per_record, "ns",
                        digested_in_run, per_record * 1e-9 * digested_in_run});
    }
    std::string rows_json = "[";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        rows_json += (i ? "," : "") + JsonObject()
                                          .str("layer", rows[i].layer)
                                          .num("per_call", rows[i].perCall)
                                          .str("unit", rows[i].unit)
                                          .num("calls", rows[i].calls)
                                          .num("total_s", rows[i].totalS)
                                          .done();
    }
    rows_json += "]";

    JsonObject out;
    out.raw("metrics", m.done())
        .raw("layers", rows_json)
        .raw("untraced", JsonObject()
                             .num("wall_s", plain.wallS)
                             .num("cpu_s", plain.cpuS)
                             .raw("cells", cellsJson(plain.results))
                             .done())
        .raw("traced", JsonObject()
                           .num("wall_s", traced.wallS)
                           .num("cpu_s", traced.cpuS)
                           .raw("cells", cellsJson(traced.results))
                           .done())
        .str("spans", spans_path)
        .num("delivered_lane_records", delivered);
    std::cout << out.done() << "\n";
    return 0;
}

int
usage()
{
    std::cerr << "usage: perfbench setup|run|layers --workload W --seed N "
                 "--dir DIR [--records R] [--reference]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    Args a;
    a.command = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::cerr << flag << " needs a value\n";
                std::exit(2);
            }
            return argv[++i];
        };
        if (flag == "--workload")
            a.workload = value();
        else if (flag == "--seed")
            a.seed = std::stoull(value());
        else if (flag == "--records")
            a.records = std::stoull(value());
        else if (flag == "--dir")
            a.dir = value();
        else if (flag == "--reference")
            a.reference = true;
        else
            return usage();
    }
    const BenchWorkload *w = findWorkload(a.workload);
    if (w == nullptr || a.dir.empty() || a.records < 1000)
        return usage();
    const Scale scale = scaleFor(*w, a.records);
    if (a.command == "setup")
        return cmdSetup(*w, a, scale);
    if (a.command == "run")
        return cmdRun(*w, a, scale);
    if (a.command == "layers")
        return cmdLayers(*w, a, scale);
    return usage();
}
