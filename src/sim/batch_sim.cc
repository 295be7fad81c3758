#include "sim/batch_sim.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/metrics.hh"
#include "obs/trace_span.hh"

namespace stems {

namespace {

/** Registry instruments, resolved once (stable for process life). */
struct BatchMetrics
{
    LatencyHistogram &chunkNs;
    Counter &recordSteps;

    BatchMetrics()
        : chunkNs(
              MetricsRegistry::instance().histogram("batch.chunk_ns")),
          recordSteps(
              MetricsRegistry::instance().counter("batch.record_steps"))
    {
    }
};

BatchMetrics &
batchMetrics()
{
    static BatchMetrics metrics;
    return metrics;
}

} // namespace

std::size_t
BatchSimulator::addLane(const SimParams &params, Prefetcher *engine,
                        std::size_t warmup_records)
{
    Lane lane;
    lane.sim = std::make_unique<PrefetchSimulator>(params, engine);
    lane.params = params;
    lane.engine = engine;
    lane.warmup = warmup_records;
    if (lane.warmup > 0)
        lane.sim->setMeasuring(false);
    lanes_.push_back(std::move(lane));
    return lanes_.size() - 1;
}

void
BatchSimulator::rebuildLane(std::size_t lane_index,
                            Prefetcher *engine)
{
    Lane &lane = lanes_.at(lane_index);
    lane.engine = engine;
    lane.sim =
        std::make_unique<PrefetchSimulator>(lane.params, engine);
    if (lane.warmup > 0)
        lane.sim->setMeasuring(false);
    lane.start = 0;
    lane.nextBoundary = 0;
}

void
BatchSimulator::setLaneStart(std::size_t lane_index,
                             std::size_t start_index)
{
    lanes_.at(lane_index).start = start_index;
}

void
BatchSimulator::setLaneBoundaries(std::size_t lane_index,
                                  std::vector<std::size_t> boundaries)
{
    Lane &lane = lanes_.at(lane_index);
    lane.boundaries = std::move(boundaries);
    lane.nextBoundary = 0;
}

void
BatchSimulator::runLaneChunk(std::size_t lane_index,
                             const MemRecord *records,
                             std::size_t first, std::size_t count)
{
    // Mirrors PrefetchSimulator::run exactly: the measuring flip at
    // index == warmup is a no-op for warmup == 0 lanes (already on),
    // so the lane's step sequence matches a standalone run bitwise.
    // A resumed lane skips everything below its start index — flip
    // included, since the checkpointed state already contains it.
    Lane &lane = lanes_[lane_index];
    PrefetchSimulator &sim = *lane.sim;
    if (first + count <= lane.start)
        return; // whole chunk inside the resumed prefix
    std::size_t skip = lane.start > first ? lane.start - first : 0;
    batchMetrics().recordSteps.add(count - skip);
    for (std::size_t i = skip; i < count; ++i) {
        // Loads only: the step of record i + kLookaheadRecords then
        // finds its sets and table lines on their way in.
        if (i + kLookaheadRecords < count)
            sim.hostPrefetch(records[i + kLookaheadRecords]);
        std::size_t global = first + i;
        if (lane.nextBoundary < lane.boundaries.size() &&
            lane.boundaries[lane.nextBoundary] == global) {
            if (boundary_)
                boundary_(lane_index, global, sim);
            ++lane.nextBoundary;
        }
        if (global == lane.warmup)
            sim.setMeasuring(true);
        sim.step(records[i]);
    }
}

void
BatchSimulator::runChunk(const MemRecord *records, std::size_t first,
                         std::size_t count, unsigned jobs)
{
    ScopedSpan span("batch.chunk", "batch");
    if (span.active()) {
        span.arg("first", static_cast<std::uint64_t>(first));
        span.arg("records", static_cast<std::uint64_t>(count));
        span.arg("lanes",
                 static_cast<std::uint64_t>(lanes_.size()));
    }
    const auto chunk_start = std::chrono::steady_clock::now();
    // Lane-major within the chunk: a lane's tables stay hot for the
    // whole chunk while the chunk's records are served from cache
    // for every lane after the first. (Record-major — all lanes per
    // record — reloads every lane's working set per record and is
    // measurably slower.)
    const auto record_chunk_ns = [&chunk_start] {
        batchMetrics().chunkNs.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - chunk_start)
                .count()));
    };
    std::size_t workers =
        std::min<std::size_t>(jobs, lanes_.size());
    if (workers <= 1) {
        for (std::size_t li = 0; li < lanes_.size(); ++li)
            runLaneChunk(li, records, first, count);
        record_chunk_ns();
        return;
    }

    // Lanes are mutually independent, so they can advance through
    // the shared chunk concurrently; threads claim lanes dynamically
    // to absorb heterogeneous lane costs.
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    auto body = [&] {
        for (;;) {
            std::size_t li =
                next.fetch_add(1, std::memory_order_relaxed);
            if (li >= lanes_.size())
                break;
            try {
                runLaneChunk(li, records, first, count);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (std::size_t t = 0; t + 1 < workers; ++t)
        pool.emplace_back(body);
    body();
    for (std::thread &t : pool)
        t.join();
    if (error)
        std::rethrow_exception(error);
    record_chunk_ns();
}

void
BatchSimulator::finishAll(std::size_t total_records)
{
    for (std::size_t li = 0; li < lanes_.size(); ++li) {
        Lane &lane = lanes_[li];
        // A boundary at the trace end captures the pre-finish
        // state, so a resumed run re-executes finish() exactly once,
        // like the continuous run it mirrors.
        while (lane.nextBoundary < lane.boundaries.size() &&
               lane.boundaries[lane.nextBoundary] <= total_records) {
            if (lane.boundaries[lane.nextBoundary] == total_records &&
                boundary_)
                boundary_(li, total_records, *lane.sim);
            ++lane.nextBoundary;
        }
        lane.sim->finish();
    }
}

void
BatchSimulator::run(const Trace &trace, unsigned jobs)
{
    // Skip the chunks before every lane's start: resumed lanes skip
    // their prefix. Chunks stay aligned to kChunkRecords, so every
    // visited chunk is the one a whole-trace pass would step.
    std::size_t first = trace.size();
    for (const Lane &lane : lanes_)
        first = std::min(first, lane.start);
    if (first < trace.size()) {
        for (std::size_t start = first - first % kChunkRecords;
             start < trace.size(); start += kChunkRecords) {
            std::size_t count =
                std::min(trace.size() - start, kChunkRecords);
            runChunk(trace.data() + start, start, count, jobs);
        }
    }
    finishAll(trace.size());
}

} // namespace stems
