#include "sim/batch_sim.hh"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hh"

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
    lane.cursor = 0;
    lane.nextBoundary = 0;
}

void
BatchSimulator::setLaneStart(std::size_t lane_index,
                             std::size_t start_index)
{
    lanes_.at(lane_index).cursor = start_index;
}

void
BatchSimulator::setLaneBoundaries(std::size_t lane_index,
                                  std::vector<std::size_t> boundaries)
{
    Lane &lane = lanes_.at(lane_index);
    lane.boundaries = std::move(boundaries);
    lane.nextBoundary = 0;
}

bool
BatchSimulator::advanceLane(std::size_t lane_index, const Trace &trace)
{
    // Mirrors PrefetchSimulator::run exactly: the measuring flip at
    // index == warmup is a no-op for warmup == 0 lanes (already on),
    // so the lane's step sequence matches a standalone run bitwise.
    // A resumed lane starts at its cursor — flip included, since the
    // checkpointed state already contains it.
    Lane &lane = lanes_.at(lane_index);
    PrefetchSimulator &sim = *lane.sim;
    const std::size_t total = trace.size();
    const std::size_t first = std::min(lane.cursor, total);
    // Chunks stay aligned to kChunkRecords, so a resumed lane's
    // first chunk is the tail of the one a whole-trace pass steps.
    const std::size_t end =
        std::min(total, first - first % kChunkRecords + kChunkRecords);
    if (first < end) {
        const auto chunk_start = std::chrono::steady_clock::now();
        const MemRecord *records = trace.data();
        batchMetrics().recordSteps.add(end - first);
        for (std::size_t i = first; i < end; ++i) {
            // Loads only: the step of record i + kLookaheadRecords
            // then finds its sets and table lines on their way in.
            if (i + kLookaheadRecords < end)
                sim.hostPrefetch(records[i + kLookaheadRecords]);
            if (lane.nextBoundary < lane.boundaries.size() &&
                lane.boundaries[lane.nextBoundary] == i) {
                if (boundary_)
                    boundary_(lane_index, i, sim);
                ++lane.nextBoundary;
            }
            if (i == lane.warmup)
                sim.setMeasuring(true);
            sim.step(records[i]);
        }
        lane.cursor = end;
        batchMetrics().chunkNs.record(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - chunk_start)
                .count()));
    }
    if (end < total)
        return false;

    // A boundary at the trace end captures the pre-finish state, so
    // a resumed run re-executes finish() exactly once, like the
    // continuous run it mirrors.
    lane.cursor = total;
    while (lane.nextBoundary < lane.boundaries.size() &&
           lane.boundaries[lane.nextBoundary] <= total) {
        if (lane.boundaries[lane.nextBoundary] == total && boundary_)
            boundary_(lane_index, total, sim);
        ++lane.nextBoundary;
    }
    sim.finish();
    lane.done = true;
    return true;
}

void
BatchSimulator::run(const Trace &trace)
{
    for (;;) {
        std::size_t next = lanes_.size();
        for (std::size_t li = 0; li < lanes_.size(); ++li)
            if (!lanes_[li].done &&
                (next == lanes_.size() ||
                 lanes_[li].cursor < lanes_[next].cursor))
                next = li;
        if (next == lanes_.size())
            return;
        advanceLane(next, trace);
    }
}

} // namespace stems
