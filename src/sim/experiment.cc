#include "sim/experiment.hh"

#include "common/stats.hh"
#include "prefetch/engine_registry.hh"

namespace stems {

const EngineResult *
WorkloadResult::find(const std::string &engine) const
{
    for (const EngineResult &r : engines)
        if (r.engine == engine)
            return &r;
    return nullptr;
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config))
{
}

std::unique_ptr<Prefetcher>
ExperimentRunner::makeEngine(const std::string &name,
                             bool scientific) const
{
    EngineOptions options;
    options.scientific = scientific;
    return EngineRegistry::instance().make(name, config_.system,
                                           options);
}

WorkloadResult
ExperimentRunner::runWorkload(const Workload &workload,
                              const std::vector<std::string> &engines)
{
    WorkloadResult result;
    result.workload = workload.name();
    result.workloadClass = workload.workloadClass();

    Trace trace =
        workload.generate(config_.seed, config_.traceRecords);
    std::size_t warmup = effectiveWarmupRecords(config_, trace.size());

    SimParams sim_params;
    sim_params.hierarchy = config_.system.hierarchy;
    sim_params.enableTiming = config_.enableTiming;
    sim_params.timing = config_.system.timing;

    bool scientific =
        workload.workloadClass() == WorkloadClass::kScientific;

    // No-prefetch baseline: defines the miss-count normalization.
    PrefetchSimulator base_sim(sim_params, nullptr);
    base_sim.run(trace, warmup);
    result.baselineMisses = base_sim.stats().offChipReads;
    result.baselineCycles = base_sim.stats().cycles;

    // Stride baseline: defines the speedup normalization (Table 1's
    // baseline system includes the stride prefetcher).
    double stride_cycles = 0.0;
    if (config_.enableTiming) {
        auto stride = makeEngine("stride", scientific);
        PrefetchSimulator stride_sim(sim_params, stride.get());
        stride_sim.run(trace, warmup);
        stride_cycles = stride_sim.stats().cycles;
        result.baselineIpc = stride_sim.stats().ipc();
        result.strideCycles = stride_cycles;
    }

    for (const std::string &name : engines) {
        auto engine = makeEngine(name, scientific);
        if (!engine)
            continue;
        PrefetchSimulator sim(sim_params, engine.get());
        sim.run(trace, warmup);

        EngineResult er;
        er.engine = name;
        er.stats = sim.stats();
        er.coverage =
            ratio(er.stats.covered(), result.baselineMisses);
        er.uncovered =
            ratio(er.stats.offChipReads, result.baselineMisses);
        er.overprediction =
            ratio(er.stats.overpredictions, result.baselineMisses);
        if (config_.enableTiming && er.stats.cycles > 0)
            er.speedup = stride_cycles / er.stats.cycles;
        result.engines.push_back(std::move(er));
    }
    return result;
}

} // namespace stems
