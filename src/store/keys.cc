#include "store/keys.hh"

#include <iomanip>
#include <sstream>

#include "sim/checkpoint.hh"
#include "store/trace_store.hh"

namespace stems {

namespace {

} // namespace

std::uint64_t
engineSpecDigest(const std::string &name,
                 const EngineOptions &options,
                 const std::string &probe_id)
{
    return storeDigest(describeEngineSpec(name, options, probe_id));
}

std::uint64_t
laneCheckpointSpecDigest(const std::string &engine,
                         EngineOptions options, bool scientific)
{
    if (engine.empty())
        return storeDigest("cell:baseline:v1");
    options.scientific = options.scientific || scientific;
    return engineSpecDigest(engine, options);
}

std::uint64_t
resultConfigDigest(const ExperimentConfig &config)
{
    // A result depends on the timing mode (a functional run's stats
    // carry no cycles) and its on-disk format version. The
    // warmupRecords line is appended only when set so stores written
    // before the absolute-warmup knob existed keep their keys.
    std::ostringstream os;
    os << describeSystem(config.system) << "\nwarmup="
       << std::setprecision(17) << config.warmupFraction;
    if (config.warmupRecords > 0)
        os << "\nwarmupRecords=" << config.warmupRecords;
    os << "\ntiming=" << config.enableTiming << "\nresultv=1";
    return storeDigest(os.str());
}

std::uint64_t
checkpointConfigDigest(const ExperimentConfig &config)
{
    std::ostringstream os;
    os << describeSystem(config.system)
       << "\ntiming=" << config.enableTiming
       << "\nckptv=" << kCheckpointVersion;
    return storeDigest(os.str());
}

std::uint64_t
checkpointStateDigest(std::uint64_t prefix_digest, std::size_t index,
                      std::size_t warmup)
{
    std::ostringstream os;
    os << std::hex << prefix_digest << "|warmup=";
    if (warmup < index)
        os << std::dec << warmup;
    else
        os << "pending";
    return storeDigest(os.str());
}

std::uint64_t
sweepPlanDigest(const SweepPlan &plan)
{
    return storeDigest(sweepPlanJson(plan));
}

} // namespace stems
