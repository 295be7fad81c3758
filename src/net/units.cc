#include "net/units.hh"

#include <algorithm>
#include <map>

#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "store/keys.hh"
#include "store/trace_store.hh"
#include "trace/trace_io.hh"
#include "workloads/registry.hh"

namespace stems {

namespace {

void
setError(std::string *error, const std::string &text)
{
    if (error)
        *error = text;
}

/**
 * Checkpoint spec digests of one cell's lanes (store/keys.hh
 * laneCheckpointSpecDigest): the baseline column is the no-prefetch
 * lane plus, under timing, the stride reference lane; an engine
 * column is that engine's lane.
 */
std::vector<std::uint64_t>
columnCkptSpecs(const SweepPlan &plan, bool scientific,
                std::int32_t column)
{
    if (column < 0) {
        std::vector<std::uint64_t> specs{
            laneCheckpointSpecDigest("", {}, scientific)};
        if (plan.timing)
            specs.push_back(
                laneCheckpointSpecDigest("stride", {}, scientific));
        return specs;
    }
    const PlanEngine &e =
        plan.engines[static_cast<std::size_t>(column)];
    return {laneCheckpointSpecDigest(e.engine, e.options, scientific)};
}

/** Stored-checkpoint directory of every lane spec, listed once. */
using SpecListings =
    std::map<std::uint64_t, std::vector<StoredCheckpointKey>>;

const std::vector<StoredCheckpointKey> &
listingFor(SpecListings &memo, TraceStore &store, std::uint64_t spec,
           std::uint64_t config_digest)
{
    auto it = memo.find(spec);
    if (it == memo.end())
        it = memo
                 .emplace(spec,
                          store.listCheckpoints(spec, config_digest))
                 .first;
    return it->second;
}

/** True when every lane spec has a checkpoint stored at `index`
 *  under exactly the on-key state digest. Off-key entries (stale
 *  seed, different warmup schedule) never qualify. */
bool
trustedCheckpointAt(SpecListings &memo, TraceStore &store,
                    const std::vector<std::uint64_t> &specs,
                    std::uint64_t config_digest, std::uint64_t index,
                    std::uint64_t state_digest)
{
    for (std::uint64_t spec : specs) {
        bool found = false;
        for (const StoredCheckpointKey &key :
             listingFor(memo, store, spec, config_digest)) {
            if (key.index == index &&
                key.stateDigest == state_digest) {
                found = true;
                break;
            }
        }
        if (!found)
            return false;
    }
    return true;
}

} // namespace

std::vector<WorkUnit>
decomposeSweepPlan(const SweepPlan &plan, TraceStore *store,
                   std::string *error)
{
    std::vector<WorkUnit> units;
    const WorkloadRegistry &registry = WorkloadRegistry::instance();

    if (plan.unitGranularity == UnitGranularity::kWorkload) {
        for (const std::string &name : plan.workloads) {
            WorkUnit u;
            u.kind = UnitKind::kWorkload;
            u.workload = name;
            units.push_back(std::move(u));
        }
        return units;
    }

    const bool segmented =
        plan.unitGranularity == UnitGranularity::kSegment;
    if (segmented && (!store || !store->usable())) {
        setError(error,
                 "segment units need a usable trace store (the "
                 "seeding pass writes traces and reads boundary "
                 "checkpoints)");
        return {};
    }

    const ExperimentConfig config = planExperimentConfig(plan);
    const std::uint64_t ckpt_config = checkpointConfigDigest(config);

    for (const std::string &name : plan.workloads) {
        if (!registry.contains(name)) {
            // run() skips unknown workload names; keeping them as
            // whole-workload units keeps the distributed run's
            // behaviour identical to the local one.
            WorkUnit u;
            u.kind = UnitKind::kWorkload;
            u.workload = name;
            units.push_back(std::move(u));
            continue;
        }

        std::vector<std::int32_t> columns;
        columns.push_back(-1);
        for (std::size_t j = 0; j < plan.engines.size(); ++j)
            columns.push_back(static_cast<std::int32_t>(j));

        if (!segmented) {
            for (std::int32_t c : columns) {
                WorkUnit u;
                u.kind = UnitKind::kCell;
                u.workload = name;
                u.column = c;
                units.push_back(std::move(u));
            }
            continue;
        }

        // Seeding pass. Generators may overshoot plan.records, so
        // the true trace length — which fixes the boundary
        // schedule — is only known from the trace itself; writing
        // it here also pre-populates the data plane every worker
        // will replay from.
        std::unique_ptr<Workload> workload = registry.make(name);
        const bool scientific = workload->workloadClass() ==
                                WorkloadClass::kScientific;
        TraceKey key{name, plan.records, plan.seed};
        Trace trace;
        if (!store->loadTrace(key, trace)) {
            trace = workload->generate(
                plan.seed, static_cast<std::size_t>(plan.records));
            if (!store->putTrace(key, trace)) {
                setError(error, "cannot seed trace for '" + name +
                                    "' into the store");
                return {};
            }
        }

        std::vector<std::size_t> bounds = checkpointBounds(
            trace.size(),
            static_cast<std::size_t>(plan.checkpointEvery));
        if (bounds.empty())
            bounds.push_back(0); // empty trace: one no-op segment
        const std::size_t warmup =
            effectiveWarmupRecords(config, trace.size());
        const std::vector<std::uint64_t> prefixes =
            tracePrefixDigests(trace, bounds);

        SpecListings memo;
        for (std::int32_t c : columns) {
            const std::vector<std::uint64_t> specs =
                columnCkptSpecs(plan, scientific, c);
            std::int64_t prev = -1;
            std::uint64_t start = 0;
            for (std::size_t b = 0; b < bounds.size(); ++b) {
                WorkUnit u;
                u.kind = UnitKind::kSegment;
                u.workload = name;
                u.column = c;
                u.segBegin = start;
                u.segEnd = bounds[b];
                u.finalSegment = b + 1 == bounds.size();
                if (start != 0) {
                    // `start` is bounds[b - 1]; a trusted stored
                    // checkpoint there lets this segment start
                    // without waiting for its predecessor.
                    const std::uint64_t state =
                        checkpointStateDigest(
                            prefixes[b - 1],
                            static_cast<std::size_t>(start),
                            warmup);
                    if (!trustedCheckpointAt(memo, *store, specs,
                                             ckpt_config, start,
                                             state))
                        u.dependsOn = prev;
                }
                prev = static_cast<std::int64_t>(units.size());
                units.push_back(std::move(u));
                start = bounds[b];
            }
        }
    }
    return units;
}

std::uint64_t
unitLastCheckpointIndex(const SweepPlan &plan, const WorkUnit &unit,
                        TraceStore &store)
{
    if (unit.kind == UnitKind::kWorkload)
        return 0; // spans many cells; the driver probes per lane
    const WorkloadRegistry &registry = WorkloadRegistry::instance();
    std::unique_ptr<Workload> workload =
        registry.make(unit.workload);
    if (!workload)
        return 0;
    TraceKey key{unit.workload, plan.records, plan.seed};
    Trace trace;
    if (!store.loadTrace(key, trace))
        return 0;
    const std::uint64_t limit =
        unit.kind == UnitKind::kSegment
            ? std::min<std::uint64_t>(unit.segEnd, trace.size())
            : trace.size();

    const ExperimentConfig config = planExperimentConfig(plan);
    const std::uint64_t ckpt_config = checkpointConfigDigest(config);
    const std::size_t warmup =
        effectiveWarmupRecords(config, trace.size());
    const std::vector<std::uint64_t> specs = columnCkptSpecs(
        plan,
        workload->workloadClass() == WorkloadClass::kScientific,
        unit.column);

    SpecListings memo;
    std::vector<std::size_t> candidates;
    for (const StoredCheckpointKey &k :
         listingFor(memo, store, specs.front(), ckpt_config))
        if (k.index > 0 && k.index <= limit)
            candidates.push_back(static_cast<std::size_t>(k.index));
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(
        std::unique(candidates.begin(), candidates.end()),
        candidates.end());
    if (candidates.empty())
        return 0;
    const std::vector<std::uint64_t> prefixes =
        tracePrefixDigests(trace, candidates);
    for (std::size_t i = candidates.size(); i-- > 0;) {
        const std::uint64_t state = checkpointStateDigest(
            prefixes[i], candidates[i], warmup);
        if (trustedCheckpointAt(memo, store, specs, ckpt_config,
                                candidates[i], state))
            return candidates[i];
    }
    return 0;
}

} // namespace stems
