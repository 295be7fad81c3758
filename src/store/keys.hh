/**
 * @file
 * The store's key vocabulary, in one place.
 *
 * Every artifact the content-addressed TraceStore holds — and every
 * identity the distributed sweep protocol (net/) puts on the wire —
 * is named by a 64-bit FNV-1a digest (storeDigest) of a stable
 * descriptive string. This header collects the digest family so the
 * definitions cannot drift between the driver, the tools and the
 * wire protocol:
 *
 *  - engineSpecDigest      what engine ran (name + effective options
 *                          [+ probe id]); keys results.
 *  - laneCheckpointSpecDigest what a simulation lane is (baseline,
 *                          stride reference or engine); keys
 *                          checkpoints, and the baseline lane's
 *                          result.
 *  - resultConfigDigest    system + warmup + timing mode +
 *                          result-format version; keys results.
 *  - checkpointConfigDigest system + timing + checkpoint blob
 *                          version; keys checkpoints. Warmup is
 *                          deliberately excluded — it joins the
 *                          per-checkpoint *state* digest instead.
 *  - checkpointStateDigest the state identity of one checkpoint:
 *                          trace-prefix content digest + the warmup
 *                          boundary's effect on that prefix
 *                          ("pending" while it lies at or beyond
 *                          the index).
 *  - sweepPlanDigest       a whole sweep's identity: digest of the
 *                          canonical SweepPlan JSON. Coordinator and
 *                          worker compare it before executing.
 *
 * The remaining family members live with their data: trace content
 * digests and trace-prefix digests (trace/trace_io.hh traceDigest /
 * tracePrefixDigests) hash record bytes rather than a description,
 * and TraceStore::storeDigest is the common string-digest primitive
 * all of the above are built on.
 */

#ifndef STEMS_STORE_KEYS_HH
#define STEMS_STORE_KEYS_HH

#include <cstdint>
#include <string>

#include "prefetch/engine_registry.hh"
#include "sim/config.hh"
#include "sim/sweep_plan.hh"

namespace stems {

/** Key of an engine instantiation: digest of describeEngineSpec
 *  (name, every option field, optional probe id, and the engine's
 *  registered state version). */
std::uint64_t engineSpecDigest(const std::string &name,
                               const EngineOptions &options,
                               const std::string &probe_id = {});

/**
 * Checkpoint identity of one simulation lane: `engine` empty is the
 * engineless no-prefetch baseline lane; any other name (the stride
 * reference lane is plain "stride") is that engine under `options`
 * with the workload's `scientific` flag folded in. Labels and probe
 * ids never join it: a probe reads state after the run and cannot
 * change the simulation a checkpoint captures. Every driver lane,
 * in whichever process runs it, keys its checkpoints through this
 * one function.
 */
std::uint64_t laneCheckpointSpecDigest(const std::string &engine,
                                       EngineOptions options,
                                       bool scientific);

/** Key of the context a stored cell result belongs to: system,
 *  warmup, timing mode and the on-disk result format version. Trace
 *  length and seed are part of the trace identity, not this
 *  digest. */
std::uint64_t resultConfigDigest(const ExperimentConfig &config);

/** Key of the context a stored checkpoint belongs to: system +
 *  timing + blob version, warmup excluded (see file comment). */
std::uint64_t checkpointConfigDigest(const ExperimentConfig &config);

/** State identity of a checkpoint at `index` over a trace whose
 *  prefix digest is `prefix_digest`: the warmup boundary joins as
 *  its exact value once the prefix has crossed it, else as
 *  "pending" (the prefix state cannot depend on it yet — which is
 *  what makes pre-warmup checkpoints shareable across warmup
 *  settings and record counts). */
std::uint64_t checkpointStateDigest(std::uint64_t prefix_digest,
                                    std::size_t index,
                                    std::size_t warmup);

/** Identity of a whole sweep: digest of the canonical plan JSON
 *  (which embeds the schema tag, so a schema bump re-keys). */
std::uint64_t sweepPlanDigest(const SweepPlan &plan);

} // namespace stems

#endif // STEMS_STORE_KEYS_HH
