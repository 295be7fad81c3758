/**
 * @file
 * Sweep-service protocol: the messages exchanged between
 * `stems_trace serve` (coordinator) and `stems_trace worker`.
 *
 * The protocol is a pull model over the content-addressed store:
 * the wire carries only control traffic, the store directory is the
 * data plane. A worker connects, proves version compatibility
 * (kHello; a coordinator answers a mismatched version with kBye and
 * closes — old peers are rejected cleanly, never mis-served),
 * receives the full declarative SweepPlan as canonical JSON plus
 * its digest and a coordinator-assigned session id (kPlan,
 * acknowledged by echoing the digest in kPlanAck), then loops
 * requesting work units (kRequestUnit -> kUnit). A unit is one of
 * two granularities (net/units.hh): a whole workload row or one
 * (workload, engine-column) cell; executing it runs the same driver
 * lane path a local sweep uses, persisting checkpoints and results
 * into the shared store. kUnitDone reports completion; when every
 * unit of the plan is complete the coordinator answers pending
 * requests with kBye.
 *
 * Lost workers: a unit whose worker's connection dies is requeued
 * at once. Whoever runs it next resumes each lane from the newest
 * trusted checkpoint in the shared store, so the lost worker's
 * committed checkpoints are reused, not redone. A worker that
 * reconnects repeats kHello with the session id it was given and
 * asks for fresh work like any other.
 *
 * Determinism: because workers only ever *populate* the store —
 * under exactly the keys a single-process sweep would use — the
 * coordinator's merge is a plain local run of the same plan over
 * the now-warm store, which makes the distributed result bitwise
 * identical to the single-process one by construction, regardless
 * of worker count, unit granularity, scheduling, or mid-sweep
 * worker loss (a lost unit is requeued; re-execution writes the
 * same bytes).
 *
 * Payload encodings use common/state_codec.hh with the same
 * bounds-checked "reject, never mis-decode" discipline as the
 * checkpoint codec; the frame layer (net/frame.hh) already
 * CRC-protects every message. Each kUnit payload layout has its
 * own payload tag, so an older decoder rejects a newer layout
 * outright instead of reading a prefix of it.
 */

#ifndef STEMS_NET_PROTOCOL_HH
#define STEMS_NET_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep_plan.hh"

namespace stems {

/** Bumped on any wire-visible change; kHello carries it.
 *  v2: session ids, session resume, tagged multi-granularity
 *  units with a prefetch hint.
 *  v3: the plan payload lost two execution-policy fields
 *  (SweepPlan schema v2).
 *  v4: the plan payload lost `batch` (SweepPlan schema v3).
 *  v5: segment units and session resume are gone: the unit payload
 *  lost its record range, and message types 8 and 9 are retired. */
inline constexpr std::uint32_t kNetProtocolVersion = 5;

/** Frame types (net/frame.hh `type` field). */
enum NetMsg : std::uint32_t
{
    kMsgHello = 1,       ///< worker -> coord: version + session id
    kMsgPlan = 2,        ///< coord -> worker: plan JSON + digest
    kMsgPlanAck = 3,     ///< worker -> coord: echoes plan digest
    kMsgRequestUnit = 4, ///< worker -> coord: give me work
    kMsgUnit = 5,        ///< coord -> worker: one work unit
    kMsgUnitDone = 6,    ///< worker -> coord: unit completed
    kMsgBye = 7,         ///< coord -> worker: sweep finished (or
                         ///< version refused, at the Hello stage)
};

/** kMsgHello payload. A returning worker repeats the session id the
 *  coordinator assigned it (kMsgPlan); 0 asks for a fresh one. The
 *  v1 form (version only) still decodes — the coordinator must read
 *  an old peer's Hello to refuse it politely. */
struct HelloMsg
{
    std::uint32_t version = kNetProtocolVersion;
    std::uint64_t sessionId = 0;
};

/** kMsgPlan payload: the canonical plan JSON plus its digest
 *  (store/keys.hh sweepPlanDigest) so the worker can verify the
 *  text it parsed is the plan the coordinator is running, and the
 *  session id this connection is registered under. */
struct PlanMsg
{
    std::uint64_t planDigest = 0;
    std::string planJson;
    std::uint64_t sessionId = 0;
};

/** kMsgPlanAck payload. */
struct PlanAckMsg
{
    std::uint64_t planDigest = 0;
};

/** kMsgUnit payload: one work unit (net/units.hh), plus a prefetch
 *  hint — the workload of the next unit the coordinator expects to
 *  hand out, which the worker may materialize into the store in the
 *  background while this unit simulates (empty = no hint). */
struct UnitMsg
{
    std::uint64_t unitIndex = 0;
    std::string workload;
    UnitGranularity kind = UnitGranularity::kWorkload;
    /// Engine column (cell units): -1 = the baseline column, >= 0
    /// indexes the plan's engine list.
    std::int32_t column = -1;
    std::string prefetchWorkload;
};

/** kMsgUnitDone payload. */
struct UnitDoneMsg
{
    std::uint64_t unitIndex = 0;
};

std::vector<std::uint8_t> encodeHello(const HelloMsg &msg);
bool decodeHello(const std::vector<std::uint8_t> &bytes,
                 HelloMsg &out);

std::vector<std::uint8_t> encodePlanMsg(const PlanMsg &msg);
bool decodePlanMsg(const std::vector<std::uint8_t> &bytes,
                   PlanMsg &out);

std::vector<std::uint8_t> encodePlanAck(const PlanAckMsg &msg);
bool decodePlanAck(const std::vector<std::uint8_t> &bytes,
                   PlanAckMsg &out);

std::vector<std::uint8_t> encodeUnit(const UnitMsg &msg);
bool decodeUnit(const std::vector<std::uint8_t> &bytes,
                UnitMsg &out);

std::vector<std::uint8_t> encodeUnitDone(const UnitDoneMsg &msg);
bool decodeUnitDone(const std::vector<std::uint8_t> &bytes,
                    UnitDoneMsg &out);

} // namespace stems

#endif // STEMS_NET_PROTOCOL_HH
