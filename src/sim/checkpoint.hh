/**
 * @file
 * Simulation-state checkpoints: a CRC-framed binary blob capturing a
 * PrefetchSimulator (hierarchy, SVB, timing model, statistics, and
 * the attached engine's complete training state) at a record index,
 * such that restoring it into an identically-constructed simulator
 * and stepping the remaining records is bitwise identical to never
 * having stopped (tests/checkpoint_test.cc pins this per registered
 * engine).
 *
 * Blob layout (little-endian):
 *
 *   offset  0  8-byte magic "STeMSckp"
 *   offset  8  u32 version
 *   offset 12  u64 record index (records stepped before the save)
 *   offset 20  u64 payload byte length
 *   offset 28  u32 CRC-32 of the payload bytes
 *   offset 32  payload: the StateWriter field stream produced by
 *              PrefetchSimulator::saveState
 *
 * The checkpoint convention: a checkpoint "at index i" is taken
 * after records [0, i) were stepped and *before* the warmup
 * measuring flip that record i's iteration would perform — so a
 * resumed run re-executes the flip check for record i exactly like a
 * continuous run does.
 *
 * Encoding has one header routine and two sinks: encodeCheckpoint
 * builds the blob in one buffer (payload after a reserved header),
 * and streamCheckpoint hands the same bytes out in
 * StateWriter::kChunkBytes chunks with the header last, which is how
 * the TraceStore writes a checkpoint file without holding the blob.
 *
 * Decoding is reject-only: magic/version/length/CRC are verified
 * before any simulator mutation, and a structural mismatch inside
 * the payload (wrong geometry, wrong engine shape) fails the load.
 * The TraceStore persists these blobs as its third entry class,
 * beside traces and results, keyed by (engine-spec digest, config
 * digest, record index, state digest), where the state digest
 * combines the trace-prefix digest with the warmup boundary — see
 * store/trace_store.hh.
 */

#ifndef STEMS_SIM_CHECKPOINT_HH
#define STEMS_SIM_CHECKPOINT_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/state_codec.hh"
#include "sim/prefetch_sim.hh"

namespace stems {

/**
 * Checkpoint boundaries over a trace of `trace_size` records:
 * ascending multiples of `checkpoint_every` below the trace end,
 * plus the trace end itself so a follow-up run can extend from the
 * full prefix. The multiples are absolute indices, stable across
 * record counts, which is what lets an extended re-run find a
 * shorter run's checkpoints. `checkpoint_every` 0 yields the trace
 * end alone; an empty trace yields no boundary.
 *
 * THE boundary schedule: every driver lane checkpoints at these
 * indices, in whichever process runs it, so a cell requeued after
 * its worker was lost resumes from the lost worker's last boundary.
 */
std::vector<std::size_t> checkpointBounds(std::size_t trace_size,
                                          std::size_t checkpoint_every);

/**
 * Current checkpoint blob format version.
 *
 * v2: container serialization is key-canonical (unordered_map state
 * is emitted key-sorted), making the payload a pure function of
 * logical simulator state. Two things rely on that: trusted resume
 * serves a blob written by one run (or one distributed worker) to
 * another, so a lane's bytes at a boundary must not depend on how
 * the run got there; and the pinned per-lane digests
 * (tests/checkpoint_test.cc) can only hold while equal states
 * encode to equal bytes.
 */
inline constexpr std::uint32_t kCheckpointVersion = 2;

/**
 * Serialize a simulator into a framed checkpoint blob.
 *
 * @param sim           the simulator to capture (mid-run, before
 *                      finish()).
 * @param record_index  records stepped so far (see file comment).
 */
std::vector<std::uint8_t>
encodeCheckpoint(const PrefetchSimulator &sim,
                 std::uint64_t record_index);

/// Size of the fixed blob header (layout in the file comment).
inline constexpr std::size_t kCheckpointHeaderBytes = 32;

using CheckpointHeader = std::array<std::uint8_t, kCheckpointHeaderBytes>;

/**
 * Stream a framed checkpoint through `sink` without building the
 * blob: the sink first receives a zeroed placeholder header, then
 * the payload in StateWriter::kChunkBytes chunks, with the CRC
 * accumulated on the way.
 *
 * @return the real header. Written over the placeholder (offset 0),
 *         it makes the streamed bytes equal
 *         encodeCheckpoint(sim, record_index).
 */
CheckpointHeader streamCheckpoint(const PrefetchSimulator &sim,
                                  std::uint64_t record_index,
                                  const StateWriter::Sink &sink);

/**
 * Validate a blob's framing (magic, version, length, CRC) without
 * touching any simulator. @return false on any mismatch.
 */
bool checkpointValid(const std::vector<std::uint8_t> &blob);

/**
 * Peek a valid blob's record index. @return false when the framing
 * is invalid.
 */
bool checkpointRecordIndex(const std::vector<std::uint8_t> &blob,
                           std::uint64_t &index_out);

/**
 * Restore a checkpoint into a simulator constructed with the same
 * SimParams and an equivalently-specified engine.
 *
 * Framing is verified before any mutation; on a framing failure the
 * simulator is untouched. A payload-structure failure (possible only
 * under key collisions or code-version skew) can leave the simulator
 * partially mutated — the caller must then discard and rebuild it.
 *
 * @param index_out  receives the blob's record index on success.
 * @return true when the simulator now holds the checkpointed state.
 */
bool decodeCheckpoint(const std::vector<std::uint8_t> &blob,
                      PrefetchSimulator &sim,
                      std::uint64_t *index_out = nullptr);

} // namespace stems

#endif // STEMS_SIM_CHECKPOINT_HH
