/**
 * @file
 * Binary trace file I/O.
 *
 * Two on-disk encodings share the 8-byte magic "STeMStrc":
 *
 *  - v1: fixed 29-byte packed records, followed by a CRC-32 footer
 *    over the record bytes. Simple and seekable.
 *  - v2: delta/varint compressed records with the CRC in the header
 *    (see trace/trace_codec.hh). 3-6x smaller than v1 on the paper
 *    workloads and replayable zero-copy via MmapTraceSource. The
 *    TraceStore persists traces in this encoding.
 *
 * Both are integrity-checked: readTraceFile rejects truncated files,
 * trailing garbage, and payload corruption, and never returns a
 * partial trace as success. readTraceFile detects the version
 * automatically.
 */

#ifndef STEMS_TRACE_TRACE_IO_HH
#define STEMS_TRACE_TRACE_IO_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace stems {

/**
 * Write a trace to a binary file in the v1 (fixed-record) encoding.
 *
 * @return true on success.
 */
bool writeTraceFile(const std::string &path, const Trace &trace);

/**
 * Write a trace in the compact v2 encoding.
 *
 * @return true on success.
 */
bool writeTraceFileV2(const std::string &path, const Trace &trace);

/**
 * Read a trace from a binary file (v1 or v2, auto-detected).
 *
 * @param path  file to read.
 * @param out   receives the records; cleared first. Left in an
 *              unspecified state on failure.
 * @return true on success (magic/version/CRC/length all valid).
 */
bool readTraceFile(const std::string &path, Trace &out);

/**
 * Serialize a trace to the v2 byte representation (header +
 * compressed payload), e.g. for hashing or embedding.
 */
std::vector<std::uint8_t> encodeTraceV2(const Trace &trace);

/**
 * Content digest of a trace: a 64-bit FNV-1a hash over every field
 * of every record in order. Two traces share a digest iff (modulo
 * hash collisions) they are record-for-record identical; the
 * TraceStore keys baseline results by it.
 */
std::uint64_t traceDigest(const Trace &trace);

/**
 * Content digests of several prefixes of one trace, computed in a
 * single pass over the records.
 *
 * @param indices  prefix lengths, ascending, each <= trace.size().
 * @return one digest per index, in order.
 *
 * Unlike traceDigest — which folds the record count in *first* —
 * the prefix digest folds its length in last, so all prefixes share
 * one incremental hash state. Prefix digests are therefore a
 * distinct keyspace from traceDigest values; the checkpoint store
 * keys (store/trace_store.hh) use only prefix digests.
 */
std::vector<std::uint64_t>
tracePrefixDigests(const Trace &trace,
                   const std::vector<std::size_t> &indices);

/**
 * Memo of one trace's prefix digests that resumes hashing: it keeps
 * the running hash state at every index it has hashed, and starts
 * each new index from the nearest lower one. hashTrace() is the one
 * pass that also yields the content digest; asking for the indices of
 * one boundary schedule there, and afterwards for an index just past
 * one of them, hashes each record once. Every value equals
 * tracePrefixDigests(trace, {index})[0]. Thread-safe.
 */
class TracePrefixMemo
{
  public:
    /** Memo over `trace`, which must outlive it and stay unchanged. */
    explicit TracePrefixMemo(const Trace &trace);

    TracePrefixMemo(const TracePrefixMemo &) = delete;
    TracePrefixMemo &operator=(const TracePrefixMemo &) = delete;

    /**
     * Hash every record once, feeding each to the content state and
     * the prefix state in one loop, and keep the prefix state at
     * each of `bounds` (ascending, each <= trace.size()) and at the
     * trace end for digests().
     *
     * @return the content digest, traceDigest(trace).
     */
    std::uint64_t hashTrace(const std::vector<std::size_t> &bounds);

    /** Prefix digests at `indices`, in any order; one per index. */
    std::vector<std::uint64_t>
    digests(const std::vector<std::size_t> &indices);

  private:
    const Trace &trace_;
    std::mutex mutex_;
    /// Running hash state after records [0, index), keyed by index;
    /// always holds index 0.
    std::map<std::size_t, std::uint64_t> states_;
};

} // namespace stems

#endif // STEMS_TRACE_TRACE_IO_HH
