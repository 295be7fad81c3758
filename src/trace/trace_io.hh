/**
 * @file
 * Binary trace file I/O and trace content digests.
 *
 * Traces are stored in the v2 encoding (trace/trace_codec.hh):
 * delta/varint compressed records, 4.0-7.8 bytes/record on the paper
 * workloads, with the payload CRC-32 in a 32-byte header. The store
 * persists traces in it and `stems_trace generate` writes it.
 *
 * readTraceFile is the one way to read a trace, stored or not: one
 * sized read, then one decoder that checks the magic, version 2, the
 * payload length against the file size, the record count against the
 * payload, the CRC, and that exactly `count` records consume exactly
 * the payload. It rejects truncated files, trailing garbage, payload
 * corruption and any other version (the retired fixed-record v1
 * included), and never returns a partial trace as success.
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
 * Write a trace in the compact v2 encoding.
 *
 * @return true on success.
 */
bool writeTraceFileV2(const std::string &path, const Trace &trace);

/**
 * Read a v2 trace file.
 *
 * @param path  file to read.
 * @param out   receives the records; cleared first. Left in an
 *              unspecified state on failure.
 * @return true on success (magic/version/length/count/CRC all valid).
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
