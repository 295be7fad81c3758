/**
 * @file
 * TraceSource: a sequential reader of MemRecords. Its one
 * implementation, MmapTraceSource, replays a v2 trace file straight
 * out of the page cache: the file is mapped read-only and records are
 * decoded incrementally from the mapped bytes. The TraceStore decodes
 * stored traces through it.
 */

#ifndef STEMS_TRACE_TRACE_SOURCE_HH
#define STEMS_TRACE_TRACE_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "trace/trace.hh"
#include "trace/trace_codec.hh"

namespace stems {

/** Sequential, resettable stream of trace records. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Total number of records the source yields. */
    virtual std::size_t size() const = 0;

    /** Rewind to the first record. */
    virtual void reset() = 0;

    /**
     * Produce the next record.
     *
     * @return false at end of stream (out is untouched).
     */
    virtual bool next(MemRecord &out) = 0;

    /** Materialize all remaining records (after a reset: the whole
     *  trace) into a vector. */
    void readAll(Trace &out);
};

/**
 * Zero-copy replay of a v2 trace file through mmap.
 *
 * open() maps the file, validates the header and the payload CRC
 * once, and the source then decodes records on demand from the
 * mapped bytes. Falls back to a private heap buffer when mmap is
 * unavailable.
 */
class MmapTraceSource : public TraceSource
{
  public:
    /**
     * Open a v2 trace file.
     *
     * @return null when the file is missing, not a v2 trace, or
     *         fails the CRC/size checks.
     */
    static std::unique_ptr<MmapTraceSource>
    open(const std::string &path);

    ~MmapTraceSource() override;

    MmapTraceSource(const MmapTraceSource &) = delete;
    MmapTraceSource &operator=(const MmapTraceSource &) = delete;

    std::size_t size() const override { return count_; }
    void reset() override;
    bool next(MemRecord &out) override;

    /** True when the payload is an actual mmap (not the fallback). */
    bool mapped() const { return mapped_; }

  private:
    MmapTraceSource() = default;

    const std::uint8_t *base_ = nullptr; ///< mapping (or buffer) start
    std::size_t mapBytes_ = 0;           ///< mapping length
    bool mapped_ = false;
    const std::uint8_t *payload_ = nullptr;
    const std::uint8_t *payloadEnd_ = nullptr;
    std::size_t count_ = 0;

    const std::uint8_t *cursor_ = nullptr;
    std::size_t produced_ = 0;
    codec::DeltaState state_;
};

} // namespace stems

#endif // STEMS_TRACE_TRACE_SOURCE_HH
