/**
 * @file
 * In-memory access trace plus a builder with dependence bookkeeping.
 */

#ifndef STEMS_TRACE_TRACE_HH
#define STEMS_TRACE_TRACE_HH

#include <cstddef>
#include <vector>

#include "trace/record.hh"

namespace stems {

/** A memory-access trace is an ordered sequence of records. */
using Trace = std::vector<MemRecord>;

/** Aggregate counts over a trace. */
struct TraceSummary
{
    std::size_t records = 0;
    std::size_t reads = 0;
    std::size_t writes = 0;
    std::size_t invalidates = 0;
    std::size_t dependentReads = 0;
    std::size_t distinctBlocks = 0;
    std::size_t distinctRegions = 0;
    std::uint64_t cpuOps = 0;
};

/** Compute aggregate statistics for a trace. */
TraceSummary summarize(const Trace &trace);

/**
 * Incremental trace construction with dependence tracking.
 *
 * The builder keeps the index of the most recent read so that workload
 * generators can express "this load's address came from the previous
 * load" without manual index arithmetic.
 */
class TraceBuilder
{
  public:
    /** Reserve room for `records` records, so that a generator that
     *  stays within it never regrows its trace. */
    void reserve(std::size_t records) { trace_.reserve(records); }

    /** Append a load. @param dep_on_prev_read chain to the last read. */
    void
    read(Addr a, Pc pc, std::uint32_t cpu_ops = 0,
         bool dep_on_prev_read = false)
    {
        MemRecord r;
        r.vaddr = a;
        r.pc = pc;
        r.cpuOps = cpu_ops;
        r.kind = AccessKind::kRead;
        if (dep_on_prev_read && lastRead_ >= 0) {
            r.depDist = static_cast<std::uint32_t>(
                trace_.size() - static_cast<std::size_t>(lastRead_));
        }
        lastRead_ = static_cast<std::ptrdiff_t>(trace_.size());
        trace_.push_back(r);
    }

    /** Append a store. */
    void
    write(Addr a, Pc pc, std::uint32_t cpu_ops = 0)
    {
        MemRecord r;
        r.vaddr = a;
        r.pc = pc;
        r.cpuOps = cpu_ops;
        r.kind = AccessKind::kWrite;
        trace_.push_back(r);
    }

    /** Append a remote invalidation of a block. */
    void
    invalidate(Addr a)
    {
        MemRecord r;
        r.vaddr = a;
        r.kind = AccessKind::kInvalidate;
        trace_.push_back(r);
    }

    /**
     * Append a load whose address was produced by an earlier record
     * (e.g., a gather depending on its index load, not on the
     * previous gather).
     *
     * @param producer_index  index of the producing record, as
     *                        returned by size() before it was added.
     */
    void
    readWithProducer(Addr a, Pc pc, std::uint32_t cpu_ops,
                     std::size_t producer_index)
    {
        MemRecord r;
        r.vaddr = a;
        r.pc = pc;
        r.cpuOps = cpu_ops;
        r.kind = AccessKind::kRead;
        if (producer_index < trace_.size()) {
            r.depDist = static_cast<std::uint32_t>(trace_.size() -
                                                   producer_index);
        }
        lastRead_ = static_cast<std::ptrdiff_t>(trace_.size());
        trace_.push_back(r);
    }

    /** Forget the dependence chain (e.g., at a transaction boundary). */
    void breakChain() { lastRead_ = -1; }

    /** Number of records so far. */
    std::size_t size() const { return trace_.size(); }

    /** Move the finished trace out of the builder. */
    Trace take() { return std::move(trace_); }

    /** Read-only view of the records built so far. */
    const Trace &records() const { return trace_; }

  private:
    Trace trace_;
    std::ptrdiff_t lastRead_ = -1;
};

} // namespace stems

#endif // STEMS_TRACE_TRACE_HH
