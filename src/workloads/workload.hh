/**
 * @file
 * Workload model base class and the shared building blocks used to
 * synthesize the paper's application suite (Table 1): page allocation,
 * per-PC spatial patterns with stable and unstable offsets, and
 * temporal traversal-sequence libraries with a glitch model.
 *
 * The generators are the repository's substitute for the paper's
 * FLEXUS full-system traces of DB2/Oracle/Apache/Zeus/TPC-H and the
 * scientific codes (see DESIGN.md Section 1). Each generator is tuned
 * so the trace-level statistics the paper reports in Figures 6-8
 * (joint predictability, trigger repetition, intra-generation
 * reordering) land in the reported bands; the prefetcher results
 * (Figures 9-10) then follow from the mechanisms, not from fitting.
 */

#ifndef STEMS_WORKLOADS_WORKLOAD_HH
#define STEMS_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace stems {

/** Application category (paper Table 1 grouping). */
enum class WorkloadClass
{
    kWeb,
    kOltp,
    kDss,
    kScientific,
};

/**
 * A synthetic application: generates memory-access traces with a
 * given seed and approximate length.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short identifier, e.g. "oltp-db2". */
    virtual std::string name() const = 0;

    /** Application category. */
    virtual WorkloadClass workloadClass() const = 0;

    /**
     * Generate a trace.
     *
     * @param seed            deterministic seed; the same (seed,
     *                        target) pair always yields the same trace.
     * @param target_records  approximate number of records to emit
     *                        (generators stop at the first natural
     *                        boundary past the target).
     */
    virtual Trace generate(std::uint64_t seed,
                           std::size_t target_records) const = 0;
};

/**
 * The records a generator reserves for a request of `target_records`,
 * once before its loop: the request plus half again. Generators stop
 * at the first whole transaction or iteration past the target, and
 * from about 1M records up the largest overshoot is sparse's (48% at
 * 1M; ocean's is 18%), so no generator regrows its trace there. A
 * smaller request can outgrow it: one scientific iteration is
 * 169k-492k records.
 */
constexpr std::size_t
generatorReserve(std::size_t target_records)
{
    return target_records + target_records / 2;
}

/** Human-readable label for a workload class. */
std::string workloadClassName(WorkloadClass c);

/**
 * Allocates 2 KB pages at randomized, non-repeating region-aligned
 * addresses, modelling a buffer pool or heap whose pages land wherever
 * the allocator put them (paper Figure 2: "pages may be scattered
 * throughout the buffer pool").
 */
class PageAllocator
{
  public:
    /**
     * @param rng          source of placement randomness.
     * @param space_regions size of the address space, in regions.
     * @param base          lowest address handed out.
     */
    PageAllocator(Rng rng, std::uint64_t space_regions,
                  Addr base = Addr{1} << 32);

    /** Allocate a fresh page; never returns the same page twice. */
    Addr alloc();

    /** Pages allocated so far. */
    std::uint64_t allocated() const { return allocated_; }

  private:
    Rng rng_;
    Addr base_;
    std::uint64_t allocated_ = 0;
    /** log2 of the (power-of-two) region space. */
    unsigned bits_ = 0;
    /** Per-round keys of the Feistel permutation. */
    std::uint64_t roundKeys_[4] = {};

    /** Bijective map counter -> region slot over the 2^bits_ space. */
    std::uint64_t permute(std::uint64_t counter) const;
};

/**
 * A spatial access pattern: the set of block offsets one piece of code
 * touches within a page, in order, split into stable offsets (always
 * accessed) and unstable offsets (accessed probabilistically) -- the
 * structure that motivates the 2-bit counters of paper Section 4.3.
 */
class SpatialPattern
{
  public:
    /**
     * Build a random pattern.
     *
     * @param rng             randomness for choosing offsets.
     * @param stable_blocks   number of always-accessed offsets.
     * @param unstable_blocks number of probabilistic offsets.
     * @param unstable_prob   probability an unstable offset appears in
     *                        a given materialization.
     * @param sequential      lay stable offsets out contiguously from
     *                        offset 0 (scan-style) instead of randomly.
     */
    SpatialPattern(Rng &rng, unsigned stable_blocks,
                   unsigned unstable_blocks, double unstable_prob,
                   bool sequential = false);

    /**
     * Materialize one visit: the ordered offsets to access this time.
     *
     * @param rng           per-visit randomness (unstable draws).
     * @param swap_prob     probability of swapping each adjacent pair
     *                      (intra-page reordering glitches, Figure 8).
     */
    std::vector<unsigned> materialize(Rng &rng,
                                      double swap_prob = 0.0) const;

    /** The stable offsets in pattern order. */
    const std::vector<unsigned> &stableOffsets() const
    {
        return stable_;
    }

  private:
    std::vector<unsigned> stable_;
    std::vector<unsigned> unstable_;
    double unstableProb_;
};

/**
 * A library of temporal traversal sequences over a pool of pages,
 * with recency-biased selection and a glitch model (skips, insertions,
 * substitutions) so the miss sequence repeats imperfectly, as observed
 * for commercial workloads (paper Section 5.5).
 */
class SequenceLibrary
{
  public:
    /** Glitch probabilities applied per element on each replay. */
    struct GlitchModel
    {
        double skip = 0.0;    ///< drop this element
        double insert = 0.0;  ///< insert a random hot page before it
        double replace = 0.0; ///< replace with a random hot page
    };

    /**
     * Build a library.
     *
     * @param rng        randomness for construction.
     * @param num_pages  size of the hot-page pool the sequences index.
     * @param num_seqs   number of distinct traversal sequences.
     * @param min_len    minimum sequence length (pages).
     * @param max_len    maximum sequence length (pages).
     */
    SequenceLibrary(Rng &rng, std::size_t num_pages,
                    std::size_t num_seqs, std::size_t min_len,
                    std::size_t max_len);

    /**
     * Pick a sequence index with recency bias: recently replayed
     * sequences are more likely to be picked again.
     */
    std::size_t pick(Rng &rng);

    /**
     * Replay a sequence through the glitch model.
     *
     * @return the page-pool indices to visit, in order.
     */
    std::vector<std::uint32_t> replay(std::size_t seq_index, Rng &rng,
                                      const GlitchModel &glitches);

    /** Number of sequences in the library. */
    std::size_t size() const { return sequences_.size(); }

  private:
    std::size_t numPages_;
    std::vector<std::vector<std::uint32_t>> sequences_;
    std::vector<std::size_t> recent_; ///< small MRU list of indices
};

} // namespace stems

#endif // STEMS_WORKLOADS_WORKLOAD_HH
