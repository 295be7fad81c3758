/**
 * @file
 * Reconstruction engine — paper Section 4.2 and Figure 5.
 *
 * STeMS's key innovation: rebuilding the *total* predicted miss order
 * by interleaving the RMOB's temporal backbone with per-region PST
 * sequences. The initial miss goes to slot 0 of a 256-entry
 * reconstruction buffer; each subsequent RMOB entry advances the
 * temporal cursor by (delta + 1) slots; each PST element of a
 * predicted region advances that region's cursor by (delta + 1)
 * slots from its trigger. Collisions search up to two slots forward
 * or backward (paper: 99% of addresses place within +-2; 92% land in
 * their original slot — the displacement histogram feeds the
 * reconstruction ablation bench).
 */

#ifndef STEMS_CORE_RECONSTRUCTION_HH
#define STEMS_CORE_RECONSTRUCTION_HH

#include <vector>

#include "common/stats.hh"
#include "core/pst.hh"
#include "core/rmob.hh"

namespace stems {

class StateWriter;
class StateReader;

/** Reconstruction configuration (paper defaults). */
struct ReconstructionParams
{
    /// Reconstruction buffer slots.
    std::size_t bufferSlots = 256;
    /// Max displacement searched when a slot is occupied.
    unsigned displacementWindow = 2;
};

/**
 * Rebuilds windows of the predicted total miss order.
 */
class Reconstructor
{
  public:
    /**
     * @param rmob  temporal backbone (not owned).
     * @param pst   spatial sequences (not owned).
     */
    Reconstructor(const RegionMissOrderBuffer &rmob,
                  const PatternSequenceTable &pst,
                  ReconstructionParams params = {});

    /** Result of reconstructing one window. */
    struct Window
    {
        /** Predicted miss order (slot 0 = the initiating miss). */
        std::vector<Addr> sequence;
        /** RMOB position to resume from for the next window. */
        RegionMissOrderBuffer::Position nextPos = 0;
        /** True when the RMOB had an entry at the start position. */
        bool valid = false;
    };

    /** A region whose spatial sequence a window expanded. */
    struct ExpandedRegion
    {
        Addr region = 0;         ///< region base address
        std::uint64_t index = 0; ///< PST index of the sequence
    };

    /**
     * Reconstruct a window starting at an RMOB position. Before the
     * expansion pass it prefetches every backbone entry's PST set.
     *
     * @param start_pos  RMOB position of the stream head.
     */
    Window reconstruct(RegionMissOrderBuffer::Position start_pos);

    /**
     * Every region whose spatial sequence the last reconstruct()
     * expanded, in expansion order — feeds the spatial-only stream
     * check of Section 4.2. Valid until the next call.
     */
    const std::vector<ExpandedRegion> &
    expandedRegions() const
    {
        return expanded_;
    }

    /** Displacement histogram (0 = original slot). */
    Histogram displacements() const;

    /** Addresses dropped because no free slot was within reach. */
    std::uint64_t dropped() const { return dropped_; }

    /** Windows reconstructed (diagnostics). */
    std::uint64_t windows() const { return windows_; }

    /** Serialize the reconstruction statistics (checkpointing). The
     *  RMOB/PST references are wiring; their state is saved by their
     *  owners. */
    void saveState(StateWriter &w) const;

    /** Restore state written by saveState. */
    void loadState(StateReader &r);

  private:
    /** Place an address near a slot; updates displacement stats. */
    bool place(std::vector<Addr> &slots, std::size_t slot, Addr a);

    /** A backbone entry laid down in phase one (see reconstruct). */
    struct Placed
    {
        RmobEntry entry;
        std::size_t slot;
        std::uint64_t index; ///< PST index of its spatial sequence
    };

    /** Expand one backbone entry's spatial sequence into the buffer. */
    void expandSpatial(std::vector<Addr> &slots, const Placed &p);

    /** Displacement of dense count i. */
    std::int64_t bucketOf(std::size_t i) const;

    const RegionMissOrderBuffer &rmob_;
    const PatternSequenceTable &pst_;
    ReconstructionParams params_;
    /// Largest displacement a placement can record: the window,
    /// capped by the buffer (a displaced slot must exist).
    std::size_t reach_;
    /// Placements by displacement d, at index reach_ + d.
    std::vector<std::uint64_t> displacementCounts_;
    std::uint64_t dropped_ = 0;
    std::uint64_t windows_ = 0;
    /// Per-call scratch held as members so repeated reconstructions
    /// reuse capacity instead of reallocating (reconstruct() is on
    /// the per-miss hot path). Contents are dead between calls.
    std::vector<Addr> slotScratch_;
    std::vector<Placed> backboneScratch_;
    std::vector<ExpandedRegion> expanded_;
};

} // namespace stems

#endif // STEMS_CORE_RECONSTRUCTION_HH
