/**
 * @file
 * Open-addressing hash index from 64-bit keys to 64-bit values, for
 * address maps that only ever insert or overwrite.
 *
 * The RMOB and TMS each map a recorded block address to its newest
 * buffer position; a stale entry is detected on lookup (its position
 * left the buffer's window), never erased. That makes a flat table
 * the fit:
 *
 *  - One power-of-two array of (key, value) slots, linear probing
 *    from a multiplicative hash: a lookup is one hashed load plus a
 *    short scan of adjacent slots, not a bucket load and a pointer
 *    chase into a separately allocated node.
 *  - No erase, so no tombstones: a probe ends at the first empty
 *    slot. Empty slots hold kEmptyKey (all ones), which no block
 *    address reaches; loadState rejects it.
 *  - Load factor at most 3/4; the capacity doubles when an insert
 *    would pass it.
 *
 * Slot order depends on insertion history, so saveState emits the
 * entries key-sorted: the same bytes as the key-sorted
 * std::unordered_map encoding this replaced. It sorts with an LSD
 * radix sort over only the key bits that vary; keys are unique, so
 * the order is the comparison sort's. loadState accepts only that
 * order: strictly ascending keys.
 */

#ifndef STEMS_COMMON_FLAT_INDEX_HH
#define STEMS_COMMON_FLAT_INDEX_HH

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stems {

/**
 * Never-erasing flat hash map, uint64 -> uint64.
 */
class FlatIndex
{
  public:
    /** Marks an empty slot; never a key. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t{0};

    /**
     * @param expected  keys to hold without growing: the capacity is
     *                  the smallest power of two keeping that many
     *                  within the load limit.
     */
    explicit FlatIndex(std::size_t expected)
    {
        std::size_t capacity = kMinCapacity;
        while (capacity * kLoadNum < expected * kLoadDen)
            capacity *= 2;
        reset(capacity);
    }

    /** Value stored under a key, or nullptr when absent. */
    const std::uint64_t *
    find(std::uint64_t key) const
    {
        const Slot &s = slots_[probe(key)];
        return s.key == key ? &s.value : nullptr;
    }

    /**
     * Value slot of a key, inserting the key with value 0 when it is
     * absent. The reference stays valid until the next insertion.
     *
     * @param inserted  when given, set to whether the key was new.
     */
    std::uint64_t &
    findOrInsert(std::uint64_t key, bool *inserted = nullptr)
    {
        assert(key != kEmptyKey);
        std::size_t i = probe(key);
        const bool fresh = slots_[i].key != key;
        if (fresh) {
            if ((size_ + 1) * kLoadDen > slots_.size() * kLoadNum) {
                grow();
                i = probe(key);
            }
            slots_[i] = {key, 0};
            ++size_;
        }
        if (inserted)
            *inserted = fresh;
        return slots_[i].value;
    }

    /** Ask the host to start loading the slot a probe for `key`
     *  starts at; no index state changes. */
    void
    prefetch(std::uint64_t key) const
    {
        __builtin_prefetch(&slots_[home(key)]);
    }

    /** Keys held. */
    std::size_t size() const { return size_; }

    /** Slots allocated (a power of two). */
    std::size_t capacity() const { return slots_.size(); }

    /** Serialize: the key count, then (key, value) by ascending key. */
    template <typename Writer>
    void
    saveState(Writer &w) const
    {
        w.u64(size_);
        for (const Slot &s : sortedSlots()) {
            w.u64(s.key);
            w.u64(s.value);
        }
    }

    /** Restore state written by saveState. Fails the reader on a key
     *  not above the one before it (saveState writes strictly
     *  ascending keys, so a duplicate or reordered key is a corrupt
     *  payload), on kEmptyKey, which no slot can hold as a key, and
     *  on any entry `accept(key, value)` refuses (the owner's
     *  invariants). */
    template <typename Reader, typename Accept>
    void
    loadState(Reader &r, Accept &&accept)
    {
        reset(slots_.size());
        const std::uint64_t n = r.u64();
        std::uint64_t prev = 0;
        for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
            const std::uint64_t key = r.u64();
            const std::uint64_t value = r.u64();
            if (!r.ok() || key == kEmptyKey || (i > 0 && key <= prev) ||
                !accept(key, value)) {
                r.fail();
                return;
            }
            prev = key;
            findOrInsert(key) = value;
        }
    }

    /** loadState accepting every entry. */
    template <typename Reader>
    void
    loadState(Reader &r)
    {
        loadState(r, [](std::uint64_t, std::uint64_t) { return true; });
    }

  private:
    struct Slot
    {
        std::uint64_t key;
        std::uint64_t value;
    };

    static constexpr std::size_t kMinCapacity = 16;
    /// Radix sort digit width: 2048 buckets keep a pass's cursors in
    /// L1, and block-address keys (about 35 varying bits) take 4
    /// passes.
    static constexpr unsigned kDigitBits = 11;
    static constexpr std::size_t kBuckets = std::size_t{1} << kDigitBits;
    /// Load limit kLoadNum / kLoadDen.
    static constexpr std::size_t kLoadNum = 3;
    static constexpr std::size_t kLoadDen = 4;

    /** The slot a probe for `key` starts at. */
    std::size_t
    home(std::uint64_t key) const
    {
        // Fibonacci hashing: the multiply folds every key bit into the
        // top bits, which pick the slot. Block addresses share their
        // low bits, so indexing by the key's own low bits would
        // cluster them.
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

    /** The slot holding `key`, else the empty slot ending its run. */
    std::size_t
    probe(std::uint64_t key) const
    {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = home(key);
        while (slots_[i].key != key && slots_[i].key != kEmptyKey)
            i = (i + 1) & mask;
        return i;
    }

    /**
     * The live slots by ascending key: an LSD radix sort, one stable
     * counting pass per kDigitBits-wide digit from the lowest key bit
     * that varies to the highest (bits every key shares cannot
     * reorder anything). The scratch is two arrays of size() slots,
     * freed on return.
     */
    std::vector<Slot>
    sortedSlots() const
    {
        // Compact the live slots without a branch on liveness, which
        // is random across the table and would mispredict, and note
        // which key bits vary.
        std::vector<Slot> live(size_ + 1);
        std::uint64_t ones = 0, zeros = 0;
        std::size_t n = 0;
        for (const Slot &s : slots_) {
            const bool held = s.key != kEmptyKey;
            const std::uint64_t mask = std::uint64_t{0} - held;
            ones |= s.key & mask;
            zeros |= ~s.key & mask;
            live[n] = s;
            n += held;
        }
        live.resize(n);
        const std::uint64_t varying = ones & zeros;
        if (varying == 0) // at most one key
            return live;

        const unsigned low = static_cast<unsigned>(__builtin_ctzll(varying));
        const unsigned high =
            64 - static_cast<unsigned>(__builtin_clzll(varying));
        const unsigned passes = (high - low + kDigitBits - 1) / kDigitBits;
        auto digit = [low](std::uint64_t key, unsigned pass) {
            return static_cast<std::size_t>(
                (key >> (low + pass * kDigitBits)) & (kBuckets - 1));
        };
        // Every pass's digit counts from one scan, turned into each
        // bucket's first output index as its pass starts.
        std::vector<std::array<std::size_t, kBuckets>> next(passes);
        for (const Slot &s : live)
            for (unsigned p = 0; p < passes; ++p)
                ++next[p][digit(s.key, p)];
        std::vector<Slot> out(n);
        for (unsigned p = 0; p < passes; ++p) {
            std::size_t sum = 0;
            for (std::size_t &c : next[p]) {
                const std::size_t count = c;
                c = sum;
                sum += count;
            }
            for (const Slot &s : live)
                out[next[p][digit(s.key, p)]++] = s;
            live.swap(out);
        }
        return live;
    }

    void
    reset(std::size_t capacity)
    {
        slots_.assign(capacity, Slot{kEmptyKey, 0});
        shift_ = 64 - static_cast<unsigned>(__builtin_ctzll(capacity));
        size_ = 0;
    }

    void
    grow()
    {
        std::vector<Slot> old = std::move(slots_);
        reset(old.size() * 2);
        for (const Slot &s : old) {
            if (s.key != kEmptyKey) {
                slots_[probe(s.key)] = s;
                ++size_;
            }
        }
    }

    std::vector<Slot> slots_;
    unsigned shift_ = 0;
    std::size_t size_ = 0;
};

} // namespace stems

#endif // STEMS_COMMON_FLAT_INDEX_HH
