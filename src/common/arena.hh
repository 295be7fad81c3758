/**
 * @file
 * Allocation-avoidance primitives for the engine hot paths.
 *
 * Per-component profiling showed the per-record cost of the
 * STeMS engines is dominated not by hashing or arithmetic but by heap
 * churn: every AGT generation carried a std::vector for its spatial
 * sequence, and every stream start built fresh scratch vectors. Two
 * small tools remove that:
 *
 *  - InlineVec<T, N>: a fixed-capacity vector whose storage is inline
 *    in the object. Bounded predictor state (an AGT generation records
 *    at most one element per region block offset, so its sequence is
 *    <= kBlocksPerRegion) fits a hard compile-time cap, and the
 *    container then allocates nothing, copies with memcpy-class cost,
 *    and keeps the elements on the same cache lines as the rest of
 *    the entry.
 *
 *  - ScratchPool<T>: recycles std::vector<T> buffers between uses.
 *    Call sites that genuinely need unbounded scratch (stream-start
 *    address lists, reconstruction backbones) borrow a vector, fill
 *    it, and return it; after warm-up the pool reaches a steady state
 *    where no use allocates.
 *
 * Lifetime rules: InlineVec owns its elements like any value type.
 * A ScratchPool::Handle must not outlive its pool, and the borrowed
 * vector is cleared on release but keeps its capacity — that retained
 * capacity IS the optimization, so pools should be long-lived members
 * of the engine that uses them.
 */

#ifndef STEMS_COMMON_ARENA_HH
#define STEMS_COMMON_ARENA_HH

#include <cassert>
#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace stems {

/**
 * std::allocator stand-in returning storage aligned to `Align` bytes,
 * for arrays of fixed-size blocks that must not straddle host cache
 * lines (the cache model's 128 B set blocks).
 */
template <typename T, std::size_t Align>
struct AlignedAllocator
{
    using value_type = T;

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    AlignedAllocator() = default;

    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(Align)));
    }

    void
    deallocate(T *p, std::size_t)
    {
        ::operator delete(p, std::align_val_t(Align));
    }

    template <typename U>
    bool
    operator==(const AlignedAllocator<U, Align> &) const
    {
        return true;
    }

    template <typename U>
    bool
    operator!=(const AlignedAllocator<U, Align> &) const
    {
        return false;
    }
};

/**
 * Fixed-capacity vector with inline storage and no heap use.
 *
 * Only the first size() elements are meaningful; the rest are
 * default-constructed padding so the container stays trivially
 * copyable for trivially-copyable T (which keeps LruTable value
 * moves cheap).
 *
 * @tparam T  element type (default-constructible, copyable).
 * @tparam N  compile-time capacity.
 */
template <typename T, std::size_t N>
class InlineVec
{
  public:
    using value_type = T;

    InlineVec() = default;

    /** Append; capacity overflow is a programming error (assert). */
    void
    push_back(const T &v)
    {
        assert(size_ < N);
        elems_[size_++] = v;
    }

    /** Construct-in-place append. */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        assert(size_ < N);
        elems_[size_] = T(std::forward<Args>(args)...);
        return elems_[size_++];
    }

    void clear() { size_ = 0; }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    static constexpr std::size_t capacity() { return N; }
    bool full() const { return size_ == N; }

    T &operator[](std::size_t i)
    {
        assert(i < size_);
        return elems_[i];
    }
    const T &operator[](std::size_t i) const
    {
        assert(i < size_);
        return elems_[i];
    }

    T &back()
    {
        assert(size_ > 0);
        return elems_[size_ - 1];
    }
    const T &back() const
    {
        assert(size_ > 0);
        return elems_[size_ - 1];
    }

    T *begin() { return elems_; }
    T *end() { return elems_ + size_; }
    const T *begin() const { return elems_; }
    const T *end() const { return elems_ + size_; }
    T *data() { return elems_; }
    const T *data() const { return elems_; }

  private:
    T elems_[N] = {};
    std::size_t size_ = 0;
};

/**
 * Free-list of recycled std::vector<T> scratch buffers.
 *
 * acquire() returns a RAII handle over an empty vector (possibly with
 * retained capacity from an earlier use); the vector returns to the
 * free list when the handle dies.
 */
template <typename T>
class ScratchPool
{
  public:
    /** Borrowed vector; returns to the pool on destruction. */
    class Handle
    {
      public:
        Handle(ScratchPool &pool, std::vector<T> &&buf)
            : pool_(&pool), buf_(std::move(buf))
        {
        }
        Handle(Handle &&other) noexcept
            : pool_(other.pool_), buf_(std::move(other.buf_))
        {
            other.pool_ = nullptr;
        }
        Handle(const Handle &) = delete;
        Handle &operator=(const Handle &) = delete;
        Handle &operator=(Handle &&) = delete;

        ~Handle()
        {
            if (pool_)
                pool_->release(std::move(buf_));
        }

        std::vector<T> &operator*() { return buf_; }
        std::vector<T> *operator->() { return &buf_; }
        std::vector<T> &get() { return buf_; }

      private:
        ScratchPool *pool_;
        std::vector<T> buf_;
    };

    /** Borrow an empty vector (capacity retained from past uses). */
    Handle
    acquire()
    {
        if (free_.empty())
            return Handle(*this, std::vector<T>());
        std::vector<T> buf = std::move(free_.back());
        free_.pop_back();
        return Handle(*this, std::move(buf));
    }

    /** Buffers currently resting in the pool (diagnostics/tests). */
    std::size_t idle() const { return free_.size(); }

  private:
    friend class Handle;

    void
    release(std::vector<T> &&buf)
    {
        buf.clear();
        free_.push_back(std::move(buf));
    }

    std::vector<std::vector<T>> free_;
};

} // namespace stems

#endif // STEMS_COMMON_ARENA_HH
