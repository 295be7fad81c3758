/**
 * @file
 * Binary state codec for simulator checkpoints.
 *
 * StateWriter/StateReader are the low-level byte layer under the
 * per-component saveState/loadState methods (sim/checkpoint.hh glues
 * them into CRC-framed checkpoint blobs). The format is a plain
 * little-endian field stream with no self-description: writer and
 * reader must agree on the field sequence, which the per-component
 * `tag()` markers cross-check so a structural mismatch fails fast
 * (reader goes !ok()) instead of mis-decoding into a subtly wrong
 * simulator state.
 *
 * The reader is fully bounds-checked and never throws: any underflow
 * or tag mismatch latches a failure flag, subsequent reads return
 * zero values, and the caller checks ok() once at the end. This is
 * the same "reject, never mis-decode" discipline as the v2 trace
 * codec (trace/trace_codec.hh).
 */

#ifndef STEMS_COMMON_STATE_CODEC_HH
#define STEMS_COMMON_STATE_CODEC_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

namespace stems {

/** Build a section tag from a 4-character mnemonic ("CACH", ...). */
constexpr std::uint32_t
stateTag(char a, char b, char c, char d)
{
    return (static_cast<std::uint32_t>(static_cast<unsigned char>(a))) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(b))
            << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(c))
            << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(d))
            << 24);
}

/**
 * Appends state fields at a cursor into a byte buffer, one memcpy
 * per field.
 *
 * An in-memory writer grows its buffer and hands it over with
 * bytes() or take(). A streaming writer owns one kChunkBytes buffer
 * and passes each full chunk to its sink, and the partial last one
 * on flush(), so a multi-megabyte state never sits in memory whole.
 * Both emit the same byte stream.
 */
class StateWriter
{
  public:
    /// Size of the chunks a streaming writer hands to its sink.
    static constexpr std::size_t kChunkBytes = std::size_t{1} << 20;

    /// Receives a streaming writer's bytes, in order.
    using Sink = std::function<void(const std::uint8_t *, std::size_t)>;

    /**
     * In-memory writer. Its buffer starts with `reserved` zero bytes
     * that the caller fills in once the fields are written (a frame
     * header, say), so the fields need no second buffer.
     */
    explicit StateWriter(std::size_t reserved = 0)
        : buf_(reserved), pos_(reserved)
    {
    }

    /** Streaming writer; call flush() after the last field. */
    explicit StateWriter(Sink sink)
        : sink_(std::move(sink)), buf_(kChunkBytes)
    {
    }

    void
    u8(std::uint8_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    u32(std::uint32_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    u64(std::uint64_t v)
    {
        raw(&v, sizeof(v));
    }

    void
    i64(std::int64_t v)
    {
        raw(&v, sizeof(v));
    }

    /** Bit-exact double (round-trips NaNs and signed zeros). */
    void
    f64(double v)
    {
        raw(&v, sizeof(v));
    }

    void
    boolean(bool v)
    {
        u8(v ? 1 : 0);
    }

    /** Section marker; the reader verifies it. */
    void
    tag(std::uint32_t t)
    {
        u32(t);
    }

    /** Hand a streaming writer's buffered bytes to its sink. */
    void
    flush()
    {
        if (sink_ && pos_ > 0) {
            sink_(buf_.data(), pos_);
            pos_ = 0;
        }
    }

    /**
     * An in-memory writer's bytes so far, reserved prefix included.
     * Trims the buffer's spare tail, so call it after the fields.
     */
    const std::vector<std::uint8_t> &
    bytes() const
    {
        buf_.resize(pos_);
        return buf_;
    }

    /** Hand over an in-memory writer's bytes (see bytes()). */
    std::vector<std::uint8_t>
    take()
    {
        bytes();
        pos_ = 0;
        return std::move(buf_);
    }

  private:
    void
    raw(const void *data, std::size_t len)
    {
        if (len > buf_.size() - pos_)
            return spill(data, len);
        std::memcpy(buf_.data() + pos_, data, len);
        pos_ += len;
    }

    /**
     * Slow path of raw(). A streaming writer fills its chunk with
     * the field's head, passes the chunk on and starts the next one
     * with the tail (fields are at most 8 bytes, far below
     * kChunkBytes); an in-memory writer doubles its buffer.
     */
    void
    spill(const void *data, std::size_t len)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        if (sink_) {
            const std::size_t head = buf_.size() - pos_;
            std::memcpy(buf_.data() + pos_, p, head);
            pos_ += head;
            flush();
            p += head;
            len -= head;
        } else {
            buf_.resize(
                std::max({2 * buf_.size(), pos_ + len, std::size_t{64}}));
        }
        std::memcpy(buf_.data() + pos_, p, len);
        pos_ += len;
    }

    Sink sink_;
    /// Written bytes, then spare room; bytes() trims the spare room.
    mutable std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0; ///< write cursor into buf_
};

/** Bounds-checked sequential reader over a state byte stream. */
class StateReader
{
  public:
    StateReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    std::uint8_t
    u8()
    {
        std::uint8_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    std::int64_t
    i64()
    {
        std::int64_t v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    double
    f64()
    {
        double v = 0;
        raw(&v, sizeof(v));
        return v;
    }

    bool boolean() { return u8() != 0; }

    /** Verify a section marker written by StateWriter::tag. */
    void
    tag(std::uint32_t expect)
    {
        if (u32() != expect)
            fail();
    }

    /** Latch a structural failure (e.g. a size mismatch). */
    void fail() { ok_ = false; }

    /** True while every read so far succeeded. */
    bool ok() const { return ok_; }

    /** True when the whole stream was consumed. */
    bool atEnd() const { return ok_ && pos_ == size_; }

  private:
    void
    raw(void *out, std::size_t len)
    {
        if (!ok_ || len > size_ - pos_) {
            fail();
            std::memset(out, 0, len);
            return;
        }
        std::memcpy(out, data_ + pos_, len);
        pos_ += len;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace stems

#endif // STEMS_COMMON_STATE_CODEC_HH
