#include "net/protocol.hh"

#include "common/state_codec.hh"

namespace stems {

namespace {

constexpr std::uint32_t kHelloTag = stateTag('N', 'H', 'L', 'O');
constexpr std::uint32_t kPlanTag = stateTag('N', 'P', 'L', 'N');
constexpr std::uint32_t kPlanAckTag = stateTag('N', 'P', 'A', 'K');
// Each unit payload layout gets a fresh tag (v1 used 'NUNT', v2-v4
// 'NUN2' with a record range), so an older decoder rejects a newer
// layout outright instead of mis-reading a prefix of it.
constexpr std::uint32_t kUnitTag = stateTag('N', 'U', 'N', '3');
constexpr std::uint32_t kUnitDoneTag = stateTag('N', 'U', 'D', 'N');

/** Plan JSON is small; anything near the frame cap is hostile. */
constexpr std::size_t kMaxStringBytes = 4u << 20;

void
writeString(StateWriter &w, const std::string &s)
{
    w.u64(s.size());
    for (char c : s)
        w.u8(static_cast<std::uint8_t>(c));
}

std::string
readString(StateReader &r, std::size_t limit = kMaxStringBytes)
{
    std::uint64_t n = r.u64();
    if (n > limit) {
        r.fail();
        return {};
    }
    std::string s;
    s.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && r.ok(); ++i)
        s.push_back(static_cast<char>(r.u8()));
    return r.ok() ? s : std::string();
}

} // namespace

std::vector<std::uint8_t>
encodeHello(const HelloMsg &msg)
{
    StateWriter w;
    w.tag(kHelloTag);
    w.u32(msg.version);
    w.u64(msg.sessionId);
    return w.take();
}

bool
decodeHello(const std::vector<std::uint8_t> &bytes, HelloMsg &out)
{
    StateReader r(bytes.data(), bytes.size());
    r.tag(kHelloTag);
    out.version = r.u32();
    if (r.atEnd()) {
        // The v1 form stopped here. Decoding it (session 0) is what
        // lets the coordinator *read* an old peer's Hello and
        // refuse it with a polite kMsgBye instead of dropping the
        // socket mid-handshake.
        out.sessionId = 0;
        return true;
    }
    out.sessionId = r.u64();
    return r.atEnd();
}

std::vector<std::uint8_t>
encodePlanMsg(const PlanMsg &msg)
{
    StateWriter w;
    w.tag(kPlanTag);
    w.u64(msg.planDigest);
    writeString(w, msg.planJson);
    w.u64(msg.sessionId);
    return w.take();
}

bool
decodePlanMsg(const std::vector<std::uint8_t> &bytes, PlanMsg &out)
{
    StateReader r(bytes.data(), bytes.size());
    r.tag(kPlanTag);
    out.planDigest = r.u64();
    out.planJson = readString(r);
    out.sessionId = r.u64();
    return r.atEnd();
}

std::vector<std::uint8_t>
encodePlanAck(const PlanAckMsg &msg)
{
    StateWriter w;
    w.tag(kPlanAckTag);
    w.u64(msg.planDigest);
    return w.take();
}

bool
decodePlanAck(const std::vector<std::uint8_t> &bytes,
              PlanAckMsg &out)
{
    StateReader r(bytes.data(), bytes.size());
    r.tag(kPlanAckTag);
    out.planDigest = r.u64();
    return r.atEnd();
}

std::vector<std::uint8_t>
encodeUnit(const UnitMsg &msg)
{
    StateWriter w;
    w.tag(kUnitTag);
    w.u64(msg.unitIndex);
    writeString(w, msg.workload);
    w.u8(static_cast<std::uint8_t>(msg.kind));
    // Columns are small signed values; bias by one so the baseline
    // column (-1) encodes as 0 and the codec stays unsigned.
    w.u64(static_cast<std::uint64_t>(
        static_cast<std::int64_t>(msg.column) + 1));
    writeString(w, msg.prefetchWorkload);
    return w.take();
}

bool
decodeUnit(const std::vector<std::uint8_t> &bytes, UnitMsg &out)
{
    StateReader r(bytes.data(), bytes.size());
    r.tag(kUnitTag);
    out.unitIndex = r.u64();
    out.workload = readString(r, 64u << 10);
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(UnitGranularity::kCell)) {
        r.fail();
        return false;
    }
    out.kind = static_cast<UnitGranularity>(kind);
    const std::uint64_t column = r.u64();
    if (column > static_cast<std::uint64_t>(INT32_MAX)) {
        r.fail();
        return false;
    }
    out.column =
        static_cast<std::int32_t>(static_cast<std::int64_t>(column) -
                                  1);
    out.prefetchWorkload = readString(r, 64u << 10);
    return r.atEnd();
}

std::vector<std::uint8_t>
encodeUnitDone(const UnitDoneMsg &msg)
{
    StateWriter w;
    w.tag(kUnitDoneTag);
    w.u64(msg.unitIndex);
    return w.take();
}

bool
decodeUnitDone(const std::vector<std::uint8_t> &bytes,
               UnitDoneMsg &out)
{
    StateReader r(bytes.data(), bytes.size());
    r.tag(kUnitDoneTag);
    out.unitIndex = r.u64();
    return r.atEnd();
}

} // namespace stems
