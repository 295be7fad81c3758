#include "store/trace_store.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <tuple>

#include <fcntl.h>
#include <unistd.h>

#include "common/crc32.hh"
#include "common/file_io.hh"
#include "common/parse_number.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sim/checkpoint.hh"
#include "trace/trace_io.hh"

namespace fs = std::filesystem;

namespace stems {

namespace {

/** The store's hit/miss diagnostics, in the process-wide registry
 *  (metrics snapshots, run manifests, the benches' `[store]` line). */
struct StoreMetrics
{
    Counter &traceHit, &traceMiss;
    Counter &resultHit, &resultMiss;
    Counter &ckptHit, &ckptMiss;

    StoreMetrics()
        : traceHit(registry().counter("store.trace.hit")),
          traceMiss(registry().counter("store.trace.miss")),
          resultHit(registry().counter("store.result.hit")),
          resultMiss(registry().counter("store.result.miss")),
          ckptHit(registry().counter("store.ckpt.hit")),
          ckptMiss(registry().counter("store.ckpt.miss"))
    {
    }

    static MetricsRegistry &
    registry()
    {
        return MetricsRegistry::instance();
    }
};

StoreMetrics &
storeMetrics()
{
    static StoreMetrics metrics;
    return metrics;
}

constexpr char kTraceSubdir[] = "traces";
constexpr char kResultSubdir[] = "results";
constexpr char kCheckpointSubdir[] = "checkpoints";
/// Bumped when the trace encoding or key scheme changes, so stale
/// stores miss instead of decoding garbage.
constexpr unsigned kStoreFormatVersion = 2;

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

constexpr char kResultMagic[4] = {'S', 'T', 'R', 'S'};
/// Bumped when StoredEngineResult's serialized layout changes.
constexpr std::uint32_t kResultVersion = 1;

// -- little byte-buffer codec for the variable-length result entries

void
appendBytes(std::vector<std::uint8_t> &buf, const void *data,
            std::size_t len)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    buf.insert(buf.end(), p, p + len);
}

template <typename T>
void
appendScalar(std::vector<std::uint8_t> &buf, T value)
{
    appendBytes(buf, &value, sizeof(value));
}

/** Bounds-checked sequential reader over a result entry's bytes. */
struct ByteReader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;
    bool ok = true;

    template <typename T>
    T
    scalar()
    {
        T value{};
        if (pos + sizeof(T) > size) {
            ok = false;
            return value;
        }
        std::memcpy(&value, data + pos, sizeof(T));
        pos += sizeof(T);
        return value;
    }

    std::string
    str(std::size_t len)
    {
        if (pos + len > size) {
            ok = false;
            return {};
        }
        std::string s(reinterpret_cast<const char *>(data + pos),
                      len);
        pos += len;
        return s;
    }
};

std::vector<std::uint8_t>
encodeResult(const StoredEngineResult &r)
{
    std::vector<std::uint8_t> buf;
    appendBytes(buf, kResultMagic, sizeof(kResultMagic));
    appendScalar<std::uint32_t>(buf, kResultVersion);
    const SimStats &s = r.stats;
    appendScalar<std::uint64_t>(buf, s.records);
    appendScalar<std::uint64_t>(buf, s.reads);
    appendScalar<std::uint64_t>(buf, s.writes);
    appendScalar<std::uint64_t>(buf, s.invalidates);
    appendScalar<std::uint64_t>(buf, s.l1Hits);
    appendScalar<std::uint64_t>(buf, s.l2Hits);
    appendScalar<std::uint64_t>(buf, s.l2PrefetchHits);
    appendScalar<std::uint64_t>(buf, s.svbHits);
    appendScalar<std::uint64_t>(buf, s.offChipReads);
    appendScalar<std::uint64_t>(buf, s.offChipWrites);
    appendScalar<std::uint64_t>(buf, s.prefetchesIssued);
    appendScalar<std::uint64_t>(buf, s.overpredictions);
    appendScalar<double>(buf, s.cycles);
    appendScalar<std::uint64_t>(buf, s.instructions);
    appendScalar<std::uint32_t>(
        buf, static_cast<std::uint32_t>(r.extra.size()));
    for (const auto &kv : r.extra) { // std::map: stable key order
        appendScalar<std::uint32_t>(
            buf, static_cast<std::uint32_t>(kv.first.size()));
        appendBytes(buf, kv.first.data(), kv.first.size());
        appendScalar<double>(buf, kv.second);
    }
    std::uint32_t crc = crc32(buf.data(), buf.size());
    appendScalar<std::uint32_t>(buf, crc);
    return buf;
}

bool
decodeResult(const std::vector<std::uint8_t> &bytes,
             StoredEngineResult &out)
{
    if (bytes.size() < sizeof(kResultMagic) + 2 * sizeof(std::uint32_t))
        return false;
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc,
                bytes.data() + bytes.size() - sizeof(stored_crc),
                sizeof(stored_crc));
    if (crc32(bytes.data(), bytes.size() - sizeof(stored_crc)) !=
        stored_crc)
        return false;
    ByteReader in{bytes.data(), bytes.size() - sizeof(stored_crc)};
    char magic[4];
    std::memcpy(magic, bytes.data(), sizeof(magic));
    in.pos = sizeof(magic);
    if (std::memcmp(magic, kResultMagic, sizeof(magic)) != 0)
        return false;
    if (in.scalar<std::uint32_t>() != kResultVersion)
        return false;
    SimStats &s = out.stats;
    s.records = in.scalar<std::uint64_t>();
    s.reads = in.scalar<std::uint64_t>();
    s.writes = in.scalar<std::uint64_t>();
    s.invalidates = in.scalar<std::uint64_t>();
    s.l1Hits = in.scalar<std::uint64_t>();
    s.l2Hits = in.scalar<std::uint64_t>();
    s.l2PrefetchHits = in.scalar<std::uint64_t>();
    s.svbHits = in.scalar<std::uint64_t>();
    s.offChipReads = in.scalar<std::uint64_t>();
    s.offChipWrites = in.scalar<std::uint64_t>();
    s.prefetchesIssued = in.scalar<std::uint64_t>();
    s.overpredictions = in.scalar<std::uint64_t>();
    s.cycles = in.scalar<double>();
    s.instructions = in.scalar<std::uint64_t>();
    std::uint32_t extras = in.scalar<std::uint32_t>();
    out.extra.clear();
    for (std::uint32_t i = 0; in.ok && i < extras; ++i) {
        std::uint32_t len = in.scalar<std::uint32_t>();
        std::string key = in.str(len);
        double value = in.scalar<double>();
        out.extra.emplace(std::move(key), value);
    }
    return in.ok && in.pos == in.size;
}

/// Process-wide sequence for temp-file names, so two stores in one
/// process (or two lane threads of one store) never share a temp path.
std::atomic<std::uint64_t> tempFileSequence{0};

/**
 * An entry file being written: a uniquely named temp file beside
 * `path` that commit() renames into place. Nothing is visible at
 * `path` before that, so an entry is never rewritten in place; a
 * failed or abandoned write removes the temp file.
 */
class TempFile
{
  public:
    explicit TempFile(const fs::path &path) : path_(path), tmp_(path)
    {
        tmp_ += ".tmp." + std::to_string(::getpid()) + "." +
                std::to_string(tempFileSequence.fetch_add(1));
        fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                     0666);
        ok_ = fd_ >= 0;
    }

    TempFile(const TempFile &) = delete;
    TempFile &operator=(const TempFile &) = delete;

    ~TempFile()
    {
        if (fd_ >= 0)
            ::close(fd_);
        if (!committed_) {
            std::error_code ec;
            fs::remove(tmp_, ec);
        }
    }

    /** False once opening or any write failed. */
    bool ok() const { return ok_; }

    /** Where commit() puts the file. */
    const fs::path &path() const { return path_; }

    /** Append bytes. */
    void
    write(const void *data, std::size_t len)
    {
        writeAt(size_, data, len);
        size_ += len;
    }

    /** Write bytes at `offset`, e.g. a header over its placeholder. */
    void
    writeAt(std::uint64_t offset, const void *data, std::size_t len)
    {
        const auto *p = static_cast<const char *>(data);
        while (ok_ && len > 0) {
            const ssize_t n =
                ::pwrite(fd_, p, len, static_cast<off_t>(offset));
            if (n < 0 && errno == EINTR)
                continue;
            ok_ = n > 0;
            if (ok_) {
                p += n;
                len -= static_cast<std::size_t>(n);
                offset += static_cast<std::uint64_t>(n);
            }
        }
    }

    /** Close and rename into place. @return false on any failure. */
    bool
    commit()
    {
        ok_ = ::close(fd_) == 0 && ok_;
        fd_ = -1;
        if (!ok_)
            return false;
        std::error_code ec;
        fs::rename(tmp_, path_, ec);
        committed_ = !ec;
        return committed_;
    }

  private:
    fs::path path_;
    fs::path tmp_;
    int fd_ = -1;
    std::uint64_t size_ = 0; ///< bytes appended so far
    bool ok_ = false;
    bool committed_ = false;
};

/**
 * Commit a written entry: rename its payload into place, then write
 * its .meta sidecar the same way. Payload first, meta last: the
 * sidecar is the commit record, so a crash between the two leaves
 * no visible entry. The caller holds the store's write mutex.
 */
bool
commitEntry(TempFile &payload, const fs::path &meta_path,
            const std::string &meta)
{
    if (!payload.commit())
        return false;
    TempFile sidecar(meta_path);
    sidecar.write(meta.data(), meta.size());
    if (!sidecar.commit()) {
        std::error_code ec;
        fs::remove(payload.path(), ec);
        return false;
    }
    return true;
}

/** A checkpoint's .meta sidecar text. */
std::string
checkpointMetaText(const StoredCheckpointMeta &meta,
                   std::uint64_t spec_digest,
                   std::uint64_t config_digest,
                   std::uint64_t state_digest)
{
    std::ostringstream ms;
    ms << "workload=" << meta.workload << '\n'
       << "engine=" << meta.engine << '\n'
       << "index=" << meta.index << '\n'
       << "warmup=" << meta.warmup << '\n'
       << "savedAtUnix=" << std::time(nullptr) << '\n'
       << "spec=" << hex16(spec_digest) << '\n'
       << "config=" << hex16(config_digest) << '\n'
       << "state=" << hex16(state_digest) << '\n';
    return ms.str();
}

/**
 * THE `.meta` sidecar reader, for every entry kind: `key=value`
 * lines, each key once. A line without '=' or a repeated key refuses
 * the whole file, so an appended or hand-edited sidecar is never read
 * with its last value winning; the typed getters refuse a value that
 * does not parse whole.
 */
class Sidecar
{
  public:
    /** @return false when the file is missing or malformed. */
    bool
    read(const fs::path &path)
    {
        std::ifstream in(path);
        if (!in)
            return false;
        std::string line;
        while (std::getline(in, line)) {
            const auto eq = line.find('=');
            if (eq == std::string::npos ||
                !fields_.emplace(line.substr(0, eq), line.substr(eq + 1))
                     .second)
                return false;
        }
        return true;
    }

    bool
    text(const char *key, std::string &out) const
    {
        auto it = fields_.find(key);
        if (it == fields_.end())
            return false;
        out = it->second;
        return true;
    }

    /** A decimal field in [0, max] (parseUnsigned). */
    bool
    decimal(const char *key, std::uint64_t &out,
            std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
        const
    {
        auto it = fields_.find(key);
        return it != fields_.end() &&
               parseUnsigned(it->second.c_str(), out, max);
    }

    /** A digest field: exactly the 16 hex digits hex16 writes. */
    bool
    digest(const char *key, std::uint64_t &out) const
    {
        auto it = fields_.find(key);
        if (it == fields_.end() || it->second.size() != 16 ||
            it->second.find_first_not_of("0123456789abcdef") !=
                std::string::npos)
            return false;
        out = std::strtoull(it->second.c_str(), nullptr, 16);
        return true;
    }

    /** A non-negative metric (parseNonNegative). */
    bool
    real(const char *key, double &out) const
    {
        auto it = fields_.find(key);
        return it != fields_.end() &&
               parseNonNegative(it->second.c_str(), out);
    }

  private:
    std::map<std::string, std::string> fields_;
};

std::int64_t
secondsSince(fs::file_time_type t)
{
    auto now = fs::file_time_type::clock::now();
    return std::chrono::duration_cast<std::chrono::seconds>(now - t)
        .count();
}

/** A deletable unit: one entry's payload file and its .meta
 *  sidecar, or one temp file. */
struct EvictableEntry
{
    std::vector<fs::path> files;
    std::uint64_t bytes = 0;
    fs::file_time_type mtime;
};

} // namespace

std::uint64_t
storeDigest(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

TraceStore::TraceStore(std::string dir)
    : TraceStore(std::move(dir), Options())
{
}

TraceStore::TraceStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options)
{
    std::error_code ec;
    fs::create_directories(fs::path(dir_) / kTraceSubdir, ec);
    if (!ec)
        fs::create_directories(fs::path(dir_) / kResultSubdir, ec);
    if (!ec) {
        fs::create_directories(fs::path(dir_) / kCheckpointSubdir,
                               ec);
    }
    usable_ = !ec && fs::is_directory(dir_, ec);
}

std::string
TraceStore::tracePath(const TraceKey &key, bool meta) const
{
    std::ostringstream os;
    os << key.workload << '\n'
       << key.records << '\n'
       << key.seed << '\n'
       << 'v' << kStoreFormatVersion;
    fs::path p = fs::path(dir_) / kTraceSubdir /
                 (hex16(storeDigest(os.str())) +
                  (meta ? ".meta" : ".trc"));
    return p.string();
}

std::string
TraceStore::resultPath(std::uint64_t trace_digest,
                       std::uint64_t spec_digest,
                       std::uint64_t config_digest, bool meta) const
{
    fs::path p = fs::path(dir_) / kResultSubdir /
                 (hex16(trace_digest) + "-" + hex16(spec_digest) +
                  "-" + hex16(config_digest) +
                  (meta ? ".meta" : ".res"));
    return p.string();
}

std::string
TraceStore::checkpointPath(std::uint64_t spec_digest,
                           std::uint64_t config_digest,
                           std::uint64_t record_index,
                           std::uint64_t state_digest,
                           bool meta) const
{
    fs::path p = fs::path(dir_) / kCheckpointSubdir /
                 (hex16(spec_digest) + "-" + hex16(config_digest) +
                  "-" + hex16(record_index) + "-" +
                  hex16(state_digest) +
                  (meta ? ".meta" : ".ckpt"));
    return p.string();
}

void
TraceStore::touch(const std::string &path)
{
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
}

bool
TraceStore::readMeta(const std::string &path, TraceEntryInfo &info)
{
    Sidecar meta;
    return meta.read(path) && meta.text("workload", info.key.workload) &&
           meta.decimal("records", info.key.records) &&
           meta.decimal("seed", info.key.seed) &&
           meta.decimal("count", info.records) &&
           meta.digest("digest", info.digest);
}

std::optional<TraceEntryInfo>
TraceStore::findTrace(const TraceKey &key)
{
    if (!usable_)
        return std::nullopt;
    TraceEntryInfo info;
    if (!readMeta(tracePath(key, /*meta=*/true), info))
        return std::nullopt;
    // Guard against key-hash collisions and hand-edited metas.
    if (info.key.workload != key.workload ||
        info.key.records != key.records || info.key.seed != key.seed)
        return std::nullopt;
    std::error_code ec;
    info.bytes = fs::file_size(tracePath(key, /*meta=*/false), ec);
    if (ec)
        return std::nullopt; // meta without payload: incomplete entry
    return info;
}

bool
TraceStore::loadTrace(const TraceKey &key, Trace &out)
{
    ScopedSpan span("store.trace.get", "store");
    if (span.active())
        span.arg("workload", key.workload);
    const std::string path = tracePath(key, /*meta=*/false);
    if (!usable_ || !readTraceFile(path, out)) {
        storeMetrics().traceMiss.add();
        if (findTrace(key)) {
            // Entry exists but its payload is unreadable/corrupt:
            // drop it so the caller's regeneration can replace it.
            dropTraceEntry(key);
        }
        return false;
    }
    storeMetrics().traceHit.add();
    touch(path);
    return true;
}

void
TraceStore::dropTraceEntry(const TraceKey &key)
{
    std::error_code ec;
    fs::remove(tracePath(key, false), ec);
    fs::remove(tracePath(key, true), ec);
}

std::optional<TraceEntryInfo>
TraceStore::putTrace(const TraceKey &key, const Trace &trace)
{
    return putTrace(key, trace, traceDigest(trace));
}

std::optional<TraceEntryInfo>
TraceStore::putTrace(const TraceKey &key, const Trace &trace,
                     std::uint64_t digest)
{
    ScopedSpan span("store.trace.put", "store");
    if (span.active())
        span.arg("workload", key.workload);
    if (!usable_)
        return std::nullopt;
    std::vector<std::uint8_t> bytes = encodeTraceV2(trace);
    TraceEntryInfo info;
    info.key = key;
    info.digest = digest;
    info.records = trace.size();
    info.bytes = bytes.size();

    std::ostringstream meta;
    meta << "workload=" << key.workload << '\n'
         << "records=" << key.records << '\n'
         << "seed=" << key.seed << '\n'
         << "count=" << info.records << '\n'
         << "digest=" << hex16(info.digest) << '\n';

    TempFile file(tracePath(key, false));
    file.write(bytes.data(), bytes.size());
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (!commitEntry(file, tracePath(key, true), meta.str()))
        return std::nullopt;
    if (options_.sizeBudgetBytes > 0)
        evictLockedWithin(options_.sizeBudgetBytes);
    return info;
}

std::optional<StoredEngineResult>
TraceStore::loadResult(std::uint64_t trace_digest,
                       std::uint64_t spec_digest,
                       std::uint64_t config_digest)
{
    ScopedSpan span("store.result.get", "store");
    if (!usable_) {
        storeMetrics().resultMiss.add();
        return std::nullopt;
    }
    std::string path = resultPath(trace_digest, spec_digest,
                                  config_digest, /*meta=*/false);
    const auto bytes = readFile(path);
    if (!bytes) {
        storeMetrics().resultMiss.add();
        return std::nullopt;
    }
    StoredEngineResult result;
    if (!decodeResult(*bytes, result)) {
        // Corrupt/truncated entry: drop both files so the caller's
        // re-simulation replaces the pair.
        storeMetrics().resultMiss.add();
        std::error_code ec;
        fs::remove(path, ec);
        fs::remove(resultPath(trace_digest, spec_digest,
                              config_digest, /*meta=*/true),
                   ec);
        return std::nullopt;
    }
    storeMetrics().resultHit.add();
    touch(path);
    return result;
}

bool
TraceStore::putResult(std::uint64_t trace_digest,
                      std::uint64_t spec_digest,
                      std::uint64_t config_digest,
                      const StoredEngineResult &result,
                      const StoredResultMeta &meta)
{
    ScopedSpan span("store.result.put", "store");
    if (span.active()) {
        span.arg("workload", meta.workload);
        span.arg("engine", meta.engine);
    }
    if (!usable_)
        return false;
    std::vector<std::uint8_t> bytes = encodeResult(result);

    std::ostringstream ms;
    ms << "workload=" << meta.workload << '\n'
       << "engine=" << meta.engine << '\n'
       << "records=" << meta.records << '\n'
       << "seed=" << meta.seed << '\n'
       << std::setprecision(17) //
       << "coverage=" << meta.coverage << '\n'
       << "accuracy=" << meta.accuracy << '\n'
       << "speedup=" << meta.speedup << '\n'
       << "timing=" << (meta.timing ? 1 : 0) << '\n'
       << "savedAtUnix=" << std::time(nullptr) << '\n'
       << "trace=" << hex16(trace_digest) << '\n'
       << "spec=" << hex16(spec_digest) << '\n'
       << "config=" << hex16(config_digest) << '\n';

    TempFile file(
        resultPath(trace_digest, spec_digest, config_digest, false));
    file.write(bytes.data(), bytes.size());
    std::lock_guard<std::mutex> lock(writeMutex_);
    if (!commitEntry(file,
                     resultPath(trace_digest, spec_digest,
                                config_digest, true),
                     ms.str()))
        return false;
    // No per-put eviction: result entries are a few hundred bytes
    // and a sweep writes one per cell, so scanning the whole store
    // each time would dominate. The driver calls enforceBudget()
    // once per sweep instead.
    return true;
}

bool
TraceStore::putCheckpoint(std::uint64_t spec_digest,
                          std::uint64_t config_digest,
                          std::uint64_t record_index,
                          std::uint64_t state_digest,
                          const std::vector<std::uint8_t> &blob,
                          const StoredCheckpointMeta &meta)
{
    ScopedSpan span("store.ckpt.put", "store");
    if (span.active()) {
        span.arg("workload", meta.workload);
        span.arg("engine", meta.engine);
        span.arg("index", static_cast<std::uint64_t>(meta.index));
        span.arg("bytes", static_cast<std::uint64_t>(blob.size()));
    }
    if (!usable_)
        return false;
    TempFile file(checkpointPath(spec_digest, config_digest,
                                 record_index, state_digest, false));
    file.write(blob.data(), blob.size());
    std::lock_guard<std::mutex> lock(writeMutex_);
    // Like putResult, no per-put eviction scan: the driver calls
    // enforceBudget() once per sweep.
    return commitEntry(file,
                       checkpointPath(spec_digest, config_digest,
                                      record_index, state_digest, true),
                       checkpointMetaText(meta, spec_digest,
                                          config_digest, state_digest));
}

bool
TraceStore::putCheckpoint(std::uint64_t spec_digest,
                          std::uint64_t config_digest,
                          std::uint64_t record_index,
                          std::uint64_t state_digest,
                          const PrefetchSimulator &sim,
                          const StoredCheckpointMeta &meta)
{
    ScopedSpan span("store.ckpt.put", "store");
    if (!usable_)
        return false;
    // Encoding and writing run outside writeMutex_, so lane threads
    // stream their checkpoints concurrently; only the commit locks.
    TempFile file(checkpointPath(spec_digest, config_digest,
                                 record_index, state_digest, false));
    if (!file.ok())
        return false;
    std::uint64_t bytes = 0;
    const CheckpointHeader header = streamCheckpoint(
        sim, record_index,
        [&](const std::uint8_t *data, std::size_t len) {
            file.write(data, len);
            bytes += len;
        });
    file.writeAt(0, header.data(), header.size());
    if (span.active()) {
        span.arg("workload", meta.workload);
        span.arg("engine", meta.engine);
        span.arg("index", static_cast<std::uint64_t>(meta.index));
        span.arg("bytes", bytes);
    }
    std::lock_guard<std::mutex> lock(writeMutex_);
    return commitEntry(file,
                       checkpointPath(spec_digest, config_digest,
                                      record_index, state_digest, true),
                       checkpointMetaText(meta, spec_digest,
                                          config_digest, state_digest));
}

std::optional<VerifiedCheckpoint>
TraceStore::loadCheckpoint(std::uint64_t spec_digest,
                           std::uint64_t config_digest,
                           std::uint64_t record_index,
                           std::uint64_t state_digest)
{
    ScopedSpan span("store.ckpt.get", "store");
    if (span.active())
        span.arg("index", record_index);
    if (!usable_) {
        storeMetrics().ckptMiss.add();
        return std::nullopt;
    }
    std::string path = checkpointPath(spec_digest, config_digest,
                                      record_index, state_digest,
                                      /*meta=*/false);
    auto blob = readFile(path);
    if (!blob) {
        storeMetrics().ckptMiss.add();
        return std::nullopt;
    }
    auto checkpoint = verifyCheckpoint(std::move(*blob));
    if (!checkpoint || checkpoint->recordIndex() != record_index) {
        // Corrupt/truncated/mis-keyed: drop the pair so the caller's
        // cold run rewrites it.
        storeMetrics().ckptMiss.add();
        std::error_code ec;
        fs::remove(path, ec);
        fs::remove(checkpointPath(spec_digest, config_digest,
                                  record_index, state_digest, true),
                   ec);
        return std::nullopt;
    }
    storeMetrics().ckptHit.add();
    touch(path);
    return checkpoint;
}

void
TraceStore::dropCheckpoint(std::uint64_t spec_digest,
                           std::uint64_t config_digest,
                           std::uint64_t record_index,
                           std::uint64_t state_digest)
{
    if (!usable_)
        return;
    std::error_code ec;
    fs::remove(checkpointPath(spec_digest, config_digest,
                              record_index, state_digest, false),
               ec);
    fs::remove(checkpointPath(spec_digest, config_digest,
                              record_index, state_digest, true),
               ec);
}

std::vector<StoredCheckpointKey>
TraceStore::listCheckpoints(std::uint64_t spec_digest,
                            std::uint64_t config_digest)
{
    std::vector<StoredCheckpointKey> keys;
    if (!usable_)
        return keys;
    std::string prefix =
        hex16(spec_digest) + "-" + hex16(config_digest) + "-";
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(
             fs::path(dir_) / kCheckpointSubdir, ec)) {
        if (de.path().extension() != ".ckpt")
            continue;
        std::string stem = de.path().stem().string();
        // Full stem: spec-config-index-state, four hex16 fields.
        if (stem.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (stem.size() != prefix.size() + 16 + 1 + 16)
            continue;
        if (stem[prefix.size() + 16] != '-')
            continue;
        char *end = nullptr;
        std::uint64_t index = std::strtoull(
            stem.c_str() + prefix.size(), &end, 16);
        if (end != stem.c_str() + prefix.size() + 16)
            continue;
        std::uint64_t state = std::strtoull(
            stem.c_str() + prefix.size() + 17, &end, 16);
        if (end != stem.c_str() + stem.size())
            continue;
        keys.push_back(StoredCheckpointKey{index, state});
    }
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

std::uint64_t
TraceStore::enforceBudget()
{
    if (!usable_ || options_.sizeBudgetBytes == 0)
        return 0;
    std::lock_guard<std::mutex> lock(writeMutex_);
    return evictLockedWithin(options_.sizeBudgetBytes);
}

std::vector<StoredResultInfo>
TraceStore::listResults()
{
    std::vector<StoredResultInfo> infos;
    if (!usable_)
        return infos;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(
             fs::path(dir_) / kResultSubdir, ec)) {
        if (de.path().extension() != ".meta")
            continue;
        Sidecar meta;
        StoredResultInfo info;
        std::uint64_t timing = 0, saved = 0;
        if (!meta.read(de.path()) ||
            !meta.text("workload", info.meta.workload) ||
            !meta.text("engine", info.meta.engine) ||
            !meta.decimal("records", info.meta.records) ||
            !meta.decimal("seed", info.meta.seed) ||
            !meta.real("coverage", info.meta.coverage) ||
            !meta.real("accuracy", info.meta.accuracy) ||
            !meta.real("speedup", info.meta.speedup) ||
            !meta.decimal("timing", timing) || timing > 1 ||
            !meta.decimal("savedAtUnix", saved,
                          std::numeric_limits<std::int64_t>::max()) ||
            !meta.digest("trace", info.traceDigest) ||
            !meta.digest("spec", info.specDigest) ||
            !meta.digest("config", info.configDigest) ||
            info.meta.workload.empty() || info.meta.engine.empty())
            continue; // malformed sidecar
        info.meta.timing = timing == 1;
        info.savedAtUnix = static_cast<std::int64_t>(saved);
        fs::path res = de.path();
        res.replace_extension(".res");
        std::error_code fec;
        info.bytes = fs::file_size(res, fec);
        if (fec)
            continue; // sidecar without payload: incomplete entry
        infos.push_back(std::move(info));
    }
    std::sort(infos.begin(), infos.end(),
              [](const StoredResultInfo &a,
                 const StoredResultInfo &b) {
                  if (a.savedAtUnix != b.savedAtUnix)
                      return a.savedAtUnix < b.savedAtUnix;
                  return std::tie(a.meta.workload, a.meta.engine) <
                         std::tie(b.meta.workload, b.meta.engine);
              });
    return infos;
}

std::vector<StoreEntry>
TraceStore::list()
{
    std::vector<StoreEntry> entries;
    if (!usable_)
        return entries;
    std::error_code ec;
    for (const auto &de : fs::directory_iterator(
             fs::path(dir_) / kTraceSubdir, ec)) {
        if (de.path().extension() != ".meta")
            continue;
        TraceEntryInfo info;
        if (!readMeta(de.path().string(), info))
            continue;
        fs::path trc = de.path();
        trc.replace_extension(".trc");
        std::error_code fec;
        StoreEntry e;
        e.kind = StoreEntry::Kind::kTrace;
        e.file = fs::relative(trc, dir_, fec).string();
        std::ostringstream desc;
        desc << info.key.workload << " records=" << info.key.records
             << " seed=" << info.key.seed << " count=" << info.records
             << " digest=" << hex16(info.digest);
        e.description = desc.str();
        e.bytes = fs::file_size(trc, fec);
        if (fec)
            continue;
        e.ageSeconds = secondsSince(fs::last_write_time(trc, fec));
        entries.push_back(std::move(e));
    }
    for (const StoredResultInfo &info : listResults()) {
        std::error_code fec;
        fs::path res =
            fs::path(dir_) / kResultSubdir /
            (hex16(info.traceDigest) + "-" +
             hex16(info.specDigest) + "-" +
             hex16(info.configDigest) + ".res");
        StoreEntry e;
        e.kind = StoreEntry::Kind::kResult;
        e.file = fs::relative(res, dir_, fec).string();
        std::ostringstream desc;
        desc << info.meta.workload << " x " << info.meta.engine
             << " records=" << info.meta.records
             << " seed=" << info.meta.seed
             << (info.meta.timing ? " timed" : "");
        e.description = desc.str();
        e.bytes = info.bytes;
        e.ageSeconds = secondsSince(fs::last_write_time(res, fec));
        if (fec)
            continue;
        entries.push_back(std::move(e));
    }
    for (const auto &de : fs::directory_iterator(
             fs::path(dir_) / kCheckpointSubdir, ec)) {
        if (de.path().extension() != ".ckpt")
            continue;
        Sidecar meta;
        std::string workload, engine;
        std::uint64_t index = 0;
        const bool named =
            meta.read(fs::path(de.path()).replace_extension(".meta")) &&
            meta.text("workload", workload) &&
            meta.text("engine", engine) && meta.decimal("index", index);
        std::error_code fec;
        StoreEntry e;
        e.kind = StoreEntry::Kind::kCheckpoint;
        e.file = fs::relative(de.path(), dir_, fec).string();
        std::ostringstream desc;
        if (named) {
            desc << workload << " x " << engine << " @" << index
                 << " records";
        } else {
            desc << "checkpoint " << de.path().stem().string();
        }
        e.description = desc.str();
        e.bytes = fs::file_size(de.path(), fec);
        if (fec)
            continue;
        e.ageSeconds =
            secondsSince(fs::last_write_time(de.path(), fec));
        entries.push_back(std::move(e));
    }
    std::sort(entries.begin(), entries.end(),
              [](const StoreEntry &a, const StoreEntry &b) {
                  return a.ageSeconds > b.ageSeconds;
              });
    return entries;
}

std::uint64_t
TraceStore::totalBytes()
{
    std::uint64_t total = 0;
    if (!usable_)
        return total;
    for (const char *sub :
         {kTraceSubdir, kResultSubdir, kCheckpointSubdir}) {
        std::error_code ec;
        for (const auto &de :
             fs::directory_iterator(fs::path(dir_) / sub, ec)) {
            std::error_code fec;
            std::uint64_t sz = de.is_regular_file(fec)
                                   ? fs::file_size(de.path(), fec)
                                   : 0;
            if (!fec)
                total += sz;
        }
    }
    return total;
}

std::uint64_t
TraceStore::evictWithin(std::uint64_t budget_bytes)
{
    std::lock_guard<std::mutex> lock(writeMutex_);
    return evictLockedWithin(budget_bytes);
}

std::uint64_t
TraceStore::evictLockedWithin(std::uint64_t budget_bytes)
{
    if (!usable_)
        return 0;

    std::vector<EvictableEntry> units;
    std::uint64_t total = 0;
    std::error_code ec;
    // Every entry kind is a payload/.meta pair, evicted as one unit
    // under the one shared size budget. A temp file is a one-file
    // entry: a writer killed mid-put leaves it behind
    // (<entry>.tmp.<pid>.<seq>, see TempFile), and totalBytes()
    // counts it. A live writer whose temp file is evicted fails its
    // rename, so its put returns false.
    const std::pair<const char *, const char *> paired_kinds[] = {
        {kTraceSubdir, ".trc"},
        {kResultSubdir, ".res"},
        {kCheckpointSubdir, ".ckpt"},
    };
    for (const auto &[subdir, ext] : paired_kinds) {
        for (const auto &de : fs::directory_iterator(
                 fs::path(dir_) / subdir, ec)) {
            const bool temp =
                de.path().filename().string().find(".tmp.") !=
                std::string::npos;
            if (!temp && de.path().extension() != ext)
                continue;
            std::error_code fec;
            EvictableEntry u;
            u.files.push_back(de.path());
            u.bytes = fs::file_size(de.path(), fec);
            u.mtime = fs::last_write_time(de.path(), fec);
            if (fec)
                continue;
            if (!temp) {
                fs::path meta = de.path();
                meta.replace_extension(".meta");
                std::error_code mec;
                std::uint64_t msz = fs::file_size(meta, mec);
                if (!mec) {
                    u.files.push_back(meta);
                    u.bytes += msz;
                }
            }
            total += u.bytes;
            units.push_back(std::move(u));
        }
    }
    if (total <= budget_bytes)
        return 0;

    std::sort(units.begin(), units.end(),
              [](const EvictableEntry &a, const EvictableEntry &b) {
                  return a.mtime < b.mtime;
              });
    std::uint64_t removed = 0;
    for (const EvictableEntry &u : units) {
        if (total - removed <= budget_bytes)
            break;
        for (const fs::path &p : u.files) {
            std::error_code rec;
            fs::remove(p, rec);
        }
        removed += u.bytes;
    }
    return removed;
}

} // namespace stems
