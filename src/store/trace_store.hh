/**
 * @file
 * TraceStore: a persistent, content-addressed on-disk cache of
 * generated traces, per-cell simulation results and mid-trace
 * checkpoints, so the work the parallel ExperimentDriver amortizes
 * *within* a process also survives *across* processes, benches,
 * tools, and CI runs.
 *
 * Layout under the store root:
 *
 *   traces/<key-hash>.trc    v2-encoded trace (trace/trace_codec.hh)
 *   traces/<key-hash>.meta   text metadata: the key fields, the
 *                            record count, and the content digest
 *   results/<trace-digest>-<spec-digest>-<config-digest>.res
 *                            binary cell result (CRC-checked): the
 *                            baseline, stride and engine lanes alike
 *   results/<...same...>.meta
 *                            text sidecar: workload/engine names,
 *                            headline metrics, save timestamp
 *   checkpoints/<spec-digest>-<config-digest>-<record-index>-<state-digest>.ckpt
 *                            mid-trace simulator snapshot
 *                            (sim/checkpoint.hh blob, CRC-framed)
 *   checkpoints/<...same...>.meta
 *                            text sidecar: workload/engine names,
 *                            record index, save timestamp
 *
 * Trace entries are keyed by (workload, records, seed, encoding
 * version) — everything that determines a generated trace's content.
 * Result entries are keyed by the *content digest* of the trace, a
 * digest of the lane (the baseline's fixed identity, or the engine
 * specification: registered name + every EngineOptions override +
 * probe identity; see describeEngineSpec()) and an opaque
 * configuration digest supplied by the caller, so one warm cell of a
 * sweep is exactly one stored result, and an imported external trace
 * gets result caching exactly like a generated one.
 *
 * Checkpoint entries are keyed by the *prefix* of the trace they
 * were taken in, not the whole trace: the state digest combines the
 * content digest of records [0, index) with the warmup boundary (or
 * "pending" when the boundary lies beyond the index). A longer
 * re-generation of the same workload therefore still matches the
 * shorter run's checkpoints over their common prefix — which is what
 * makes extending a sweep's --records simulate only the new suffix
 * (sim/driver.hh checkpointed execution).
 *
 * Writes are atomic (temp file + rename; temp names carry the pid
 * and a process-wide sequence number, so no two writers share one),
 * so concurrent processes and threads sharing a store directory at
 * worst duplicate work, never corrupt entries. No entry is ever
 * rewritten in place. Reads touch the entry mtime; evictWithin() removes
 * oldest-first across every entry kind until the store fits a size
 * budget.
 */

#ifndef STEMS_STORE_TRACE_STORE_HH
#define STEMS_STORE_TRACE_STORE_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "sim/prefetch_sim.hh"
#include "trace/trace.hh"
#include "trace/trace_source.hh"

namespace stems {

/** Identity of a generated trace: everything that determines its
 *  content. For external (imported) traces use the import name as
 *  `workload` with seed 0. */
struct TraceKey
{
    std::string workload;
    std::uint64_t records = 0;
    std::uint64_t seed = 0;
};

/** Metadata of a stored trace entry. */
struct TraceEntryInfo
{
    TraceKey key;
    std::uint64_t digest = 0;  ///< content digest of the records
    std::uint64_t records = 0; ///< actual record count
    std::uint64_t bytes = 0;   ///< encoded size on disk
};

/**
 * One cell's raw simulation output: everything the driver needs to
 * merge the cell without running it. The normalized metrics
 * (coverage, speedup, ...) are recomputed at merge time from these
 * stats plus the reference lanes', so a warm cell is bitwise
 * identical to a cold one.
 */
struct StoredEngineResult
{
    SimStats stats;
    /// Probe-collected extras (EngineResult::extra).
    std::map<std::string, double> extra;
};

/** Human-readable identity written to a result's .meta sidecar. */
struct StoredResultMeta
{
    std::string workload;
    std::string engine; ///< result label
    std::uint64_t records = 0;
    std::uint64_t seed = 0;
    double coverage = 0.0;
    double accuracy = 0.0;
    double speedup = 0.0;
    bool timing = false;
};

/** A result entry as enumerated from the store (`stems_report
 *  history`, `stems_trace cache ls`). */
struct StoredResultInfo
{
    StoredResultMeta meta;
    std::uint64_t traceDigest = 0;
    std::uint64_t specDigest = 0;
    std::uint64_t configDigest = 0;
    std::int64_t savedAtUnix = 0; ///< put-time wall clock
    std::uint64_t bytes = 0;      ///< .res payload size
};

/** Human-readable identity written to a checkpoint's .meta sidecar. */
struct StoredCheckpointMeta
{
    std::string workload;
    std::string engine; ///< cell label ("baseline", "stride", ...)
    std::uint64_t index = 0; ///< records stepped before the save
    std::uint64_t warmup = 0; ///< warmup boundary of the saving run
};

/** One stored checkpoint's (index, state) key under a (spec, config)
 *  pair — what listCheckpoints() parses from entry filenames. */
struct StoredCheckpointKey
{
    std::uint64_t index = 0;       ///< records stepped before save
    std::uint64_t stateDigest = 0; ///< prefix+warmup digest at save
};

/** One row of a store listing (`stems_trace cache ls`). */
struct StoreEntry
{
    enum class Kind
    {
        kTrace,
        kResult,
        kCheckpoint,
    };
    Kind kind = Kind::kTrace;
    std::string file;        ///< path relative to the store root
    std::string description; ///< human-readable key summary
    std::uint64_t bytes = 0;
    std::int64_t ageSeconds = 0; ///< since last touch
};

/** The persistent trace, result and checkpoint cache. Thread-safe. */
class TraceStore
{
  public:
    struct Options
    {
        /// Eviction threshold applied after every put; 0 disables
        /// automatic eviction.
        std::uint64_t sizeBudgetBytes = std::uint64_t{4} << 30;
    };

    /**
     * Open (and create, if needed) a store rooted at `dir`.
     * Construction never throws on I/O problems; a store whose
     * directory cannot be created degrades to a pass-through
     * (every lookup misses, every put fails).
     */
    explicit TraceStore(std::string dir);
    TraceStore(std::string dir, Options options);

    const std::string &dir() const { return dir_; }

    /** True when the root directory exists and is usable. */
    bool usable() const { return usable_; }

    // ---- traces ----

    /**
     * Look up a trace entry's metadata without decoding its records
     * (reads only the small .meta file).
     */
    std::optional<TraceEntryInfo> findTrace(const TraceKey &key);

    /**
     * Load a stored trace into memory. Decodes through the mmap
     * replay source. @return false on miss or a corrupt entry (a
     * corrupt entry is deleted so it can be regenerated).
     */
    bool loadTrace(const TraceKey &key, Trace &out);

    /**
     * Open a stored trace for zero-copy streaming replay without
     * materializing the record vector. @return null on miss/corrupt.
     */
    std::unique_ptr<TraceSource> openTrace(const TraceKey &key);

    /**
     * Persist a trace under a key. Atomic; overwrites any existing
     * entry for the key. @return the entry metadata (with the
     * content digest) on success.
     */
    std::optional<TraceEntryInfo> putTrace(const TraceKey &key,
                                           const Trace &trace);

    // ---- cell results ----

    /**
     * Look up a cached cell. A corrupt or truncated entry is
     * rejected (CRC + bounds checks), deleted, and counted as a
     * miss, so the caller falls back to simulation.
     */
    std::optional<StoredEngineResult>
    loadResult(std::uint64_t trace_digest, std::uint64_t spec_digest,
               std::uint64_t config_digest);

    /**
     * Persist one cell's result plus its human-readable .meta
     * sidecar. Atomic; overwrites any existing entry for the key.
     */
    bool putResult(std::uint64_t trace_digest,
                   std::uint64_t spec_digest,
                   std::uint64_t config_digest,
                   const StoredEngineResult &result,
                   const StoredResultMeta &meta);

    /** Every result entry with a readable sidecar, ordered by save
     *  time (oldest first). */
    std::vector<StoredResultInfo> listResults();

    // ---- checkpoints ----

    /**
     * Persist one mid-trace simulator snapshot plus its sidecar.
     * The blob goes to a uniquely named temp file that is renamed
     * into place, then the .meta sidecar is written (payload first,
     * meta last); only that commit takes the write lock. Overwrites
     * any existing entry for the key; a failed write leaves no file
     * behind and returns false.
     *
     * @param spec_digest    engine-spec digest of the cell.
     * @param config_digest  system/timing config digest.
     * @param record_index   records stepped before the save.
     * @param state_digest   trace-prefix + warmup-boundary digest
     *                       (see the file comment).
     * @param blob           sim/checkpoint.hh encodeCheckpoint bytes.
     */
    bool putCheckpoint(std::uint64_t spec_digest,
                       std::uint64_t config_digest,
                       std::uint64_t record_index,
                       std::uint64_t state_digest,
                       const std::vector<std::uint8_t> &blob,
                       const StoredCheckpointMeta &meta);

    /**
     * Persist a simulator's checkpoint without building its blob:
     * streamCheckpoint (sim/checkpoint.hh) writes a placeholder
     * header and the payload chunks into the temp file, accumulating
     * the CRC, and the real header goes in last, before the rename.
     * The file is byte-identical to putting
     * encodeCheckpoint(sim, record_index); key, commit order and
     * failure handling are the blob overload's. The driver's
     * checkpoint writer calls this from lane threads concurrently.
     */
    bool putCheckpoint(std::uint64_t spec_digest,
                       std::uint64_t config_digest,
                       std::uint64_t record_index,
                       std::uint64_t state_digest,
                       const PrefetchSimulator &sim,
                       const StoredCheckpointMeta &meta);

    /**
     * Load a stored checkpoint blob with one sized read. The blob
     * framing (magic, version, length, CRC) and its record index are
     * verified here; a corrupt or mis-keyed entry is deleted and
     * counted as a miss so the caller falls back to a cold start.
     */
    std::optional<std::vector<std::uint8_t>>
    loadCheckpoint(std::uint64_t spec_digest,
                   std::uint64_t config_digest,
                   std::uint64_t record_index,
                   std::uint64_t state_digest);

    /**
     * Record indices with stored checkpoints for a (spec, config)
     * pair, ascending and de-duplicated across state digests. The
     * caller filters by recomputing each candidate's state digest
     * against its own trace (a foreign workload's entry simply
     * misses on load).
     */
    std::vector<std::uint64_t>
    listCheckpointIndices(std::uint64_t spec_digest,
                          std::uint64_t config_digest);

    /**
     * Every stored (record index, state digest) checkpoint key for a
     * (spec, config) pair, sorted by (index, stateDigest). Unlike
     * listCheckpointIndices this exposes the state digests, letting
     * a caller tell a trusted on-key checkpoint from a stale or
     * foreign-run one without loading any blob. Malformed filenames are skipped; blob
     * integrity is still only checked by loadCheckpoint.
     */
    std::vector<StoredCheckpointKey>
    listCheckpoints(std::uint64_t spec_digest,
                    std::uint64_t config_digest);

    /**
     * Remove a checkpoint pair. Used by the driver when a blob
     * passed the CRC but failed to restore structurally (code skew):
     * dropping it lets the next run rewrite a good entry instead of
     * tripping over the stale one forever.
     */
    void dropCheckpoint(std::uint64_t spec_digest,
                        std::uint64_t config_digest,
                        std::uint64_t record_index,
                        std::uint64_t state_digest);

    // ---- maintenance ----

    /** Every entry currently in the store, oldest first. */
    std::vector<StoreEntry> list();

    /** Total bytes of all entries. */
    std::uint64_t totalBytes();

    /**
     * Evict oldest-touched entries until the store fits
     * `budget_bytes` (each entry's payload/.meta pair counts and is
     * evicted as one unit).
     * @return bytes removed.
     */
    std::uint64_t evictWithin(std::uint64_t budget_bytes);

    /**
     * Evict down to the configured size budget (no-op when the
     * budget is 0/disabled). putTrace applies this automatically;
     * the cheap putResult/putCheckpoint writes do not, so batch
     * writers (the driver, once per sweep) call this when done.
     * @return bytes removed.
     */
    std::uint64_t enforceBudget();

    // ---- diagnostics ----

    std::uint64_t traceHits() const { return traceHits_; }
    std::uint64_t traceMisses() const { return traceMisses_; }
    std::uint64_t resultHits() const { return resultHits_; }
    std::uint64_t resultMisses() const { return resultMisses_; }
    std::uint64_t checkpointHits() const { return checkpointHits_; }
    std::uint64_t
    checkpointMisses() const
    {
        return checkpointMisses_;
    }

  private:
    std::string tracePath(const TraceKey &key, bool meta) const;
    std::string resultPath(std::uint64_t trace_digest,
                           std::uint64_t spec_digest,
                           std::uint64_t config_digest,
                           bool meta) const;
    std::string checkpointPath(std::uint64_t spec_digest,
                               std::uint64_t config_digest,
                               std::uint64_t record_index,
                               std::uint64_t state_digest,
                               bool meta) const;
    /** Parse a .meta file. @return false when missing/malformed. */
    bool readMeta(const std::string &path, TraceEntryInfo &info);
    void touch(const std::string &path);
    void dropTraceEntry(const TraceKey &key);
    /** evictWithin body; caller holds writeMutex_. */
    std::uint64_t evictLockedWithin(std::uint64_t budget_bytes);

    std::string dir_;
    Options options_;
    bool usable_ = false;

    /// Serializes entry commits (renames + sidecars) and eviction
    /// scans; payloads are written to their temp files outside it.
    std::mutex writeMutex_;

    std::atomic<std::uint64_t> traceHits_{0};
    std::atomic<std::uint64_t> traceMisses_{0};
    std::atomic<std::uint64_t> resultHits_{0};
    std::atomic<std::uint64_t> resultMisses_{0};
    std::atomic<std::uint64_t> checkpointHits_{0};
    std::atomic<std::uint64_t> checkpointMisses_{0};
};

/**
 * FNV-1a digest of a key/config string — the store's generic
 * content-address hash for things that are not traces.
 */
std::uint64_t storeDigest(const std::string &text);

} // namespace stems

#endif // STEMS_STORE_TRACE_STORE_HH
