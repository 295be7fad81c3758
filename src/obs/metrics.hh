/**
 * @file
 * Process-wide, thread-safe metrics registry.
 *
 * Every execution layer (driver, batch simulator, trace store,
 * checkpointing) records into one registry under hierarchical
 * dot-separated names — `store.result.hit`, `driver.pass_ns`,
 * `batch.chunk_ns`, `ckpt.resume.skipped_records` — so a sweep's
 * runtime behaviour has a single source of truth instead of counters
 * hand-threaded through each subsystem. Three instrument kinds:
 *
 *  - Counter: monotonically increasing u64 (lock-free add).
 *  - Gauge: last-written double (set/add).
 *  - LatencyHistogram: power-of-two buckets (one per bit width, 65
 *    total) plus exact count/sum/min/max. Recording is a handful of
 *    relaxed atomics — cheap enough to leave on unconditionally.
 *
 * Instrument references returned by the registry are stable for the
 * registry's lifetime (instruments are never removed), so hot paths
 * can resolve a name once and keep the pointer.
 *
 * Snapshots serialize to JSON with the same conventions as
 * analysis/report: stable (sorted) key order, exact u64 integers,
 * `%.17g` doubles — byte-identical output for identical states.
 * Snapshots never touch stdout; the bitwise-identity contract on
 * sweep output is unaffected by observability being attached.
 */

#ifndef STEMS_OBS_METRICS_HH
#define STEMS_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace stems {

/** Monotonic event counter. */
class Counter
{
  public:
    void
    add(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0, std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-written scalar (e.g. store size, lane count). */
class Gauge
{
  public:
    void
    set(double v)
    {
        value_.store(v, std::memory_order_relaxed);
    }

    double
    value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

    void
    reset()
    {
        value_.store(0.0, std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Latency/size histogram with one bucket per bit width: bucket 0
 * holds the value 0, bucket i (1..64) holds [2^(i-1), 2^i). The
 * power-of-two layout needs no configuration, covers the full u64
 * range, and keeps recording to a few relaxed atomic adds.
 */
class LatencyHistogram
{
  public:
    static constexpr int kBuckets = 65;

    void record(std::uint64_t value);

    std::uint64_t
    count() const
    {
        return count_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    sum() const
    {
        return sum_.load(std::memory_order_relaxed);
    }

    /** Smallest recorded value; 0 when empty. */
    std::uint64_t min() const;

    std::uint64_t
    max() const
    {
        return max_.load(std::memory_order_relaxed);
    }

    std::uint64_t
    bucketCount(int i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /** Inclusive lower bound of bucket i (0, 1, 2, 4, 8, ...). */
    static std::uint64_t lowerBound(int i);

    /** Bucket index for a value (its bit width). */
    static int bucketIndex(std::uint64_t value);

    void reset();

  private:
    std::atomic<std::uint64_t> buckets_[kBuckets] = {};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
    std::atomic<std::uint64_t> min_{~std::uint64_t(0)};
    std::atomic<std::uint64_t> max_{0};
};

/** Point-in-time copy of one histogram, for snapshots/JSON. */
struct HistogramSnapshot
{
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::uint64_t min = 0;
    std::uint64_t max = 0;
    /** Nonzero buckets only, as (inclusive lower bound, count). */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets;

    double
    mean() const
    {
        return count ? static_cast<double>(sum) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

/**
 * Point-in-time copy of a whole registry. std::map keys give the
 * deterministic (sorted) order the JSON writer relies on.
 */
struct MetricsSnapshot
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
    std::map<std::string, HistogramSnapshot> histograms;

    bool
    empty() const
    {
        return counters.empty() && gauges.empty() &&
               histograms.empty();
    }
};

/**
 * Named-instrument registry. Lookup takes a mutex; the returned
 * references stay valid for the registry's lifetime, so per-sweep
 * hot paths resolve once and record lock-free afterwards.
 *
 * `instance()` is the process-wide registry every subsystem records
 * into; separate instances exist for tests.
 */
class MetricsRegistry
{
  public:
    /** The process-wide registry. */
    static MetricsRegistry &instance();

    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    LatencyHistogram &histogram(const std::string &name);

    MetricsSnapshot snapshot() const;

    /** Zero every instrument (names stay registered). Tests and
     *  multi-sweep tools use this between runs. */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<LatencyHistogram>>
        histograms_;
};

/** Snapshot -> JSON document (schema "stems-metrics-v1"),
 *  deterministic byte-for-byte for equal snapshots. */
std::string metricsJson(const MetricsSnapshot &snap);

/** Write metricsJson() to `path`. @return false (with *error set)
 *  on I/O failure. */
bool writeMetricsJson(const std::string &path,
                      const MetricsSnapshot &snap,
                      std::string *error = nullptr);

/** Parse a stems-metrics-v1 document back into a snapshot. */
bool loadMetricsJson(const std::string &path, MetricsSnapshot &out,
                     std::string *error = nullptr);

/** Render one snapshot — or the delta between two — as markdown
 *  (the `stems_report metrics` surface). `old_snap` may be null. */
std::string renderMetricsMarkdown(const MetricsSnapshot &snap,
                                  const MetricsSnapshot *old_snap);

} // namespace stems

#endif // STEMS_OBS_METRICS_HH
