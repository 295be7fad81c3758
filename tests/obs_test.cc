/**
 * @file
 * Tests for the observability layer: metrics registry (concurrent
 * counting, histogram bucket edges, snapshot determinism and JSON
 * round-trips), Chrome-trace span collection (JSON validity via
 * parse-back, zero-overhead no-op when detached), run manifests,
 * the leveled logger, and the contract that matters most — sweep
 * results are bitwise identical with observability on or off.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/log.hh"
#include "common/mini_json.hh"
#include "obs/manifest.hh"
#include "obs/metrics.hh"
#include "obs/trace_span.hh"
#include "sim/driver.hh"
#include "test_util.hh"

namespace stems {
namespace {

using test::smallConfig;

// ---- LatencyHistogram ----

TEST(Histogram, BucketEdges)
{
    // Bucket 0 holds exactly the value 0; bucket i (i >= 1) holds
    // [2^(i-1), 2^i). Pin the edges around every boundary.
    EXPECT_EQ(LatencyHistogram::bucketIndex(0), 0);
    EXPECT_EQ(LatencyHistogram::bucketIndex(1), 1);
    EXPECT_EQ(LatencyHistogram::bucketIndex(2), 2);
    EXPECT_EQ(LatencyHistogram::bucketIndex(3), 2);
    EXPECT_EQ(LatencyHistogram::bucketIndex(4), 3);
    EXPECT_EQ(LatencyHistogram::bucketIndex(7), 3);
    EXPECT_EQ(LatencyHistogram::bucketIndex(8), 4);
    EXPECT_EQ(LatencyHistogram::bucketIndex(~std::uint64_t(0)), 64);

    for (int i = 1; i < LatencyHistogram::kBuckets; ++i) {
        std::uint64_t lb = LatencyHistogram::lowerBound(i);
        EXPECT_EQ(LatencyHistogram::bucketIndex(lb), i)
            << "lower bound of bucket " << i;
        EXPECT_EQ(LatencyHistogram::bucketIndex(lb - 1), i - 1)
            << "value below bucket " << i;
    }
    EXPECT_EQ(LatencyHistogram::lowerBound(0), 0u);
}

TEST(Histogram, RecordsCountSumMinMax)
{
    LatencyHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u); // empty histogram reports 0, not ~0
    EXPECT_EQ(h.max(), 0u);

    h.record(100);
    h.record(7);
    h.record(100000);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_EQ(h.sum(), 100107u);
    EXPECT_EQ(h.min(), 7u);
    EXPECT_EQ(h.max(), 100000u);
    EXPECT_EQ(h.bucketCount(LatencyHistogram::bucketIndex(7)), 1u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.min(), 0u);
}

// ---- registry ----

TEST(Metrics, ConcurrentCountersSumExactly)
{
    MetricsRegistry registry;
    constexpr int kThreads = 8;
    constexpr int kIncrements = 10000;
    // Resolve once, hammer from many threads: the sum must be exact.
    Counter &counter = registry.counter("test.concurrent");
    LatencyHistogram &hist = registry.histogram("test.latency");
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kIncrements; ++i) {
                counter.add();
                hist.record(static_cast<std::uint64_t>(t + 1));
            }
        });
    }
    for (auto &thread : threads)
        thread.join();
    EXPECT_EQ(counter.value(),
              std::uint64_t(kThreads) * kIncrements);
    EXPECT_EQ(hist.count(), std::uint64_t(kThreads) * kIncrements);
    EXPECT_EQ(hist.min(), 1u);
    EXPECT_EQ(hist.max(), std::uint64_t(kThreads));
}

TEST(Metrics, SameInstrumentForSameName)
{
    MetricsRegistry registry;
    Counter &a = registry.counter("x");
    Counter &b = registry.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
}

TEST(Metrics, SnapshotJsonDeterministicAndSorted)
{
    MetricsRegistry registry;
    // Insert in non-alphabetical order; the snapshot map sorts.
    registry.counter("z.last").add(1);
    registry.counter("a.first").add(2);
    registry.gauge("m.middle").set(0.5);
    registry.histogram("h.hist").record(42);

    MetricsSnapshot snap = registry.snapshot();
    std::string doc = metricsJson(snap);
    EXPECT_EQ(doc, metricsJson(registry.snapshot()))
        << "equal snapshots must serialize byte-identically";
    EXPECT_LT(doc.find("a.first"), doc.find("z.last"));

    // The document is well-formed JSON with the expected schema.
    JsonParser parser(doc);
    JsonValue root;
    ASSERT_TRUE(parser.parseValue(root)) << parser.error;
    EXPECT_EQ(root.str("schema"), "stems-metrics-v1");
}

TEST(Metrics, JsonRoundTrip)
{
    MetricsRegistry registry;
    registry.counter("c.one").add(123456789012345ull);
    registry.gauge("g.rate").set(3.14159);
    LatencyHistogram &h = registry.histogram("h.ns");
    h.record(0);
    h.record(1000);
    h.record(1500);
    MetricsSnapshot snap = registry.snapshot();

    std::string path =
        test::uniqueTempPath("obs_metrics", ".json");
    std::string error;
    ASSERT_TRUE(writeMetricsJson(path, snap, &error)) << error;

    MetricsSnapshot loaded;
    ASSERT_TRUE(loadMetricsJson(path, loaded, &error)) << error;
    EXPECT_EQ(metricsJson(loaded), metricsJson(snap))
        << "load(write(snap)) must reproduce the document exactly";
    EXPECT_EQ(loaded.counters.at("c.one"), 123456789012345ull);
    EXPECT_EQ(loaded.histograms.at("h.ns").count, 3u);
    EXPECT_EQ(loaded.histograms.at("h.ns").min, 0u);
    EXPECT_EQ(loaded.histograms.at("h.ns").max, 1500u);
    std::remove(path.c_str());
}

TEST(Metrics, MarkdownRendersCountersAndDeltas)
{
    MetricsSnapshot old_snap;
    old_snap.counters["hits"] = 10;
    MetricsSnapshot new_snap;
    new_snap.counters["hits"] = 25;
    new_snap.counters["misses"] = 4;

    std::string plain = renderMetricsMarkdown(new_snap, nullptr);
    EXPECT_NE(plain.find("# Metrics snapshot"), std::string::npos);
    EXPECT_NE(plain.find("`hits` | 25"), std::string::npos);

    std::string delta =
        renderMetricsMarkdown(new_snap, &old_snap);
    EXPECT_NE(delta.find("# Metrics delta"), std::string::npos);
    EXPECT_NE(delta.find("+15"), std::string::npos);
    // `misses` is new: old value renders as 0, delta +4.
    EXPECT_NE(delta.find("`misses` | 0 | 4 | +4"),
              std::string::npos);
}

// ---- spans ----

TEST(Spans, NoopWhenDetached)
{
    SpanCollector collector; // never attached
    {
        ScopedSpan span("unobserved", "test");
        EXPECT_FALSE(span.active());
        span.arg("ignored", std::uint64_t(1));
    }
    EXPECT_EQ(collector.eventCount(), 0u);
    EXPECT_EQ(SpanCollector::active(), nullptr);
}

TEST(Spans, ChromeJsonParsesBack)
{
    SpanCollector collector;
    collector.attach();
    {
        ScopedSpan outer("outer", "test");
        outer.arg("records", std::uint64_t(42));
        outer.arg("workload", std::string("oltp \"q1\""));
        ScopedSpan inner("inner", "test");
    }
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            ScopedSpan span("worker", "test");
        });
    }
    for (auto &thread : threads)
        thread.join();
    collector.detach();
    EXPECT_EQ(collector.eventCount(), 6u);

    std::string doc = collector.chromeJson();
    JsonParser parser(doc);
    JsonValue root;
    ASSERT_TRUE(parser.parseValue(root)) << parser.error;
    const JsonValue *events = root.get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_EQ(events->kind, JsonValue::Kind::kArray);

    std::size_t complete = 0, metadata = 0, with_args = 0;
    for (const JsonValue &event : events->items) {
        ASSERT_EQ(event.kind, JsonValue::Kind::kObject);
        const std::string ph = event.str("ph");
        if (ph == "X") {
            ++complete;
            EXPECT_FALSE(event.str("name").empty());
            EXPECT_NE(event.get("ts"), nullptr);
            EXPECT_NE(event.get("dur"), nullptr);
            if (const JsonValue *args = event.get("args")) {
                if (!args->members.empty())
                    ++with_args;
            }
        } else {
            EXPECT_EQ(ph, "M");
            ++metadata;
        }
    }
    EXPECT_EQ(complete, 6u);
    EXPECT_GE(metadata, 1u) << "thread-name metadata events";
    EXPECT_EQ(with_args, 1u) << "only `outer` carried args";
}

TEST(Spans, DetachStopsCollection)
{
    SpanCollector collector;
    collector.attach();
    { ScopedSpan span("seen", "test"); }
    collector.detach();
    { ScopedSpan span("unseen", "test"); }
    EXPECT_EQ(collector.eventCount(), 1u);
}

// ---- manifest ----

TEST(Manifest, JsonParsesBack)
{
    RunManifest manifest;
    manifest.tool = "obs_test";
    manifest.host = hostNote();
    manifest.config = {{"records", "60000"}, {"seed", "42"}};
    manifest.phaseNs = {{"sweep", 1234567}, {"report", 89}};
    manifest.wallNs = 1234656;
    MetricsRegistry registry;
    registry.counter("c").add(7);
    manifest.metrics = registry.snapshot();

    std::string doc = runManifestJson(manifest);
    JsonParser parser(doc);
    JsonValue root;
    ASSERT_TRUE(parser.parseValue(root)) << parser.error;
    EXPECT_EQ(root.str("schema"), "stems-manifest-v1");
    EXPECT_EQ(root.str("tool"), "obs_test");
    EXPECT_FALSE(root.str("host").empty());
    const JsonValue *phases = root.get("phase_ns");
    ASSERT_NE(phases, nullptr);
    EXPECT_EQ(phases->uint("sweep"), 1234567u);
    const JsonValue *metrics = root.get("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->str("schema"), "stems-metrics-v1");
}

// ---- logger ----

TEST(Log, ThresholdFiltersLevels)
{
    LogLevel saved = logThreshold();
    setLogThreshold(LogLevel::kWarn);
    EXPECT_TRUE(logEnabled(LogLevel::kError));
    EXPECT_TRUE(logEnabled(LogLevel::kWarn));
    EXPECT_FALSE(logEnabled(LogLevel::kInfo));
    EXPECT_FALSE(logEnabled(LogLevel::kDebug));
    setLogThreshold(saved);
}

TEST(Log, ParsesNamesAndNumbers)
{
    LogLevel level = LogLevel::kInfo;
    EXPECT_TRUE(parseLogLevel("error", level));
    EXPECT_EQ(level, LogLevel::kError);
    EXPECT_TRUE(parseLogLevel("3", level));
    EXPECT_EQ(level, LogLevel::kDebug);
    EXPECT_FALSE(parseLogLevel("verbose", level));
    EXPECT_EQ(level, LogLevel::kDebug) << "left untouched on error";
    EXPECT_FALSE(parseLogLevel(nullptr, level));
}

// ---- the identity contract ----

TEST(ObsIdentity, ResultsBitwiseIdenticalUnderObservation)
{
    const std::vector<std::string> workloads{"oltp-db2", "sparse"};
    const auto engines = engineSpecs({"stems", "sms"});

    SweepPlan plan =
        test::configPlan(smallConfig(true, 30000), workloads, 2);
    ExperimentDriver plain;
    const auto expected = plain.run(plan, engines);

    // Same sweep with a span collector attached, the registry hot
    // and the heartbeat ticking: observability must not perturb a
    // single bit. (Heartbeat lines go to stderr at info; silence
    // them so ctest output stays readable.)
    LogLevel saved = logThreshold();
    setLogThreshold(LogLevel::kWarn);
    SpanCollector collector;
    collector.attach();
    plan.heartbeatSeconds = 0.05;
    ExperimentDriver observed;
    const auto actual = observed.run(plan, engines);
    collector.detach();
    setLogThreshold(saved);

    test::expectSameResults(expected, actual);
    EXPECT_GT(collector.eventCount(), 0u)
        << "driver instrumentation should have recorded spans";
}

} // namespace
} // namespace stems
