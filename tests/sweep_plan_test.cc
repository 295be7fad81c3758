/**
 * @file
 * SweepPlan contract tests: the canonical JSON form round-trips
 * byte-identically (the property the wire digest check and the
 * plan-file workflow rest on), the binary form round-trips without
 * mis-decoding, unknown fields and schema drift are rejected (a v1
 * document included), the plan digest is pinned, and
 * ExperimentDriver::run(plan) reproduces run(workloads, engines)
 * bitwise.
 */

#include <gtest/gtest.h>

#include "sim/driver.hh"
#include "sim/sweep_plan.hh"
#include "store/keys.hh"
#include "test_util.hh"

namespace stems {
namespace {

/** A plan exercising every field away from its default. */
SweepPlan
fullPlan()
{
    SweepPlan plan;
    plan.workloads = {"oltp-db2", "web-apache"};
    PlanEngine tms{"tms", "", {}};
    PlanEngine deep{"stems", "stems-la24", {}};
    deep.options.lookahead = 24;
    deep.options.bufferEntries = 128 * 1024;
    deep.options.streamQueues = 4;
    deep.options.displacementWindow = 1;
    deep.options.smsUseCounters = false;
    deep.options.scientific = true;
    plan.engines = {tms, deep};
    plan.records = 123'456;
    plan.seed = 7;
    plan.warmupFraction = 0.25;
    plan.warmupRecords = 10'000;
    plan.timing = true;
    plan.jobs = 3;
    plan.batch = false;
    plan.checkpointEvery = 5'000;
    plan.heartbeatSeconds = 1.5;
    plan.unitGranularity = UnitGranularity::kSegment;
    return plan;
}

TEST(SweepPlanJson, RoundTripsByteIdentically)
{
    const SweepPlan plan = fullPlan();
    const std::string first = sweepPlanJson(plan);
    SweepPlan reparsed;
    std::string error;
    ASSERT_TRUE(parseSweepPlanJson(first, reparsed, &error))
        << error;
    EXPECT_EQ(first, sweepPlanJson(reparsed));
}

TEST(SweepPlanJson, DefaultPlanRoundTripsByteIdentically)
{
    const SweepPlan plan; // all defaults, empty arrays
    const std::string first = sweepPlanJson(plan);
    SweepPlan reparsed;
    ASSERT_TRUE(parseSweepPlanJson(first, reparsed));
    EXPECT_EQ(first, sweepPlanJson(reparsed));
}

TEST(SweepPlanJson, DigestIsPinned)
{
    // Pinned across releases: a digest change means the canonical
    // JSON changed, which invalidates every wire/plan-file digest
    // comparison in flight. Bump deliberately or not at all (last
    // re-pinned for schema v2).
    SweepPlan plan;
    plan.workloads = {"oltp-db2"};
    plan.engines = {PlanEngine{"stems", "", {}}};
    plan.records = 100'000;
    const std::uint64_t digest = sweepPlanDigest(plan);
    EXPECT_EQ(digest, sweepPlanDigest(plan)) << "digest unstable";
    EXPECT_EQ(digest, UINT64_C(0x62be20d12ebb72cd));
}

TEST(SweepPlanJson, RejectsUnknownFields)
{
    const std::string base = sweepPlanJson(fullPlan());
    SweepPlan out;

    // Top level.
    std::string doctored = base;
    doctored.replace(doctored.find("\"batch\""), 7,
                     "\"zzz\": 1,\n  \"batch\"");
    EXPECT_FALSE(parseSweepPlanJson(doctored, out));

    // Engine level.
    doctored = base;
    doctored.replace(doctored.find("\"engine\""), 8,
                     "\"zzz\": 1,\n      \"engine\"");
    EXPECT_FALSE(parseSweepPlanJson(doctored, out));

    // Options level.
    doctored = base;
    doctored.replace(doctored.find("\"lookahead\""), 11,
                     "\"zzz\": 1,\n        \"lookahead\"");
    EXPECT_FALSE(parseSweepPlanJson(doctored, out));
}

TEST(SweepPlanJson, RejectsSchemaDriftAndTrailingContent)
{
    const SweepPlan plan = fullPlan();
    const std::string base = sweepPlanJson(plan);
    SweepPlan out;

    std::string wrong_schema = base;
    const std::string schema = kSweepPlanSchema;
    wrong_schema.replace(wrong_schema.find(schema), schema.size(),
                         "stems-sweep-plan-v0");
    EXPECT_FALSE(parseSweepPlanJson(wrong_schema, out));

    EXPECT_FALSE(parseSweepPlanJson(base + "x", out));
    EXPECT_FALSE(parseSweepPlanJson("", out));
    EXPECT_FALSE(parseSweepPlanJson("[]", out));
}

TEST(SweepPlanJson, RefusesVersionOnePlans)
{
    // A schema-v1 document (as v1 builds emitted it, with the
    // retired `segments` field) must be refused for its schema —
    // never parsed with the retired fields dropped, which would run
    // a different policy than the one its author wrote down.
    const std::string v1 = R"({
  "batch": true,
  "checkpoint_every": 0,
  "engines": [],
  "heartbeat_seconds": 0,
  "jobs": 1,
  "records": 2000,
  "schema": "stems-sweep-plan-v1",
  "seed": 42,
  "segments": 4,
  "speculate": false,
  "timing": false,
  "unit_granularity": "workload",
  "warmup_fraction": 0.5,
  "warmup_records": 0,
  "workloads": [
    "oltp-db2"
  ]
}
)";
    SweepPlan out;
    std::string error;
    EXPECT_FALSE(parseSweepPlanJson(v1, out, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

TEST(SweepPlanJson, GranularityRoundTripsAndRejectsUnknownNames)
{
    SweepPlan plan;
    for (UnitGranularity g :
         {UnitGranularity::kWorkload, UnitGranularity::kCell,
          UnitGranularity::kSegment}) {
        plan.unitGranularity = g;
        SweepPlan reparsed;
        std::string error;
        ASSERT_TRUE(parseSweepPlanJson(sweepPlanJson(plan),
                                       reparsed, &error))
            << error;
        EXPECT_EQ(reparsed.unitGranularity, g);

        UnitGranularity parsed;
        ASSERT_TRUE(
            parseUnitGranularity(unitGranularityName(g), parsed));
        EXPECT_EQ(parsed, g);
    }

    std::string doctored = sweepPlanJson(plan);
    const std::string name = "\"segment\"";
    doctored.replace(doctored.find(name), name.size(),
                     "\"per-epoch\"");
    SweepPlan out;
    EXPECT_FALSE(parseSweepPlanJson(doctored, out));

    UnitGranularity parsed;
    EXPECT_FALSE(parseUnitGranularity("per-epoch", parsed));
}

TEST(SweepPlanBinary, RoundTripsExactly)
{
    const SweepPlan plan = fullPlan();
    const std::vector<std::uint8_t> bytes = encodeSweepPlan(plan);
    SweepPlan decoded;
    ASSERT_TRUE(decodeSweepPlan(bytes, decoded));
    // The canonical JSON covers every field, so byte-equal JSON is
    // field-equal plans.
    EXPECT_EQ(sweepPlanJson(plan), sweepPlanJson(decoded));
}

TEST(SweepPlanBinary, RejectsTruncationAnywhere)
{
    const std::vector<std::uint8_t> bytes =
        encodeSweepPlan(fullPlan());
    SweepPlan decoded;
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        std::vector<std::uint8_t> truncated(bytes.begin(),
                                            bytes.begin() + cut);
        EXPECT_FALSE(decodeSweepPlan(truncated, decoded))
            << "accepted truncation at " << cut;
    }
    // Trailing garbage is rejected too (atEnd contract).
    std::vector<std::uint8_t> extended = bytes;
    extended.push_back(0);
    EXPECT_FALSE(decodeSweepPlan(extended, decoded));
}

TEST(SweepPlanDriver, RunPlanMatchesWorkloadEngineRun)
{
    // run(plan) is run(workloads, engines) under the plan's config:
    // a plain driver built from the same config reproduces it.
    SweepPlan plan;
    plan.workloads = {"oltp-db2"};
    plan.engines = {PlanEngine{"tms", "", {}},
                    PlanEngine{"stems", "", {}}};
    plan.records = 20'000;
    plan.timing = true;
    plan.jobs = 2;
    plan.batch = false;

    ExperimentDriver planned;
    const auto via_plan = planned.run(plan);

    ExperimentDriver direct(planExperimentConfig(plan), 2);
    const auto via_names =
        direct.run({"oltp-db2"}, engineSpecs({"tms", "stems"}));

    test::expectSameResults(via_plan, via_names);
}

TEST(SweepPlanDriver, PlanEngineSpecsCarryOptionsAndLabels)
{
    SweepPlan plan;
    PlanEngine deep{"stems", "stems-la24", {}};
    deep.options.lookahead = 24;
    plan.engines = {PlanEngine{"tms", "", {}}, deep};
    const auto specs = planEngineSpecs(plan);
    ASSERT_EQ(specs.size(), 2u);
    EXPECT_EQ(specs[0].engine, "tms");
    EXPECT_TRUE(specs[0].label.empty()); // reported as "tms"
    EXPECT_EQ(specs[1].label, "stems-la24");
    ASSERT_TRUE(specs[1].options.lookahead.has_value());
    EXPECT_EQ(*specs[1].options.lookahead, 24u);
}

} // namespace
} // namespace stems
