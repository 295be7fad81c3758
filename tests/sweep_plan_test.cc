/**
 * @file
 * SweepPlan contract tests: the canonical JSON form round-trips
 * byte-identically (the property the wire digest check and the
 * plan-file workflow rest on), unknown fields, schema drift (a v1
 * document included), malformed numbers, out-of-range values and
 * duplicate keys are rejected, seeded mutants of a full plan are
 * rejected or decode to a canonical plan, the plan digest is pinned,
 * and ExperimentDriver::run(plan) reproduces the serial
 * ExperimentRunner under planExperimentConfig(plan) bitwise.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.hh"
#include "sim/driver.hh"
#include "sim/experiment.hh"
#include "sim/sweep_plan.hh"
#include "store/keys.hh"
#include "test_util.hh"
#include "workloads/registry.hh"

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
    plan.checkpointEvery = 5'000;
    plan.heartbeatSeconds = 1.5;
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
    // re-pinned for schema v4).
    SweepPlan plan;
    plan.workloads = {"oltp-db2"};
    plan.engines = {PlanEngine{"stems", "", {}}};
    plan.records = 100'000;
    const std::uint64_t digest = sweepPlanDigest(plan);
    EXPECT_EQ(digest, sweepPlanDigest(plan)) << "digest unstable";
    EXPECT_EQ(digest, UINT64_C(0x300850b983ae15c7));
}

TEST(SweepPlanJson, RejectsUnknownFields)
{
    const std::string base = sweepPlanJson(fullPlan());
    SweepPlan out;

    // Top level.
    std::string doctored = base;
    doctored.replace(doctored.find("\"checkpoint_every\""), 18,
                     "\"zzz\": 1,\n  \"checkpoint_every\"");
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

    // Likewise a schema-v2 document, which still carried `batch`.
    const std::string v2 = R"({
  "batch": false,
  "checkpoint_every": 0,
  "engines": [],
  "heartbeat_seconds": 0,
  "jobs": 1,
  "records": 2000,
  "schema": "stems-sweep-plan-v2",
  "seed": 42,
  "timing": false,
  "unit_granularity": "workload",
  "warmup_fraction": 0.5,
  "warmup_records": 0,
  "workloads": [
    "oltp-db2"
  ]
}
)";
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(v2, out, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;

    // And a schema-v3 document, which still carried the work-unit
    // granularity (here naming the retired cell units).
    const std::string v3 = R"({
  "checkpoint_every": 0,
  "engines": [],
  "heartbeat_seconds": 0,
  "jobs": 1,
  "records": 2000,
  "schema": "stems-sweep-plan-v3",
  "seed": 42,
  "timing": false,
  "unit_granularity": "cell",
  "warmup_fraction": 0.5,
  "warmup_records": 0,
  "workloads": [
    "oltp-db2"
  ]
}
)";
    error.clear();
    EXPECT_FALSE(parseSweepPlanJson(v3, out, &error));
    EXPECT_NE(error.find("schema"), std::string::npos) << error;
}

/** `base` with the first occurrence of `from` replaced by `to`. */
std::string
replaced(std::string base, const std::string &from,
         const std::string &to)
{
    const std::size_t at = base.find(from);
    EXPECT_NE(at, std::string::npos) << "no '" << from << "' in plan";
    if (at != std::string::npos)
        base.replace(at, from.size(), to);
    return base;
}

TEST(SweepPlanJson, RejectsMalformedNumbersAndDuplicateKeys)
{
    const std::string base = sweepPlanJson(fullPlan());
    const std::string records = "\"records\": 123456";
    const std::string jobs = "\"jobs\": 3";

    struct Probe
    {
        const char *what;
        std::string text;
    };
    const std::vector<Probe> rejected = {
        // Number tokens outside the JSON grammar, which a lenient
        // reader cuts short or reads as another number.
        {"arithmetic tail", replaced(base, records, "\"records\": 3000-2")},
        {"leading plus", replaced(base, records, "\"records\": +3000")},
        {"leading zero", replaced(base, records, "\"records\": 03000")},
        {"bare fraction", replaced(base, records, "\"records\": 3000.")},
        {"bare exponent", replaced(base, records, "\"records\": 3e")},
        {"lone minus", replaced(base, records, "\"records\": -")},
        // Integers past u64, which strtoull saturates to 2^64 - 1.
        {"u64 overflow",
         replaced(base, records, "\"records\": 18446744073709551617")},
        {"double overflow",
         replaced(base, "\"warmup_fraction\": 0.25",
                  "\"warmup_fraction\": 1e999")},
        // Values past a 32-bit field, which a narrowing cast wraps
        // (jobs 2^32 + 1 would run, and digest, as jobs 1).
        {"jobs past 32 bits", replaced(base, jobs, "\"jobs\": 4294967297")},
        {"lookahead past 32 bits",
         replaced(base, "\"lookahead\": 24",
                  "\"lookahead\": 4294967320")},
        {"displacement_window past 32 bits",
         replaced(base, "\"displacement_window\": 1",
                  "\"displacement_window\": 4294967297")},
        // A repeated key, which a member-by-member reader takes as
        // last-wins (records) or appends to (workloads).
        {"repeated records",
         replaced(base, records, "\"records\": 1,\n  " + records)},
        {"repeated workloads",
         replaced(base, "\"workloads\": [",
                  "\"workloads\": [\"em3d\"],\n  \"workloads\": [")},
        {"repeated engine option",
         replaced(base, "\"lookahead\": 24",
                  "\"lookahead\": 8,\n        \"lookahead\": 24")},
    };
    for (const Probe &probe : rejected) {
        SweepPlan out;
        std::string error;
        EXPECT_FALSE(parseSweepPlanJson(probe.text, out, &error))
            << probe.what << " was accepted";
        EXPECT_FALSE(error.empty()) << probe.what;
    }

    // The largest values each field holds are still accepted.
    SweepPlan out;
    std::string error;
    ASSERT_TRUE(parseSweepPlanJson(
        replaced(base, records, "\"records\": 18446744073709551615"),
        out, &error))
        << error;
    EXPECT_EQ(out.records, UINT64_MAX);
    ASSERT_TRUE(parseSweepPlanJson(
        replaced(base, jobs, "\"jobs\": 4294967295"), out, &error))
        << error;
    EXPECT_EQ(out.jobs, 4294967295u);
}

/**
 * The reject-never-misdecode property for one input: it is either
 * rejected, or it decodes to a plan whose canonical bytes parse back
 * to the same canonical bytes. Returns whether it was accepted.
 */
bool
expectRejectedOrCanonical(const std::string &mutant,
                          const std::string &what)
{
    SweepPlan plan;
    if (!parseSweepPlanJson(mutant, plan))
        return false;
    const std::string canonical = sweepPlanJson(plan);
    SweepPlan again;
    std::string error;
    EXPECT_TRUE(parseSweepPlanJson(canonical, again, &error))
        << what << ": canonical form rejected: " << error;
    EXPECT_EQ(canonical, sweepPlanJson(again))
        << what << ": canonical form is not a fixed point";
    return true;
}

TEST(SweepPlanJson, MutantsAreRejectedOrCanonical)
{
    const std::string base = sweepPlanJson(fullPlan());
    std::size_t accepted = 0, total = 0;
    auto check = [&](const std::string &mutant,
                     const std::string &what) {
        ++total;
        if (expectRejectedOrCanonical(mutant, what))
            ++accepted;
    };

    // Every single-bit flip.
    for (std::size_t byte = 0; byte < base.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutant = base;
            mutant[byte] = static_cast<char>(
                static_cast<unsigned char>(mutant[byte]) ^ (1u << bit));
            check(mutant, "flip byte " + std::to_string(byte) +
                              " bit " + std::to_string(bit));
        }
    }

    // Every truncation.
    for (std::size_t cut = 0; cut < base.size(); ++cut)
        check(base.substr(0, cut), "cut at " + std::to_string(cut));

    // Seeded multi-byte flips and insertions. Inserted bytes are
    // drawn half from JSON's own alphabet, so mutants get past the
    // tokenizer often enough to reach the plan-level checks.
    const std::string alphabet = "0123456789-+.eE\" ,:[]{}nul\\tf";
    const auto size32 = [](const std::string &s) {
        return static_cast<std::uint32_t>(s.size());
    };
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        Rng rng(seed);
        for (int trial = 0; trial < 1000; ++trial) {
            std::string mutant = base;
            const std::uint32_t flips = 2 + rng.below(6);
            for (std::uint32_t f = 0; f < flips; ++f)
                mutant[rng.below(size32(mutant))] ^=
                    static_cast<char>(1 + rng.below(255));
            check(mutant, "seed " + std::to_string(seed) + " flips " +
                              std::to_string(trial));
        }
        for (int trial = 0; trial < 1000; ++trial) {
            std::string mutant = base;
            const std::uint32_t inserts = 1 + rng.below(4);
            for (std::uint32_t k = 0; k < inserts; ++k) {
                const char c =
                    rng.below(2) == 0
                        ? alphabet[rng.below(size32(alphabet))]
                        : static_cast<char>(rng.below(256));
                mutant.insert(rng.below(size32(mutant) + 1), 1, c);
            }
            check(mutant, "seed " + std::to_string(seed) +
                              " inserts " + std::to_string(trial));
        }
    }

    // Both sides of the property are exercised: digit flips decode
    // to other plans, most damage is refused.
    EXPECT_GT(accepted, 0u);
    EXPECT_LT(accepted, total);
}

TEST(SweepPlanDriver, RunPlanMatchesSerialRunnerUnderPlanConfig)
{
    // run(plan) is the plan's workloads x engines under
    // planExperimentConfig(plan): the serial reference runner built
    // from that config reproduces it.
    SweepPlan plan;
    plan.workloads = {"oltp-db2", "dss-qry17"};
    plan.engines = {PlanEngine{"tms", "", {}},
                    PlanEngine{"stems", "", {}}};
    plan.records = 20'000;
    plan.timing = true;
    plan.jobs = 2;

    ExperimentDriver planned;
    const auto via_plan = planned.run(plan);

    ExperimentRunner runner(planExperimentConfig(plan));
    std::vector<WorkloadResult> reference;
    for (const std::string &name : plan.workloads)
        reference.push_back(
            runner.runWorkload(*makeWorkload(name), {"tms", "stems"}));

    test::expectSameResults(reference, via_plan);
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
