/**
 * @file
 * Unit and property tests for the Sequitur grammar-inference engine.
 *
 * Correctness oracle: the grammar expansion must reproduce the input
 * exactly, and the two Sequitur invariants (digram uniqueness, rule
 * utility) must hold after every construction.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/sequitur.hh"
#include "common/rng.hh"

namespace stems {
namespace {

std::vector<std::uint64_t>
fromString(const std::string &s)
{
    std::vector<std::uint64_t> v;
    for (char c : s)
        v.push_back(static_cast<std::uint64_t>(c));
    return v;
}

void
buildAndVerify(const std::vector<std::uint64_t> &input, Sequitur &seq)
{
    for (auto v : input)
        seq.append(v);
    EXPECT_EQ(seq.expand(), input);
    EXPECT_TRUE(seq.checkInvariants());
}

TEST(Sequitur, EmptyAndSingle)
{
    Sequitur s;
    EXPECT_EQ(s.expand().size(), 0u);
    EXPECT_TRUE(s.checkInvariants());
    s.append(42);
    EXPECT_EQ(s.expand(), std::vector<std::uint64_t>{42});
    EXPECT_TRUE(s.checkInvariants());
}

TEST(Sequitur, ClassicPaperExample)
{
    // "abcdbcabcd" is the canonical example from the JAIR paper:
    // rules for "bc" and "abcd" should emerge.
    Sequitur s;
    buildAndVerify(fromString("abcdbcabcd"), s);
    EXPECT_GE(s.ruleCount(), 2u);
}

TEST(Sequitur, RepeatedPairs)
{
    Sequitur s;
    buildAndVerify(fromString("abababab"), s);
    EXPECT_GE(s.ruleCount(), 1u);
}

TEST(Sequitur, RunsOfOneSymbol)
{
    Sequitur s;
    buildAndVerify(fromString("aaaaaaaaaaaaaaaa"), s);
}

TEST(Sequitur, NoRepetitionNoRules)
{
    Sequitur s;
    buildAndVerify(fromString("abcdefghij"), s);
    EXPECT_EQ(s.ruleCount(), 0u);
}

TEST(Sequitur, LongRepeatedSequence)
{
    // Three occurrences of the same 50-symbol sequence.
    std::vector<std::uint64_t> unit;
    for (int i = 0; i < 50; ++i)
        unit.push_back(1000 + i);
    std::vector<std::uint64_t> input;
    for (int r = 0; r < 3; ++r)
        input.insert(input.end(), unit.begin(), unit.end());

    Sequitur s;
    buildAndVerify(input, s);

    auto c = s.classify();
    EXPECT_EQ(c.total(), input.size());
    // First occurrence trains; the following two occurrences are
    // almost entirely "opportunity".
    EXPECT_GE(c.opportunity, 90u);
    EXPECT_LE(c.head, 8u);
    EXPECT_EQ(c.nonRepetitive, 0u);
}

TEST(Sequitur, ClassifyUniqueSymbols)
{
    Sequitur s;
    for (std::uint64_t v = 0; v < 40; ++v)
        s.append(v * 7 + 3);
    auto c = s.classify();
    EXPECT_EQ(c.nonRepetitive, 40u);
    EXPECT_EQ(c.opportunity, 0u);
}

TEST(Sequitur, ClassifyTotalAlwaysMatchesInput)
{
    Rng rng(7);
    Sequitur s;
    std::size_t n = 500;
    for (std::size_t i = 0; i < n; ++i)
        s.append(rng.below(20));
    auto c = s.classify();
    EXPECT_EQ(c.total(), n);
}

// gtest names each case by the raw bytes of its parameter, so every
// byte of RandomCase is a declared field: `tag` fills the word that
// would otherwise be indeterminate padding after `alphabet`, and a
// case's name no longer depends on stack contents at registration.
// The two nonzero tags keep the names under which those cases are
// recorded; `tag` plays no part in the test itself.
struct RandomCase
{
    std::uint32_t alphabet;
    std::uint32_t tag;
    std::size_t length;
    std::uint64_t seed;
};
static_assert(sizeof(RandomCase) == 24, "RandomCase must have no padding");

class SequiturPropertyTest
    : public ::testing::TestWithParam<RandomCase>
{};

TEST_P(SequiturPropertyTest, ExpansionAndInvariants)
{
    const RandomCase &rc = GetParam();
    Rng rng(rc.seed);
    std::vector<std::uint64_t> input;
    input.reserve(rc.length);
    for (std::size_t i = 0; i < rc.length; ++i)
        input.push_back(rng.below(rc.alphabet));

    Sequitur s;
    buildAndVerify(input, s);
    auto c = s.classify();
    EXPECT_EQ(c.total(), input.size());
}

INSTANTIATE_TEST_SUITE_P(
    RandomInputs, SequiturPropertyTest,
    ::testing::Values(
        // Tiny alphabets force maximal rule churn (worst case for the
        // invariant maintenance).
        RandomCase{2, 0x3A2A5F44, 2000, 1},
        RandomCase{2, 0x72756D73, 2000, 2},
        RandomCase{2, 0, 5000, 3}, RandomCase{3, 0, 3000, 4},
        RandomCase{3, 0, 3000, 5}, RandomCase{4, 0, 4000, 6},
        RandomCase{5, 0, 2000, 7}, RandomCase{8, 0, 4000, 8},
        RandomCase{16, 0, 4000, 9}, RandomCase{64, 0, 4000, 10},
        RandomCase{256, 0, 8000, 11}, RandomCase{1024, 0, 8000, 12}));

class SequiturStructuredTest
    : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SequiturStructuredTest, RepeatedBlocksWithNoise)
{
    // Structured input resembling a miss trace: repeated sequences
    // of varying length interleaved with unique noise addresses.
    Rng rng(GetParam());
    std::vector<std::vector<std::uint64_t>> library;
    for (int i = 0; i < 5; ++i) {
        std::vector<std::uint64_t> seq;
        std::size_t len = 10 + rng.below(40);
        for (std::size_t j = 0; j < len; ++j)
            seq.push_back(100000 + i * 1000 + j);
        library.push_back(seq);
    }

    std::vector<std::uint64_t> input;
    std::uint64_t fresh = 1;
    for (int step = 0; step < 60; ++step) {
        if (rng.chance(0.7)) {
            const auto &seq = library[rng.below(5)];
            input.insert(input.end(), seq.begin(), seq.end());
        } else {
            for (int j = 0; j < 5; ++j)
                input.push_back(fresh++);
        }
    }

    Sequitur s;
    buildAndVerify(input, s);
    auto c = s.classify();
    EXPECT_EQ(c.total(), input.size());
    // Repetition dominates this input, so Sequitur must find
    // substantial opportunity.
    EXPECT_GT(c.opportunity, c.total() / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SequiturStructuredTest,
                         ::testing::Values(21, 22, 23, 24, 25));

} // namespace
} // namespace stems
