/**
 * @file
 * Shared test utilities: unique temp paths (ctest runs test binaries
 * concurrently, so fixed paths collide), a temp-directory fixture,
 * small canned traces/configs, registry counter deltas, a
 * checkpoint-size engine, and the bitwise result/stats/trace
 * comparators the determinism contracts are pinned with. Extracted
 * from the store/driver/trace suites so every suite asserts
 * equality the same way.
 */

#ifndef STEMS_TESTS_TEST_UTIL_HH
#define STEMS_TESTS_TEST_UTIL_HH

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/metrics.hh"
#include "prefetch/prefetcher.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/sweep_plan.hh"
#include "trace/trace.hh"

namespace stems {
namespace test {

/** Current test's suite and name plus the process id, safe for use
 *  in a filename: <suite>.<test>.<pid>. The bare test name repeats
 *  across suites, and one test may run in two processes at once
 *  (two build trees, or two copies of one binary), so neither alone
 *  keeps paths apart. */
std::string uniqueTestTag();

/** TempDir()-rooted path unique to the running test and process:
 *  <TempDir>/<stem>_<uniqueTestTag()><suffix>. Nothing is
 *  created. */
std::string uniqueTempPath(const std::string &stem,
                           const std::string &suffix = "");

/**
 * Fixture owning a unique, initially-absent temp directory (dir_),
 * removed again on teardown. Base class for store-backed suites.
 */
class TempDirTest : public ::testing::Test
{
  protected:
    void SetUp() override;
    void TearDown() override;

    std::string dir_;
};

/** Small deterministic mixed-kind trace (reads with dependence
 *  links, periodic writes and invalidates); `salt` shifts the
 *  address range so distinct traces do not alias. */
Trace sampleTrace(std::uint64_t salt = 0);

/** The shared small sweep configuration of the driver/store suites. */
ExperimentConfig smallConfig(bool timing,
                             std::size_t records = 60000);

/** The SweepPlan form of `config` over `workloads` on `jobs`
 *  threads: the config's trace, warmup and timing knobs with the
 *  default execution policy, which tests then adjust
 *  (checkpointEvery, ...) before handing it to a driver call. */
SweepPlan configPlan(const ExperimentConfig &config,
                     std::vector<std::string> workloads,
                     unsigned jobs);

/**
 * Counter growth in the process-wide metrics registry since a base
 * snapshot. The driver and the store report their diagnostics only
 * there (driver.cell.simulated, store.result.hit, ...); a test runs
 * its drivers one at a time, so a delta taken around a call counts
 * that call alone.
 */
class RegistryDelta
{
  public:
    /** Base: the registry now. */
    RegistryDelta();
    /** Base: an earlier snapshot. */
    explicit RegistryDelta(MetricsSnapshot base);

    /** `counter`'s growth from the base to now. */
    std::uint64_t operator()(const std::string &counter) const;
    /** `counter`'s growth from the base to the snapshot `at`. */
    std::uint64_t operator()(const std::string &counter,
                             const MetricsSnapshot &at) const;

  private:
    MetricsSnapshot base_;
};

/** Record-for-record equality (every MemRecord field). */
void expectSameTrace(const Trace &a, const Trace &b);

/** Field-for-field equality, bitwise for the cycle counts —
 *  determinism is the contract, not approximation. */
void expectSameStats(const SimStats &a, const SimStats &b);

/** Full sweep-result equality: workloads, baselines, every engine's
 *  normalized metrics and raw stats, all bitwise. */
void expectSameResults(const std::vector<WorkloadResult> &a,
                       const std::vector<WorkloadResult> &b);

/**
 * An engine whose whole state is about `state_bytes` of seeded fields
 * of mixed widths: a checkpoint of any size, cheap to make, whose
 * StateWriter chunk ends fall inside fields. It saves state only.
 */
class BulkStateEngine : public Prefetcher
{
  public:
    explicit BulkStateEngine(std::size_t state_bytes)
        : stateBytes_(state_bytes)
    {
    }

    std::string name() const override { return "bulk-state"; }
    void drainRequests(std::vector<PrefetchRequest> &) override {}
    void saveState(StateWriter &w) const override;

  private:
    std::size_t stateBytes_;
};

} // namespace test
} // namespace stems

#endif // STEMS_TESTS_TEST_UTIL_HH
