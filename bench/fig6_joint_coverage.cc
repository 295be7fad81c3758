/**
 * @file
 * Figure 6 — joint analysis of temporal and spatial memory streaming:
 * each off-chip read miss classified as predictable by both oracles,
 * only one, or neither.
 *
 * Paper shape: OLTP and web show all four classes (OLTP biased
 * temporal, web biased spatial) with 34-38% unpredictable; DSS shows
 * near-zero temporal and >60% spatial-only; scientific workloads are
 * temporally near-perfect.
 */

#include <iostream>

#include "analysis/coverage.hh"
#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace stems;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 1'500'000);
    BenchObsSession obs(opts, "fig6_joint_coverage");
    requireNoEngineSelection(opts, "oracle analysis runs no engines");
    requireNoJson(opts, "oracle analysis produces no sweep results");
    std::cout << banner("Figure 6: joint TMS/SMS predictability",
                        opts);

    const std::vector<std::string> workloads = benchWorkloads(opts);
    const SweepPlan plan = benchPlan(opts, /*timing=*/false,
                                     workloads,
                                     std::vector<std::string>{});
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    // One analysis per workload, sharded over the pool; each worker
    // writes only its own slot.
    std::vector<JointCoverage> results(workloads.size());
    driver.forEachTrace(
        plan,
        [&](std::size_t index, const Workload &, const Trace &t) {
            JointCoverageAnalyzer a;
            a.run(t, t.size() / 2);
            results[index] = a.result();
        });

    Table table({"workload", "misses", "both", "TMS only",
                 "SMS only", "neither", "T", "S", "joint"});
    JointCoverage sum;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const JointCoverage &jc = results[i];
        sum.both += jc.both;
        sum.tmsOnly += jc.tmsOnly;
        sum.smsOnly += jc.smsOnly;
        sum.neither += jc.neither;
        table.addRow({workloads[i], std::to_string(jc.total()),
                      fmtPct(ratio(jc.both, jc.total())),
                      fmtPct(ratio(jc.tmsOnly, jc.total())),
                      fmtPct(ratio(jc.smsOnly, jc.total())),
                      fmtPct(ratio(jc.neither, jc.total())),
                      fmtPct(jc.temporalFraction()),
                      fmtPct(jc.spatialFraction()),
                      fmtPct(jc.jointFraction())});
    }
    table.addSeparator();
    table.addRow({"mean", std::to_string(sum.total()),
                  fmtPct(ratio(sum.both, sum.total())),
                  fmtPct(ratio(sum.tmsOnly, sum.total())),
                  fmtPct(ratio(sum.smsOnly, sum.total())),
                  fmtPct(ratio(sum.neither, sum.total())),
                  fmtPct(sum.temporalFraction()),
                  fmtPct(sum.spatialFraction()),
                  fmtPct(sum.jointFraction())});
    table.print(std::cout);

    std::cout << "\nPaper reference (Section 1): on average 32% "
                 "temporal, 54% spatial,\n70% joint; 34-38% of "
                 "OLTP/web misses unpredictable by either.\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
