/**
 * @file
 * Figure 8 — temporal repetition within spatial generations: the
 * correlation-distance distribution of consecutive accesses against
 * the prior occurrence of the same generation index (+1 = perfect
 * repetition).
 *
 * Paper shape: >=86% of spatially predictable accesses recur within a
 * reordering window of 2 and >=92% within 4 (96% and 92% excluding
 * Qry16, the outlier).
 */

#include <iostream>

#include "analysis/correlation.hh"
#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace stems;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 1'200'000);
    BenchObsSession obs(opts, "fig8_correlation_distance");
    requireNoEngineSelection(opts, "correlation analysis runs no engines");
    requireNoJson(opts,
                  "correlation analysis produces no sweep results");
    std::cout << banner(
        "Figure 8: correlation distance within generations", opts);

    std::vector<std::string> headers = {"workload", "pairs"};
    for (int d = -3; d <= 3; ++d) {
        if (d == 0)
            continue;
        headers.push_back((d > 0 ? "+" : "") + std::to_string(d));
    }
    headers.push_back("|d|<=2");
    headers.push_back("|d|<=4");
    headers.push_back("|d|<=6");
    Table table(headers);

    const std::vector<std::string> workloads = benchWorkloads(opts);
    const SweepPlan plan = benchPlan(opts, /*timing=*/false,
                                     workloads,
                                     std::vector<std::string>{});
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    std::vector<CorrelationAnalyzer> analyzers(workloads.size());
    driver.forEachTrace(
        plan,
        [&](std::size_t index, const Workload &, const Trace &t) {
            analyzers[index].run(t);
        });

    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const CorrelationAnalyzer &a = analyzers[i];
        const Histogram &h = a.distances();
        std::vector<std::string> row = {workloads[i],
                                        std::to_string(h.total())};
        for (int d = -3; d <= 3; ++d) {
            if (d == 0)
                continue;
            row.push_back(fmtPct(ratio(h.count(d), h.total())));
        }
        row.push_back(fmtPct(a.fractionWithinWindow(2)));
        row.push_back(fmtPct(a.fractionWithinWindow(4)));
        row.push_back(fmtPct(a.fractionWithinWindow(6)));
        table.addRow(row);
    }
    table.print(std::cout);

    std::cout << "\nPaper reference (Section 5.4): +1 dominates; "
                 ">=86% within a window of 2,\n>=92% within 4; Qry16 "
                 "is the outlier.\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
