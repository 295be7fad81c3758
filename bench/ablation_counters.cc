/**
 * @file
 * Ablation (paper Section 4.3): 2-bit saturating counters vs bit
 * vectors in the spatial history. The paper reports that counters
 * attain the same coverage while roughly halving overpredictions;
 * this bench reproduces the comparison for SMS across the suite.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace stems;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 1'000'000);
    BenchObsSession obs(opts, "ablation_counters");
    requireNoEngineSelection(opts, "fixed SMS counters-vs-bitvector sweep");
    std::cout << banner(
        "Ablation: 2-bit counters vs bit vectors (SMS history)",
        opts);

    EngineOptions counters_on;
    counters_on.smsUseCounters = true;
    EngineOptions counters_off;
    counters_off.smsUseCounters = false;
    const SweepPlan plan = benchPlan(
        opts, /*timing=*/false, benchWorkloads(opts),
        std::vector<PlanEngine>{
            {"sms", "counters", counters_on},
            {"sms", "bit vector", counters_off},
        });
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    Table table({"workload", "mode", "covered", "overpred"});
    double over_counter = 0, over_bitvec = 0, cov_counter = 0,
           cov_bitvec = 0;
    int n = 0;
    const auto results = driver.run(plan);
    maybeWriteJson(opts, results);
    for (const WorkloadResult &r : results) {
        bool first = true;
        for (const EngineResult &e : r.engines) {
            bool counters = e.engine == "counters";
            table.addRow({first ? r.workload : "", e.engine,
                          fmtPct(e.coverage),
                          fmtPct(e.overprediction)});
            (counters ? cov_counter : cov_bitvec) += e.coverage;
            (counters ? over_counter : over_bitvec) +=
                e.overprediction;
            first = false;
        }
        table.addSeparator();
        ++n;
    }
    table.addRow({"mean", "counters", fmtPct(cov_counter / n),
                  fmtPct(over_counter / n)});
    table.addRow({"", "bit vector", fmtPct(cov_bitvec / n),
                  fmtPct(over_bitvec / n)});
    table.print(std::cout);

    std::cout << "\nPaper reference (Section 4.3): counters attain "
                 "the same coverage while\nroughly halving "
                 "overpredictions.\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
