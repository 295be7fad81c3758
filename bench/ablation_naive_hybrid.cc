/**
 * @file
 * Ablation (paper Section 5.5): TMS and SMS operating independently
 * but concurrently. Coverage approaches the joint opportunity, but
 * the engines interfere and generate roughly 2-3x the
 * overpredictions of STeMS in OLTP and web — the result that
 * motivated unified reconstruction.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace stems;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 1'200'000);
    BenchObsSession obs(opts, "ablation_naive_hybrid");
    requireNoEngineSelection(opts, "fixed tms+sms vs stems comparison");
    std::cout << banner(
        "Ablation: naive TMS+SMS hybrid vs unified STeMS", opts);

    const std::vector<std::string> workloads = benchWorkloads(
        opts, {"web-apache", "web-zeus", "oltp-db2",
               "oltp-oracle"});
    const SweepPlan plan =
        benchPlan(opts, /*timing=*/false, workloads,
                  std::vector<std::string>{"tms+sms", "stems"});
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);
    Table table({"workload", "engine", "covered", "overpred",
                 "over ratio"});
    const auto results = driver.run(plan);
    maybeWriteJson(opts, results);
    for (const WorkloadResult &r : results) {
        const EngineResult *hybrid = r.find("tms+sms");
        const EngineResult *stems_r = r.find("stems");
        double over_ratio =
            stems_r->overprediction > 0
                ? hybrid->overprediction / stems_r->overprediction
                : 0.0;
        table.addRow({r.workload, "tms+sms",
                      fmtPct(hybrid->coverage),
                      fmtPct(hybrid->overprediction),
                      fmtDouble(over_ratio, 2) + "x"});
        table.addRow({"", "stems", fmtPct(stems_r->coverage),
                      fmtPct(stems_r->overprediction), "1.00x"});
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout << "\nPaper reference (Section 5.5): the side-by-side "
                 "combination generates\nroughly 2-3x the "
                 "overpredictions of STeMS in OLTP and web.\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
