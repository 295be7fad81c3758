/**
 * @file
 * Figure 9 — comparison of temporal, spatial and spatio-temporal
 * memory streaming: covered, uncovered and overpredicted off-chip
 * read misses, normalized to the prefetch-free baseline.
 *
 * Paper shape: STeMS matches or exceeds the better of TMS/SMS in
 * every commercial workload (8% more than the best in OLTP/web, for
 * 50-56% coverage), matches SMS in DSS, and falls between SMS and TMS
 * in the scientific codes; STeMS predicts on average 62% of misses
 * and overpredicts 29%.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace stems;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 1'500'000);
    BenchObsSession obs(opts, "fig9_streaming_comparison");
    std::cout << banner(
        "Figure 9: TMS vs SMS vs STeMS coverage/overprediction",
        opts);

    const std::vector<std::string> engines =
        benchEngines(opts, {"tms", "sms", "stems"});
    const std::vector<std::string> workloads = benchWorkloads(opts);
    const SweepPlan plan =
        benchPlan(opts, /*timing=*/false, workloads, engines);
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    Table table({"workload", "base misses", "engine", "covered",
                 "uncovered", "overpred"});
    std::vector<double> cov_sum(engines.size(), 0.0);
    std::vector<double> over_sum(engines.size(), 0.0);
    int n = 0;
    obs.phase("sweep");
    const auto results = driver.run(plan);
    obs.phase("report");
    maybeWriteJson(opts, results);
    for (const WorkloadResult &r : results) {
        bool first = true;
        for (std::size_t i = 0; i < engines.size(); ++i) {
            const EngineResult *e = r.find(engines[i]);
            table.addRow(
                {first ? r.workload : "",
                 first ? std::to_string(r.baselineMisses) : "",
                 engines[i], fmtPct(e->coverage),
                 fmtPct(e->uncovered), fmtPct(e->overprediction)});
            cov_sum[i] += e->coverage;
            over_sum[i] += e->overprediction;
            first = false;
        }
        table.addSeparator();
        ++n;
    }
    for (std::size_t i = 0; i < engines.size(); ++i) {
        table.addRow({"mean", "", engines[i],
                      fmtPct(cov_sum[i] / n), "",
                      fmtPct(over_sum[i] / n)});
    }
    table.print(std::cout);

    std::cout << "\nPaper reference (Sections 1 and 5.5): STeMS "
                 "covers on average 62% of\noff-chip read misses and "
                 "overpredicts 29%; coverage is equal to or higher\n"
                 "than the better of TMS/SMS on every commercial "
                 "workload.\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
