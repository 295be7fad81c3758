/**
 * @file
 * Figure 10 — performance improvement of TMS, SMS and STeMS over the
 * baseline system (which includes the Table 1 stride prefetcher).
 *
 * Paper shape: across the commercial workloads STeMS improves on the
 * stride baseline by ~31% and on TMS/SMS by ~18%/~3%; OLTP gains
 * little from SMS despite its coverage, DSS gains nothing from TMS,
 * and TMS accelerates em3d/sparse by 4x or more with STeMS between
 * TMS and SMS.
 */

#include <cmath>
#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace stems;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 1'500'000);
    BenchObsSession obs(opts, "fig10_speedup");
    requireNoEngineSelection(opts, "fixed TMS/SMS/STeMS table columns");
    std::cout << banner("Figure 10: speedup over the stride baseline",
                        opts);

    const SweepPlan plan =
        benchPlan(opts, /*timing=*/true, benchWorkloads(opts),
                  std::vector<std::string>{"tms", "sms", "stems"});
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    Table table({"workload", "base IPC", "TMS", "SMS", "STeMS"});
    // Geometric means over the commercial workloads, as the paper's
    // summary numbers aggregate.
    double log_speedup[3] = {};
    double log_stems_vs[3] = {}; // vs stride, sms, tms
    int commercial = 0;

    const auto results = driver.run(plan);
    maybeWriteJson(opts, results);
    for (const WorkloadResult &r : results) {
        const EngineResult *tms = r.find("tms");
        const EngineResult *sms = r.find("sms");
        const EngineResult *stems_r = r.find("stems");
        table.addRow({r.workload, fmtDouble(r.baselineIpc, 2),
                      fmtPct(tms->speedup - 1.0),
                      fmtPct(sms->speedup - 1.0),
                      fmtPct(stems_r->speedup - 1.0)});
        if (r.workloadClass != WorkloadClass::kScientific) {
            log_speedup[0] += std::log(tms->speedup);
            log_speedup[1] += std::log(sms->speedup);
            log_speedup[2] += std::log(stems_r->speedup);
            log_stems_vs[0] += std::log(stems_r->speedup);
            log_stems_vs[1] +=
                std::log(stems_r->speedup / sms->speedup);
            log_stems_vs[2] +=
                std::log(stems_r->speedup / tms->speedup);
            ++commercial;
        }
    }
    if (commercial > 0) {
        table.addSeparator();
        table.addRow(
            {"gmean (commercial)", "",
             fmtPct(std::exp(log_speedup[0] / commercial) - 1),
             fmtPct(std::exp(log_speedup[1] / commercial) - 1),
             fmtPct(std::exp(log_speedup[2] / commercial) - 1)});
    }
    table.print(std::cout);

    if (commercial > 0) {
        std::cout << "\nSTeMS improvement (gmean over commercial "
                     "workloads):\n";
        std::cout
            << "  over stride baseline : "
            << fmtPct(std::exp(log_stems_vs[0] / commercial) - 1)
            << "  (paper: 31%)\n";
        std::cout
            << "  over SMS             : "
            << fmtPct(std::exp(log_stems_vs[1] / commercial) - 1)
            << "  (paper: 3%)\n";
        std::cout
            << "  over TMS             : "
            << fmtPct(std::exp(log_stems_vs[2] / commercial) - 1)
            << "  (paper: 18%)\n";
    }
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
