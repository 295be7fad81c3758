/**
 * @file
 * Ablation (paper Section 4.3): stream lookahead. The paper uses a
 * lookahead of 8 for commercial workloads and 12 for scientific ones
 * because it "controls timeliness and mispredictions (particularly at
 * the end of streams)". This bench sweeps the STeMS lookahead on a
 * commercial and a scientific workload.
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
    BenchObsSession obs(opts, "ablation_lookahead");
    requireNoEngineSelection(opts, "fixed STeMS lookahead sweep");
    std::cout << banner("Ablation: STeMS stream lookahead", opts);

    std::vector<PlanEngine> columns;
    for (unsigned lookahead : {2u, 4u, 8u, 12u, 16u, 24u}) {
        EngineOptions o;
        o.lookahead = lookahead;
        columns.push_back(
            PlanEngine{"stems", std::to_string(lookahead), o});
    }

    const std::vector<std::string> workloads =
        benchWorkloads(opts, {"oltp-db2", "em3d"});
    const SweepPlan plan = benchPlan(opts, /*timing=*/true,
                                     workloads, std::move(columns));
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    Table table({"workload", "lookahead", "covered", "overpred",
                 "speedup"});
    const auto results = driver.run(plan);
    maybeWriteJson(opts, results);
    for (const WorkloadResult &r : results) {
        bool first = true;
        for (const EngineResult &e : r.engines) {
            // Speedup over the prefetch-free system (the historical
            // presentation of this sweep), not the stride baseline.
            table.addRow({first ? r.workload : "", e.engine,
                          fmtPct(e.coverage),
                          fmtPct(e.overprediction),
                          fmtX(r.baselineCycles / e.stats.cycles)});
            first = false;
        }
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout << "\nPaper reference (Section 4.3): lookahead 8 for "
                 "commercial workloads, 12 for\nscientific ones "
                 "(higher bandwidth requirements).\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
