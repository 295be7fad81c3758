/**
 * @file
 * Ablation (paper Section 4.3): stream-queue count. "Even though only
 * one stream is typically productive at any time, several stream
 * queues are necessary to prevent thrashing when new streams are
 * initiated on misses." This bench sweeps the STeMS queue count.
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
    BenchObsSession obs(opts, "ablation_stream_queues");
    requireNoEngineSelection(opts, "fixed STeMS queue-count sweep");
    std::cout << banner("Ablation: stream-queue count", opts);

    std::vector<PlanEngine> columns;
    for (std::size_t queues : {1u, 2u, 4u, 8u, 16u}) {
        EngineOptions o;
        o.streamQueues = queues;
        columns.push_back(
            PlanEngine{"stems", std::to_string(queues), o});
    }

    const std::vector<std::string> workloads =
        benchWorkloads(opts, {"web-apache", "oltp-db2"});
    const SweepPlan plan = benchPlan(opts, /*timing=*/false,
                                     workloads, std::move(columns));
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    Table table({"workload", "queues", "covered", "overpred"});
    const auto results = driver.run(plan);
    maybeWriteJson(opts, results);
    for (const WorkloadResult &r : results) {
        bool first = true;
        for (const EngineResult &e : r.engines) {
            table.addRow({first ? r.workload : "", e.engine,
                          fmtPct(e.coverage),
                          fmtPct(e.overprediction)});
            first = false;
        }
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout << "\nPaper reference (Section 4.3): eight stream "
                 "queues, LRU-victimized.\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
