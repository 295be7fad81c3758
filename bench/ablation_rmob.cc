/**
 * @file
 * Ablation (paper Section 4.3): RMOB sizing. Spatial filtering lets
 * STeMS shrink its temporal buffer from TMS's 384K entries (2 MB) to
 * 128K (1 MB); for workloads whose coverage requires capturing an
 * entire iteration (the scientific codes) the reduction matters most.
 * This bench sweeps the STeMS RMOB size and contrasts TMS's
 * sensitivity to the same capacity.
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
    BenchObsSession obs(opts, "ablation_rmob");
    requireNoEngineSelection(opts, "fixed STeMS/TMS buffer-size sweep");
    std::cout << banner("Ablation: temporal buffer sizing", opts);

    const std::vector<std::size_t> sizes = {
        16 * 1024, 32 * 1024, 64 * 1024, 128 * 1024, 384 * 1024};
    std::vector<PlanEngine> columns;
    for (std::size_t entries : sizes) {
        EngineOptions o;
        o.bufferEntries = entries;
        std::string label = std::to_string(entries / 1024) + "K";
        columns.push_back(PlanEngine{"stems", "stems " + label, o});
        columns.push_back(PlanEngine{"tms", "tms " + label, o});
    }

    const std::vector<std::string> workloads =
        benchWorkloads(opts, {"em3d", "oltp-db2"});
    const SweepPlan plan = benchPlan(opts, /*timing=*/false,
                                     workloads, std::move(columns));
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    Table table({"workload", "entries", "STeMS covered",
                 "TMS covered"});
    const auto results = driver.run(plan);
    maybeWriteJson(opts, results);
    for (const WorkloadResult &r : results) {
        bool first = true;
        for (std::size_t entries : sizes) {
            std::string label = std::to_string(entries / 1024) + "K";
            const EngineResult *stems_r = r.find("stems " + label);
            const EngineResult *tms_r = r.find("tms " + label);
            table.addRow({first ? r.workload : "", label,
                          fmtPct(stems_r->coverage),
                          fmtPct(tms_r->coverage)});
            first = false;
        }
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout << "\nPaper reference (Section 4.3): spatial filtering "
                 "reduces the buffer from\n384K entries (TMS) to 128K "
                 "(STeMS); for scientific access patterns the\n"
                 "reduction can be even more significant.\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
