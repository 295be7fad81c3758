/**
 * @file
 * Ablation (paper Section 4.3): reconstruction-buffer displacement.
 * When STeMS tries to place an address in an occupied slot it
 * searches up to two slots forward or backward; the paper reports
 * 99% of addresses place within that window, 92% in their original
 * location. This bench reports the measured displacement
 * distribution per workload, plus a sweep of the search window.
 */

#include <iostream>

#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "core/stems.hh"

using namespace stems;

namespace {

/** Stash the reconstructor's displacement stats into the result. */
void
displacementProbe(const Prefetcher &engine, EngineResult &er)
{
    const auto &stems_engine =
        static_cast<const StemsPrefetcher &>(engine);
    const Reconstructor &recon = stems_engine.reconstructor();
    const Histogram &h = recon.displacements();
    er.extra["placed"] = static_cast<double>(h.total());
    er.extra["inPlace"] = static_cast<double>(h.count(0));
    er.extra["within1"] = h.fractionWithin(1);
    er.extra["within2"] = h.fractionWithin(2);
    er.extra["dropped"] = static_cast<double>(recon.dropped());
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 1'000'000);
    BenchObsSession obs(opts, "ablation_reconstruction");
    requireNoEngineSelection(opts, "fixed STeMS displacement sweep");
    std::cout << banner(
        "Ablation: reconstruction displacement distribution", opts);

    // Probe columns are not plan-serializable: the plan carries the
    // engine shape (workloads, config, policy) and the probe-bearing
    // EngineSpecs ride alongside via run(plan, specs).
    const SweepPlan plan = benchPlan(
        opts, /*timing=*/false, benchWorkloads(opts),
        std::vector<std::string>{"stems"});
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    EngineSpec stems_spec("stems");
    stems_spec.probe = displacementProbe;
    stems_spec.probeId = "displacement-stats-v1";

    Table table({"workload", "placements", "in place", "|d|<=1",
                 "|d|<=2", "dropped"});
    const auto results = driver.run(plan, {stems_spec});
    maybeWriteJson(opts, results);
    for (const WorkloadResult &r : results) {
        const EngineResult *e = r.find("stems");
        double placed = e->extra.at("placed");
        double dropped = e->extra.at("dropped");
        table.addRow(
            {r.workload,
             std::to_string(static_cast<std::uint64_t>(placed)),
             fmtPct(placed > 0 ? e->extra.at("inPlace") / placed
                               : 0.0),
             fmtPct(e->extra.at("within1")),
             fmtPct(e->extra.at("within2")),
             fmtPct(placed + dropped > 0
                        ? dropped / (placed + dropped)
                        : 0.0)});
    }
    table.print(std::cout);

    std::cout << "\nDisplacement-window sweep (oltp-db2):\n";
    Table sweep({"window", "covered", "overpred", "dropped frac"});
    {
        std::vector<EngineSpec> specs;
        for (unsigned window : {0u, 1u, 2u, 4u, 8u}) {
            EngineOptions o;
            o.displacementWindow = window;
            EngineSpec spec("stems",
                            "+-" + std::to_string(window), o);
            spec.probe = displacementProbe;
            spec.probeId = "displacement-stats-v1";
            specs.push_back(std::move(spec));
        }
        SweepPlan window_plan = plan;
        window_plan.workloads = {"oltp-db2"};
        for (const WorkloadResult &r : driver.run(window_plan, specs)) {
            for (const EngineResult &e : r.engines) {
                double placed = e.extra.at("placed");
                double dropped = e.extra.at("dropped");
                sweep.addRow(
                    {e.engine, fmtPct(e.coverage),
                     fmtPct(e.overprediction),
                     fmtPct(placed + dropped > 0
                                ? dropped / (placed + dropped)
                                : 0.0)});
            }
        }
    }
    sweep.print(std::cout);

    std::cout << "\nPaper reference (Section 4.3): searching at most "
                 "two elements forward or\nbackward places 99% of "
                 "addresses (92% in their original location).\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
