/**
 * @file
 * Table 1 — system and application parameters: prints the modelled
 * node configuration and the synthetic application suite standing in
 * for the paper's workloads (see DESIGN.md Section 1 for the
 * substitution rationale).
 */

#include <cstdio>

#include "bench/bench_util.hh"
#include "sim/config.hh"
#include "workloads/registry.hh"

using namespace stems;

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 200'000);
    BenchObsSession obs(opts, "table1_config");
    requireNoEngineSelection(opts, "configuration report runs no engines");
    requireNoJson(opts,
                  "configuration report produces no sweep results");

    std::printf("=== Table 1: system and application parameters ===\n\n");
    std::printf("%s\n", describeSystem(defaultSystemConfig()).c_str());

    std::printf("Application suite (synthetic stand-ins; paper "
                "originals in parentheses)\n");
    std::printf("  web-apache   Web serving (SPECweb99 on Apache "
                "2.0, 16K connections)\n");
    std::printf("  web-zeus     Web serving (SPECweb99 on Zeus 4.3)\n");
    std::printf("  oltp-db2     OLTP (TPC-C v3.0 on DB2 v8 ESE, 100 "
                "warehouses)\n");
    std::printf("  oltp-oracle  OLTP (TPC-C v3.0 on Oracle 10g, 100 "
                "warehouses)\n");
    std::printf("  dss-qry2     DSS (TPC-H Qry 2 on DB2, "
                "join-dominated)\n");
    std::printf("  dss-qry16    DSS (TPC-H Qry 16 on DB2, "
                "join-dominated)\n");
    std::printf("  dss-qry17    DSS (TPC-H Qry 17 on DB2, balanced "
                "scan-join)\n");
    std::printf("  em3d         Scientific (em3d: 3M nodes, degree "
                "2)\n");
    std::printf("  ocean        Scientific (ocean: 1026x1026 grid)\n");
    std::printf("  sparse       Scientific (sparse: 4096x4096 "
                "matrix)\n\n");

    // Sampled summaries, generated in parallel through the driver.
    const std::vector<std::string> workloads = benchWorkloads(opts);
    const SweepPlan plan = benchPlan(opts, /*timing=*/false,
                                     workloads,
                                     std::vector<std::string>{});
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);
    std::vector<TraceSummary> summaries(workloads.size());
    driver.forEachTrace(
        plan,
        [&](std::size_t index, const Workload &, const Trace &t) {
            summaries[index] = summarize(t);
        });

    std::printf("Workload statistics (%zu-record traces, seed "
                "%llu):\n",
                opts.records,
                static_cast<unsigned long long>(opts.seed));
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        const TraceSummary &s = summaries[i];
        std::printf("  %-12s %8zu records  %5.1f%% reads  %5.1f%% "
                    "dependent  %7zu regions\n",
                    workloads[i].c_str(), s.records,
                    100.0 * s.reads / s.records,
                    100.0 * s.dependentReads / (s.reads ? s.reads : 1),
                    s.distinctRegions);
    }
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
