/**
 * @file
 * Figure 7 — temporal repetition of miss addresses and spatial
 * triggers, via Sequitur grammar inference.
 *
 * For each workload the off-chip read-miss sequence ("All_Addrs") and
 * its spatial-trigger subsequence ("Triggers") are compressed with
 * Sequitur; each miss is classified as non-repetitive, new (first
 * occurrence of a repeated sequence), head (first element of later
 * occurrences), or opportunity (the coverable remainder).
 *
 * Paper shape: ~45% opportunity for all misses, ~47% for triggers;
 * triggers 5-15% lower than all-misses in OLTP/web, the opposite in
 * DSS.
 */

#include <algorithm>
#include <iostream>

#include "analysis/coverage.hh"
#include "analysis/sequitur.hh"
#include "bench/bench_util.hh"
#include "common/stats.hh"
#include "common/table.hh"

using namespace stems;

namespace {

Sequitur::Classification
classifySequence(const std::vector<Addr> &seq, std::size_t cap)
{
    Sequitur s;
    std::size_t n = std::min(seq.size(), cap);
    for (std::size_t i = 0; i < n; ++i)
        s.append(blockNumber(seq[i]));
    return s.classify();
}

std::vector<std::string>
row(const std::string &label, const Sequitur::Classification &c)
{
    return {label, std::to_string(c.total()),
            fmtPct(ratio(c.opportunity, c.total())),
            fmtPct(ratio(c.head, c.total())),
            fmtPct(ratio(c.newFirst, c.total())),
            fmtPct(ratio(c.nonRepetitive, c.total()))};
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 1'200'000);
    BenchObsSession obs(opts, "fig7_sequitur");
    requireNoEngineSelection(opts, "Sequitur analysis runs no engines");
    requireNoJson(opts, "Sequitur analysis produces no sweep results");
    // Sequitur grammars keep every symbol live: cap the analyzed
    // sequence length to bound memory.
    constexpr std::size_t kSymbolCap = 400'000;

    std::cout << banner(
        "Figure 7: Sequitur repetition, all misses vs triggers",
        opts);

    const std::vector<std::string> workloads = benchWorkloads(opts);
    const SweepPlan plan = benchPlan(opts, /*timing=*/false,
                                     workloads,
                                     std::vector<std::string>{});
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);

    std::vector<Sequitur::Classification> all(workloads.size());
    std::vector<Sequitur::Classification> trig(workloads.size());
    driver.forEachTrace(
        plan,
        [&](std::size_t index, const Workload &, const Trace &t) {
            MissSequences seqs = extractMissSequences(t);
            all[index] =
                classifySequence(seqs.allMisses, kSymbolCap);
            trig[index] =
                classifySequence(seqs.triggers, kSymbolCap);
        });

    Table table({"sequence", "symbols", "opportunity", "head", "new",
                 "non-rep"});
    for (std::size_t i = 0; i < workloads.size(); ++i) {
        table.addRow(row(workloads[i] + " All_Addrs", all[i]));
        table.addRow(row(workloads[i] + " Triggers", trig[i]));
        table.addSeparator();
    }
    table.print(std::cout);

    std::cout << "\nPaper reference (Section 1): 47% of "
                 "region-granularity misses recur in\nrepetitive "
                 "sequences, similar to the 45% repetition of all "
                 "misses.\n";
    reportStoreStats(driver);
    obs.finish();
    return 0;
}
