/**
 * @file
 * Why temporal streaming wins on pointer chases: a B-tree-style
 * traversal where every page lookup depends on data loaded from the
 * previous page. The baseline serializes one memory round-trip per
 * hop; TMS and STeMS replay the recorded miss order and fetch the
 * chain elements in parallel (paper Section 2.1), while SMS — with
 * nothing spatial to learn across randomly placed nodes — cannot
 * help.
 *
 * The hand-built trace is wrapped in a small Workload subclass so the
 * parallel ExperimentDriver can shard the engine runs over it like
 * any registered workload.
 *
 * Run: ./build/pointer_chase_oltp
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench/bench_util.hh"
#include "workloads/workload.hh"

using namespace stems;

namespace {

/** Repeated traversals of fixed pointer chains. */
class PointerChaseWorkload : public Workload
{
  public:
    std::string name() const override { return "pointer-chase"; }

    WorkloadClass
    workloadClass() const override
    {
        return WorkloadClass::kOltp;
    }

    Trace
    generate(std::uint64_t seed,
             std::size_t target_records) const override
    {
        const int chains = 48, hops = 120;
        // Honor the shared records knob by scaling the traversal
        // count; 0 keeps the historical 12 repeats per chain.
        const int repeats =
            target_records == 0
                ? 12
                : std::max<int>(1, static_cast<int>(
                                       target_records /
                                       (std::size_t(chains) * hops)));
        Rng rng(11 + seed);
        PageAllocator pool(rng.fork(1), 1 << 22);
        // Each chain is a fixed list of nodes; traversals repeat.
        std::vector<std::vector<Addr>> chain(chains);
        for (auto &c : chain)
            for (int h = 0; h < hops; ++h)
                c.push_back(pool.alloc());

        TraceBuilder b;
        Rng pick(12 + seed);
        for (int r = 0; r < repeats * chains; ++r) {
            const auto &c = chain[pick.below(chains)];
            b.breakChain();
            for (Addr node : c)
                b.read(node, 0x3000, 4, /*dep_on_prev_read=*/true);
        }
        return b.take();
    }
};

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions opts = parseBenchOptions(argc, argv, 0);
    BenchObsSession obs(opts, "pointer_chase_oltp");
    requireNoWorkloadSelection(
        opts, "this example always runs its own pointer-chase "
              "workload");
    PointerChaseWorkload workload;
    std::printf("pointer chase: 48 chains x 120 dependent hops, "
                "repeated\n\n");

    // The workload object is unregistered, so runWorkload takes it
    // directly; the plan still carries the trace knobs and policy.
    const std::vector<std::string> engines = benchEngines(
        opts, {"stride", "tms", "sms", "stems"});
    const SweepPlan plan = benchPlan(opts, /*timing=*/true,
                                     {workload.name()}, engines);
    ExperimentDriver driver;
    configureBenchDriver(driver, opts);
    WorkloadResult r =
        driver.runWorkload(plan, workload, engineSpecs(engines));
    maybeWriteJson(opts, {r});

    std::printf("%-8s %10s %10s %12s\n", "engine", "covered",
                "overpred", "speedup vs no-prefetch");
    for (const EngineResult &e : r.engines) {
        std::printf("%-8s %9.1f%% %9.1f%% %+11.1f%%\n",
                    e.engine.c_str(),
                    100.0 * e.coverage,
                    100.0 * e.overprediction,
                    100.0 * (r.baselineCycles / e.stats.cycles - 1));
    }

    std::printf("\nEach hop's address comes from the previous "
                "node's data, so the baseline\npays a full memory "
                "round-trip per hop; temporal streams overlap the "
                "chain.\n");
    obs.finish();
    return 0;
}
