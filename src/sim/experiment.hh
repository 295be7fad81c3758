/**
 * @file
 * Experiment runner: generates each workload's trace, runs the
 * requested prefetch engines over it, and produces the normalized
 * metrics the paper's Figures 9 and 10 report.
 *
 * Normalization follows Section 5.5: covered, uncovered and
 * overpredicted counts are expressed relative to the off-chip read
 * misses of the *prefetch-free* system, and speedups are relative to
 * the baseline system with only a stride prefetcher (Table 1).
 */

#ifndef STEMS_SIM_EXPERIMENT_HH
#define STEMS_SIM_EXPERIMENT_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "prefetch/engine_registry.hh"
#include "sim/config.hh"
#include "sim/prefetch_sim.hh"
#include "workloads/workload.hh"

namespace stems {

/** Metrics for one engine on one workload. */
struct EngineResult
{
    std::string engine;
    SimStats stats;
    /// covered / baseline off-chip read misses.
    double coverage = 0.0;
    /// uncovered / baseline off-chip read misses.
    double uncovered = 0.0;
    /// overpredictions / baseline off-chip read misses.
    double overprediction = 0.0;
    /// baseline-with-stride cycles / this engine's cycles (timing
    /// runs only; 0 otherwise).
    double speedup = 0.0;
    /// Engine-specific metrics collected by an EngineSpec probe
    /// (e.g. the reconstruction displacement distribution).
    std::map<std::string, double> extra;
};

/** All engines' metrics for one workload. */
struct WorkloadResult
{
    std::string workload;
    WorkloadClass workloadClass = WorkloadClass::kOltp;
    std::uint64_t baselineMisses = 0; ///< prefetch-free read misses
    double baselineIpc = 0.0;         ///< stride-baseline IPC
    double baselineCycles = 0.0;      ///< prefetch-free cycles (timing)
    double strideCycles = 0.0;        ///< stride-baseline cycles
    std::vector<EngineResult> engines;

    /** Result for a named engine; null when absent. */
    const EngineResult *find(const std::string &engine) const;
};

/**
 * Serial reference runner: builds engines via the EngineRegistry and
 * runs workload/engine sweeps one cell at a time, recomputing the
 * baselines on every call. Production sweeps should use the parallel,
 * baseline-caching ExperimentDriver (sim/driver.hh); this class is
 * kept as the independent serial reference the driver is validated
 * against.
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentConfig config);

    /**
     * Instantiate a registered engine by name ("stride", "tms",
     * "sms", "stems", "tms+sms", plus any extensions). @return null
     * for unknown names.
     *
     * @param scientific  apply the scientific-workload lookahead of
     *                    12 (paper Section 4.3).
     */
    std::unique_ptr<Prefetcher> makeEngine(const std::string &name,
                                           bool scientific) const;

    /**
     * Run a list of engines over one workload. Always also runs the
     * prefetch-free baseline (for miss normalization) and, when timing
     * is enabled, the stride baseline (for speedups).
     */
    WorkloadResult runWorkload(const Workload &workload,
                               const std::vector<std::string> &engines);

    /** The configuration in use. */
    const ExperimentConfig &config() const { return config_; }

  private:
    ExperimentConfig config_;
};

} // namespace stems

#endif // STEMS_SIM_EXPERIMENT_HH
