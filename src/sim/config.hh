/**
 * @file
 * System configuration (paper Table 1) bundling the cache geometry,
 * timing parameters and every engine's defaults, plus the experiment
 * knobs shared by the benchmark harnesses.
 */

#ifndef STEMS_SIM_CONFIG_HH
#define STEMS_SIM_CONFIG_HH

#include <algorithm>
#include <string>

#include "core/stems.hh"
#include "mem/hierarchy.hh"
#include "prefetch/sms.hh"
#include "prefetch/stride.hh"
#include "prefetch/tms.hh"
#include "sim/timing.hh"

namespace stems {

/** Full modelled-system configuration. */
struct SystemConfig
{
    HierarchyParams hierarchy;
    TimingParams timing;
    StrideParams stride;
    TmsParams tms;
    SmsParams sms;
    StemsParams stems;
};

/** The paper's Table 1 configuration. */
SystemConfig defaultSystemConfig();

/** Human-readable description of a configuration (Table 1 style). */
std::string describeSystem(const SystemConfig &config);

/** Experiment knobs shared by the benches. */
struct ExperimentConfig
{
    SystemConfig system;
    /// Records generated per workload trace.
    std::size_t traceRecords = 2'000'000;
    /// Leading fraction of the trace used as warmup (the paper
    /// launches measurements from warmed checkpoints).
    double warmupFraction = 0.5;
    /// Absolute warmup override: when nonzero, exactly this many
    /// leading records train unmeasured (clamped to the trace
    /// length) and warmupFraction is ignored. Incremental sweeps
    /// (sim/driver.hh checkpointed execution) use this so extending
    /// --records keeps the warmup boundary — and therefore the
    /// simulated prefix — identical.
    std::size_t warmupRecords = 0;
    /// Trace-generation seed.
    std::uint64_t seed = 42;
    /// Model timing (Figure 10) or run functional-only (Figure 9).
    bool enableTiming = false;
};

/** The warmup-record count a run over `trace_size` records uses:
 *  the absolute override when set, else the warmup fraction. Shared
 *  by the driver and the serial reference runner so their cells stay
 *  bitwise comparable. */
inline std::size_t
effectiveWarmupRecords(const ExperimentConfig &config,
                       std::size_t trace_size)
{
    if (config.warmupRecords > 0)
        return std::min(config.warmupRecords, trace_size);
    return static_cast<std::size_t>(trace_size *
                                    config.warmupFraction);
}

} // namespace stems

#endif // STEMS_SIM_CONFIG_HH
