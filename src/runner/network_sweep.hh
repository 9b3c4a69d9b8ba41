/**
 * @file
 * Sweep-task adapters between the simulators and the SweepRunner.
 *
 * A bench describes its work as a flat, ordered list of tasks —
 * each one full simulator configuration (offered load, buffer
 * type, seed, … already baked in) plus a human-readable label for
 * the perf sidecar.  runSimSweep() fans the list across the
 * runner's threads and hands back the results in task order, so a
 * bench's rendering code consumes them exactly as the old
 * sequential loops did.  Every task constructs its own simulator
 * from its own config; nothing is shared, which is what makes the
 * parallel run bit-identical to the sequential one.
 *
 * One template serves all three simulators: SimSweepTraits maps a
 * config type to its simulator and result types, so a bench for
 * any of them writes the same three lines (build tasks, run,
 * consume).  When a task's config enables telemetry, the adapter
 * suffixes the output prefix with the task's (sanitized) label so
 * concurrent tasks never write to the same files.
 */

#ifndef DAMQ_RUNNER_NETWORK_SWEEP_HH
#define DAMQ_RUNNER_NETWORK_SWEEP_HH

#include <string>
#include <vector>

#include "common/string_util.hh"
#include "network/mesh_sim.hh"
#include "network/network_sim.hh"
#include "network/torus_sim.hh"
#include "runner/sim_flags.hh"
#include "runner/sweep_runner.hh"

namespace damq {

/** One replication of a sweep: a label plus a full config. */
template <typename Config>
struct SimTask
{
    std::string label; ///< e.g. "FIFO@0.25" (perf/telemetry only)
    Config config;
};

using NetworkTask = SimTask<NetworkConfig>;
using MeshTask = SimTask<MeshConfig>;
using TorusTask = SimTask<TorusConfig>;

/** Config type -> simulator/result types, for runSimSweep(). */
template <typename Config>
struct SimSweepTraits;

template <>
struct SimSweepTraits<NetworkConfig>
{
    using Simulator = NetworkSimulator;
    using Result = NetworkResult;
    static std::uint64_t cycles(const Result &r)
    {
        return r.measuredCycles;
    }
};

template <>
struct SimSweepTraits<MeshConfig>
{
    using Simulator = MeshSimulator;
    using Result = MeshResult;
    static std::uint64_t cycles(const Result &r)
    {
        return r.measuredCycles;
    }
};

template <>
struct SimSweepTraits<TorusConfig>
{
    using Simulator = TorusSimulator;
    using Result = TorusResult;
    static std::uint64_t cycles(const Result &r)
    {
        return r.measuredCycles;
    }
};

/**
 * Run every task on @p runner; results come back in task order.
 * The runner's per-task perf counters report the task's measured
 * cycles (warmup excluded) as simCycles.  Tasks with telemetry
 * enabled write their files under `<prefix>.<label>` so no two
 * tasks of one sweep collide.
 */
template <typename Config>
std::vector<typename SimSweepTraits<Config>::Result>
runSimSweep(SweepRunner &runner,
            const std::vector<SimTask<Config>> &tasks)
{
    using Traits = SimSweepTraits<Config>;
    return runner.map(
        tasks.size(),
        [&tasks](std::size_t i) {
            Config cfg = tasks[i].config;
            if (cfg.common.telemetry.enabled() &&
                !cfg.common.telemetry.outputPrefix.empty()) {
                cfg.common.telemetry.outputPrefix +=
                    "." + sanitizeFileToken(tasks[i].label);
            }
            typename Traits::Simulator sim(cfg);
            return sim.run();
        },
        &Traits::cycles);
}

/** Historical names for the two original sweep flavors. */
inline std::vector<NetworkResult>
runNetworkSweep(SweepRunner &runner,
                const std::vector<NetworkTask> &tasks)
{
    return runSimSweep(runner, tasks);
}

/** Mesh flavor of runNetworkSweep. */
inline std::vector<MeshResult>
runMeshSweep(SweepRunner &runner, const std::vector<MeshTask> &tasks)
{
    return runSimSweep(runner, tasks);
}

/** Shorthand: @p base with offeredLoad set to @p load. */
NetworkConfig atLoad(const NetworkConfig &base, double load);

/** Shorthand: @p base with offeredLoad set to @p load. */
MeshConfig atLoad(const MeshConfig &base, double load);

/** Shorthand: @p base with offeredLoad set to @p load. */
TorusConfig atLoad(const TorusConfig &base, double load);

/** The labels of @p tasks, in order (for the perf sidecar). */
template <typename Config>
std::vector<std::string>
taskLabels(const std::vector<SimTask<Config>> &tasks)
{
    std::vector<std::string> labels;
    labels.reserve(tasks.size());
    for (const SimTask<Config> &task : tasks)
        labels.push_back(task.label);
    return labels;
}

} // namespace damq

#endif // DAMQ_RUNNER_NETWORK_SWEEP_HH
