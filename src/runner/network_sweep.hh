/**
 * @file
 * Sweep-task adapters between FabricSimulator and the SweepRunner.
 *
 * A bench describes its work as a flat, ordered list of tasks —
 * each one full fabric configuration (topology, offered load,
 * buffer type, seed, … already baked in) plus a human-readable
 * label for the perf sidecar.  runSimSweep() fans the list across
 * the runner's threads and hands back the results in task order, so
 * a bench's rendering code consumes them exactly as the old
 * sequential loops did.  Every task constructs its own simulator
 * from its own config; nothing is shared, which is what makes the
 * parallel run bit-identical to the sequential one.  When a task's
 * config enables telemetry, the adapter suffixes the output prefix
 * with the task's (sanitized) label so concurrent tasks never write
 * to the same files.
 */

#ifndef DAMQ_RUNNER_NETWORK_SWEEP_HH
#define DAMQ_RUNNER_NETWORK_SWEEP_HH

#include <string>
#include <vector>

#include "network/fabric_sim.hh"
#include "runner/sim_flags.hh"
#include "runner/sweep_runner.hh"

namespace damq {

/** One replication of a sweep: a label plus a full config. */
struct FabricTask
{
    std::string label; ///< e.g. "FIFO@0.25" (perf/telemetry only)
    FabricConfig config;
};

/**
 * Run every task on @p runner; results come back in task order.
 * The runner's per-task perf counters report the task's measured
 * cycles (warmup excluded) as simCycles.  Tasks with telemetry
 * enabled write their files under `<prefix>.<label>` so no two
 * tasks of one sweep collide.
 */
std::vector<core::SyncResult> runSimSweep(
    SweepRunner &runner, const std::vector<FabricTask> &tasks);

/** Shorthand: @p base with offeredLoad set to @p load. */
FabricConfig atLoad(const FabricConfig &base, double load);

/** The labels of @p tasks, in order (for the perf sidecar). */
std::vector<std::string> taskLabels(const std::vector<FabricTask> &tasks);

} // namespace damq

#endif // DAMQ_RUNNER_NETWORK_SWEEP_HH
