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
 * to the same files.  Benches that need more than the result — a
 * drain, the fault report — pass a per-task observer.
 */

#ifndef DAMQ_RUNNER_NETWORK_SWEEP_HH
#define DAMQ_RUNNER_NETWORK_SWEEP_HH

#include <string>
#include <utility>
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
 * The config @p task runs with: its own, except that an enabled
 * telemetry plan writes under `<prefix>.<label>` (label sanitized),
 * so no two tasks of one sweep collide.
 */
FabricConfig taskConfig(const FabricTask &task);

/**
 * Build @p task's simulator, run() it, and return
 * `observe(task, sim, result)` — the observer may drain the
 * simulator or read its fault report before it is destroyed.
 * Usable as a SweepRunner::map/mapGuarded task body.
 */
template <typename Observe>
auto
runFabricTask(const FabricTask &task, Observe &observe)
{
    FabricSimulator sim(taskConfig(task));
    const core::SyncResult result = sim.run();
    return observe(task, sim, result);
}

/**
 * Run every task on @p runner; results come back in task order.
 * The runner's per-task perf counters report the task's measured
 * cycles (warmup excluded) as simCycles.
 */
std::vector<core::SyncResult> runSimSweep(
    SweepRunner &runner, const std::vector<FabricTask> &tasks);

/**
 * runSimSweep() with a per-task observer
 * `(const FabricTask &, FabricSimulator &, const core::SyncResult &)`
 * whose return values come back in task order.  It runs on the
 * worker thread, so it must only touch its own task's simulator.
 */
template <typename Observe>
auto
runSimSweep(SweepRunner &runner, const std::vector<FabricTask> &tasks,
            Observe &&observe)
{
    return runner.map(tasks.size(), [&](std::size_t i) {
        return runFabricTask(tasks[i], observe);
    });
}

/** Shorthand: @p base with offeredLoad set to @p load. */
FabricConfig atLoad(const FabricConfig &base, double load);

/** The labels of @p tasks, in order (for the perf sidecar). */
std::vector<std::string> taskLabels(const std::vector<FabricTask> &tasks);

} // namespace damq

#endif // DAMQ_RUNNER_NETWORK_SWEEP_HH
