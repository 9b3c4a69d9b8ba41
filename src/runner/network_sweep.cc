#include "runner/network_sweep.hh"

namespace damq {

namespace {

std::uint64_t
measuredCyclesOf(const core::SyncResult &r)
{
    return r.measuredCycles;
}

} // namespace

FabricConfig
taskConfig(const FabricTask &task)
{
    FabricConfig cfg = task.config;
    if (cfg.common.telemetry.enabled() &&
        !cfg.common.telemetry.outputPrefix.empty()) {
        cfg.common.telemetry.outputPrefix +=
            "." + sanitizeFileToken(task.label);
    }
    return cfg;
}

std::vector<core::SyncResult>
runSimSweep(SweepRunner &runner, const std::vector<FabricTask> &tasks)
{
    const auto result_only = [](const FabricTask &, FabricSimulator &,
                                const core::SyncResult &result) {
        return result;
    };
    return runner.map(
        tasks.size(),
        [&](std::size_t i) { return runFabricTask(tasks[i], result_only); },
        &measuredCyclesOf);
}

FabricConfig
atLoad(const FabricConfig &base, double load)
{
    FabricConfig cfg = base;
    cfg.offeredLoad = load;
    return cfg;
}

std::vector<std::string>
taskLabels(const std::vector<FabricTask> &tasks)
{
    std::vector<std::string> labels;
    labels.reserve(tasks.size());
    for (const FabricTask &task : tasks)
        labels.push_back(task.label);
    return labels;
}

} // namespace damq
