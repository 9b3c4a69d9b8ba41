#include "runner/network_sweep.hh"

namespace damq {

namespace {

std::uint64_t
measuredCyclesOf(const core::SyncResult &r)
{
    return r.measuredCycles;
}

} // namespace

std::vector<core::SyncResult>
runSimSweep(SweepRunner &runner, const std::vector<FabricTask> &tasks)
{
    return runner.map(
        tasks.size(),
        [&tasks](std::size_t i) {
            FabricConfig cfg = tasks[i].config;
            if (cfg.common.telemetry.enabled() &&
                !cfg.common.telemetry.outputPrefix.empty()) {
                cfg.common.telemetry.outputPrefix +=
                    "." + sanitizeFileToken(tasks[i].label);
            }
            return FabricSimulator(cfg).run();
        },
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
