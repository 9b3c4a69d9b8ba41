/**
 * @file
 * Ablation: switch radix.  The paper targets small n x n switches
 * with 2 <= n <= 10; this bench builds 64-endpoint Omega networks
 * from 2x2 (6 stages), 4x4 (3 stages), and 8x8 (2 stages) switches
 * and compares FIFO vs DAMQ.  Wider switches concentrate more
 * head-of-line conflicts per FIFO buffer, so DAMQ's advantage
 * should grow with radix, while base latency falls with stage
 * count.
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_ablation_switchradix.json and
 * a PERF_ablation_switchradix.json timing sidecar.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"

namespace {

using namespace damq;
using namespace damq::bench;

const std::uint32_t kRadixes[] = {2u, 4u, 8u};
const BufferType kTypes[] = {BufferType::Fifo, BufferType::Damq};

FabricConfig
radixConfig(std::uint32_t radix, BufferType type)
{
    FabricConfig cfg = paperNetworkConfig();
    cfg.radix = radix;
    // Keep storage proportional to radix (one slot per output), as
    // the paper does with 4 slots on a 4x4.
    cfg.slotsPerBuffer = radix;
    cfg.bufferType = type;
    cfg.common.measureCycles = 8000;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("ablation_switchradix",
                   "Latency and saturation across switch radices");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Ablation - switch radix (2x2 / 4x4 / 8x8)",
           "64 endpoints, blocking, smart arbitration, uniform "
           "traffic, 1 slot per output's worth of storage (radix "
           "slots per buffer)");

    std::vector<FabricTask> tasks;
    for (const std::uint32_t radix : kRadixes) {
        for (const BufferType type : kTypes) {
            const FabricConfig cfg = radixConfig(radix, type);
            const std::string stem = detail::concat(
                bufferTypeName(type), "-r", radix);
            tasks.push_back(
                {detail::concat(stem, "@0.30"), atLoad(cfg, 0.30)});
            tasks.push_back({detail::concat(stem, "@saturation"),
                             atLoad(cfg, 1.0)});
        }
    }
    for (FabricTask &task : tasks)
        applyCommonSimFlags(args, task.config.common,
                            "ablation_switchradix");
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    TextTable table;
    table.setHeader({"Radix", "Stages", "Buffer", "lat@0.30",
                     "saturated", "sat. throughput"});

    std::size_t next = 0;
    for (const std::uint32_t radix : kRadixes) {
        double fifo_sat = 0.0;
        double damq_sat = 0.0;
        for (const BufferType type : kTypes) {
            const FabricConfig cfg = radixConfig(radix, type);
            const core::SyncResult &at30 = results[next++];
            const core::SyncResult &sat = results[next++];

            table.startRow();
            table.addCell(std::to_string(radix));
            table.addCell(std::to_string(
                OmegaTopology(cfg.numPorts, cfg.radix).numStages()));
            table.addCell(bufferTypeName(type));
            table.addCell(formatFixed(at30.latency.mean(), 1));
            table.addCell(formatFixed(sat.latency.mean(), 1));
            table.addCell(
                formatFixed(sat.deliveredThroughput, 3));
            (type == BufferType::Fifo ? fifo_sat : damq_sat) =
                sat.deliveredThroughput;
        }
        std::cout << "radix " << radix << ": DAMQ/FIFO saturation = "
                  << formatFixed(damq_sat / fifo_sat, 2) << "\n";
    }
    std::cout << table.render()
              << "\nExpected shape: fewer stages -> lower base "
                 "latency; DAMQ's relative advantage\npersists at "
                 "every radix.\n";

    {
        BenchJsonFile out("ablation_switchradix");
        JsonWriter &json = out.json();
        // The first task's config carries every CLI override
        // (--workload included), unlike a fresh radixConfig().
        const FabricConfig &base = tasks.front().config;
        writeWorkloadJson(json, base.common.workload,
                          base.trafficClasses);
        json.key("rows");
        json.beginArray();
        std::size_t at = 0;
        for (const std::uint32_t radix : kRadixes) {
            for (const BufferType type : kTypes) {
                const FabricConfig cfg = radixConfig(radix, type);
                const core::SyncResult &at30 = results[at++];
                const core::SyncResult &sat = results[at++];
                json.beginObject();
                json.field("radix",
                           static_cast<std::uint64_t>(radix));
                json.field(
                    "stages",
                    static_cast<std::uint64_t>(
                        OmegaTopology(cfg.numPorts, cfg.radix)
                            .numStages()));
                json.field("buffer", bufferTypeName(type));
                json.field("latency30", at30.latency.mean());
                json.field("saturatedLatencyClocks", sat.latency.mean());
                json.field("saturationThroughput",
                           sat.deliveredThroughput);
                json.key("e2eLatency");
                json.beginArray();
                const core::SyncResult *points[] = {&at30, &sat};
                const double loads[] = {0.30, 1.0};
                for (std::size_t p = 0; p < 2; ++p) {
                    json.beginObject();
                    json.field("offeredLoad", loads[p]);
                    writeE2eLatencyJson(json, *points[p]);
                    json.endObject();
                }
                json.endArray();
                json.endObject();
            }
        }
        json.endArray();
    }
    writePerfSidecar("ablation_switchradix", runner,
                     taskLabels(tasks));
    return 0;
}
