/**
 * @file
 * Reproduces Table 6: "Average Latency for Given Throughputs with
 * 5% Hot Spot Traffic".  Five percent of all packets target node 0
 * (Pfister & Norton); the resulting tree saturation caps every
 * buffer organization at the same ~0.24 throughput — buffer type
 * does not matter under hot spots, which is the paper's argument
 * for a separate combining network in machines like the RP3.
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_table6_hotspot.json and a
 * PERF_table6_hotspot.json timing sidecar.
 */

#include <algorithm>
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

FabricConfig
hotspotConfig(BufferType type)
{
    FabricConfig cfg = paperNetworkConfig();
    cfg.bufferType = type;
    cfg.traffic = "hotspot";
    cfg.common.warmupCycles = 4000; // tree saturation builds slowly
    cfg.common.measureCycles = 16000;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("table6_hotspot",
                   "Reproduce Table 6 (5% hot-spot traffic and "
                   "tree saturation)");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Table 6 - 5% hot-spot traffic",
           "64x64 Omega, blocking, smart arbitration, 4 slots; all "
           "organizations tree-saturate near 0.24");

    std::vector<FabricTask> tasks;
    for (const BufferType type : kAllBufferTypes) {
        const FabricConfig cfg = hotspotConfig(type);
        tasks.push_back({detail::concat(bufferTypeName(type),
                                        "@0.125"),
                         atLoad(cfg, 0.125)});
        tasks.push_back({detail::concat(bufferTypeName(type),
                                        "@0.20"),
                         atLoad(cfg, 0.20)});
        tasks.push_back({detail::concat(bufferTypeName(type),
                                        "@saturation"),
                         atLoad(cfg, 1.0)});
    }
    // Extension: the authors' own 1992 follow-up reserves one slot
    // per queue so hot-spot traffic cannot monopolize the pool.
    // The tree-saturation cap is a bisection limit, so total
    // saturation cannot move — but in-network latency near the cap
    // can.
    const BufferType kExtensionTypes[] = {BufferType::Damq,
                                          BufferType::DamqR};
    for (const BufferType type : kExtensionTypes) {
        const FabricConfig cfg = hotspotConfig(type);
        tasks.push_back({detail::concat("ext-",
                                        bufferTypeName(type),
                                        "@0.20"),
                         atLoad(cfg, 0.20)});
        tasks.push_back({detail::concat("ext-",
                                        bufferTypeName(type),
                                        "@saturation"),
                         atLoad(cfg, 1.0)});
    }
    for (FabricTask &task : tasks)
        applyCommonSimFlags(args, task.config.common,
                            "table6_hotspot");
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    TextTable table;
    table.setHeader({"Buffer", "12.5%", "20.0%", "saturated",
                     "sat. throughput"});

    double min_sat = 1.0;
    double max_sat = 0.0;
    std::size_t next = 0;
    for (const BufferType type : kAllBufferTypes) {
        const core::SyncResult &at125 = results[next++];
        const core::SyncResult &at20 = results[next++];
        const core::SyncResult &sat = results[next++];

        table.startRow();
        table.addCell(bufferTypeName(type));
        table.addCell(formatFixed(at125.latency.mean(), 2));
        table.addCell(formatFixed(at20.latency.mean(), 2));
        table.addCell(formatFixed(sat.latency.mean(), 2));
        table.addCell(formatFixed(sat.deliveredThroughput, 2));
        min_sat = std::min(min_sat, sat.deliveredThroughput);
        max_sat = std::max(max_sat, sat.deliveredThroughput);
    }
    std::cout << table.render();

    std::cout
        << "\nPaper reference (Table 6):\n"
           "  buffer  12.5%   20.0%   saturated  sat.thru\n"
           "  FIFO    38.50   42.82    129.62      0.24\n"
           "  SAMQ    39.51   44.53     68.46      0.24\n"
           "  SAFC    39.32   43.87     66.43      0.24\n"
           "  DAMQ    38.41   41.82    168.27      0.24\n";

    std::cout << "\nKey claim (all types saturate together): spread = "
              << formatFixed(max_sat - min_sat, 3)
              << " (expect < ~0.05); asymptotic hot-spot cap is "
                 "1/(64*(0.05+0.95/64)) = 0.241\n";

    TextTable ext;
    ext.setHeader({"Buffer", "lat@0.20", "saturated",
                   "sat. throughput"});
    for (const BufferType type : kExtensionTypes) {
        const core::SyncResult &at20 = results[next++];
        const core::SyncResult &sat = results[next++];
        ext.startRow();
        ext.addCell(bufferTypeName(type));
        ext.addCell(formatFixed(at20.latency.mean(), 2));
        ext.addCell(formatFixed(sat.latency.mean(), 2));
        ext.addCell(formatFixed(sat.deliveredThroughput, 2));
    }
    std::cout << "\nExtension - DAMQ with reserved slots (Tamir & "
                 "Frazier 1992):\n"
              << ext.render();

    {
        BenchJsonFile out("table6_hotspot");
        JsonWriter &json = out.json();
        writeNetworkConfigJson(json, tasks.front().config);
        json.key("rows");
        json.beginArray();
        std::size_t at = 0;
        for (const BufferType type : kAllBufferTypes) {
            const core::SyncResult &at125 = results[at++];
            const core::SyncResult &at20 = results[at++];
            const core::SyncResult &sat = results[at++];
            json.beginObject();
            json.field("buffer", bufferTypeName(type));
            json.field("latency125", at125.latency.mean());
            json.field("latency20", at20.latency.mean());
            json.field("saturatedLatencyClocks", sat.latency.mean());
            json.field("saturationThroughput",
                       sat.deliveredThroughput);
            json.key("e2eLatency");
            json.beginArray();
            const core::SyncResult *points[] = {&at125, &at20, &sat};
            const double loads[] = {0.125, 0.20, 1.0};
            for (std::size_t p = 0; p < 3; ++p) {
                json.beginObject();
                json.field("offeredLoad", loads[p]);
                writeE2eLatencyJson(json, *points[p]);
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
        json.endArray();
        json.key("extensionRows");
        json.beginArray();
        for (const BufferType type : kExtensionTypes) {
            const core::SyncResult &at20 = results[at++];
            const core::SyncResult &sat = results[at++];
            json.beginObject();
            json.field("buffer", bufferTypeName(type));
            json.field("latency20", at20.latency.mean());
            json.field("saturatedLatencyClocks", sat.latency.mean());
            json.field("saturationThroughput",
                       sat.deliveredThroughput);
            json.key("e2eLatency");
            json.beginArray();
            const core::SyncResult *points[] = {&at20, &sat};
            const double loads[] = {0.20, 1.0};
            for (std::size_t p = 0; p < 2; ++p) {
                json.beginObject();
                json.field("offeredLoad", loads[p]);
                writeE2eLatencyJson(json, *points[p]);
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
        json.endArray();
    }
    writePerfSidecar("table6_hotspot", runner, taskLabels(tasks));
    return 0;
}
