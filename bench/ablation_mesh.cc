/**
 * @file
 * Ablation: the multicomputer setting.  The DAMQ buffer was built
 * for the ComCoBB communication coprocessor — a 5-port switch on a
 * point-to-point network — and only evaluated in a multistage
 * network "in that context" (Section 1).  This bench closes the
 * loop: an 8x8 2D mesh of 5-port switches with XY routing, all
 * four buffer organizations, uniform and transpose traffic.
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_ablation_mesh.json and a
 * PERF_ablation_mesh.json timing sidecar.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "network/fabric_sim.hh"
#include "network/saturation.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"

namespace {

using namespace damq;
using namespace damq::bench;

const double kLoads[] = {0.10, 0.25, 0.40};

FabricConfig
meshConfig(BufferType type, const std::string &traffic)
{
    FabricConfig cfg = FabricConfig::mesh();
    cfg.width = 8;
    cfg.height = 8;
    cfg.bufferType = type;
    cfg.slotsPerBuffer = 5; // one slot per port's worth
    cfg.traffic = traffic;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 2000;
    cfg.common.measureCycles = 10000;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("ablation_mesh",
                   "Buffer organizations on an 8x8 mesh "
                   "multicomputer");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Ablation - 8x8 mesh multicomputer (5-port switches, "
           "XY routing)",
           "the ComCoBB's own deployment context; latency in "
           "network cycles, blocking protocol");

    const std::string kTraffics[] = {"uniform", "transpose"};

    std::vector<FabricTask> tasks;
    for (const std::string &traffic : kTraffics) {
        for (const BufferType type : kAllBufferTypes) {
            const FabricConfig cfg = meshConfig(type, traffic);
            for (const double load : kLoads)
                tasks.push_back(
                    {detail::concat(bufferTypeName(type), "/",
                                    traffic, "@",
                                    formatFixed(load, 2)),
                     atLoad(cfg, load)});
            tasks.push_back(
                {detail::concat(bufferTypeName(type), "/", traffic,
                                "@saturation"),
                 atLoad(cfg, 1.0)});
        }
    }
    for (FabricTask &task : tasks)
        applyCommonSimFlags(args, task.config.common,
                            "ablation_mesh");
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    std::size_t next = 0;
    for (const std::string &traffic : kTraffics) {
        TextTable table;
        table.setHeader({"Buffer", "lat@0.10", "lat@0.25",
                         "lat@0.40", "sat. throughput"});
        double fifo_sat = 0.0;
        double damq_sat = 0.0;
        for (const BufferType type : kAllBufferTypes) {
            table.startRow();
            table.addCell(bufferTypeName(type));
            for (std::size_t l = 0; l < 3; ++l) {
                table.addCell(formatFixed(
                    results[next++].latency.mean(), 2));
            }
            const double sat =
                results[next++].deliveredThroughput;
            table.addCell(formatFixed(sat, 3));
            if (type == BufferType::Fifo)
                fifo_sat = sat;
            if (type == BufferType::Damq)
                damq_sat = sat;
        }
        std::cout << "\n" << traffic << " traffic:\n"
                  << table.render() << "DAMQ/FIFO saturation = "
                  << formatFixed(damq_sat / fifo_sat, 2) << "\n";
    }

    std::cout
        << "\nExpected shape: on uniform traffic the DAMQ advantage "
           "carries over from the Omega\nnetwork to the mesh "
           "(smaller margin: 5-port switches with short XY routes "
           "see less\nhead-of-line conflict).  Under the transpose "
           "permutation FIFO and DAMQ coincide\nexactly — with XY "
           "routing each input buffer only ever serves one output, "
           "so the\nmulti-queue machinery is structurally idle; "
           "likewise SAMQ equals SAFC.  Multi-queue\nbuffers pay "
           "off when flows *mix* at the inputs, which permutations "
           "avoid.\n";

    // The generic saturation search (saturation.hh) runs on any
    // core-based simulator; cross-check it against the sweep's
    // load-1.0 rows on a shorter schedule.
    FabricConfig sat_base = meshConfig(BufferType::Fifo, "uniform");
    sat_base.common.warmupCycles = 1000;
    sat_base.common.measureCycles = 4000;
    applyCommonSimFlags(args, sat_base.common, "ablation_mesh");
    sat_base.common.telemetry = obs::TelemetryConfig{}; // sweep owns files
    std::cout << "\nGeneric saturation search (shared "
                 "measureSaturation, short schedule):\n";
    SaturationSummary sat_check[2];
    {
        TextTable table;
        table.setHeader({"Buffer", "sat. throughput",
                         "sat. latency (cycles)"});
        const BufferType kEnds[] = {BufferType::Fifo,
                                    BufferType::Damq};
        for (std::size_t i = 0; i < 2; ++i) {
            FabricConfig cfg = sat_base;
            cfg.bufferType = kEnds[i];
            sat_check[i] = measureSaturation(cfg);
            table.startRow();
            table.addCell(bufferTypeName(kEnds[i]));
            table.addCell(formatFixed(
                sat_check[i].saturationThroughput, 3));
            table.addCell(formatFixed(
                sat_check[i].saturatedLatencyClocks, 2));
        }
        std::cout << table.render();
    }

    {
        BenchJsonFile out("ablation_mesh");
        JsonWriter &json = out.json();
        // The first task's config carries every CLI override
        // (--workload included), unlike a fresh meshConfig().
        const FabricConfig &base = tasks.front().config;
        json.key("config");
        json.beginObject();
        json.field("width", static_cast<std::uint64_t>(base.width));
        json.field("height",
                   static_cast<std::uint64_t>(base.height));
        json.field("slotsPerBuffer",
                   static_cast<std::uint64_t>(base.slotsPerBuffer));
        json.field("seed", base.common.seed);
        json.field("warmupCycles",
                   static_cast<std::uint64_t>(base.common.warmupCycles));
        json.field("measureCycles",
                   static_cast<std::uint64_t>(base.common.measureCycles));
        json.endObject();
        writeWorkloadJson(json, base.common.workload,
                          base.trafficClasses);
        json.key("rows");
        json.beginArray();
        std::size_t at = 0;
        for (const std::string &traffic : kTraffics) {
            for (const BufferType type : kAllBufferTypes) {
                json.beginObject();
                json.field("buffer", bufferTypeName(type));
                json.field("traffic", traffic);
                json.key("latencyCycles");
                json.beginArray();
                const std::size_t first = at;
                for (std::size_t l = 0; l < 3; ++l)
                    json.value(results[at++].latency.mean());
                json.endArray();
                json.field("saturationThroughput",
                           results[at++].deliveredThroughput);
                json.key("e2eLatency");
                json.beginArray();
                for (std::size_t p = 0; p < 4; ++p) {
                    json.beginObject();
                    json.field("offeredLoad",
                               p < 3 ? kLoads[p] : 1.0);
                    writeE2eLatencyJson(json, results[first + p]);
                    json.endObject();
                }
                json.endArray();
                json.endObject();
            }
        }
        json.endArray();
        json.key("saturationCheck");
        json.beginObject();
        json.field("fifo", sat_check[0].saturationThroughput);
        json.field("damq", sat_check[1].saturationThroughput);
        json.endObject();
    }
    writePerfSidecar("ablation_mesh", runner, taskLabels(tasks));
    return 0;
}
