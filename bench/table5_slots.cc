/**
 * @file
 * Reproduces Table 5: "Average Latencies for Given Throughput,
 * Varying Number of Slots" — FIFO and DAMQ with 3, 4, and 8 slots
 * per input buffer.  The paper's point: adding storage moves DAMQ's
 * saturation only slightly (0.63 / 0.70 / 0.74), so silicon is
 * better spent on DAMQ's control than on more FIFO slots — even
 * FIFO-8 (0.56) stays below DAMQ-3 (0.63).
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_table5_slots.json and a
 * PERF_table5_slots.json timing sidecar.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"

int
main(int argc, char **argv)
{
    using namespace damq;
    using namespace damq::bench;

    ArgParser args("table5_slots",
                   "Reproduce Table 5 (latency vs throughput at "
                   "3/4/8 slots per buffer)");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Table 5 - Latency vs throughput, varying slots",
           "64x64 Omega, blocking, smart arbitration, uniform "
           "traffic; FIFO and DAMQ with 3/4/8 slots");

    const BufferType kTypes[] = {BufferType::Fifo, BufferType::Damq};
    const unsigned kSlots[] = {3u, 4u, 8u};

    std::vector<FabricTask> tasks;
    for (const BufferType type : kTypes) {
        for (const unsigned slots : kSlots) {
            FabricConfig cfg = paperNetworkConfig();
            cfg.bufferType = type;
            cfg.slotsPerBuffer = slots;
            const std::string stem = detail::concat(
                bufferTypeName(type), "-", slots);
            tasks.push_back(
                {detail::concat(stem, "@0.25"), atLoad(cfg, 0.25)});
            tasks.push_back(
                {detail::concat(stem, "@0.50"), atLoad(cfg, 0.50)});
            tasks.push_back({detail::concat(stem, "@saturation"),
                             atLoad(cfg, 1.0)});
        }
    }
    for (FabricTask &task : tasks)
        applyCommonSimFlags(args, task.config.common, "table5_slots");
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    TextTable table;
    table.setHeader({"Buffer", "Slots", "25%", "50%", "saturated",
                     "sat. throughput"});

    double damq3 = 0.0;
    double fifo8 = 0.0;
    std::size_t next = 0;
    for (const BufferType type : kTypes) {
        for (const unsigned slots : kSlots) {
            const core::SyncResult &at25 = results[next++];
            const core::SyncResult &at50 = results[next++];
            const core::SyncResult &sat = results[next++];

            table.startRow();
            table.addCell(bufferTypeName(type));
            table.addCell(std::to_string(slots));
            table.addCell(formatFixed(at25.latency.mean(), 1));
            table.addCell(formatFixed(at50.latency.mean(), 1));
            table.addCell(formatFixed(sat.latency.mean(), 1));
            table.addCell(
                formatFixed(sat.deliveredThroughput, 2));

            if (type == BufferType::Damq && slots == 3)
                damq3 = sat.deliveredThroughput;
            if (type == BufferType::Fifo && slots == 8)
                fifo8 = sat.deliveredThroughput;
        }
    }
    std::cout << table.render();

    std::cout
        << "\nPaper reference (Table 5):\n"
           "  buffer slots  25%    50%   saturated  sat.thru\n"
           "  FIFO     3   41.4   96.5    142.4      0.48\n"
           "  FIFO     4   41.5   89.9    169.8      0.51\n"
           "  FIFO     8   41.4   74.2    284.6      0.56\n"
           "  DAMQ     3   41.1   57.3    109.9      0.63\n"
           "  DAMQ     4   41.1   56.2    117.3      0.70\n"
           "  DAMQ     8   41.1   56.2    108.5      0.74\n";

    std::cout << "\nKey claim (DAMQ-3 saturates above FIFO-8): "
              << (damq3 > fifo8 ? "PASS" : "FAIL") << " ("
              << formatFixed(damq3, 2) << " vs "
              << formatFixed(fifo8, 2) << ")\n";

    {
        BenchJsonFile out("table5_slots");
        JsonWriter &json = out.json();
        writeNetworkConfigJson(json, tasks.front().config);
        json.key("rows");
        json.beginArray();
        std::size_t at = 0;
        for (const BufferType type : kTypes) {
            for (const unsigned slots : kSlots) {
                const core::SyncResult &at25 = results[at++];
                const core::SyncResult &at50 = results[at++];
                const core::SyncResult &sat = results[at++];
                json.beginObject();
                json.field("buffer", bufferTypeName(type));
                json.field("slots",
                           static_cast<std::uint64_t>(slots));
                json.field("latency25", at25.latency.mean());
                json.field("latency50", at50.latency.mean());
                json.field("saturatedLatencyClocks", sat.latency.mean());
                json.field("saturationThroughput",
                           sat.deliveredThroughput);
                json.key("e2eLatency");
                json.beginArray();
                const core::SyncResult *points[] = {&at25, &at50,
                                                 &sat};
                const double loads[] = {0.25, 0.50, 1.0};
                for (std::size_t p = 0; p < 3; ++p) {
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
    writePerfSidecar("table5_slots", runner, taskLabels(tasks));
    return 0;
}
