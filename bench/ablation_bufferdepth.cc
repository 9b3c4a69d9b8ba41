/**
 * @file
 * Ablation: saturation throughput vs buffer depth, 2-16 slots per
 * input port, for all four organizations (Table 5 extended).  The
 * paper's conclusion — DAMQ's control logic buys more than FIFO's
 * extra storage — should show up as DAMQ's curve starting high and
 * flattening early while FIFO's creeps up slowly.
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_ablation_bufferdepth.json and
 * a PERF_ablation_bufferdepth.json timing sidecar.
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

const unsigned kDepths[] = {2, 3, 4, 6, 8, 12, 16};
const BufferType kTypes[] = {BufferType::Fifo, BufferType::Damq,
                             BufferType::Samq, BufferType::Safc};

/** SAMQ/SAFC partition storage statically; slots must split by 4. */
bool
configurable(BufferType type, unsigned slots)
{
    const bool partitioned =
        type == BufferType::Samq || type == BufferType::Safc;
    return !partitioned || slots % 4 == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("ablation_bufferdepth",
                   "Saturation throughput as buffer depth grows");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Ablation - saturation throughput vs buffer depth",
           "64x64 Omega, blocking, smart arbitration, uniform "
           "traffic; SAMQ/SAFC need slots divisible by 4");

    std::vector<FabricTask> tasks;
    for (const unsigned slots : kDepths) {
        for (const BufferType type : kTypes) {
            if (!configurable(type, slots))
                continue;
            FabricConfig cfg = paperNetworkConfig();
            cfg.bufferType = type;
            cfg.slotsPerBuffer = slots;
            cfg.common.measureCycles = 8000;
            tasks.push_back({detail::concat(bufferTypeName(type),
                                            "-", slots,
                                            "@saturation"),
                             atLoad(cfg, 1.0)});
        }
    }
    for (FabricTask &task : tasks)
        applyCommonSimFlags(args, task.config.common,
                            "ablation_bufferdepth");
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    TextTable table;
    table.setHeader({"Slots", "FIFO", "DAMQ", "SAMQ", "SAFC"});
    std::size_t next = 0;
    for (const unsigned slots : kDepths) {
        table.startRow();
        table.addCell(std::to_string(slots));
        for (const BufferType type : kTypes) {
            if (!configurable(type, slots)) {
                table.addCell("-");
                continue;
            }
            table.addCell(formatFixed(
                results[next++].deliveredThroughput, 3));
        }
    }
    std::cout << table.render()
              << "\nExpected shape: DAMQ starts high and flattens by "
                 "~4-8 slots; FIFO climbs slowly\nand stays below "
                 "even shallow DAMQ configurations.\n";

    {
        BenchJsonFile out("ablation_bufferdepth");
        JsonWriter &json = out.json();
        writeNetworkConfigJson(json, tasks.front().config);
        json.key("points");
        json.beginArray();
        std::size_t at = 0;
        for (const unsigned slots : kDepths) {
            for (const BufferType type : kTypes) {
                if (!configurable(type, slots))
                    continue;
                const core::SyncResult &r = results[at++];
                json.beginObject();
                json.field("buffer", bufferTypeName(type));
                json.field("slots",
                           static_cast<std::uint64_t>(slots));
                json.field("saturationThroughput",
                           r.deliveredThroughput);
                writeE2eLatencyJson(json, r);
                json.endObject();
            }
        }
        json.endArray();
    }
    writePerfSidecar("ablation_bufferdepth", runner,
                     taskLabels(tasks));
    return 0;
}
