/**
 * @file
 * Reproduces Table 3: "Discarding switches. Percentage of packets
 * discarded for given input throughput" — a 64x64 Omega network of
 * 4x4 switches under the discarding protocol with uniform traffic
 * and four slots per input buffer.
 *
 * Columns follow the paper: dumb arbitration at offered loads of
 * 0.25 and 0.50 plus an over-capacity point (we use 0.75, where
 * every organization is past saturation), then smart arbitration
 * at 0.50.  "Over capacity" also reports the *output* throughput,
 * which is visibly below the input throughput because of the
 * discards.
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_table3_discarding.json and a
 * PERF_table3_discarding.json timing sidecar.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"
#include "switchsim/arbiter.hh"

namespace {

using namespace damq;
using namespace damq::bench;

/** One measured cell of the table. */
struct Point
{
    ArbitrationPolicy arbitration;
    double offeredLoad;
};

const Point kPoints[] = {{ArbitrationPolicy::Dumb, 0.25},
                         {ArbitrationPolicy::Dumb, 0.50},
                         {ArbitrationPolicy::Dumb, 0.75},
                         {ArbitrationPolicy::Smart, 0.50}};

FabricConfig
pointConfig(BufferType type, const Point &point)
{
    FabricConfig cfg = paperNetworkConfig();
    cfg.protocol = FlowControl::Discarding;
    cfg.bufferType = type;
    cfg.arbitration = point.arbitration;
    cfg.offeredLoad = point.offeredLoad;
    cfg.common.measureCycles = 20000;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("table3_discarding",
                   "Reproduce Table 3 (discarding-protocol "
                   "discard rates)");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Table 3 - Discarding switches: % packets discarded",
           "64x64 Omega of 4x4 switches, uniform traffic, 4 slots "
           "per input buffer, over-capacity = 0.75 offered");

    std::vector<FabricTask> tasks;
    for (const BufferType type : kAllBufferTypes) {
        for (const Point &point : kPoints) {
            tasks.push_back(
                {detail::concat(bufferTypeName(type), "/",
                                arbitrationPolicyName(
                                    point.arbitration),
                                "@", formatFixed(point.offeredLoad,
                                                 2)),
                 pointConfig(type, point)});
        }
    }
    for (FabricTask &task : tasks)
        applyCommonSimFlags(args, task.config.common,
                            "table3_discarding");
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    TextTable table;
    table.setHeader({"Buffer", "dumb@0.25", "dumb@0.50",
                     "dumb overcap %disc", "overcap out-thruput",
                     "smart@0.50"});

    std::size_t next = 0;
    for (const BufferType type : kAllBufferTypes) {
        const core::SyncResult &d25 = results[next++];
        const core::SyncResult &d50 = results[next++];
        const core::SyncResult &over = results[next++];
        const core::SyncResult &s50 = results[next++];

        table.startRow();
        table.addCell(bufferTypeName(type));
        table.addCell(formatFixed(d25.discardFraction * 100, 2));
        table.addCell(formatFixed(d50.discardFraction * 100, 2));
        table.addCell(formatFixed(over.discardFraction * 100, 2));
        table.addCell(formatFixed(over.deliveredThroughput, 2));
        table.addCell(formatFixed(s50.discardFraction * 100, 2));
    }
    std::cout << table.render();

    std::cout
        << "\nPaper reference (Table 3):\n"
           "  buffer  dumb@0.25  dumb@0.50  overcap%  overthru  "
           "smart@0.50\n"
           "  FIFO      0.02       3.14      21.72      0.56      "
           "3.17\n"
           "  SAMQ      0.08       8.69      22.44      0.42      "
           "8.63\n"
           "  SAFC      0.07       8.05      20.55      0.44      "
           "8.04\n"
           "  DAMQ      0+         0.22       5.37      0.69      "
           "0.22\n"
        << "\nShape checks: DAMQ discards far less than the rest at "
           "0.50 and over capacity;\nSAMQ/SAFC discard most; dumb "
           "and smart arbitration are nearly identical at 0.50.\n";

    {
        BenchJsonFile out("table3_discarding");
        JsonWriter &json = out.json();
        writeNetworkConfigJson(json, tasks.front().config);
        json.key("rows");
        json.beginArray();
        std::size_t at = 0;
        for (const BufferType type : kAllBufferTypes) {
            json.beginObject();
            json.field("buffer", bufferTypeName(type));
            json.key("points");
            json.beginArray();
            for (const Point &point : kPoints) {
                const core::SyncResult &r = results[at++];
                json.beginObject();
                json.field("arbitration",
                           arbitrationPolicyName(point.arbitration));
                json.field("offeredLoad", point.offeredLoad);
                json.field("discardFraction", r.discardFraction);
                json.field("deliveredThroughput",
                           r.deliveredThroughput);
                writeE2eLatencyJson(json, r);
                json.endObject();
            }
            json.endArray();
            json.endObject();
        }
        json.endArray();
    }

    writePerfSidecar("table3_discarding", runner, taskLabels(tasks));
    return 0;
}
