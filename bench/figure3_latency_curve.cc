/**
 * @file
 * Reproduces Figure 3: "FIFO and DAMQ Buffers with Four Slots,
 * Uniform Traffic" — the latency-vs-throughput curves.  Both
 * organizations show the Pfister/Norton shape (flat latency, then
 * a near-vertical wall at saturation); the DAMQ wall sits ~40 %
 * further right.  Prints the two series and an ASCII rendering.
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_figure3_latency_curve.json, a
 * flat figure3_latency_curve.csv of the two series, and a
 * PERF_figure3_latency_curve.json timing sidecar.
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "network/saturation.hh"
#include "runner/bench_output.hh"
#include "common/csv_writer.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"

namespace {

using namespace damq;

/** Project a simulation result onto the figure's sweep point. */
SweepPoint
toSweepPoint(double load, const core::SyncResult &result)
{
    SweepPoint sp;
    sp.offeredLoad = load;
    sp.deliveredThroughput = result.deliveredThroughput;
    sp.avgLatencyClocks = result.latency.mean();
    sp.p99LatencyClocks = result.latency.mean() +
                          2.33 * result.latency.stddev();
    sp.discardFraction = result.discardFraction;
    return sp;
}

/** Crude ASCII scatter: x = delivered throughput, y = latency. */
std::string
asciiPlot(const std::vector<SweepPoint> &fifo,
          const std::vector<SweepPoint> &damq)
{
    const int width = 64;
    const int height = 20;
    const double max_latency = 200.0;
    std::vector<std::string> canvas(
        height, std::string(width, ' '));

    auto plot = [&](const std::vector<SweepPoint> &curve, char mark) {
        for (const SweepPoint &pt : curve) {
            const int x = std::min(
                width - 1,
                static_cast<int>(pt.deliveredThroughput * width));
            const double capped =
                std::min(pt.avgLatencyClocks, max_latency);
            const int y = std::min(
                height - 1,
                static_cast<int>(capped / max_latency * height));
            canvas[height - 1 - y][x] = mark;
        }
    };
    plot(fifo, 'F');
    plot(damq, 'D');

    std::string out;
    out += "latency (clocks, capped at 200)\n";
    for (int row = 0; row < height; ++row) {
        const double y_value =
            max_latency * (height - row) / height;
        out += padLeft(formatFixed(y_value, 0), 5) + " |" +
               canvas[row] + "\n";
    }
    out += "      +" + std::string(width, '-') + "\n";
    out += "       0        delivered throughput              1.0\n";
    return out;
}

/**
 * Serialize one curve as a JSON array field named @p key; the
 * end-to-end tails come from the raw results starting at
 * @p offset (same order as @p curve).
 */
void
writeCurveJson(JsonWriter &json, const std::string &key,
               const std::vector<SweepPoint> &curve,
               const std::vector<core::SyncResult> &results,
               std::size_t offset)
{
    json.key(key);
    json.beginArray();
    for (std::size_t i = 0; i < curve.size(); ++i) {
        const SweepPoint &pt = curve[i];
        json.beginObject();
        json.field("offeredLoad", pt.offeredLoad);
        json.field("deliveredThroughput", pt.deliveredThroughput);
        json.field("avgLatencyClocks", pt.avgLatencyClocks);
        json.field("p99LatencyClocks", pt.p99LatencyClocks);
        json.field("discardFraction", pt.discardFraction);
        writeE2eLatencyJson(json, results[offset + i]);
        json.endObject();
    }
    json.endArray();
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace damq::bench;

    ArgParser args("figure3_latency_curve",
                   "Reproduce Figure 3 (latency/throughput curves "
                   "for FIFO and DAMQ)");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Figure 3 - Latency vs throughput, FIFO vs DAMQ",
           "64x64 Omega, 4 slots, blocking, smart arbitration, "
           "uniform traffic");

    std::vector<double> loads;
    for (double p = 0.05; p <= 0.96; p += 0.05)
        loads.push_back(p);
    loads.push_back(1.0);

    FabricConfig cfg = paperNetworkConfig();
    cfg.common.measureCycles = 8000;

    const BufferType kTypes[] = {BufferType::Fifo, BufferType::Damq};
    std::vector<FabricTask> tasks;
    for (const BufferType type : kTypes) {
        FabricConfig typed = cfg;
        typed.bufferType = type;
        for (const double load : loads)
            tasks.push_back({detail::concat(bufferTypeName(type),
                                            "@",
                                            formatFixed(load, 2)),
                             atLoad(typed, load)});
    }
    for (FabricTask &task : tasks)
        applyCommonSimFlags(args, task.config.common,
                            "figure3_latency_curve");
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    std::vector<SweepPoint> fifo;
    std::vector<SweepPoint> damq;
    for (std::size_t i = 0; i < loads.size(); ++i)
        fifo.push_back(toSweepPoint(loads[i], results[i]));
    for (std::size_t i = 0; i < loads.size(); ++i)
        damq.push_back(
            toSweepPoint(loads[i], results[loads.size() + i]));

    TextTable table;
    table.setHeader({"offered", "FIFO delivered", "FIFO latency",
                     "DAMQ delivered", "DAMQ latency"});
    for (std::size_t i = 0; i < loads.size(); ++i) {
        table.startRow();
        table.addCell(formatFixed(loads[i], 2));
        table.addCell(formatFixed(fifo[i].deliveredThroughput, 3));
        table.addCell(formatFixed(fifo[i].avgLatencyClocks, 1));
        table.addCell(formatFixed(damq[i].deliveredThroughput, 3));
        table.addCell(formatFixed(damq[i].avgLatencyClocks, 1));
    }
    std::cout << table.render() << "\n" << asciiPlot(fifo, damq);

    std::cout
        << "\nPaper reference (Figure 3, qualitative): both curves "
           "flat near 41 clocks at low\nload; FIFO's latency wall at "
           "~0.51 delivered, DAMQ's at ~0.70.\n";

    {
        BenchJsonFile out("figure3_latency_curve");
        JsonWriter &json = out.json();
        // The first task's config carries every CLI override
        // (--workload included), unlike the pre-flag `cfg`.
        writeNetworkConfigJson(json, tasks.front().config);
        writeCurveJson(json, "fifo", fifo, results, 0);
        writeCurveJson(json, "damq", damq, results, loads.size());
    }

    {
        const std::string csv_path = "figure3_latency_curve.csv";
        std::ofstream file(csv_path);
        CsvWriter csv(file);
        csv.header({"buffer", "offeredLoad", "deliveredThroughput",
                    "avgLatencyClocks", "p99LatencyClocks",
                    "discardFraction"});
        auto emit = [&](const char *name,
                        const std::vector<SweepPoint> &curve) {
            for (const SweepPoint &pt : curve)
                csv.row({name, formatJsonNumber(pt.offeredLoad),
                         formatJsonNumber(pt.deliveredThroughput),
                         formatJsonNumber(pt.avgLatencyClocks),
                         formatJsonNumber(pt.p99LatencyClocks),
                         formatJsonNumber(pt.discardFraction)});
        };
        emit("FIFO", fifo);
        emit("DAMQ", damq);
        std::cerr << "wrote " << csv_path << "\n";
    }

    writePerfSidecar("figure3_latency_curve", runner,
                     taskLabels(tasks));
    return 0;
}
