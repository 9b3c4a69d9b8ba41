/**
 * @file
 * The Torus workload: the mesh ablation's buffer-organization
 * comparison on an 8x8 2D torus — the same 5-port switches driven
 * through the shared simulation core's TorusTopology instead of
 * MeshTopology.  Wraparound removes the mesh's center/edge load
 * asymmetry, so the FIFO-vs-DAMQ comparison runs under uniform
 * channel load; routing is shortest-way dimension-order.
 *
 * Two sweeps run back to back:
 *
 *  - the historical discarding sweep (single VC), kept byte-stable
 *    against its BENCH_torus.json baseline.  Discarding was the
 *    original workaround for the ring-deadlock problem: minimal DOR
 *    on rings is not deadlock-free under blocking with one VC;
 *  - a blocking sweep with two dateline virtual channels per link,
 *    which removes that workaround.  The deadlock watchdog is armed
 *    throughout and the per-row trip count is reported — zero trips
 *    even at saturation is the point of the exercise.
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_torus.json,
 * BENCH_torus_blocking.json, and PERF_* timing sidecars.
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
torusConfig(BufferType type, const std::string &traffic)
{
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 8;
    cfg.height = 8;
    cfg.bufferType = type;
    cfg.slotsPerBuffer = 5; // one slot per port's worth
    // The historical sweep: the struct now defaults to blocking
    // with two VCs, so pin the old single-VC discarding protocol
    // to keep this table byte-stable against its baseline.
    cfg.protocol = FlowControl::Discarding;
    cfg.common.vcs = 1;
    cfg.traffic = traffic;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 2000;
    cfg.common.measureCycles = 10000;
    return cfg;
}

FabricConfig
blockingConfig(BufferType type, const std::string &traffic)
{
    // blocking + two dateline VCs by default
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 8;
    cfg.height = 8;
    cfg.bufferType = type;
    cfg.slotsPerBuffer = 10; // divisible by 10 queues (5 ports x 2 VCs)
    cfg.traffic = traffic;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 2000;
    cfg.common.measureCycles = 10000;
    // Arm the deadlock watchdog: a wedged ring would sit motionless
    // for this many cycles and be reported (and counted per row).
    cfg.common.watchdogStallCycles = 1000;
    return cfg;
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("torus",
                   "Buffer organizations on an 8x8 torus "
                   "multicomputer");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Torus - 8x8 wraparound multicomputer (5-port switches, "
           "shortest-way DOR)",
           "same switches as the mesh ablation, uniform channel "
           "load; latency in network cycles, discarding protocol");

    const std::string kTraffics[] = {"uniform", "hotspot"};

    std::vector<FabricTask> tasks;
    for (const std::string &traffic : kTraffics) {
        for (const BufferType type : kAllBufferTypes) {
            const FabricConfig cfg = torusConfig(type, traffic);
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
    for (FabricTask &task : tasks) {
        applyCommonSimFlags(args, task.config.common, "torus");
        // One slot per (port, VC) queue: keeps the SAMQ/SAFC
        // divisibility rule satisfied under a --vcs override while
        // leaving the default (5 slots, one VC) untouched.
        task.config.slotsPerBuffer = 5 * task.config.common.vcs;
    }
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    std::size_t next = 0;
    for (const std::string &traffic : kTraffics) {
        TextTable table;
        table.setHeader({"Buffer", "lat@0.10", "lat@0.25",
                         "lat@0.40", "sat. throughput",
                         "discard@sat"});
        double fifo_sat = 0.0;
        double damq_sat = 0.0;
        for (const BufferType type : kAllBufferTypes) {
            table.startRow();
            table.addCell(bufferTypeName(type));
            for (std::size_t l = 0; l < 3; ++l) {
                table.addCell(formatFixed(
                    results[next++].latency.mean(), 2));
            }
            const core::SyncResult &sat_row = results[next++];
            table.addCell(
                formatFixed(sat_row.deliveredThroughput, 3));
            table.addCell(formatFixed(sat_row.discardFraction, 3));
            if (type == BufferType::Fifo)
                fifo_sat = sat_row.deliveredThroughput;
            if (type == BufferType::Damq)
                damq_sat = sat_row.deliveredThroughput;
        }
        std::cout << "\n" << traffic << " traffic:\n"
                  << table.render() << "DAMQ/FIFO saturation = "
                  << formatFixed(damq_sat / fifo_sat, 2) << "\n";
    }

    std::cout
        << "\nExpected shape: wraparound halves the mean route "
           "length and evens out channel\nload, so torus latencies "
           "sit below the mesh's at equal load while the DAMQ\n"
           "advantage at saturation persists — flows still mix at "
           "every input buffer, which\nis where multi-queue "
           "buffering earns its area.  Under the discarding "
           "protocol\nthe FIFO rows also discard more at "
           "saturation: head-of-line blocking holds\npackets in "
           "buffers longer, so arrivals find them full more "
           "often.\n";

    {
        BenchJsonFile out("torus");
        JsonWriter &json = out.json();
        // The first task's config carries every CLI override
        // (--workload included), unlike a fresh torusConfig().
        const FabricConfig &base = tasks.front().config;
        json.key("config");
        json.beginObject();
        json.field("width", static_cast<std::uint64_t>(base.width));
        json.field("height",
                   static_cast<std::uint64_t>(base.height));
        json.field("slotsPerBuffer",
                   static_cast<std::uint64_t>(base.slotsPerBuffer));
        json.field("protocol", flowControlName(base.protocol));
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
                const core::SyncResult &sat_row = results[at++];
                json.field("saturationThroughput",
                           sat_row.deliveredThroughput);
                json.field("saturationDiscardFraction",
                           sat_row.discardFraction);
                json.key("e2eLatency");
                json.beginArray();
                for (std::size_t p = 0; p < 4; ++p) {
                    const core::SyncResult &r = results[first + p];
                    json.beginObject();
                    json.field("offeredLoad",
                               p < 3 ? kLoads[p] : 1.0);
                    writeE2eLatencyJson(json, r);
                    json.endObject();
                }
                json.endArray();
                json.endObject();
            }
        }
        json.endArray();
    }
    writePerfSidecar("torus", runner, taskLabels(tasks));

    // --- Blocking + dateline-VC sweep --------------------------------

    banner("Torus - blocking flow control with 2 dateline VCs",
           "same fabric, no discards: dateline virtual channels "
           "make blocking deadlock-free; watchdog armed");

    std::vector<FabricTask> blocking_tasks;
    for (const std::string &traffic : kTraffics) {
        for (const BufferType type : kAllBufferTypes) {
            const FabricConfig cfg = blockingConfig(type, traffic);
            for (const double load : kLoads)
                blocking_tasks.push_back(
                    {detail::concat(bufferTypeName(type), "/",
                                    traffic, "@",
                                    formatFixed(load, 2)),
                     atLoad(cfg, load)});
            blocking_tasks.push_back(
                {detail::concat(bufferTypeName(type), "/", traffic,
                                "@saturation"),
                 atLoad(cfg, 1.0)});
        }
    }
    for (FabricTask &task : blocking_tasks) {
        applyCommonSimFlags(args, task.config.common,
                            "torus_blocking");
        task.config.slotsPerBuffer = 5 * task.config.common.vcs;
    }
    const std::vector<core::SyncResult> blocking_results =
        runSimSweep(runner, blocking_tasks);

    std::uint64_t watchdog_trips = 0;
    double blocking_ratio = 0.0;
    std::size_t bnext = 0;
    for (const std::string &traffic : kTraffics) {
        TextTable table;
        table.setHeader({"Buffer", "lat@0.10", "lat@0.25",
                         "lat@0.40", "sat. throughput",
                         "watchdog trips"});
        double fifo_sat = 0.0;
        double damq_sat = 0.0;
        for (const BufferType type : kAllBufferTypes) {
            table.startRow();
            table.addCell(bufferTypeName(type));
            std::uint64_t row_trips = 0;
            for (std::size_t l = 0; l < 3; ++l) {
                const core::SyncResult &row = blocking_results[bnext++];
                table.addCell(formatFixed(row.latency.mean(), 2));
                row_trips += row.watchdogTrips;
            }
            const core::SyncResult &sat_row = blocking_results[bnext++];
            row_trips += sat_row.watchdogTrips;
            table.addCell(
                formatFixed(sat_row.deliveredThroughput, 3));
            table.addCell(detail::concat(row_trips));
            watchdog_trips += row_trips;
            if (type == BufferType::Fifo)
                fifo_sat = sat_row.deliveredThroughput;
            if (type == BufferType::Damq)
                damq_sat = sat_row.deliveredThroughput;
        }
        std::cout << "\n" << traffic
                  << " traffic (blocking, 2 VCs):\n"
                  << table.render() << "DAMQ/FIFO saturation = "
                  << formatFixed(damq_sat / fifo_sat, 2) << "\n";
        if (traffic == "uniform")
            blocking_ratio = damq_sat / fifo_sat;
    }
    std::cout << "\ntotal watchdog trips across the blocking sweep: "
              << watchdog_trips << " (expected 0 — the dateline VCs "
              << "keep the rings deadlock-free)\n";

    {
        BenchJsonFile out("torus_blocking");
        JsonWriter &json = out.json();
        const FabricConfig &base = blocking_tasks.front().config;
        json.key("config");
        json.beginObject();
        json.field("width", static_cast<std::uint64_t>(base.width));
        json.field("height",
                   static_cast<std::uint64_t>(base.height));
        json.field("slotsPerBuffer",
                   static_cast<std::uint64_t>(base.slotsPerBuffer));
        json.field("protocol", flowControlName(base.protocol));
        json.field("vcs",
                   static_cast<std::uint64_t>(base.common.vcs));
        json.field("vcPolicy", vcPolicyName(base.common.vcPolicy));
        json.field("watchdogStallCycles",
                   static_cast<std::uint64_t>(
                       base.common.watchdogStallCycles));
        json.field("seed", base.common.seed);
        json.field("warmupCycles",
                   static_cast<std::uint64_t>(base.common.warmupCycles));
        json.field("measureCycles",
                   static_cast<std::uint64_t>(base.common.measureCycles));
        json.endObject();
        writeWorkloadJson(json, base.common.workload,
                          base.trafficClasses);
        json.field("damqOverFifoSaturation", blocking_ratio);
        json.field("watchdogTrips", watchdog_trips);
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
                std::uint64_t row_trips = 0;
                for (std::size_t l = 0; l < 3; ++l) {
                    json.value(
                        blocking_results[at].latency.mean());
                    row_trips += blocking_results[at].watchdogTrips;
                    ++at;
                }
                json.endArray();
                const core::SyncResult &sat_row = blocking_results[at++];
                row_trips += sat_row.watchdogTrips;
                json.field("saturationThroughput",
                           sat_row.deliveredThroughput);
                json.field("saturationDiscardFraction",
                           sat_row.discardFraction);
                json.field("watchdogTrips", row_trips);
                json.key("e2eLatency");
                json.beginArray();
                for (std::size_t p = 0; p < 4; ++p) {
                    const core::SyncResult &r =
                        blocking_results[first + p];
                    json.beginObject();
                    json.field("offeredLoad",
                               p < 3 ? kLoads[p] : 1.0);
                    writeE2eLatencyJson(json, r);
                    json.endObject();
                }
                json.endArray();
                json.endObject();
            }
        }
        json.endArray();
    }
    writePerfSidecar("torus_blocking", runner,
                     taskLabels(blocking_tasks));
    return 0;
}
