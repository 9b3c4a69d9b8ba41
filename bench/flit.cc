/**
 * @file
 * The Flit workload: buffer-organization saturation curves under
 * the flit-level switching modes (wormhole and virtual
 * cut-through) on the two fabrics that exercise them differently:
 *
 *  - an 8x8 blocking torus with two dateline virtual channels —
 *    cyclic channel dependencies, so the dateline escape argument
 *    must hold at flit granularity too (a wedged ring trips the
 *    armed deadlock watchdog);
 *  - a 64-endpoint radix-4 Omega network — acyclic, single-VC,
 *    where the modes differ only in buffer-space usage.
 *
 * Every row runs with the per-cycle flit invariant audit and the
 * deadlock watchdog armed, then drains completely: credits issued
 * must equal credits returned (they telescope per packet per
 * link), every credit counter must be back at its cap, and the
 * watchdog must stay quiet — any violation is fatal, so CI fails
 * loudly if the flit engine's conservation laws break.
 *
 * The partitioned organizations (SAMQ/SAFC) need per-queue space
 * for one whole packet: injection materializes the full packet in
 * the first-hop buffer (the source *is* the host interface), and
 * a VCT head only advances once a packet's worth of downstream
 * slots is secured.  Per-buffer slots are therefore
 * queues x flitsPerPacket — the same pool all four organizations
 * get, shared (DAMQ/FIFO) or statically split (SAMQ/SAFC).
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_flit.json and a PERF_flit.json
 * timing sidecar.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/json_writer.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "network/fabric_sim.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"

namespace {

using namespace damq;
using namespace damq::bench;

const double kLoads[] = {0.25, 0.50, 0.75, 1.00};

/** Cycles a drained run may take to empty after measurement. */
constexpr Cycle kDrainBudget = 100000;

/** One (workload, switching, buffer, load) measurement. */
struct Row
{
    std::string workload;
    BufferType buffer;
    Switching switching;
    double load = 0.0;
    core::SyncResult result;
    std::uint64_t watchdogTrips = 0;
    std::uint64_t auditsRun = 0;
    std::uint64_t auditViolations = 0;
    std::uint64_t creditsIssued = 0;
    std::uint64_t creditsReturned = 0;
    bool drained = false;
    bool creditsAtRest = false;
};

/** Shared schedule: audit + watchdog armed on every row. */
void
armSchedule(SimCommonConfig &common)
{
    common.seed = 99;
    common.warmupCycles = 500;
    common.measureCycles = 1500;
    common.auditEveryCycles = 256;
    common.watchdogStallCycles = 1000;
}

FabricConfig
torusConfig(BufferType type, Switching mode, std::uint32_t flits,
            double load)
{
    FabricConfig cfg = FabricConfig::torus(); // blocking, 2 VCs
    cfg.width = 8;
    cfg.height = 8;
    cfg.bufferType = type;
    cfg.switching = mode;
    cfg.flitsPerPacket = flits;
    // 5 ports x 2 VCs = 10 queues, one packet's worth each.
    cfg.slotsPerBuffer = 10 * flits;
    cfg.offeredLoad = load;
    armSchedule(cfg.common);
    return cfg;
}

FabricConfig
omegaConfig(BufferType type, Switching mode, std::uint32_t flits,
            double load)
{
    FabricConfig cfg;
    cfg.numPorts = 64; // 3 stages x 16 radix-4 switches
    cfg.radix = 4;
    cfg.bufferType = type;
    cfg.switching = mode;
    cfg.flitsPerPacket = flits;
    cfg.slotsPerBuffer = 4 * flits; // 4 queues (radix 4, 1 VC)
    cfg.offeredLoad = load;
    armSchedule(cfg.common);
    return cfg;
}

/** Drain a finished run and fold the conservation laws into a Row. */
Row
observe(const FabricTask &task, FabricSimulator &sim,
        const core::SyncResult &result)
{
    const FabricConfig &cfg = task.config;
    Row row;
    row.workload =
        cfg.topology == TopologyKind::Torus ? "torus8x8" : "omega64";
    row.buffer = cfg.bufferType;
    row.switching = cfg.switching;
    row.load = cfg.offeredLoad;
    row.result = result;
    row.drained = sim.drain(kDrainBudget);
    row.creditsAtRest = sim.syncEngine().flitCreditsAtRest();
    const FaultReport report = sim.faultReport();
    row.watchdogTrips = report.watchdogFired ? 1 : 0;
    row.auditsRun = report.auditsRun;
    row.auditViolations = report.auditViolations;
    row.creditsIssued = report.creditsIssued;
    row.creditsReturned = report.creditsReturned;
    return row;
}

/** Every conservation law a row must satisfy; fatal if broken. */
void
enforceRow(const Row &row)
{
    const std::string where =
        detail::concat(row.workload, "/", bufferTypeName(row.buffer),
                       "/", switchingName(row.switching), "@",
                       formatFixed(row.load, 2));
    if (row.watchdogTrips != 0)
        damq_fatal(where, ": deadlock watchdog tripped");
    if (row.auditViolations != 0)
        damq_fatal(where, ": ", row.auditViolations,
                   " flit invariant audit violations");
    if (!row.drained)
        damq_fatal(where, ": network failed to drain within ",
                   kDrainBudget, " cycles");
    if (!row.creditsAtRest)
        damq_fatal(where, ": credit counters not at their caps "
                          "after drain");
    if (row.creditsIssued != row.creditsReturned)
        damq_fatal(where, ": credits issued (", row.creditsIssued,
                   ") != credits returned (", row.creditsReturned,
                   ")");
    if (row.creditsIssued == 0)
        damq_fatal(where, ": no credits flowed — flit mode was "
                          "not exercised");
}

void
renderTables(const std::vector<Row> &rows,
             const std::vector<Switching> &modes)
{
    for (const std::string workload : {"torus8x8", "omega64"}) {
        for (const Switching mode : modes) {
            TextTable table;
            table.setHeader({"Buffer", "thr@0.25", "thr@0.50",
                             "thr@0.75", "thr@1.00", "lat@0.50",
                             "credits", "trips"});
            for (const BufferType type : kAllBufferTypes) {
                table.startRow();
                table.addCell(bufferTypeName(type));
                double lat_mid = 0.0;
                std::uint64_t credits = 0;
                std::uint64_t trips = 0;
                for (const Row &row : rows) {
                    if (row.workload != workload ||
                        row.buffer != type || row.switching != mode)
                        continue;
                    table.addCell(formatFixed(
                        row.result.deliveredThroughput, 3));
                    if (row.load == 0.50)
                        lat_mid = row.result.latency.mean();
                    credits += row.creditsIssued;
                    trips += row.watchdogTrips;
                }
                table.addCell(formatFixed(lat_mid, 2));
                table.addCell(detail::concat(credits));
                table.addCell(detail::concat(trips));
            }
            std::cout << "\n" << workload << ", "
                      << switchingName(mode) << ":\n"
                      << table.render();
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("flit",
                   "Buffer organizations under wormhole and "
                   "virtual cut-through switching");
    addCommonSimFlags(args);
    addSwitchingFlags(args, "wormhole+vct (sweeps both)",
                      "blocking");
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    // --switching restricts the sweep to one mode; the default
    // runs both.  --flits-per-packet scales every buffer with it.
    std::vector<Switching> modes = {Switching::Wormhole,
                                    Switching::VirtualCutThrough};
    FabricConfig flags; // carries the switching surface only
    flags.switching = modes.front();
    flags.protocol = FlowControl::Blocking;
    applySwitchingFlags(args, flags);
    if (args.wasSet("switching")) {
        if (!flitLevelSwitching(flags.switching))
            damq_fatal("this bench runs the flit-level modes; "
                       "--switching wants wormhole or vct");
        modes = {flags.switching};
    }
    const FlowControl protocol = flags.protocol;
    const std::uint32_t flits = flags.flitsPerPacket;

    banner("Flit - wormhole vs virtual cut-through saturation "
           "curves",
           "8x8 blocking 2-VC torus and 64-endpoint Omega; flit "
           "audit + deadlock watchdog armed on every row, credit "
           "conservation checked after a full drain");

    std::vector<FabricTask> tasks;
    for (const std::string workload : {"torus8x8", "omega64"}) {
        const bool torus = workload == "torus8x8";
        for (const Switching mode : modes) {
            for (const BufferType type : kAllBufferTypes) {
                for (const double load : kLoads) {
                    FabricConfig cfg =
                        torus ? torusConfig(type, mode, flits, load)
                              : omegaConfig(type, mode, flits, load);
                    cfg.protocol = protocol;
                    applyCommonSimFlags(args, cfg.common, "flit");
                    // Dateline torus needs 2 VCs; the stage fabric 1.
                    cfg.common.vcs = torus ? 2 : 1;
                    tasks.push_back(
                        {detail::concat(workload, "/",
                                        bufferTypeName(type), "/",
                                        switchingName(mode), "@",
                                        formatFixed(load, 2)),
                         cfg});
                }
            }
        }
    }

    const std::vector<Row> rows = runSimSweep(runner, tasks, observe);

    for (const Row &row : rows)
        enforceRow(row);

    renderTables(rows, modes);

    std::uint64_t issued = 0;
    std::uint64_t returned = 0;
    for (const Row &row : rows) {
        issued += row.creditsIssued;
        returned += row.creditsReturned;
    }
    std::cout << "\nall " << rows.size()
              << " rows drained with credits closed (issued = "
              << "returned = " << issued
              << "); watchdog armed on every row, zero trips\n"
              << "\nExpected shape: wormhole's 1-slot head "
                 "admission keeps throughput up in the shared\n"
                 "organizations (DAMQ/FIFO) when buffers are "
                 "scarce, while VCT's whole-packet\nreservation "
                 "buys it lower blocking spread at the cost of "
                 "admission; the\npartitioned organizations "
                 "(SAMQ/SAFC) pay their static split either "
                 "way.\n";

    {
        BenchJsonFile out("flit");
        JsonWriter &json = out.json();
        json.key("config");
        json.beginObject();
        json.field("torusSide", std::uint64_t{8});
        json.field("torusVcs", std::uint64_t{2});
        json.field("omegaEndpoints", std::uint64_t{64});
        json.field("omegaRadix", std::uint64_t{4});
        json.field("flitsPerPacket",
                   static_cast<std::uint64_t>(flits));
        json.field("protocol", flowControlName(protocol));
        json.field("seed", std::uint64_t{99});
        json.field("warmupCycles", std::uint64_t{500});
        json.field("measureCycles", std::uint64_t{1500});
        json.field("auditEveryCycles", std::uint64_t{256});
        json.field("watchdogStallCycles", std::uint64_t{1000});
        json.endObject();
        // Echo the workload the sweep actually ran (CLI overrides
        // applied), not the compiled-in default.
        SimCommonConfig desc_common;
        applyCommonSimFlags(args, desc_common, "flit");
        writeWorkloadJson(json, desc_common.workload);
        json.field("watchdogTrips", std::uint64_t{0});
        json.field("creditsClosed", true);
        json.key("rows");
        json.beginArray();
        for (const Row &row : rows) {
            json.beginObject();
            json.field("workload", row.workload);
            json.field("buffer", bufferTypeName(row.buffer));
            json.field("switching", switchingName(row.switching));
            json.field("load", row.load);
            json.field("throughput", row.result.deliveredThroughput);
            json.field("latencyMean", row.result.latency.mean());
            writeE2eLatencyJson(json, row.result);
            json.field("delivered", row.result.window.delivered);
            json.field("creditsIssued", row.creditsIssued);
            json.field("creditsReturned", row.creditsReturned);
            json.field("auditsRun", row.auditsRun);
            json.endObject();
        }
        json.endArray();
    }
    writePerfSidecar("flit", runner, taskLabels(tasks));
    return 0;
}
