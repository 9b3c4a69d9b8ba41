/**
 * @file
 * Run the paper's 64x64 Omega-network experiment from the command
 * line, with every knob exposed: buffer organization, slots,
 * protocol, arbitration, traffic pattern, load, and run length.
 * The harness surface (--seed, --warmup, --measure, --shards,
 * --vcs, --workload, the fault plan, --audit-every, --watchdog,
 * --recovery, telemetry) is the one every bench shares.
 *
 * Examples:
 *   omega_network --buffer damq --load 0.6
 *   omega_network --buffer fifo --flow-control discarding --load 0.75
 *   omega_network --buffer samq --traffic hotspot --load 0.3
 *   omega_network --radix 2 --slots 2 --buffer damq --load 0.4
 *   omega_network --switching wormhole --slots 8 --load 0.5
 *   omega_network --workload onoff --workload-burstiness 4 --load 0.2
 *   omega_network --packet-drop-rate 1e-3 --audit-every 500 \
 *                 --watchdog 2000 --shards 2
 */

#include <iostream>

#include "common/arg_parser.hh"
#include "common/string_util.hh"
#include "network/fabric_sim.hh"
#include "runner/sim_flags.hh"
#include "stats/text_table.hh"

int
main(int argc, char **argv)
{
    using namespace damq;

    ArgParser args("omega_network",
                   "Omega-network simulation (Tamir & Frazier, "
                   "Section 4.2)");
    args.addOption("ports", "64", "endpoints per side");
    args.addOption("radix", "4", "switch degree (ports must be a "
                                 "power of it)");
    args.addOption("buffer", "damq", kBufferTypeChoices);
    args.addOption("placement", "input", kPlacementChoices);
    args.addOption("slots", "4", "slots per input buffer");
    addSwitchingFlags(args, "packet-sync", "blocking");
    addBufferPolicyFlags(args);
    args.addOption("arbitration", "smart", kArbitrationChoices);
    args.addOption("traffic", "uniform",
                   "uniform | hotspot | bitrev | permutation");
    args.addOption("hotfraction", "0.05",
                   "hot-spot fraction (traffic=hotspot)");
    args.addOption("load", "0.5", "offered load in [0, 1]");
    args.addFlag("csv", "emit one CSV line instead of the report");
    addCommonSimFlags(args);
    args.parse(argc, argv);

    FabricConfig cfg;
    cfg.numPorts = static_cast<std::uint32_t>(args.getInt("ports"));
    cfg.radix = static_cast<std::uint32_t>(args.getInt("radix"));
    cfg.bufferType = bufferTypeOption(args, "buffer");
    cfg.placement = placementOption(args, "placement");
    cfg.slotsPerBuffer =
        static_cast<std::uint32_t>(args.getInt("slots"));
    applySwitchingFlags(args, cfg);
    applyBufferPolicyFlags(args, cfg);
    cfg.arbitration = arbitrationOption(args, "arbitration");
    cfg.traffic = args.getString("traffic");
    cfg.hotSpotFraction = args.getDouble("hotfraction");
    cfg.offeredLoad = args.getDouble("load");
    cfg.common.warmupCycles = 2000;
    cfg.common.measureCycles = 12000;
    applyCommonSimFlags(args, cfg.common, "omega_network");

    FabricSimulator sim(cfg);
    const core::SyncResult r = sim.run();

    if (args.getFlag("csv")) {
        std::cout << args.getString("buffer") << ","
                  << cfg.slotsPerBuffer << ","
                  << flowControlName(cfg.protocol) << ","
                  << cfg.traffic << "," << cfg.offeredLoad << ","
                  << r.deliveredThroughput << ","
                  << r.latency.mean() << ","
                  << r.discardFraction << "\n";
        return 0;
    }

    // Packet-sync is the historical default; only the newer modes
    // print, so existing banner lines stay byte-identical.
    const std::string switching_note =
        cfg.switching == Switching::PacketSync
            ? ""
            : std::string(switchingName(cfg.switching)) + " x" +
                  std::to_string(cfg.flitsPerPacket) + " flits, ";
    std::cout << "Omega " << cfg.numPorts << "x" << cfg.numPorts
              << " of " << cfg.radix << "x" << cfg.radix << " "
              << bufferTypeName(cfg.bufferType) << " switches ("
              << sim.omega().numStages() << " stages, "
              << cfg.slotsPerBuffer << " slots/buffer, "
              << switching_note
              << flowControlName(cfg.protocol) << ", "
              << arbitrationPolicyName(cfg.arbitration)
              << " arbitration, " << cfg.traffic << " traffic)\n\n";

    TextTable table;
    table.setHeader({"metric", "value"});
    table.addRow({"offered load",
                  formatFixed(cfg.offeredLoad, 3)});
    table.addRow({"delivered throughput",
                  formatFixed(r.deliveredThroughput, 3)});
    table.addRow({"mean latency (clocks)",
                  formatFixed(r.latency.mean(), 2)});
    table.addRow({"min latency (clocks)",
                  formatFixed(r.latency.min(), 0)});
    table.addRow({"max latency (clocks)",
                  formatFixed(r.latency.max(), 0)});
    table.addRow({"latency stddev",
                  formatFixed(r.latency.stddev(), 2)});
    table.addRow({"packets delivered",
                  std::to_string(r.window.delivered)});
    table.addRow({"packets discarded",
                  std::to_string(r.window.discarded())});
    table.addRow({"discard fraction",
                  formatFixed(r.discardFraction, 4)});
    table.addRow({"avg source queue",
                  formatFixed(r.avgSourceQueueLen, 2)});
    table.addRow({"avg packets/switch",
                  formatFixed(r.avgSwitchOccupancy, 2)});
    table.addRow({"latency fairness (Jain)",
                  formatFixed(r.latencyFairness, 4)});
    table.addRow({"worst source latency",
                  formatFixed(r.worstSourceLatency, 1)});
    std::cout << table.render();

    if (r.avgSourceQueueLen > 1.0) {
        std::cout << "\nnote: source queues are growing — the "
                     "network is saturated at this load.\n";
    }

    if (cfg.common.faults.anyEnabled() || cfg.common.auditEveryCycles > 0 ||
        cfg.common.watchdogStallCycles > 0) {
        std::cout << "\n" << sim.faultReport().summaryText();
    }
    return 0;
}
