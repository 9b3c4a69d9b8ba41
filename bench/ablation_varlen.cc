/**
 * @file
 * Ablation: variable-length packets (Section 5's conjecture).  The
 * paper evaluates only fixed-length packets but argues DAMQ "will
 * outperform its competition by an even wider margin for the more
 * realistic case of variable length packets".  This bench runs the
 * flit-level engine with 1-flit (fixed) packets and with a uniform
 * 1-4 flit mix, for all four organizations at equal total storage
 * (16 flit slots, so a static partition still fits one maximum
 * packet), and reports how DAMQ's margin moves.
 *
 * Model notes (kept identical across organizations so the
 * comparison is fair): switching is store-and-forward with the full
 * packet length reserved downstream at the head grant; an L-flit
 * packet holds its link for L network cycles.
 *
 * Exits non-zero unless DAMQ saturates highest in both mixes.  How
 * its margin moves between the mixes is reported, not checked: it
 * widens against SAMQ but narrows slightly against SAFC here (see
 * EXPERIMENTS.md).
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/string_util.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"

namespace {

using namespace damq;

constexpr std::uint32_t kPorts = 64;

FabricConfig
makeConfig(BufferType type, const core::LengthDistribution &lengths,
           double slot_load)
{
    FabricConfig cfg;
    cfg.numPorts = kPorts;
    cfg.radix = 4;
    cfg.bufferType = type;
    cfg.slotsPerBuffer = 16; // partitions of 4 fit a max packet
    cfg.arbitration = ArbitrationPolicy::Smart;
    cfg.switching = Switching::StoreAndForward;
    cfg.flitsPerPacket = 1;
    cfg.common.workload.lengths = lengths;
    // A link moves one flit per cycle: slots/endpoint/cycle is the
    // packet rate times the mean length.
    cfg.offeredLoad = std::min(1.0, slot_load / lengths.mean());
    cfg.common.seed = 303;
    cfg.common.warmupCycles = 2000;
    cfg.common.measureCycles = 10000;
    return cfg;
}

/** Delivered flits (slots) per endpoint per cycle. */
double
slotThroughput(const core::SyncResult &r)
{
    return static_cast<double>(r.window.deliveredFlits) /
           (static_cast<double>(kPorts) *
            static_cast<double>(r.measuredCycles));
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace damq::bench;

    ArgParser args("ablation_varlen",
                   "DAMQ's margin with variable-length packets "
                   "(Section 5 conjecture)");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Ablation - variable-length packets (Section 5 "
           "conjecture)",
           "64x64 Omega, credits, 16 slots/buffer, flit-level store-"
           "and-forward; loads in slots/endpoint/cycle");

    const core::LengthDistribution fixed{{1.0}};
    const core::LengthDistribution variable{{1.0, 1.0, 1.0, 1.0}};

    // Task order: the 8 saturation points, then the 8 latency
    // points — fixed-length mix first, buffer types in table order.
    std::vector<FabricTask> tasks;
    for (const double load : {1.0, 0.25}) {
        for (const bool is_fixed : {true, false}) {
            const core::LengthDistribution &dist =
                is_fixed ? fixed : variable;
            for (const BufferType type : kAllBufferTypes) {
                tasks.push_back(
                    {detail::concat(bufferTypeName(type), "/",
                                    is_fixed ? "fixed" : "varlen",
                                    "@", formatFixed(load, 2)),
                     makeConfig(type, dist, load)});
            }
        }
    }
    for (FabricTask &task : tasks)
        applyCommonSimFlags(args, task.config.common,
                            "ablation_varlen");
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    double sat[2][4] = {};
    double lat[2][4] = {};
    std::size_t next = 0;
    for (int row = 0; row < 2; ++row)
        for (int t = 0; t < 4; ++t)
            sat[row][t] = slotThroughput(results[next++]);
    for (int row = 0; row < 2; ++row)
        for (int t = 0; t < 4; ++t)
            lat[row][t] = results[next++].latency.mean();

    TextTable table;
    table.setHeader({"Packet mix", "Buffer", "lat@0.25",
                     "sat. slot throughput", "DAMQ advantage"});

    std::vector<std::string> failures;
    for (const bool is_fixed : {true, false}) {
        const char *label = is_fixed ? "fixed (1 slot)" : "1-4 slots";
        const int row = is_fixed ? 0 : 1;
        const double damq_sat = sat[row][1]; // kAllBufferTypes[1]
        for (int t = 0; t < 4; ++t) {
            const BufferType type = kAllBufferTypes[t];
            table.startRow();
            table.addCell(label);
            table.addCell(bufferTypeName(type));
            table.addCell(formatFixed(lat[row][t], 1));
            table.addCell(formatFixed(sat[row][t], 3));
            table.addCell(type == BufferType::Damq
                              ? "-"
                              : formatFixed(damq_sat / sat[row][t],
                                            2) +
                                    "x");
            if (type != BufferType::Damq && sat[row][t] >= damq_sat)
                failures.push_back(detail::concat(
                    label, ": ", bufferTypeName(type),
                    " saturates at or above DAMQ"));
        }
    }
    std::cout << table.render();

    std::cout
        << "\nDAMQ saturation margin, fixed -> variable lengths:\n"
        << "  vs FIFO: " << formatFixed(sat[0][1] / sat[0][0], 2)
        << "x -> " << formatFixed(sat[1][1] / sat[1][0], 2) << "x\n"
        << "  vs SAMQ: " << formatFixed(sat[0][1] / sat[0][2], 2)
        << "x -> " << formatFixed(sat[1][1] / sat[1][2], 2) << "x\n"
        << "  vs SAFC: " << formatFixed(sat[0][1] / sat[0][3], 2)
        << "x -> " << formatFixed(sat[1][1] / sat[1][3], 2) << "x\n"
        << "\nReading: DAMQ keeps the highest saturation throughput "
           "with variable lengths.\nWhether the margin widens (the "
           "paper's conjecture) depends on the competitor:\nagainst "
           "SAMQ's static partitions the dynamic pool wins more as "
           "packets vary;\nagainst FIFO and SAFC the margin narrows "
           "here.  A streaming packet frees its\nupstream slots flit "
           "by flit, so while it crosses a link it holds space on "
           "both\nsides.\n";
    for (const std::string &f : failures)
        std::cerr << "ablation_varlen: check failed: " << f << "\n";
    return failures.empty() ? 0 : 1;
}
