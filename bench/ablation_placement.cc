/**
 * @file
 * Ablation: buffer *placement* — the design-space walk of Section 2
 * made quantitative.  Three experiments:
 *
 *  1. Markov: output queueing (Karol et al., idealized write
 *     bandwidth) vs the four input-buffered organizations on the
 *     2x2 discarding switch — the bound input buffering chases.
 *
 *  2. Network: saturation throughput of input-FIFO, input-DAMQ,
 *     central pool, and output queueing at equal total storage in
 *     the 64x64 Omega network.
 *
 *  3. Hogging (Fujimoto): a single 4x4 switch where input 0 runs
 *     at 0.95 load toward one output while inputs 1-3 offer light
 *     uniform traffic.  With a central pool the heavy input's
 *     packets fill the shared memory and the light inputs' packets
 *     are discarded; per-input DAMQ buffers isolate them.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/string_util.hh"
#include "markov/output_queued2x2.hh"
#include "markov/switch2x2.hh"
#include "network/saturation.hh"
#include "stats/text_table.hh"
#include "switchsim/central_buffer_switch.hh"
#include "switchsim/switch_model.hh"
#include "switchsim/switch_unit.hh"

namespace {

using namespace damq;
using namespace damq::bench;

/** Experiment 3: discard fraction seen by the *light* inputs. */
struct HoggingResult
{
    double lightDiscardFraction = 0.0;
    double heavyDiscardFraction = 0.0;
    double heavyPoolShare = 0.0; ///< central only: avg pool share
};

HoggingResult
runHogging(BufferPlacement placement, std::uint64_t seed)
{
    // One 4x4 discarding switch.  Input 0: load 0.95, all toward
    // output 0.  Inputs 1-3: load 0.2, uniform outputs.  Output 0
    // therefore stays congested and the heavy input's queue grows.
    auto sw = makeSwitchUnit(placement, 4, BufferType::Damq,
                             /*slots_per_input=*/4,
                             ArbitrationPolicy::Smart);
    Random rng(seed);
    std::uint64_t light_offered = 0;
    std::uint64_t light_dropped = 0;
    std::uint64_t heavy_offered = 0;
    std::uint64_t heavy_dropped = 0;
    double heavy_share = 0.0;
    std::uint64_t share_samples = 0;

    auto always = [](PortId, QueueKey, const Packet &) { return true; };
    PacketId id = 0;
    for (int cycle = 0; cycle < 30000; ++cycle) {
        // Output 0 is served only half the time (a slow consumer),
        // keeping pressure on the heavy flow.
        auto can_send = [&](PortId input, QueueKey out,
                            const Packet &pkt) {
            if (out.out == 0 && cycle % 2 == 0)
                return false;
            return always(input, out, pkt);
        };
        sw->transmit(can_send);

        for (PortId input = 0; input < 4; ++input) {
            const bool heavy = input == 0;
            const double load = heavy ? 0.95 : 0.20;
            if (!rng.bernoulli(load))
                continue;
            Packet p;
            p.id = id++;
            p.outPort = heavy
                            ? 0
                            : static_cast<PortId>(rng.below(4));
            p.lengthSlots = 1;
            (heavy ? heavy_offered : light_offered) += 1;
            if (!sw->tryReceive(input, p))
                (heavy ? heavy_dropped : light_dropped) += 1;
        }

        if (auto *central =
                dynamic_cast<CentralBufferSwitch *>(sw.get())) {
            if (central->totalUsedSlots() > 0) {
                heavy_share +=
                    static_cast<double>(
                        central->usedSlotsByInput(0)) /
                    central->totalUsedSlots();
                ++share_samples;
            }
        }
    }

    HoggingResult result;
    result.lightDiscardFraction =
        light_offered ? static_cast<double>(light_dropped) /
                            static_cast<double>(light_offered)
                      : 0.0;
    result.heavyDiscardFraction =
        heavy_offered ? static_cast<double>(heavy_dropped) /
                            static_cast<double>(heavy_offered)
                      : 0.0;
    result.heavyPoolShare =
        share_samples ? heavy_share / share_samples : 0.0;
    return result;
}

} // namespace

int
main()
{
    banner("Ablation - buffer placement (Section 2's design space)",
           "input buffering vs central pool vs output queueing, at "
           "equal total storage");

    // ---------------------------------------------------- experiment 1
    std::cout << "\n[1] 2x2 Markov discard probability (4 slots of "
                 "total storage per input's worth):\n";
    TextTable markov;
    markov.setHeader({"organization", "p=0.75", "p=0.90", "p=0.99"});
    for (const BufferType type : kAllBufferTypes) {
        markov.startRow();
        markov.addCell(std::string("input-") + bufferTypeName(type));
        for (const double p : {0.75, 0.90, 0.99}) {
            markov.addCell(formatProbabilityPaperStyle(
                analyzeDiscarding2x2(type, 4, p).discardProbability));
        }
    }
    markov.startRow();
    markov.addCell("output-queued");
    for (const double p : {0.75, 0.90, 0.99}) {
        markov.addCell(formatProbabilityPaperStyle(
            analyzeOutputQueued2x2(4, p).discardProbability));
    }
    std::cout
        << markov.render()
        << "Ideal-write-bandwidth output queueing beats FIFO and "
           "the static partitions — but\nDAMQ discards *less* than "
           "even that at equal storage: under a discarding\n"
           "protocol, pooled space beats extra write bandwidth.  "
           "(Karol et al.'s output-\nqueueing advantage concerns "
           "delay, not loss.)\n";

    // ---------------------------------------------------- experiment 2
    std::cout << "\n[2] 64x64 Omega saturation throughput (blocking, "
                 "equal storage = 16 slots/switch):\n";
    TextTable net;
    net.setHeader({"organization", "sat. throughput",
                   "saturated latency"});
    struct Row
    {
        const char *label;
        BufferPlacement placement;
        BufferType type;
    };
    const Row rows[] = {
        {"input-FIFO", BufferPlacement::Input, BufferType::Fifo},
        {"input-DAMQ", BufferPlacement::Input, BufferType::Damq},
        {"central pool", BufferPlacement::Central, BufferType::Damq},
        {"output-queued", BufferPlacement::Output, BufferType::Damq},
    };
    for (const Row &row : rows) {
        FabricConfig cfg = paperNetworkConfig();
        cfg.placement = row.placement;
        cfg.bufferType = row.type;
        cfg.common.measureCycles = 8000;
        const SaturationSummary sat = measureSaturation(cfg);
        net.startRow();
        net.addCell(row.label);
        net.addCell(formatFixed(sat.saturationThroughput, 3));
        net.addCell(formatFixed(sat.saturatedLatencyClocks, 1));
    }
    std::cout << net.render();

    // ---------------------------------------------------- experiment 3
    std::cout << "\n[3] Fujimoto's hogging: one 4x4 discarding "
                 "switch, input 0 at 0.95 load toward a\nslow "
                 "output, inputs 1-3 at 0.20 uniform:\n";
    TextTable hog;
    hog.setHeader({"organization", "light-input discard %",
                   "heavy-input discard %", "heavy pool share"});
    for (const BufferPlacement placement :
         {BufferPlacement::Input, BufferPlacement::Central}) {
        const HoggingResult r = runHogging(placement, 515);
        hog.startRow();
        hog.addCell(placement == BufferPlacement::Input
                        ? "input-DAMQ"
                        : "central pool");
        hog.addCell(formatFixed(r.lightDiscardFraction * 100, 2));
        hog.addCell(formatFixed(r.heavyDiscardFraction * 100, 2));
        hog.addCell(placement == BufferPlacement::Central
                        ? formatFixed(r.heavyPoolShare * 100, 1) + "%"
                        : "-");
    }
    std::cout << hog.render()
              << "The central pool lets the hog's backlog crowd out "
                 "innocent flows (paper Section 2,\nciting Fujimoto); "
                 "per-input DAMQ buffers contain the damage to the "
                 "hog itself.\n";
    return 0;
}
