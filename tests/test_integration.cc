/**
 * @file
 * Cross-layer integration tests tying the reproduction to the
 * paper's headline claims (scaled down to test-suite runtimes):
 * the Table 2 ordering from the Markov layer, the Table 4
 * saturation ordering from the network layer, and agreement
 * between independently implemented layers where they overlap.
 */

#include <gtest/gtest.h>

#include "markov/switch2x2.hh"
#include "network/fabric_sim.hh"
#include "network/saturation.hh"

namespace damq {
namespace {

FabricConfig
paperConfig()
{
    FabricConfig cfg;
    cfg.numPorts = 64;
    cfg.radix = 4;
    cfg.slotsPerBuffer = 4;
    cfg.protocol = FlowControl::Blocking;
    cfg.arbitration = ArbitrationPolicy::Smart;
    cfg.traffic = "uniform";
    cfg.common.seed = 7;
    cfg.common.warmupCycles = 400;
    cfg.common.measureCycles = 2500;
    return cfg;
}

TEST(PaperClaims, Table2OrderingAtHighLoad)
{
    // At 90 % traffic with 4 slots: DAMQ < SAFC < SAMQ < FIFO.
    const double fifo =
        analyzeDiscarding2x2(BufferType::Fifo, 4, 0.9)
            .discardProbability;
    const double samq =
        analyzeDiscarding2x2(BufferType::Samq, 4, 0.9)
            .discardProbability;
    const double safc =
        analyzeDiscarding2x2(BufferType::Safc, 4, 0.9)
            .discardProbability;
    const double damq =
        analyzeDiscarding2x2(BufferType::Damq, 4, 0.9)
            .discardProbability;

    EXPECT_LT(damq, safc);
    EXPECT_LT(safc, samq);
    EXPECT_LT(samq, fifo);
}

TEST(PaperClaims, Table4SaturationOrdering)
{
    // DAMQ saturates highest; all four saturate somewhere in
    // (0.3, 1.0); DAMQ's margin over FIFO is large (paper: +40 %).
    FabricConfig cfg = paperConfig();
    double sat[4];
    const BufferType types[4] = {BufferType::Fifo, BufferType::Samq,
                                 BufferType::Safc, BufferType::Damq};
    for (int i = 0; i < 4; ++i) {
        cfg.bufferType = types[i];
        sat[i] = measureSaturation(cfg).saturationThroughput;
        EXPECT_GT(sat[i], 0.3) << bufferTypeName(types[i]);
        EXPECT_LT(sat[i], 1.0) << bufferTypeName(types[i]);
    }
    const double fifo = sat[0];
    const double damq = sat[3];
    EXPECT_GT(damq, fifo * 1.2);
    EXPECT_GT(damq, sat[1]); // beats SAMQ
    EXPECT_GT(damq, sat[2]); // beats SAFC
}

TEST(PaperClaims, LatenciesNearlyEqualBelowSaturation)
{
    // Table 4: at loads <= 0.4 buffer type barely matters... at
    // 0.25 the four are within a few clocks of each other.
    FabricConfig cfg = paperConfig();
    double lat[4];
    const BufferType types[4] = {BufferType::Fifo, BufferType::Samq,
                                 BufferType::Safc, BufferType::Damq};
    for (int i = 0; i < 4; ++i) {
        cfg.bufferType = types[i];
        lat[i] = latencyAtLoad(cfg, 0.25);
    }
    for (int i = 1; i < 4; ++i) {
        EXPECT_NEAR(lat[i], lat[0], 8.0)
            << bufferTypeName(types[i]);
    }
}

TEST(PaperClaims, DiscardingDamqDiscardsFarLessThanFifo)
{
    // Table 3 shape at 0.5 offered load.
    FabricConfig cfg = paperConfig();
    cfg.protocol = FlowControl::Discarding;
    cfg.offeredLoad = 0.5;

    cfg.bufferType = BufferType::Fifo;
    const double fifo = FabricSimulator(cfg).run().discardFraction;
    cfg.bufferType = BufferType::Damq;
    const double damq = FabricSimulator(cfg).run().discardFraction;

    EXPECT_GT(fifo, 0.0);
    EXPECT_LT(damq, fifo * 0.5);
}

TEST(PaperClaims, DumbAndSmartArbitrationSimilarBelowSaturation)
{
    // Table 3's observation: at 0.5 offered, dumb ~ smart.
    FabricConfig cfg = paperConfig();
    cfg.protocol = FlowControl::Discarding;
    cfg.offeredLoad = 0.5;
    cfg.bufferType = BufferType::Damq;

    cfg.arbitration = ArbitrationPolicy::Smart;
    const double smart = FabricSimulator(cfg).run().discardFraction;
    cfg.arbitration = ArbitrationPolicy::Dumb;
    const double dumb = FabricSimulator(cfg).run().discardFraction;

    EXPECT_NEAR(smart, dumb, 0.02);
}

TEST(PaperClaims, MoreSlotsBarelyMoveDamqSaturation)
{
    // Table 5: DAMQ's saturation moves little from 4 to 8 slots
    // (the control logic, not the storage, is what matters).
    FabricConfig cfg = paperConfig();
    cfg.bufferType = BufferType::Damq;
    cfg.slotsPerBuffer = 4;
    const double four = measureSaturation(cfg).saturationThroughput;
    cfg.slotsPerBuffer = 8;
    const double eight = measureSaturation(cfg).saturationThroughput;
    EXPECT_LT(eight - four, 0.15);
    EXPECT_GE(eight, four - 0.03); // more storage never really hurts
}

TEST(PaperClaims, FifoGainsMoreFromExtraSlotsThanDamq)
{
    FabricConfig cfg = paperConfig();
    cfg.bufferType = BufferType::Fifo;
    cfg.slotsPerBuffer = 3;
    const double fifo3 = measureSaturation(cfg).saturationThroughput;
    cfg.bufferType = BufferType::Damq;
    const double damq3 = measureSaturation(cfg).saturationThroughput;
    // Even FIFO-8 should not reach DAMQ-3 (Table 5: 0.56 vs 0.63).
    cfg.bufferType = BufferType::Fifo;
    cfg.slotsPerBuffer = 8;
    const double fifo8 = measureSaturation(cfg).saturationThroughput;
    EXPECT_GT(fifo8, fifo3);
    EXPECT_GT(damq3, fifo8);
}

TEST(PaperClaims, HotSpotEqualizesAllBufferTypes)
{
    // Table 6: with 5 % hot-spot traffic everything tree-saturates
    // at the same throughput (~0.24).
    FabricConfig cfg = paperConfig();
    cfg.traffic = "hotspot";
    cfg.common.warmupCycles = 1500;
    cfg.common.measureCycles = 2500;

    cfg.bufferType = BufferType::Fifo;
    const double fifo = measureSaturation(cfg).saturationThroughput;
    cfg.bufferType = BufferType::Damq;
    const double damq = measureSaturation(cfg).saturationThroughput;

    EXPECT_NEAR(fifo, damq, 0.05);
    EXPECT_NEAR(damq, 0.24, 0.06);
}

} // namespace
} // namespace damq
