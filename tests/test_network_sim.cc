/**
 * @file
 * Integration tests for the Omega-network simulator: packet
 * conservation, latency floors, protocol semantics, determinism,
 * and the qualitative ordering the paper reports.
 */

#include <gtest/gtest.h>

#include "network/fabric_sim.hh"
#include "network/saturation.hh"

namespace damq {
namespace {

FabricConfig
baseConfig()
{
    FabricConfig cfg;
    cfg.numPorts = 64;
    cfg.radix = 4;
    cfg.bufferType = BufferType::Damq;
    cfg.slotsPerBuffer = 4;
    cfg.protocol = FlowControl::Blocking;
    cfg.arbitration = ArbitrationPolicy::Smart;
    cfg.traffic = "uniform";
    cfg.offeredLoad = 0.3;
    cfg.common.seed = 12345;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 1000;
    return cfg;
}

class ConservationTest
    : public ::testing::TestWithParam<std::tuple<BufferType,
                                                 FlowControl>>
{
};

TEST_P(ConservationTest, NoPacketIsCreatedOrLost)
{
    FabricConfig cfg = baseConfig();
    cfg.bufferType = std::get<0>(GetParam());
    cfg.protocol = std::get<1>(GetParam());
    cfg.offeredLoad = 0.6; // stress it
    FabricSimulator sim(cfg);
    for (int i = 0; i < 500; ++i)
        sim.step();
    sim.debugValidate();

    const NetworkCounters &c = sim.lifetime();
    // Every generated packet is delivered, discarded, buffered in a
    // switch, or still waiting at its source.
    EXPECT_EQ(c.generated, c.delivered + c.discarded() +
                               sim.packetsInFlight() +
                               sim.packetsAtSources());
    // Injected = delivered + internal discards + in flight.
    EXPECT_EQ(c.injected, c.delivered + c.discardedInternal +
                              sim.packetsInFlight());
    EXPECT_EQ(c.misrouted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndProtocols, ConservationTest,
    ::testing::Combine(::testing::Values(BufferType::Fifo,
                                         BufferType::Samq,
                                         BufferType::Safc,
                                         BufferType::Damq),
                       ::testing::Values(FlowControl::Blocking,
                                         FlowControl::Discarding)),
    [](const ::testing::TestParamInfo<
        std::tuple<BufferType, FlowControl>> &info) {
        return std::string(bufferTypeName(std::get<0>(info.param))) +
               "_" + flowControlName(std::get<1>(info.param));
    });

TEST(NetworkSim, BlockingNeverDiscards)
{
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 0.95;
    cfg.bufferType = BufferType::Fifo; // most congested
    FabricSimulator sim(cfg);
    for (int i = 0; i < 1000; ++i)
        sim.step();
    EXPECT_EQ(sim.lifetime().discarded(), 0u);
}

TEST(NetworkSim, DiscardingNeverQueuesAtSources)
{
    FabricConfig cfg = baseConfig();
    cfg.protocol = FlowControl::Discarding;
    cfg.offeredLoad = 0.9;
    FabricSimulator sim(cfg);
    for (int i = 0; i < 500; ++i)
        sim.step();
    EXPECT_EQ(sim.packetsAtSources(), 0u);
    EXPECT_GT(sim.lifetime().discarded(), 0u); // 0.9 is over capacity
}

TEST(NetworkSim, MinimumLatencyIsThreeHops)
{
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 0.01; // nearly empty network
    cfg.common.measureCycles = 3000;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    ASSERT_GT(result.latency.count(), 0u);
    // 3 stages x 12 clocks with almost no queueing.
    EXPECT_DOUBLE_EQ(result.latency.min(), 36.0);
    EXPECT_LT(result.latency.mean(), 40.0);
}

TEST(NetworkSim, LatencyGrowsWithLoad)
{
    FabricConfig cfg = baseConfig();
    const double low = latencyAtLoad(cfg, 0.1);
    const double high = latencyAtLoad(cfg, 0.6);
    EXPECT_GT(high, low);
}

TEST(NetworkSim, SameSeedSameResult)
{
    FabricConfig cfg = baseConfig();
    FabricSimulator a(cfg);
    FabricSimulator b(cfg);
    const core::SyncResult ra = a.run();
    const core::SyncResult rb = b.run();
    EXPECT_EQ(ra.window.delivered, rb.window.delivered);
    EXPECT_EQ(ra.window.generated, rb.window.generated);
    EXPECT_DOUBLE_EQ(ra.latency.mean(),
                     rb.latency.mean());
}

TEST(NetworkSim, DifferentSeedsDiffer)
{
    FabricConfig cfg = baseConfig();
    FabricSimulator a(cfg);
    cfg.common.seed = 999;
    FabricSimulator b(cfg);
    EXPECT_NE(a.run().window.generated, b.run().window.generated);
}

TEST(NetworkSim, DeliveredMatchesOfferedBelowSaturation)
{
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 0.25;
    cfg.common.measureCycles = 4000;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    EXPECT_NEAR(result.deliveredThroughput, 0.25, 0.02);
}

TEST(NetworkSim, DamqSaturatesWellAboveFifo)
{
    // The paper's headline: ~40 % higher saturation throughput with
    // four slots per buffer.  Use short runs; the gap is large.
    FabricConfig cfg = baseConfig();
    cfg.common.warmupCycles = 400;
    cfg.common.measureCycles = 2500;

    cfg.bufferType = BufferType::Fifo;
    const double fifo = measureSaturation(cfg).saturationThroughput;
    cfg.bufferType = BufferType::Damq;
    const double damq = measureSaturation(cfg).saturationThroughput;

    EXPECT_GT(damq, fifo * 1.2);
}

TEST(NetworkSim, HotSpotTreeSaturationCapsThroughput)
{
    // With 5 % hot-spot traffic the asymptotic cap is
    // 1 / (64 * (0.05 + 0.95/64)) ~ 0.24 regardless of buffers.
    FabricConfig cfg = baseConfig();
    cfg.traffic = "hotspot";
    cfg.common.warmupCycles = 1500;
    cfg.common.measureCycles = 3000;
    for (const BufferType type :
         {BufferType::Fifo, BufferType::Damq}) {
        cfg.bufferType = type;
        const double sat = measureSaturation(cfg).saturationThroughput;
        EXPECT_LT(sat, 0.30) << bufferTypeName(type);
        EXPECT_GT(sat, 0.15) << bufferTypeName(type);
    }
}

TEST(NetworkSim, PermutationTrafficDeliversEverything)
{
    FabricConfig cfg = baseConfig();
    cfg.traffic = "bitrev";
    cfg.offeredLoad = 0.2;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    EXPECT_GT(result.window.delivered, 0u);
    EXPECT_EQ(result.window.misrouted, 0u);
}

TEST(NetworkSim, SmallRadixNetworksWork)
{
    FabricConfig cfg = baseConfig();
    cfg.radix = 2;
    cfg.slotsPerBuffer = 4;
    FabricSimulator sim(cfg); // 6 stages of 2x2
    EXPECT_EQ(sim.omega().numStages(), 6u);
    const core::SyncResult result = sim.run();
    EXPECT_GT(result.window.delivered, 0u);
    // 6 stages -> 72-clock floor.
    EXPECT_GE(result.latency.min(), 72.0);
}

TEST(NetworkSim, BurstySourcesKeepTheAverageRate)
{
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 0.25;
    cfg.common.workload.kind = core::WorkloadKind::OnOff;
    cfg.common.workload.burstiness = 3.0;
    cfg.common.workload.meanBurstCycles = 8;
    cfg.common.measureCycles = 20000;
    FabricSimulator sim(cfg);
    const core::SyncResult r = sim.run();
    const double gen_rate =
        static_cast<double>(r.window.generated) /
        (static_cast<double>(cfg.numPorts) * cfg.common.measureCycles);
    EXPECT_NEAR(gen_rate, 0.25, 0.015);
}

TEST(NetworkSim, BurstinessRaisesLatencyAtFixedLoad)
{
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 0.3;
    cfg.common.measureCycles = 8000;
    const double smooth = FabricSimulator(cfg).run().latency.mean();
    cfg.common.workload.kind = core::WorkloadKind::OnOff;
    cfg.common.workload.burstiness = 3.0;
    const double bursty = FabricSimulator(cfg).run().latency.mean();
    EXPECT_GT(bursty, smooth);
}

TEST(NetworkSim, FairnessIndexNearOneUnderUniformTraffic)
{
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 0.3;
    cfg.common.measureCycles = 8000;
    const core::SyncResult r = FabricSimulator(cfg).run();
    EXPECT_GT(r.latencyFairness, 0.95);
    EXPECT_GE(r.worstSourceLatency, r.latency.mean());
}

TEST(NetworkSim, LittlesLawHoldsInSteadyState)
{
    // L = lambda * W: average packets buffered per switch must
    // equal (arrival rate into the network) * (time spent inside)
    // divided across the switches.  This ties together three
    // independently computed statistics, so it catches accounting
    // bugs in any of them.
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 0.4;
    cfg.common.warmupCycles = 1500;
    cfg.common.measureCycles = 20000;
    FabricSimulator sim(cfg);
    const core::SyncResult r = sim.run();

    const double lambda =
        r.deliveredThroughput * cfg.numPorts; // packets per cycle
    const double mean_cycles_inside =
        r.latency.mean() / kClocksPerNetworkCycle;
    const double num_switches = sim.topology().numSwitches();
    const double expected_per_switch =
        lambda * mean_cycles_inside / num_switches;

    EXPECT_NEAR(r.avgSwitchOccupancy, expected_per_switch,
                expected_per_switch * 0.05);
}

TEST(NetworkSim, SweepProducesMonotoneDeliveredThroughput)
{
    FabricConfig cfg = baseConfig();
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 800;
    const auto curve =
        sweepLoads(cfg, {0.1, 0.2, 0.3, 0.4});
    ASSERT_EQ(curve.size(), 4u);
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GT(curve[i].deliveredThroughput,
                  curve[i - 1].deliveredThroughput * 0.9);
    }
}

} // namespace
} // namespace damq
