/**
 * @file
 * Loss-freedom of the blocking protocol, long-run: with no faults
 * injected, every generated packet is eventually delivered — none
 * discarded, none stuck — for all five buffer organizations under
 * both uniform and 5% hot-spot traffic.  The periodic invariant
 * audit checks the conservation identity (injected = delivered +
 * discarded + in-flight) throughout the run, and a final drain
 * closes the books exactly: injected == delivered.
 */

#include <gtest/gtest.h>

#include <string>

#include "network/fabric_sim.hh"

namespace damq {
namespace {

struct LossFreeCase
{
    BufferType type;
    std::string traffic;
};

class LossFree : public ::testing::TestWithParam<LossFreeCase>
{
};

TEST_P(LossFree, BlockingNetworkLosesNothing)
{
    const LossFreeCase &param = GetParam();

    FabricConfig cfg;
    cfg.numPorts = 16;
    cfg.radix = 4;
    cfg.bufferType = param.type;
    cfg.slotsPerBuffer = 4;
    cfg.protocol = FlowControl::Blocking;
    cfg.traffic = param.traffic;
    cfg.hotSpotFraction = 0.05;
    // Hot-spot traffic tree-saturates; stay under the cap so the
    // drain terminates in bounded time.
    cfg.offeredLoad = param.traffic == "hotspot" ? 0.15 : 0.5;
    cfg.common.warmupCycles = 500;
    cfg.common.measureCycles = 4000;
    cfg.common.auditEveryCycles = 100; // conservation checked all along
    cfg.common.seed = 88;

    FabricSimulator sim(cfg);
    sim.run();

    // Blocking flow control never discards.
    EXPECT_EQ(sim.lifetime().discarded(), 0u);
    EXPECT_EQ(sim.lifetime().misrouted, 0u);

    // The in-run audits saw the identity hold at every check.
    const FaultReport mid = sim.faultReport();
    EXPECT_GT(mid.auditsRun, 0u);
    EXPECT_EQ(mid.auditViolations, 0u)
        << mid.violationSamples.front();

    // Stop generating and let the network empty out completely.
    ASSERT_TRUE(sim.drain(200000))
        << "network failed to drain; snapshot:\n"
        << sim.snapshotText();
    EXPECT_EQ(sim.packetsInFlight(), 0u);
    EXPECT_EQ(sim.packetsAtSources(), 0u);

    // With nothing in flight, conservation degenerates to equality.
    EXPECT_EQ(sim.lifetime().injected, sim.lifetime().delivered);
    EXPECT_EQ(sim.lifetime().generated, sim.lifetime().delivered);

    const FaultReport report = sim.faultReport();
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_EQ(report.totalInjected(), 0u);
}

std::string
lossFreeName(const ::testing::TestParamInfo<LossFreeCase> &info)
{
    return std::string(bufferTypeName(info.param.type)) + "_" +
           info.param.traffic;
}

INSTANTIATE_TEST_SUITE_P(
    AllBuffersBothTraffics, LossFree,
    ::testing::Values(
        LossFreeCase{BufferType::Fifo, "uniform"},
        LossFreeCase{BufferType::Samq, "uniform"},
        LossFreeCase{BufferType::Safc, "uniform"},
        LossFreeCase{BufferType::Damq, "uniform"},
        LossFreeCase{BufferType::DamqR, "uniform"},
        LossFreeCase{BufferType::Fifo, "hotspot"},
        LossFreeCase{BufferType::Samq, "hotspot"},
        LossFreeCase{BufferType::Safc, "hotspot"},
        LossFreeCase{BufferType::Damq, "hotspot"},
        LossFreeCase{BufferType::DamqR, "hotspot"}),
    lossFreeName);

} // namespace
} // namespace damq
