/**
 * @file
 * Tests for the 2D-mesh simulator: XY routing, neighbor wiring,
 * unloaded latency (Manhattan distance + 1), conservation,
 * deadlock freedom under saturation, transpose traffic, and the
 * DAMQ advantage carrying over from the Omega results.
 */

#include <gtest/gtest.h>

#include "network/core/grid_topology.hh"
#include "network/fabric_sim.hh"

namespace damq {
namespace {

FabricConfig
baseConfig()
{
    FabricConfig cfg = FabricConfig::mesh();
    cfg.width = 8;
    cfg.height = 8;
    cfg.bufferType = BufferType::Damq;
    cfg.slotsPerBuffer = 5;
    cfg.protocol = FlowControl::Blocking;
    cfg.offeredLoad = 0.2;
    cfg.common.seed = 616;
    cfg.common.warmupCycles = 500;
    cfg.common.measureCycles = 4000;
    return cfg;
}

TEST(MeshSim, XyRoutingDecisions)
{
    FabricConfig cfg = baseConfig();
    FabricSimulator sim(cfg);
    // Node (1,1) = 9 in an 8-wide mesh.
    EXPECT_EQ(sim.routeFrom(9, 9), kLocal);
    EXPECT_EQ(sim.routeFrom(9, 10), kEast);  // (2,1)
    EXPECT_EQ(sim.routeFrom(9, 8), kWest);   // (0,1)
    EXPECT_EQ(sim.routeFrom(9, 17), kNorth); // (1,2)
    EXPECT_EQ(sim.routeFrom(9, 1), kSouth);  // (1,0)
    // X is corrected before Y.
    EXPECT_EQ(sim.routeFrom(9, 18), kEast); // (2,2): east first
}

TEST(MeshSim, NeighborWiringIsSymmetric)
{
    FabricConfig cfg = baseConfig();
    FabricSimulator sim(cfg);
    const auto [east, in_port] = sim.neighbor(9, kEast);
    EXPECT_EQ(east, 10u);
    EXPECT_EQ(in_port, kWest);
    const auto [back, back_port] = sim.neighbor(east, kWest);
    EXPECT_EQ(back, 9u);
    EXPECT_EQ(back_port, kEast);
    const auto [north, n_port] = sim.neighbor(9, kNorth);
    EXPECT_EQ(north, 17u);
    EXPECT_EQ(n_port, kSouth);
}

TEST(MeshSim, UnloadedLatencyIsManhattanPlusOne)
{
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 0.005;
    cfg.traffic = "transpose"; // deterministic distances
    cfg.common.measureCycles = 20000;
    FabricSimulator sim(cfg);
    const core::SyncResult r = sim.run();
    ASSERT_GT(r.latency.count(), 0u);
    // Transpose on an 8x8 grid: distance |x-y|*2 in {0,2,...,14};
    // minimum non-trivial sample has latency >= 1 and every
    // delivery at distance d takes exactly d + 1 unloaded.
    // Average distance = E|x-y|*2 = 5.25 -> latency 6.25.
    EXPECT_NEAR(r.latency.mean(), 6.25, 0.15);
    EXPECT_NEAR(r.hops.mean() + 1.0, r.latency.mean(), 0.15);
}

class MeshConservation
    : public ::testing::TestWithParam<std::tuple<BufferType,
                                                 FlowControl>>
{
};

TEST_P(MeshConservation, NothingCreatedOrLost)
{
    FabricConfig cfg = baseConfig();
    cfg.bufferType = std::get<0>(GetParam());
    cfg.protocol = std::get<1>(GetParam());
    cfg.offeredLoad = 0.5;
    FabricSimulator sim(cfg);
    for (int i = 0; i < 2000; ++i)
        sim.step();
    sim.debugValidate();
    const NetworkCounters &c = sim.lifetime();
    EXPECT_EQ(c.generated, c.delivered + c.discarded() +
                               sim.packetsInFlight() +
                               sim.packetsAtSources());
    EXPECT_EQ(c.misrouted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MeshConservation,
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

TEST(MeshSim, SaturationDoesNotDeadlock)
{
    // XY routing is deadlock-free: even at full offered load the
    // mesh keeps delivering.
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 1.0;
    cfg.common.warmupCycles = 2000;
    cfg.common.measureCycles = 4000;
    FabricSimulator sim(cfg);
    const core::SyncResult r = sim.run();
    EXPECT_GT(r.window.delivered, 0u);
    EXPECT_GT(r.deliveredThroughput, 0.05);
    EXPECT_EQ(sim.lifetime().discarded(), 0u); // blocking
}

TEST(MeshSim, DamqBeatsFifoOnUniformTraffic)
{
    FabricConfig cfg = baseConfig();
    cfg.offeredLoad = 1.0;
    cfg.common.warmupCycles = 1500;
    cfg.common.measureCycles = 5000;
    cfg.bufferType = BufferType::Fifo;
    const double fifo =
        FabricSimulator(cfg).run().deliveredThroughput;
    cfg.bufferType = BufferType::Damq;
    const double damq =
        FabricSimulator(cfg).run().deliveredThroughput;
    EXPECT_GT(damq, fifo * 1.1);
}

TEST(MeshSim, TransposeTrafficDelivers)
{
    FabricConfig cfg = baseConfig();
    cfg.traffic = "transpose";
    cfg.offeredLoad = 0.15;
    FabricSimulator sim(cfg);
    const core::SyncResult r = sim.run();
    EXPECT_NEAR(r.deliveredThroughput, 0.15, 0.02);
    EXPECT_EQ(r.window.misrouted, 0u);
}

TEST(MeshSim, Deterministic)
{
    FabricConfig cfg = baseConfig();
    const core::SyncResult a = FabricSimulator(cfg).run();
    const core::SyncResult b = FabricSimulator(cfg).run();
    EXPECT_EQ(a.window.delivered, b.window.delivered);
    EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
}

TEST(MeshSim, RectangularMeshesWork)
{
    FabricConfig cfg = baseConfig();
    cfg.width = 4;
    cfg.height = 16;
    FabricSimulator sim(cfg);
    const core::SyncResult r = sim.run();
    EXPECT_GT(r.window.delivered, 0u);
    EXPECT_EQ(r.window.misrouted, 0u);
}

} // namespace
} // namespace damq
