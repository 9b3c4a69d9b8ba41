/**
 * @file
 * Tests for the saturation-sweep driver: curve shape (flat then
 * wall), the knee's location relative to measureSaturation, and
 * helper consistency.
 */

#include <gtest/gtest.h>

#include "network/saturation.hh"

namespace damq {
namespace {

FabricConfig
config(BufferType type)
{
    FabricConfig cfg;
    cfg.bufferType = type;
    cfg.slotsPerBuffer = 4;
    cfg.common.seed = 2718;
    cfg.common.warmupCycles = 400;
    cfg.common.measureCycles = 2500;
    return cfg;
}

TEST(Saturation, CurveHasTheClassicShape)
{
    const auto curve = sweepLoads(
        config(BufferType::Damq),
        {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.8, 1.0});
    // Below saturation delivered tracks offered...
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_NEAR(curve[i].deliveredThroughput,
                    curve[i].offeredLoad, 0.03);
    }
    // ...latency rises monotonically (within noise)...
    for (std::size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GT(curve[i].avgLatencyClocks,
                  curve[i - 1].avgLatencyClocks * 0.97);
    }
    // ...and delivered throughput plateaus at the end.
    EXPECT_NEAR(curve[6].deliveredThroughput,
                curve[7].deliveredThroughput, 0.03);
}

TEST(Saturation, MeasureMatchesTheSweepPlateau)
{
    const FabricConfig cfg = config(BufferType::Fifo);
    const SaturationSummary sat = measureSaturation(cfg);
    const auto curve = sweepLoads(cfg, {1.0});
    EXPECT_NEAR(sat.saturationThroughput,
                curve[0].deliveredThroughput, 0.02);
}

TEST(Saturation, LatencyAtLoadAgreesWithSweep)
{
    const FabricConfig cfg = config(BufferType::Damq);
    const double direct = latencyAtLoad(cfg, 0.3);
    const auto curve = sweepLoads(cfg, {0.3});
    // Same seed, same configuration: identical runs.
    EXPECT_DOUBLE_EQ(direct, curve[0].avgLatencyClocks);
}

TEST(Saturation, TailProxyIsAboveTheMean)
{
    const auto curve = sweepLoads(config(BufferType::Fifo), {0.45});
    EXPECT_GT(curve[0].p99LatencyClocks, curve[0].avgLatencyClocks);
}

} // namespace
} // namespace damq
