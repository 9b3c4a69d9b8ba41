#include "network/saturation.hh"

namespace damq {

namespace {

/** Run @p config at offered load @p load. */
core::SyncResult
runAtLoad(const FabricConfig &config, double load)
{
    FabricConfig point = config;
    point.offeredLoad = load;
    return FabricSimulator(point).run();
}

} // namespace

std::vector<SweepPoint>
sweepLoads(const FabricConfig &config, const std::vector<double> &loads)
{
    std::vector<SweepPoint> curve;
    curve.reserve(loads.size());
    for (const double load : loads) {
        const core::SyncResult result = runAtLoad(config, load);
        SweepPoint sp;
        sp.offeredLoad = load;
        sp.deliveredThroughput = result.deliveredThroughput;
        sp.avgLatencyClocks = result.latency.mean();
        sp.p99LatencyClocks =
            result.latency.mean() + 2.33 * result.latency.stddev();
        sp.discardFraction = result.discardFraction;
        curve.push_back(sp);
    }
    return curve;
}

SaturationSummary
measureSaturation(const FabricConfig &config)
{
    const core::SyncResult result = runAtLoad(config, 1.0);
    SaturationSummary summary;
    summary.saturationThroughput = result.deliveredThroughput;
    summary.saturatedLatencyClocks = result.latency.mean();
    return summary;
}

double
latencyAtLoad(const FabricConfig &config, double load)
{
    return runAtLoad(config, load).latency.mean();
}

} // namespace damq
