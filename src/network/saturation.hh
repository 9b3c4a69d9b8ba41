/**
 * @file
 * Load sweeps and saturation measurement for any fabric.
 *
 * The paper (after Pfister & Norton) characterizes each network by
 * its latency-vs-throughput curve: nearly flat latency up to a
 * knee, then a near-vertical wall at the *saturation throughput* —
 * the highest rate the network can actually deliver.  We measure
 * saturation by offering full load (every source generates every
 * cycle) and recording what comes out the other side; the blocking
 * protocol's source queues absorb the excess, so the delivered rate
 * converges to the network's capacity.
 *
 * Every fabric runs through the same three functions; latency units
 * follow the topology (clocks for the Omega network, cycles for
 * mesh/torus), so within one fabric the curve is self-consistent.
 */

#ifndef DAMQ_NETWORK_SATURATION_HH
#define DAMQ_NETWORK_SATURATION_HH

#include <vector>

#include "network/fabric_sim.hh"

namespace damq {

/** One point of a latency/throughput curve. */
struct SweepPoint
{
    double offeredLoad = 0.0;
    double deliveredThroughput = 0.0;
    double avgLatencyClocks = 0.0;
    double p99LatencyClocks = 0.0; ///< upper tail via mean+2.33*sd proxy
    double discardFraction = 0.0;
};

/** Saturation characteristics of one configuration. */
struct SaturationSummary
{
    /** Delivered throughput under full offered load. */
    double saturationThroughput = 0.0;

    /** Mean in-network latency (clocks) under full offered load. */
    double saturatedLatencyClocks = 0.0;
};

/**
 * Run @p config once per load in @p loads (same seed each time) and
 * collect the latency/throughput curve.
 */
std::vector<SweepPoint> sweepLoads(const FabricConfig &config,
                                   const std::vector<double> &loads);

/** Measure saturation by running @p config at offered load 1.0. */
SaturationSummary measureSaturation(const FabricConfig &config);

/** Mean in-network latency of @p config at @p load. */
double latencyAtLoad(const FabricConfig &config, double load);

} // namespace damq

#endif // DAMQ_NETWORK_SATURATION_HH
