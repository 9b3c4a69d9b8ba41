/**
 * @file
 * Load sweeps and saturation measurement for any core-based
 * simulator.
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
 * The sweep machinery is generic: SaturationTraits<Config> maps a
 * simulator's config/result pair onto the load knob and the three
 * curve quantities, so the same sweepLoads/measureSaturation/
 * latencyAtLoad functions drive the Omega network, the mesh and
 * the torus.  Latency units follow the simulator (clocks for the
 * Omega network, cycles for mesh/torus); within one config family
 * the curve is self-consistent.
 */

#ifndef DAMQ_NETWORK_SATURATION_HH
#define DAMQ_NETWORK_SATURATION_HH

#include <vector>

#include "network/mesh_sim.hh"
#include "network/network_sim.hh"
#include "network/torus_sim.hh"

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
 * Adapter from a simulator's (Config, Result) pair to the sweep
 * machinery: which field is the load knob, and where the delivered
 * throughput / latency distribution / discard fraction live in the
 * result.  Specialized for every public simulator config.
 */
template <typename Config>
struct SaturationTraits;

template <>
struct SaturationTraits<NetworkConfig>
{
    using Simulator = NetworkSimulator;
    static void setLoad(NetworkConfig &c, double load)
    {
        c.offeredLoad = load;
    }
    static double throughput(const NetworkResult &r)
    {
        return r.deliveredThroughput;
    }
    static const RunningStats &latency(const NetworkResult &r)
    {
        return r.latencyClocks;
    }
    static double discardFraction(const NetworkResult &r)
    {
        return r.discardFraction;
    }
};

template <>
struct SaturationTraits<MeshConfig>
{
    using Simulator = MeshSimulator;
    static void setLoad(MeshConfig &c, double load)
    {
        c.offeredLoad = load;
    }
    static double throughput(const MeshResult &r)
    {
        return r.deliveredThroughput;
    }
    static const RunningStats &latency(const MeshResult &r)
    {
        return r.latencyCycles;
    }
    static double discardFraction(const MeshResult &r)
    {
        return r.discardFraction;
    }
};

template <>
struct SaturationTraits<TorusConfig>
{
    using Simulator = TorusSimulator;
    static void setLoad(TorusConfig &c, double load)
    {
        c.offeredLoad = load;
    }
    static double throughput(const TorusResult &r)
    {
        return r.deliveredThroughput;
    }
    static const RunningStats &latency(const TorusResult &r)
    {
        return r.latencyCycles;
    }
    static double discardFraction(const TorusResult &r)
    {
        return r.discardFraction;
    }
};

/**
 * Run @p config once per load in @p loads (same seed each time) and
 * collect the latency/throughput curve.
 */
template <typename Config>
std::vector<SweepPoint>
sweepLoads(const Config &config, const std::vector<double> &loads)
{
    using Traits = SaturationTraits<Config>;
    std::vector<SweepPoint> curve;
    curve.reserve(loads.size());
    for (const double load : loads) {
        Config point = config;
        Traits::setLoad(point, load);
        typename Traits::Simulator sim(point);
        const auto result = sim.run();
        const RunningStats &lat = Traits::latency(result);

        SweepPoint sp;
        sp.offeredLoad = load;
        sp.deliveredThroughput = Traits::throughput(result);
        sp.avgLatencyClocks = lat.mean();
        sp.p99LatencyClocks = lat.mean() + 2.33 * lat.stddev();
        sp.discardFraction = Traits::discardFraction(result);
        curve.push_back(sp);
    }
    return curve;
}

/** Measure saturation by running @p config at offered load 1.0. */
template <typename Config>
SaturationSummary
measureSaturation(const Config &config)
{
    using Traits = SaturationTraits<Config>;
    Config full = config;
    Traits::setLoad(full, 1.0);
    typename Traits::Simulator sim(full);
    const auto result = sim.run();

    SaturationSummary summary;
    summary.saturationThroughput = Traits::throughput(result);
    summary.saturatedLatencyClocks = Traits::latency(result).mean();
    return summary;
}

/** Mean in-network latency of @p config at @p load. */
template <typename Config>
double
latencyAtLoad(const Config &config, double load)
{
    using Traits = SaturationTraits<Config>;
    Config point = config;
    Traits::setLoad(point, load);
    typename Traits::Simulator sim(point);
    return Traits::latency(sim.run()).mean();
}

extern template std::vector<SweepPoint> sweepLoads(
    const NetworkConfig &, const std::vector<double> &);
extern template std::vector<SweepPoint> sweepLoads(
    const MeshConfig &, const std::vector<double> &);
extern template std::vector<SweepPoint> sweepLoads(
    const TorusConfig &, const std::vector<double> &);

extern template SaturationSummary measureSaturation(
    const NetworkConfig &);
extern template SaturationSummary measureSaturation(
    const MeshConfig &);
extern template SaturationSummary measureSaturation(
    const TorusConfig &);

extern template double latencyAtLoad(const NetworkConfig &, double);
extern template double latencyAtLoad(const MeshConfig &, double);
extern template double latencyAtLoad(const TorusConfig &, double);

} // namespace damq

#endif // DAMQ_NETWORK_SATURATION_HH
