/**
 * @file
 * Workload generation for the simulation core: pattern construction
 * plus the per-source injection process, factored out of the four
 * simulators.
 *
 * makeTrafficPattern() centralizes the name -> TrafficPattern
 * dispatch every simulator used to duplicate ("hotspot" takes the
 * configured fraction, "transpose" is only available on square
 * grids, everything else goes through makeTraffic()).
 *
 * TrafficSource is the façade the engines drive: it owns a
 * destination pattern plus an InjectionProcess (workload.hh) and
 * resolves the destination of each staged packet — the process may
 * pin it (closed-loop replies, trace replay), otherwise the pattern
 * draws one.  Draw order is part of the repo's determinism
 * contract: for the geometric and onoff workloads,
 * shouldGenerate() makes exactly the same PRNG draws, in the same
 * order, as the pre-core simulators — burst on/off transitions
 * (onoff only) followed by one generation draw.
 */

#ifndef DAMQ_NETWORK_CORE_TRAFFIC_SOURCE_HH
#define DAMQ_NETWORK_CORE_TRAFFIC_SOURCE_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/random.hh"
#include "common/types.hh"
#include "network/core/workload.hh"
#include "network/traffic.hh"

namespace damq {
namespace core {

/**
 * Build the destination pattern named @p name for @p num_nodes
 * endpoints.  @p hot_spot_fraction parameterizes "hotspot";
 * "transpose" is accepted only when @p transpose_side > 0 (a
 * transpose_side x transpose_side grid); other names go through
 * makeTraffic() (fatal on unknown names).
 */
std::unique_ptr<TrafficPattern> makeTrafficPattern(
    const std::string &name, std::uint32_t num_nodes,
    double hot_spot_fraction, std::uint32_t transpose_side,
    std::uint64_t seed);

/** Destination pattern + per-source injection process. */
class TrafficSource
{
  public:
    /**
     * @param pattern         destination pattern (owned).
     * @param num_sources     independent generation processes.
     * @param gen_probability mean per-cycle offered load.
     * @param workload        injection-process selection/parameters
     *                        (validated in makeInjectionProcess()).
     * @param traffic_classes QoS class count, for validation
     *                        messages only.
     */
    TrafficSource(std::unique_ptr<TrafficPattern> pattern,
                  std::uint32_t num_sources, double gen_probability,
                  const WorkloadConfig &workload,
                  std::uint32_t traffic_classes = 1);

    /**
     * Offer decision for @p src this cycle (the process may draw
     * from @p rng; see the draw-order contract above).
     */
    bool shouldGenerate(NodeId src, Cycle now, Random &rng)
    {
        return process_->shouldGenerate(src, now, rng);
    }

    /**
     * Offer decision while the engine drains: pending closed-loop
     * work only, never an RNG draw.
     */
    bool drainPending(NodeId src, Cycle now)
    {
        return process_->drainPending(src, now);
    }

    /**
     * Destination of the packet staged by the last accepted offer:
     * the process's pinned destination if it set one, else a
     * pattern draw.
     */
    NodeId destinationFor(NodeId src, Random &rng)
    {
        const NodeId pinned = process_->stagedDestination();
        if (pinned != kInvalidNode)
            return pinned;
        return pattern_->destinationFor(src, rng);
    }

    /** Role of the packet staged by the last accepted offer. */
    PacketKind stagedKind() const { return process_->stagedKind(); }

    /** Delivery callback for closed-loop processes. */
    void onDelivered(const Packet &pkt, Cycle now)
    {
        process_->onDelivered(pkt, now);
    }

    /** Whether the process will never offer another packet. */
    bool exhausted() const { return process_->exhausted(); }

    /** Offers owed but not yet staged (queued replies). */
    std::uint64_t pendingOffers() const
    {
        return process_->pendingOffers();
    }

    /** The injection process in use. */
    const InjectionProcess &process() const { return *process_; }

    /** The destination pattern in use. */
    TrafficPattern &pattern() { return *pattern_; }

  private:
    std::unique_ptr<TrafficPattern> pattern_;
    std::unique_ptr<InjectionProcess> process_;
};

} // namespace core
} // namespace damq

#endif // DAMQ_NETWORK_CORE_TRAFFIC_SOURCE_HH
