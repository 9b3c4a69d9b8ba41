/**
 * @file
 * Simulator-level types shared by every fabric: the flow-control
 * protocol (Section 4) and the monotone event counters every engine
 * accumulates.
 */

#ifndef DAMQ_NETWORK_CORE_SIM_TYPES_HH
#define DAMQ_NETWORK_CORE_SIM_TYPES_HH

#include <cstdint>
#include <optional>
#include <string>

namespace damq {

/** How a full downstream buffer is handled (Section 4). */
enum class FlowControl
{
    Discarding, ///< packets entering a full buffer are dropped
    Blocking,   ///< the transmitter is held off by back-pressure
    /**
     * Flit-level back-pressure by per-hop credit counters: a sender
     * holds one credit per downstream slot its flits may occupy and
     * stalls at zero; the receiver returns a credit per slot freed.
     * Only meaningful under the flit-level switching modes
     * (wormhole / virtual cut-through); packet-synchronized configs
     * reject it at construction.
     */
    Credit,
    /**
     * Flit-level back-pressure by an on/off wire: the sender reads
     * the receiver's free-space state directly each cycle instead
     * of tracking credits.  Flit modes only, like Credit.
     */
    OnOff
};

/** Human-readable protocol name. */
const char *flowControlName(FlowControl protocol);

/** Parse a case-insensitive protocol name; nullopt on bad input. */
std::optional<FlowControl> tryFlowControlFromString(
    const std::string &name);

/** Monotone event counters (lifetime totals). */
struct NetworkCounters
{
    std::uint64_t generated = 0;        ///< packets created by sources
    std::uint64_t injected = 0;         ///< entered a first-hop buffer
    std::uint64_t delivered = 0;        ///< reached their sink
    std::uint64_t discardedAtEntry = 0; ///< dropped entering the fabric
    std::uint64_t discardedInternal = 0;///< dropped at a later hop
    std::uint64_t misrouted = 0;        ///< delivered to wrong sink (bug!)
    std::uint64_t faultDropped = 0;     ///< removed by injected faults
                                        ///  (drops + detected corruptions)
    std::uint64_t deliveredFlits = 0;   ///< flits of delivered packets
    std::uint64_t headsCutThrough = 0;  ///< head flits sent on before
                                        ///  their tail had arrived

    /** Element-wise difference (for measurement windows). */
    NetworkCounters operator-(const NetworkCounters &rhs) const;

    /** All discards. */
    std::uint64_t discarded() const
    {
        return discardedAtEntry + discardedInternal;
    }
};

} // namespace damq

#endif // DAMQ_NETWORK_CORE_SIM_TYPES_HH
