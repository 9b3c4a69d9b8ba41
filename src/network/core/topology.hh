/**
 * @file
 * The Topology interface of the shared simulation core.
 *
 * A topology describes the node/channel graph a synchronized
 * simulator runs on, in flattened form: switches are numbered
 * 0..numSwitches()-1 (SwitchId), every switch has the same degree,
 * and three functions tie the graph together:
 *
 *  - route(sw, dest): the output port a packet for @p dest takes at
 *    switch @p sw (the routing function — digit-controlled for the
 *    Omega network, dimension-order for mesh/torus grids);
 *  - hop(sw, out): where a packet leaving @p sw through @p out
 *    lands — either another switch's input port or an endpoint sink;
 *  - injectionPoint(src): the (switch, input port) where endpoint
 *    @p src offers new packets to the fabric.
 *
 * The flat SwitchId ordering is load-bearing: it defines the
 * fault-injector / watchdog component registration order, the
 * deterministic snapshot order, and the telemetry probe order, so
 * adapters must number switches the same way the pre-core
 * simulators iterated them (stage-major for the Omega network,
 * row-major for grids).
 *
 * The naming hooks (switchName, probeName, trace*) keep the
 * per-topology diagnostic vocabulary ("stage0.sw3" vs "node12",
 * trace row layout) byte-identical to the pre-core simulators.
 */

#ifndef DAMQ_NETWORK_CORE_TOPOLOGY_HH
#define DAMQ_NETWORK_CORE_TOPOLOGY_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace damq {
namespace core {

/** Flat switch index inside a topology. */
using SwitchId = std::uint32_t;

/** Where a packet leaving a switch output lands. */
struct HopTarget
{
    bool toSink = false;       ///< true: delivered to an endpoint
    NodeId sink = kInvalidNode;///< the endpoint (when toSink)
    SwitchId switchId = 0;     ///< next switch (when !toSink)
    PortId inputPort = 0;      ///< its input port (when !toSink)
};

/** Where an endpoint's packets enter the fabric. */
struct InjectPoint
{
    SwitchId switchId = 0;
    PortId port = 0;
};

/** Immutable node/channel graph plus its routing function. */
class Topology
{
  public:
    virtual ~Topology() = default;

    /** Number of switches in the fabric. */
    virtual std::uint32_t numSwitches() const = 0;

    /** Uniform switch degree (ports per switch). */
    virtual std::uint32_t portsPerSwitch() const = 0;

    /** Number of endpoints (sources == sinks). */
    virtual std::uint32_t numEndpoints() const = 0;

    /** Output port at @p sw for a packet destined to @p dest. */
    virtual PortId route(SwitchId sw, NodeId dest) const = 0;

    /** Channel fed by output @p out of switch @p sw. */
    virtual HopTarget hop(SwitchId sw, PortId out) const = 0;

    /** Entry channel of endpoint @p src. */
    virtual InjectPoint injectionPoint(NodeId src) const = 0;

    /** Diagnostic name of @p sw ("stage1.sw3", "node12", ...). */
    virtual std::string switchName(SwitchId sw) const = 0;

    // --- Link-state surface -----------------------------------------
    // The recovery layer's link-state mask (link_state.hh) indexes
    // links flat as sw * portsPerSwitch() + out; these helpers tie
    // that numbering to the topology so the fault injector, the
    // link layer, and the fault-tolerant router all agree on it.

    /** Number of flat link ids (every output of every switch). */
    std::uint32_t numLinks() const
    {
        return numSwitches() * portsPerSwitch();
    }

    /**
     * Whether output @p out of switch @p sw is wired to anything.
     * Regular topologies keep the default (every port exists); a
     * non-wraparound grid overrides it for its edge ports, whose
     * hop() would be meaningless.
     */
    virtual bool hasLink(SwitchId /*sw*/, PortId /*out*/) const
    {
        return true;
    }

    /**
     * Whether the link out of @p sw through @p out may be forced
     * down by a hard fault.  Delivery links to sinks are excluded
     * by default: a failed-link-fraction sweep measures the fabric,
     * not the hosts' exit channels (which have no detour anyway).
     */
    virtual bool linkFaultEligible(SwitchId sw, PortId out) const
    {
        return hasLink(sw, out) && !hop(sw, out).toSink;
    }

    /**
     * Input port of @p sw that no fabric link feeds (the local
     * injection port), or kInvalidPort when the switch has none.
     * Fault-tolerant rerouting re-enters displaced packets through
     * this buffer: a buffer no link feeds cannot extend a channel-
     * dependency chain, so re-entry there can never close a
     * deadlock cycle (see network/core/fault_router.hh).
     */
    virtual PortId localInputPort(SwitchId /*sw*/) const
    {
        return kInvalidPort;
    }

    // --- Virtual-channel geometry -----------------------------------
    // The dateline VC policy needs to know which ports travel along
    // which ring and where each ring's wraparound link sits.
    // Topologies without rings keep the defaults (no dimensions, no
    // datelines), which makes every VC policy degenerate to VC 0.

    /**
     * Ring dimension that port @p port travels along (0 = X, 1 = Y,
     * ...), or -1 when the port is not part of a ring (delivery
     * ports, Omega-stage links).
     */
    virtual int portDimension(PortId /*port*/) const { return -1; }

    /**
     * Whether the channel out of @p sw through @p out is a ring's
     * wraparound ("dateline") link.  Always false on topologies
     * without wraparound channels.
     */
    virtual bool hopCrossesDateline(SwitchId /*sw*/,
                                    PortId /*out*/) const
    {
        return false;
    }

    /** Whether diagnostic snapshots omit empty switches. */
    virtual bool snapshotSkipsEmpty() const { return false; }

    // --- Reporting conventions --------------------------------------
    // Fixed by the topology rather than configured, so no config can
    // pair a fabric with another fabric's units or names.

    /**
     * Latency reporting unit, in units per network cycle: the Omega
     * network reports clock cycles (the paper's 12 clocks per
     * synchronized transfer), the grids report network cycles (1).
     */
    virtual double latencyUnitScale() const { return 1.0; }

    /**
     * Side of the square grid the "transpose" traffic pattern
     * permutes, or 0 when the fabric has no such special case.
     */
    virtual std::uint32_t transposeSide() const { return 0; }

    /** Scope name of the packet-accounting audit record. */
    virtual const char *accountingScope() const = 0;

    // --- Trace/probe row layout -------------------------------------
    // Chrome-trace rows are (process, thread) pairs; each topology
    // groups its buffers its own way (Omega: one process per stage,
    // grids: one process per node).  The endpoint pseudo-process is
    // always pid == numTraceProcesses().

    /** Trace processes used for switches (endpoints come after). */
    virtual std::int64_t numTraceProcesses() const = 0;

    /** Display name of trace process @p pid. */
    virtual std::string traceProcessName(std::int64_t pid) const = 0;

    /** Display name of the endpoint pseudo-process. */
    virtual const char *endpointProcessName() const = 0;

    /** Trace (pid, tid) of input buffer @p port of switch @p sw. */
    virtual void traceRow(SwitchId sw, PortId port, std::int64_t &pid,
                          std::int64_t &tid) const = 0;

    /** Thread display name of that buffer's trace row. */
    virtual std::string traceThreadName(SwitchId sw,
                                        PortId port) const = 0;

    /** Metrics-probe name of that buffer ("s0.sw3.in1", ...). */
    virtual std::string probeName(SwitchId sw, PortId port) const = 0;
};

} // namespace core
} // namespace damq

#endif // DAMQ_NETWORK_CORE_TOPOLOGY_HH
