/**
 * @file
 * core::Topology adapter over the Omega multistage network.
 *
 * Switches are numbered stage-major: flat id = stage *
 * switchesPerStage() + index-within-stage, the order every Omega
 * baseline was recorded in (so fault-component handles, watchdog
 * snapshots, and telemetry probes keep their order and names).
 * Routing delegates to OmegaTopology's digit-controlled
 * outputPortFor(); the last stage's outputs feed the sinks.
 */

#ifndef DAMQ_NETWORK_CORE_OMEGA_GRAPH_HH
#define DAMQ_NETWORK_CORE_OMEGA_GRAPH_HH

#include "network/core/topology.hh"
#include "network/omega_topology.hh"

namespace damq {
namespace core {

/** The Omega network as a core::Topology (see file docs). */
class OmegaGraph final : public Topology
{
  public:
    /** @see OmegaTopology::OmegaTopology */
    OmegaGraph(std::uint32_t num_ports, std::uint32_t radix)
        : net(num_ports, radix)
    {
    }

    /** The wrapped stage/shuffle geometry. */
    const OmegaTopology &omega() const { return net; }

    /** Pipeline stage of flat switch @p sw. */
    std::uint32_t stageOf(SwitchId sw) const
    {
        return sw / net.switchesPerStage();
    }

    /** Index of flat switch @p sw within its stage. */
    std::uint32_t indexOf(SwitchId sw) const
    {
        return sw % net.switchesPerStage();
    }

    /** Flat id of switch @p index in stage @p stage. */
    SwitchId flatId(std::uint32_t stage, std::uint32_t index) const
    {
        return stage * net.switchesPerStage() + index;
    }

    std::uint32_t numSwitches() const override
    {
        return net.numStages() * net.switchesPerStage();
    }

    std::uint32_t portsPerSwitch() const override
    {
        return net.radix();
    }

    std::uint32_t numEndpoints() const override
    {
        return net.numPorts();
    }

    PortId route(SwitchId sw, NodeId dest) const override
    {
        return net.outputPortFor(dest, stageOf(sw));
    }

    HopTarget hop(SwitchId sw, PortId out) const override;

    InjectPoint injectionPoint(NodeId src) const override
    {
        const StageCoord coord = net.firstStageInput(src);
        return InjectPoint{coord.switchIndex, coord.port};
    }

    std::string switchName(SwitchId sw) const override;

    double latencyUnitScale() const override
    {
        return static_cast<double>(kClocksPerNetworkCycle);
    }

    const char *accountingScope() const override { return "network"; }

    std::int64_t numTraceProcesses() const override
    {
        return static_cast<std::int64_t>(net.numStages());
    }

    std::string traceProcessName(std::int64_t pid) const override;

    const char *endpointProcessName() const override
    {
        return "endpoints";
    }

    void traceRow(SwitchId sw, PortId port, std::int64_t &pid,
                  std::int64_t &tid) const override
    {
        pid = static_cast<std::int64_t>(stageOf(sw));
        tid = static_cast<std::int64_t>(indexOf(sw)) * net.radix() +
              port;
    }

    std::string traceThreadName(SwitchId sw,
                                PortId port) const override;

    std::string probeName(SwitchId sw, PortId port) const override;

  private:
    OmegaTopology net;
};

} // namespace core
} // namespace damq

#endif // DAMQ_NETWORK_CORE_OMEGA_GRAPH_HH
