#include "network/fabric_sim.hh"

#include "common/logging.hh"
#include "network/core/grid_topology.hh"
#include "network/core/omega_graph.hh"

namespace damq {

namespace {

/** Lower-case name ("omega", "mesh", "torus"). */
const char *
topologyKindName(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Omega: return "omega";
      case TopologyKind::Mesh: return "mesh";
      case TopologyKind::Torus: return "torus";
    }
    damq_panic("unknown TopologyKind ", static_cast<int>(kind));
}

/** Validate @p config's fabric settings and build its topology. */
std::unique_ptr<const core::Topology>
makeTopology(const FabricConfig &config)
{
    const char *name = topologyKindName(config.topology);
    if (config.topology == TopologyKind::Omega) {
        std::uint64_t power = 1;
        while (config.radix >= 2 && power < config.numPorts)
            power *= config.radix;
        if (config.radix < 2 || config.numPorts < config.radix ||
            power != config.numPorts) {
            damq_fatal("omega network: ", config.numPorts,
                       " ports is not an exact power of radix ",
                       config.radix, " (radix >= 2, at least one "
                       "stage)");
        }
        return std::make_unique<core::OmegaGraph>(config.numPorts,
                                                  config.radix);
    }
    if (config.width < 2 || config.height < 2) {
        damq_fatal(name, " needs at least 2x2 nodes, got ",
                   config.width, "x", config.height);
    }
    if (config.traffic == "transpose" && config.width != config.height) {
        damq_fatal("transpose traffic needs a square ", name, ", got ",
                   config.width, "x", config.height);
    }
    if (config.placement != BufferPlacement::Input) {
        damq_fatal(name, " switches are input-buffered; ",
                   bufferPlacementName(config.placement),
                   " placement is available on the omega network "
                   "only");
    }
    if (config.topology == TopologyKind::Mesh)
        return std::make_unique<core::MeshTopology>(config.width,
                                                    config.height);
    return std::make_unique<core::TorusTopology>(config.width,
                                                 config.height);
}

} // namespace

FabricConfig
FabricConfig::omega()
{
    return FabricConfig{};
}

FabricConfig
FabricConfig::mesh()
{
    FabricConfig cfg;
    cfg.topology = TopologyKind::Mesh;
    cfg.slotsPerBuffer = 5;
    cfg.offeredLoad = 0.3;
    return cfg;
}

FabricConfig
FabricConfig::torus()
{
    FabricConfig cfg;
    cfg.topology = TopologyKind::Torus;
    cfg.slotsPerBuffer = 10;
    cfg.offeredLoad = 0.3;
    cfg.common.vcs = 2;
    return cfg;
}

FabricSimulator::FabricSimulator(const FabricConfig &config)
    : topo(makeTopology(config)), engine(*topo, config)
{
}

const OmegaTopology &
FabricSimulator::omega() const
{
    const auto *graph = dynamic_cast<const core::OmegaGraph *>(topo.get());
    if (!graph)
        damq_panic("omega() on a ", topo->accountingScope(), " fabric");
    return graph->omega();
}

std::pair<core::SwitchId, PortId>
FabricSimulator::neighbor(core::SwitchId sw, PortId out) const
{
    const core::HopTarget next = topo->hop(sw, out);
    if (next.toSink)
        damq_panic("neighbor() of an output that feeds a sink");
    return {next.switchId, next.inputPort};
}

} // namespace damq
