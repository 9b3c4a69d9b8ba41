/**
 * @file
 * core::Topology for 2D grids: the open mesh and the wraparound
 * torus.
 *
 * Both use dimension-order routing (correct X first, then Y, then
 * deliver through the local port).  On the open mesh that is the
 * classic deadlock-free XY route.  On the torus each dimension
 * additionally picks the shorter way around the ring (ties go to
 * the positive direction), which restores edge symmetry but — as
 * with any minimal DOR on rings without virtual channels — can
 * deadlock under blocking flow control.  The topology therefore
 * exposes its ring geometry (portDimension / hopCrossesDateline) so
 * the engine's dateline VC policy can break the ring cycles; torus
 * runs default to blocking flow control with two VCs.
 *
 * Nodes are numbered row-major (node = y * width + x), the order
 * every grid baseline was recorded in.
 */

#ifndef DAMQ_NETWORK_CORE_GRID_TOPOLOGY_HH
#define DAMQ_NETWORK_CORE_GRID_TOPOLOGY_HH

#include "network/core/topology.hh"

namespace damq {

/** Ports of a grid node (four directions + the local host port). */
enum MeshPort : PortId
{
    kEast = 0,
    kWest = 1,
    kNorth = 2,
    kSouth = 3,
    kLocal = 4,
    kMeshPorts = 5
};

namespace core {

/** A width x height grid of 5-port nodes, open or wrapped. */
class GridTopology : public Topology
{
  public:
    /**
     * @param width      nodes per row (>= 2).
     * @param height     rows (>= 2).
     * @param wraparound true for a torus, false for an open mesh.
     */
    GridTopology(std::uint32_t width, std::uint32_t height,
                 bool wraparound);

    std::uint32_t width() const { return gridWidth; }
    std::uint32_t height() const { return gridHeight; }
    bool wraparound() const { return wrap; }

    std::uint32_t numSwitches() const override
    {
        return gridWidth * gridHeight;
    }

    std::uint32_t portsPerSwitch() const override
    {
        return kMeshPorts;
    }

    std::uint32_t numEndpoints() const override
    {
        return gridWidth * gridHeight;
    }

    PortId route(SwitchId sw, NodeId dest) const override;

    HopTarget hop(SwitchId sw, PortId out) const override;

    /** A mesh (no wraparound) has no links off its edges. */
    bool hasLink(SwitchId sw, PortId out) const override;

    /** Every grid node hosts an endpoint on its local port. */
    PortId localInputPort(SwitchId /*sw*/) const override
    {
        return kLocal;
    }

    InjectPoint injectionPoint(NodeId src) const override
    {
        return InjectPoint{src, kLocal};
    }

    std::string switchName(SwitchId sw) const override;

    /** East/west ports ride the X rings, north/south the Y rings. */
    int portDimension(PortId port) const override;

    /** True on a torus when @p out is the ring's wraparound link. */
    bool hopCrossesDateline(SwitchId sw, PortId out) const override;

    bool snapshotSkipsEmpty() const override { return true; }

    std::uint32_t transposeSide() const override { return gridWidth; }

    const char *accountingScope() const override
    {
        return wrap ? "torus" : "mesh";
    }

    std::int64_t numTraceProcesses() const override
    {
        return static_cast<std::int64_t>(numSwitches());
    }

    std::string traceProcessName(std::int64_t pid) const override;

    const char *endpointProcessName() const override
    {
        return "hosts";
    }

    void traceRow(SwitchId sw, PortId port, std::int64_t &pid,
                  std::int64_t &tid) const override
    {
        pid = static_cast<std::int64_t>(sw);
        tid = static_cast<std::int64_t>(port);
    }

    std::string traceThreadName(SwitchId sw,
                                PortId port) const override;

    std::string probeName(SwitchId sw, PortId port) const override;

  private:
    std::uint32_t gridWidth;
    std::uint32_t gridHeight;
    bool wrap;
};

/** The open 2D mesh (XY dimension-order routing). */
class MeshTopology final : public GridTopology
{
  public:
    MeshTopology(std::uint32_t width, std::uint32_t height)
        : GridTopology(width, height, false)
    {
    }
};

/** The 2D torus (wraparound rings, shortest-way DOR). */
class TorusTopology final : public GridTopology
{
  public:
    TorusTopology(std::uint32_t width, std::uint32_t height)
        : GridTopology(width, height, true)
    {
    }
};

} // namespace core
} // namespace damq

#endif // DAMQ_NETWORK_CORE_GRID_TOPOLOGY_HH
