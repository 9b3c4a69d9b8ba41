/**
 * @file
 * The one fabric front-end: FabricConfig names a topology plus the
 * synchronized engine's policy knobs, and FabricSimulator builds
 * that topology and runs core::SyncEngine over it.
 *
 * Three fabrics are available:
 *
 *  - **Omega** (Section 4.2): N endpoints through log_r(N) stages of
 *    r x r switches.  One network cycle stands for the paper's
 *    twelve clock cycles (eight to transmit a fixed-length packet,
 *    four to route it), so latencies are reported in clocks and the
 *    unloaded 3-stage minimum is 36 clocks — the scale of Tables 4-6.
 *  - **Mesh** (Section 1's multicomputer setting): a width x height
 *    grid of 5-port switches (four directions plus the local host
 *    port, the ComCoBB's 4+1 geometry) with XY dimension-order
 *    routing.  A packet at Manhattan distance d takes d + 1 cycles
 *    unloaded; latencies are in network cycles.
 *  - **Torus**: the mesh with wraparound rings and shortest-way DOR.
 *    Minimal DOR on rings can deadlock under blocking flow control;
 *    two dateline virtual channels per link (the torus default)
 *    break the ring cycles.
 *
 * Each cycle every switch arbitrates against a consistent
 * start-of-cycle snapshot, granted packets leave their buffers and
 * arrive at the next switch (or their sink), and sources generate
 * and inject — see core::SyncEngine for the phases and DESIGN.md §10.
 *
 * The latency unit, the transpose-pattern side and the accounting
 * scope name follow from the topology (core::Topology), so they are
 * not configurable.
 */

#ifndef DAMQ_NETWORK_FABRIC_SIM_HH
#define DAMQ_NETWORK_FABRIC_SIM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "common/types.hh"
#include "network/core/sync_engine.hh"
#include "network/core/topology.hh"
#include "network/omega_topology.hh"
#include "network/sim_common.hh"
#include "obs/telemetry.hh"
#include "switchsim/switch_unit.hh"

namespace damq {

/** The fabric a FabricSimulator builds. */
enum class TopologyKind
{
    Omega, ///< multistage Omega network (numPorts, radix)
    Mesh,  ///< open 2D grid (width, height)
    Torus  ///< 2D grid with wraparound rings (width, height)
};

/**
 * Everything that defines one simulation run: the engine's policy
 * knobs (core::SyncConfig) plus the topology and its size.  A
 * default-constructed config is the Omega one; omega(), mesh() and
 * torus() give each fabric's historical defaults.
 */
struct FabricConfig : core::SyncConfig
{
    TopologyKind topology = TopologyKind::Omega;
    std::uint32_t numPorts = 64; ///< Omega endpoints per side
    std::uint32_t radix = 4;     ///< Omega switch degree
    std::uint32_t width = 8;     ///< grid nodes per row
    std::uint32_t height = 8;    ///< grid rows

    /** 64-port radix-4 Omega, 4 slots, load 0.5, one VC. */
    static FabricConfig omega();

    /** 8x8 mesh, 5 slots (one per port for SAMQ/SAFC), load 0.3. */
    static FabricConfig mesh();

    /**
     * 8x8 torus, load 0.3, two dateline VCs per link (blocking flow
     * control is deadlock-free on the rings), and 10 slots — one per
     * queue for SAMQ/SAFC (5 ports x 2 VCs).
     */
    static FabricConfig torus();
};

/**
 * The simulator.  Construct, then either call run() for a complete
 * warmup+measure experiment or drive step() manually (tests).
 */
class FabricSimulator
{
  public:
    /**
     * Build the topology and engine for @p config.  Fatal, with a
     * message naming the setting, when the Omega port count is not
     * a power of the radix, a grid is smaller than 2x2, transpose
     * traffic runs on a non-square grid, or a grid asks for
     * non-input buffer placement.
     */
    explicit FabricSimulator(const FabricConfig &config);

    /** Advance one network cycle. */
    void step() { engine.step(); }

    /** Warm up, measure, and summarize. */
    core::SyncResult run() { return engine.run(); }

    /** Current network cycle. */
    Cycle now() const { return engine.now(); }

    /** Topology in use. */
    const core::Topology &topology() const { return *topo; }

    /** The Omega stage geometry (fatal on a grid). */
    const OmegaTopology &omega() const;

    /** Endpoint count (= switch count on a grid). */
    std::uint32_t numNodes() const { return topo->numEndpoints(); }

    /** Switch @p sw in flat topology order (test access). */
    SwitchUnit &switchAt(core::SwitchId sw)
    {
        return engine.switchUnit(sw);
    }

    /** Routing decision: output port at switch @p sw for @p dest. */
    PortId routeFrom(core::SwitchId sw, NodeId dest) const
    {
        return topo->route(sw, dest);
    }

    /** Switch behind output @p out of @p sw, and its input port
     *  (fatal when the output feeds a sink). */
    std::pair<core::SwitchId, PortId> neighbor(core::SwitchId sw,
                                               PortId out) const;

    /** Lifetime counters since construction. */
    const NetworkCounters &lifetime() const
    {
        return engine.lifetime();
    }

    /** Packets currently buffered inside switches. */
    std::uint64_t packetsInFlight() const
    {
        return engine.packetsInFlight();
    }

    /** Packets currently waiting in source queues. */
    std::uint64_t packetsAtSources() const
    {
        return engine.packetsAtSources();
    }

    /** Validate every buffer's invariants (tests). */
    void debugValidate() const { engine.debugValidate(); }

    /**
     * Stop generating and step until the network and source queues
     * are empty, or @p max_cycles pass.  Returns true when fully
     * drained — at which point a lossless protocol must satisfy
     * injected == delivered + faultDropped exactly.
     */
    bool drain(Cycle max_cycles) { return engine.drain(max_cycles); }

    /** Injection/detection/audit/watchdog summary so far. */
    FaultReport faultReport() const { return engine.faultReport(); }

    /** The telemetry bundle, or nullptr when telemetry is off. */
    obs::Telemetry *telemetryOrNull()
    {
        return engine.telemetryOrNull();
    }
    const obs::Telemetry *telemetryOrNull() const
    {
        return engine.telemetryOrNull();
    }

    /**
     * Deterministic diagnostic snapshot: per-switch occupancy and
     * head-of-line destinations in flat switch order, with both
     * seeds echoed.
     */
    std::string snapshotText() const { return engine.snapshotText(); }

    /** The underlying engine (flit-mode and benchmark access). */
    core::SyncEngine &syncEngine() { return engine; }
    const core::SyncEngine &syncEngine() const { return engine; }

  private:
    std::unique_ptr<const core::Topology> topo; ///< precedes engine
    core::SyncEngine engine;
};

} // namespace damq

#endif // DAMQ_NETWORK_FABRIC_SIM_HH
