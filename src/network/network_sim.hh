/**
 * @file
 * The synchronized Omega-network simulator of Section 4.2.
 *
 * Time advances in *network cycles*; one cycle corresponds to the
 * paper's twelve clock cycles (eight to transmit a fixed-length
 * packet, four to route it), and a packet crosses at most one stage
 * per cycle.  Each cycle proceeds in four steps:
 *
 *  1. every switch arbitrates its crossbar against a globally
 *     consistent start-of-cycle snapshot (for the blocking protocol
 *     the back-pressure test also uses that snapshot — flow-control
 *     status crosses a link with one cycle of latency);
 *  2. granted packets leave their buffers;
 *  3. granted packets arrive: into the next stage's input buffer
 *     (re-routed for that stage), or at their sink if they left the
 *     last stage.  Under the discarding protocol an arrival that
 *     finds its buffer full — after this cycle's departures — is
 *     dropped;
 *  4. sources generate new packets (Bernoulli process at the
 *     offered load) and inject: under blocking through an
 *     unbounded source queue that retries its head each cycle,
 *     under discarding by immediate attempt-and-drop.
 *
 * Latency is measured in clock cycles from entering the first-stage
 * buffer to leaving the last-stage switch, so the unloaded 3-stage
 * minimum is 36 clocks — matching the scale of Tables 4-6.
 *
 * The simulator itself is a thin policy configuration of the shared
 * core: core::SyncEngine owns the cycle loop above, running over a
 * core::OmegaGraph topology.  This wrapper only maps NetworkConfig
 * onto the engine's knobs and preserves the historical public API.
 */

#ifndef DAMQ_NETWORK_NETWORK_SIM_HH
#define DAMQ_NETWORK_NETWORK_SIM_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "network/core/omega_graph.hh"
#include "network/core/sim_types.hh"
#include "network/core/sync_engine.hh"
#include "network/omega_topology.hh"
#include "network/sim_common.hh"
#include "network/traffic.hh"
#include "obs/telemetry.hh"
#include "stats/running_stats.hh"
#include "switchsim/switch_unit.hh"

namespace damq {

/** Everything that defines one simulation run. */
struct NetworkConfig
{
    std::uint32_t numPorts = 64;     ///< endpoints per side
    std::uint32_t radix = 4;         ///< switch degree
    BufferPlacement placement = BufferPlacement::Input;
    BufferType bufferType = BufferType::Damq; ///< input placement only
    std::uint32_t slotsPerBuffer = 4; ///< per input port's worth
    FlowControl protocol = FlowControl::Blocking;
    ArbitrationPolicy arbitration = ArbitrationPolicy::Smart;
    std::uint32_t staleThreshold = 8;

    /** PacketSync (historical default), or store-and-forward /
     *  wormhole / VCT for flit-level switching under credit flow
     *  control (one flit crosses a link per network cycle). */
    Switching switching = Switching::PacketSync;

    /** Flits per packet in the flit-level modes. */
    std::uint32_t flitsPerPacket = 4;

    /** Per-hop head turn-around R in cycles (flit-level modes;
     *  see core::SyncConfig::routeCycles). */
    std::uint32_t routeCycles = 1;

    /** Buffer-sharing (admission) policy + VOQ private slots. */
    SharingPolicyConfig sharing;

    /** Traffic classes stamped as source % classes (1 = off). */
    std::uint32_t trafficClasses = 1;

    std::string traffic = "uniform"; ///< pattern name (see makeTraffic)
    double hotSpotFraction = 0.05;   ///< used when traffic == "hotspot"
    double offeredLoad = 0.5;        ///< packets/cycle/source

    /**
     * Burstiness factor B >= 1 (two-state on/off sources).  Each
     * source is "on" a fraction 1/B of the time and generates at
     * rate offeredLoad * B while on, so the average rate is
     * unchanged but arrivals clump.  B = 1 is the paper's plain
     * Bernoulli process.  Requires offeredLoad * B <= 1.
     */
    double burstiness = 1.0;

    /** Mean burst ("on" period) length in cycles when B > 1. */
    Cycle meanBurstCycles = 8;

    /** Seed, warmup/measure schedule, faults, telemetry. */
    SimCommonConfig common;
};

/** Results of one measured run. */
struct NetworkResult
{
    NetworkCounters window;  ///< counters within the window
    Cycle measuredCycles = 0;

    /** Delivered packets per endpoint per network cycle. */
    double deliveredThroughput = 0.0;

    /** Offered packets per endpoint per network cycle (echo). */
    double offeredLoad = 0.0;

    /** Fraction of generated packets discarded (both kinds). */
    double discardFraction = 0.0;

    /** In-network latency statistics, in clock cycles. */
    RunningStats latencyClocks;

    /** Mean source-queue length sampled each cycle (blocking). */
    double avgSourceQueueLen = 0.0;

    /** Mean buffered packets per switch sampled each cycle. */
    double avgSwitchOccupancy = 0.0;

    /**
     * Jain fairness index over the per-source mean latencies
     * (1 = perfectly fair, 1/n = one source gets all the service).
     */
    double latencyFairness = 1.0;

    /** Largest per-source mean latency (clocks). */
    double worstSourceLatency = 0.0;

    /** Median / 99th-percentile in-network latency, in clocks. */
    double latencyP50 = 0.0;
    double latencyP99 = 0.0;

    /** End-to-end (generation to sink) tail, in clocks. */
    double e2eLatencyP50 = 0.0;
    double e2eLatencyP99 = 0.0;
    double e2eLatencyP999 = 0.0;

    /** Delivered packets the e2e percentiles summarize. */
    std::uint64_t e2eSamples = 0;

    /** Per-class e2e tail (populated when trafficClasses > 1). */
    std::vector<core::SyncResult::ClassTail> classLatency;
};

/**
 * The simulator.  Construct, then either call run() for a complete
 * warmup+measure experiment or drive step() manually (tests).
 */
class NetworkSimulator
{
  public:
    /** Build all switches and sources for @p config. */
    explicit NetworkSimulator(const NetworkConfig &config);

    /** Advance one network cycle. */
    void step() { engine.step(); }

    /** Warm up, measure, and summarize. */
    NetworkResult run();

    /** Current network cycle. */
    Cycle now() const { return engine.now(); }

    /** Topology in use. */
    const OmegaTopology &topology() const { return graph.omega(); }

    /** Configuration in use. */
    const NetworkConfig &config() const { return cfg; }

    /** Switch @p index of stage @p stage (test access). */
    SwitchUnit &switchAt(std::uint32_t stage, std::uint32_t index);

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
     * drained — at which point the blocking protocol must satisfy
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
     * head-of-line destinations in stable (stage, index) order,
     * with both seeds echoed.
     */
    std::string snapshotText() const { return engine.snapshotText(); }

    /** The underlying engine (flit-mode test access). */
    core::SyncEngine &syncEngine() { return engine; }
    const core::SyncEngine &syncEngine() const { return engine; }

  private:
    /** Map the public config onto the shared engine's knobs. */
    static core::SyncConfig syncConfigOf(const NetworkConfig &config);

    NetworkConfig cfg;
    core::OmegaGraph graph; ///< must outlive (so precede) engine
    core::SyncEngine engine;
};

} // namespace damq

#endif // DAMQ_NETWORK_NETWORK_SIM_HH
