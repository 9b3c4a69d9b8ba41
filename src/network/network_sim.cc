#include "network/network_sim.hh"

#include "common/logging.hh"

namespace damq {

core::SyncConfig
NetworkSimulator::syncConfigOf(const NetworkConfig &config)
{
    core::SyncConfig sync;
    sync.placement = config.placement;
    sync.bufferType = config.bufferType;
    sync.slotsPerBuffer = config.slotsPerBuffer;
    sync.protocol = config.protocol;
    sync.arbitration = config.arbitration;
    sync.staleThreshold = config.staleThreshold;
    sync.switching = config.switching;
    sync.flitsPerPacket = config.flitsPerPacket;
    sync.routeCycles = config.routeCycles;
    sync.sharing = config.sharing;
    sync.trafficClasses = config.trafficClasses;
    sync.traffic = config.traffic;
    sync.hotSpotFraction = config.hotSpotFraction;
    sync.transposeSide = 0; // historical: no transpose special case
    sync.offeredLoad = config.offeredLoad;
    sync.burstiness = config.burstiness;
    sync.meanBurstCycles = config.meanBurstCycles;
    sync.latencyUnitScale =
        static_cast<double>(kClocksPerNetworkCycle);
    sync.accountingScope = "network";
    sync.common = config.common;
    return sync;
}

NetworkSimulator::NetworkSimulator(const NetworkConfig &config)
    : cfg(config), graph(config.numPorts, config.radix),
      engine(graph, syncConfigOf(config))
{
}

SwitchUnit &
NetworkSimulator::switchAt(std::uint32_t stage, std::uint32_t index)
{
    damq_assert(stage < graph.omega().numStages(), "bad stage ",
                stage);
    damq_assert(index < graph.omega().switchesPerStage(),
                "bad switch ", index);
    return engine.switchUnit(graph.flatId(stage, index));
}

NetworkResult
NetworkSimulator::run()
{
    const core::SyncResult r = engine.run();
    NetworkResult result;
    result.window = r.window;
    result.measuredCycles = r.measuredCycles;
    result.deliveredThroughput = r.deliveredThroughput;
    result.offeredLoad = r.offeredLoad;
    result.discardFraction = r.discardFraction;
    result.latencyClocks = r.latency;
    result.avgSourceQueueLen = r.avgSourceQueueLen;
    result.avgSwitchOccupancy = r.avgSwitchOccupancy;
    result.latencyFairness = r.latencyFairness;
    result.worstSourceLatency = r.worstSourceLatency;
    result.latencyP50 = r.latencyP50;
    result.latencyP99 = r.latencyP99;
    result.e2eLatencyP50 = r.e2eLatencyP50;
    result.e2eLatencyP99 = r.e2eLatencyP99;
    result.e2eLatencyP999 = r.e2eLatencyP999;
    result.e2eSamples = r.e2eSamples;
    result.classLatency = r.classLatency;
    return result;
}

} // namespace damq
