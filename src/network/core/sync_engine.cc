#include "network/core/sync_engine.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/string_util.hh"
#include "switchsim/switch_model.hh"

namespace damq {
namespace core {

TrafficSource
SyncEngine::makeSource(const Topology &topology,
                       const SyncConfig &config)
{
    return TrafficSource(
        makeTrafficPattern(config.traffic, topology.numEndpoints(),
                           config.hotSpotFraction,
                           topology.transposeSide(),
                           config.common.seed),
        topology.numEndpoints(), config.offeredLoad,
        config.common.workload, config.trafficClasses);
}

unsigned
SyncEngine::effectiveShards(const Topology &topology,
                            const SyncConfig &config)
{
    std::uint32_t shards =
        config.common.shards == 0 ? 1 : config.common.shards;
    if (shards > topology.numSwitches()) {
        damq_fatal("--shards ", shards, " exceeds the topology's ",
                   topology.numSwitches(), " switches (",
                   topology.numEndpoints(),
                   " endpoints); each shard needs at least one "
                   "switch to own");
    }
    if (shards > 1 && config.placement != BufferPlacement::Input) {
        damq_fatal("--shards > 1 requires input-buffered placement "
                   "(", bufferPlacementName(config.placement),
                   " placement shares one structure across inputs, "
                   "which serializes the advance)");
    }
    if (shards > 1 && config.common.telemetry.enabled()) {
        damq_warn("telemetry probes run inside the buffer hot "
                  "path; degrading --shards ", shards, " to 1");
        shards = 1;
    }
    return shards;
}

SyncEngine::SyncEngine(const Topology &topology,
                       const SyncConfig &config)
    : SimEngine(config.common), topo(topology), cfg(config),
      vcAlloc(topology, config.common.vcPolicy, config.common.vcs),
      traffic(makeSource(topology, config)),
      sourceQueues(topology.numEndpoints()),
      nextSeq(topology.numEndpoints(), 0),
      latencyScale(topology.latencyUnitScale()),
      latencyHist(latencyScale, 4096),
      perSourceLatency(topology.numEndpoints())
{
    // Validates the shard request (and spawns the workers) before
    // any heavyweight construction.
    shardPool = std::make_unique<ShardRuntime>(
        effectiveShards(topology, config));

    const std::uint32_t n = topo.numSwitches();
    portCount = topo.portsPerSwitch();
    const bool input = cfg.placement == BufferPlacement::Input;
    if (cfg.trafficClasses < 1 ||
        cfg.trafficClasses > kMaxTrafficClasses) {
        damq_fatal("trafficClasses must be in [1, ",
                   kMaxTrafficClasses, "], got ",
                   cfg.trafficClasses);
    }
    if (cfg.trafficClasses > 1)
        e2eClassHist.resize(cfg.trafficClasses);
    if (traffic.process().closedLoop() &&
        cfg.protocol == FlowControl::Discarding) {
        damq_fatal("the ", traffic.process().name(),
                   " workload is a closed loop (deliveries schedule "
                   "replies) and needs a lossless protocol; "
                   "discarding flow control would strand the "
                   "outstanding-request window");
    }
    switches.reserve(n);
    if (input) {
        // One contiguous vector of concrete switches: the hot loop
        // indexes values, not heap objects behind interface
        // pointers.  Reserved once — SwitchModel addresses must
        // stay stable behind the `switches` view.
        switchStore.reserve(n);
        for (SwitchId sw = 0; sw < n; ++sw) {
            switchStore.emplace_back(
                portCount, cfg.bufferType, cfg.slotsPerBuffer,
                cfg.arbitration, cfg.staleThreshold,
                cfg.common.vcs, cfg.sharing);
        }
        for (SwitchModel &sm : switchStore)
            switches.push_back(&sm);
    } else {
        switchHeap.reserve(n);
        for (SwitchId sw = 0; sw < n; ++sw) {
            switchHeap.push_back(makeSwitchUnit(
                cfg.placement, portCount, cfg.bufferType,
                cfg.slotsPerBuffer, cfg.arbitration,
                cfg.staleThreshold, cfg.common.vcs, cfg.sharing));
            switches.push_back(switchHeap.back().get());
        }
    }
    // Delay-driven sharing reads the head packet's wait age at
    // admission time; hand every buffer a stable view of the
    // engine's clock.  Static policies never dereference it.
    for (SwitchUnit *unit : switches) {
        unit->forEachBuffer([this](PortId, BufferModel &buf) {
            buf.attachAdmissionClock(&currentCycle);
        });
    }
    for (SwitchId sw = 0; sw < n; ++sw) {
        // Registration order defines both the fault-plan component
        // handles and the watchdog's stable snapshot order, and
        // must equal the topology's flat SwitchId order.
        const std::size_t comp =
            injector.addComponent(topo.switchName(sw));
        const std::size_t wcomp =
            watchdog.addComponent(topo.switchName(sw));
        damq_assert(comp == sw && wcomp == comp,
                    "component registration order broken");
    }
    prevTransmitted.assign(n, 0);

    buildChannelTables();

    // Knobs only the flit path honours are rejected under
    // packet-sync rather than silently ignored.
    const LengthDistribution &lengths = cfg.common.workload.lengths;
    drawLengths = lengths.variable();
    if (!drawLengths && lengths.maxLength() != 1)
        damq_fatal("a packet-length distribution is drawn from only "
                   "when it has more than one length; set a single "
                   "length through flitsPerPacket");
    if (cfg.routeCycles < 1)
        damq_fatal("routeCycles must be at least 1");
    if (cfg.switching == Switching::PacketSync) {
        if (cfg.routeCycles != 1)
            damq_fatal("routeCycles ", cfg.routeCycles,
                       " needs flit-level switching: packet-sync "
                       "moves every packet one hop per cycle");
        if (drawLengths)
            damq_fatal("variable packet lengths need flit-level "
                       "switching: packet-sync packets are one slot");
    }
    if (drawLengths &&
        cfg.common.workload.kind == WorkloadKind::Trace)
        damq_fatal("the trace workload cannot replay variable packet "
                   "lengths: its 'cycle src dest' lines carry no "
                   "length, so the run would not reproduce");

    // The flow-control scheme validates the switching × protocol
    // combination (and upgrades Blocking to Credit at flit
    // granularity, where "blocked" is precisely "out of credits").
    scheme = FlowControlScheme::make(cfg.switching, cfg.protocol);
    cfg.protocol = scheme->protocol();
    if (scheme->flitLevel())
        setupFlitState();

    // Contiguous shard plan plus per-shard scratch.  Every
    // per-cycle structure is sized up front: at most one departure
    // per switch output exists at once, so these bounds hold for
    // the simulation's whole lifetime.
    {
        const unsigned shard_count = shardPool->shards();
        std::vector<std::uint32_t> inject_sw(topo.numEndpoints());
        for (NodeId src = 0; src < topo.numEndpoints(); ++src)
            inject_sw[src] = topo.injectionPoint(src).switchId;
        plan = ShardPlan::build(n, shard_count, inject_sw);
        shardScratch = std::vector<ShardScratch>(shard_count);
        for (unsigned s = 0; s < shard_count; ++s) {
            ShardScratch &sc = shardScratch[s];
            sc.moves.reserve(static_cast<std::size_t>(
                                 plan.begin[s + 1] - plan.begin[s]) *
                             portCount);
            sc.sent.reserve(portCount);
        }
        if (input) {
            grantStore.resize(n);
            for (GrantList &grants : grantStore)
                grants.reserve(portCount);
        }
        stagedHas.assign(topo.numEndpoints(), 0);
        stagedPkt.resize(topo.numEndpoints());
    }

    moveScratch.reserve(static_cast<std::size_t>(n) * portCount);
    sentScratch.reserve(portCount);
    pendingScratch.reserve(topo.numEndpoints());

    // Register the flat link numbering with the injector so its
    // hard-fault plan (forced-down links/routers) and the recovery
    // layer agree on link ids.  Eligibility comes from the topology
    // (delivery links to sinks are excluded by default).
    {
        std::vector<std::uint8_t> eligible(topo.numLinks(), 0);
        std::vector<std::size_t> reverse(
            topo.numLinks(), FaultInjector::kNoReverseLink);
        for (SwitchId sw = 0; sw < n; ++sw) {
            for (PortId out = 0; out < topo.portsPerSwitch(); ++out) {
                if (!topo.hasLink(sw, out))
                    continue; // mesh edge: no such link
                const LinkId link =
                    linkIdOf(sw, out, topo.portsPerSwitch());
                eligible[link] = topo.linkFaultEligible(sw, out);
                // Physical pairing: on a duplex fabric a frame
                // over (sw, out) arrives at the input port whose
                // same-numbered output leads straight back.  Only
                // verified reciprocity pairs up — a unidirectional
                // fabric (the Omega stages) pairs nothing.
                const HopTarget next = topo.hop(sw, out);
                if (next.toSink ||
                    !topo.hasLink(next.switchId, next.inputPort))
                    continue;
                const HopTarget back =
                    topo.hop(next.switchId, next.inputPort);
                if (!back.toSink && back.switchId == sw &&
                    back.inputPort == out)
                    reverse[link] =
                        linkIdOf(next.switchId, next.inputPort,
                                 topo.portsPerSwitch());
            }
        }
        injector.configureLinks(topo.numLinks(),
                                topo.portsPerSwitch(), eligible,
                                reverse);
    }

    // Recovery protocol state exists only when the policy asks for
    // it; with RecoveryPolicy::None nothing below is allocated and
    // the engine's hot path is byte-identical to pre-recovery runs.
    if (cfg.common.recovery.enabled()) {
        linkLayer = std::make_unique<LinkLayer>(cfg.common.recovery,
                                                topo.numLinks());
        linkUsed.assign(topo.numLinks(), 0);
        linksUsedScratch.reserve(topo.numLinks());
        if (cfg.common.recovery.reroute()) {
            if (cfg.placement != BufferPlacement::Input) {
                damq_fatal("recovery policy retransmit+reroute "
                           "requires input buffering (re-homing "
                           "pops the per-output queues held at the "
                           "inputs)");
            }
            faultRouter = std::make_unique<FaultRouter>(
                topo, linkLayer->linkMask());
        }
    }

    initTelemetry();
}

void
SyncEngine::buildChannelTables()
{
    const std::uint32_t links = topo.numLinks();
    chanToSink.assign(links, 0);
    chanSink.assign(links, 0);
    chanNextSwitch.assign(links, 0);
    chanNextInput.assign(links, 0);
    chanDateline.assign(links, 0);
    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        for (PortId out = 0; out < portCount; ++out) {
            if (!topo.hasLink(sw, out))
                continue; // never granted: routing avoids the edge
            const LinkId link = linkIdOf(sw, out, portCount);
            const HopTarget next = topo.hop(sw, out);
            chanToSink[link] = next.toSink ? 1 : 0;
            if (next.toSink) {
                chanSink[link] = next.sink;
            } else {
                chanNextSwitch[link] = next.switchId;
                chanNextInput[link] = next.inputPort;
            }
            chanDateline[link] =
                topo.hopCrossesDateline(sw, out) ? 1 : 0;
        }
    }
    portDim.assign(portCount, -1);
    for (PortId port = 0; port < portCount; ++port)
        portDim[port] = topo.portDimension(port);
    numVcs = cfg.common.vcs;
    vcPolicyNone = cfg.common.vcPolicy == VcPolicy::None;
}

void
SyncEngine::configureTelemetry(obs::Telemetry &t)
{
    // Trace row layout is topology-defined: one process per
    // pipeline stage (Omega) or per node (grids), plus a
    // pseudo-process for the endpoints.
    endpointPid = topo.numTraceProcesses();
    obs::PacketTracer *tracer = t.trace();
    if (tracer) {
        for (std::int64_t pid = 0; pid < endpointPid; ++pid)
            tracer->setProcessName(pid, topo.traceProcessName(pid));
        tracer->setProcessName(endpointPid,
                               topo.endpointProcessName());
    }

    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        switches[sw]->forEachBuffer(
            [&](PortId port, BufferModel &buffer) {
                std::int64_t pid = 0;
                std::int64_t tid = 0;
                topo.traceRow(sw, port, pid, tid);
                t.attachProbe(buffer, topo.probeName(sw, port), pid,
                              tid);
                if (tracer)
                    tracer->setThreadName(
                        pid, tid, topo.traceThreadName(sw, port));
            });
    }

    // The time series tracks the lifetime counters plus the live
    // occupancy; gauges register on the first sample (the hooks run
    // before the row is taken) and are refreshed only when due.
    t.addSampleHook([this]() {
        obs::MetricRegistry &m = telemetry->metrics();
        m.gauge("net.generated")
            .set(static_cast<double>(counters.generated));
        m.gauge("net.injected")
            .set(static_cast<double>(counters.injected));
        m.gauge("net.delivered")
            .set(static_cast<double>(counters.delivered));
        m.gauge("net.discarded")
            .set(static_cast<double>(counters.discarded()));
        m.gauge("net.faultDropped")
            .set(static_cast<double>(counters.faultDropped));
        m.gauge("net.inFlight")
            .set(static_cast<double>(packetsInFlight()));
        m.gauge("net.sourceQueued")
            .set(static_cast<double>(packetsAtSources()));

        std::uint64_t grants = 0;
        std::uint64_t stale = 0;
        if (cfg.placement == BufferPlacement::Input) {
            for (const auto &sw : switches) {
                const auto &stats =
                    static_cast<const SwitchModel &>(*sw)
                        .arbiterStats();
                grants += stats.grantsIssued;
                stale += stats.staleOverrides;
            }
        }
        m.gauge("arb.grants").set(static_cast<double>(grants));
        m.gauge("arb.staleOverrides")
            .set(static_cast<double>(stale));

        if (linkLayer) {
            const RecoveryStats &rs = linkLayer->stats();
            m.gauge("net.retransmits")
                .set(static_cast<double>(rs.retransmits));
            m.gauge("net.recovered")
                .set(static_cast<double>(rs.packetsRecovered));
            m.gauge("net.rerouted")
                .set(static_cast<double>(rs.packetsRerouted));
            m.gauge("net.deadLinks")
                .set(static_cast<double>(
                    linkLayer->linkMask().deadLinks()));
        }
    });
}

void
SyncEngine::onMeasuredCycle()
{
    std::uint64_t queued = 0;
    for (const auto &q : sourceQueues)
        queued += q.size();
    sourceQueueSamples.add(
        static_cast<double>(queued) /
        static_cast<double>(topo.numEndpoints()));

    std::uint64_t buffered = 0;
    for (const auto &sw : switches)
        buffered += sw->totalPackets();
    switchOccupancySamples.add(
        static_cast<double>(buffered) /
        static_cast<double>(switches.size()));
}

void
SyncEngine::phaseAdvance()
{
    if (cfg.placement == BufferPlacement::Input)
        phaseAdvanceInput();
    else
        phaseAdvanceShared();
}

void
SyncEngine::phaseAdvanceInput()
{
    if (linkLayer) {
        // Protocol work precedes fresh arbitration: dead links are
        // probed for revival, due retransmissions claim their
        // links, and re-homed packets try to re-enter the fabric.
        // All of it runs on the coordinator — it is rare-event
        // work that mutates global link-layer state.
        for (const LinkId link : linksUsedScratch)
            linkUsed[link] = 0;
        linksUsedScratch.clear();
        const std::uint64_t mask_version =
            linkLayer->linkMask().version();
        applyDeadLinks();
        probeDeadLinks();
        if (faultRouter &&
            linkLayer->linkMask().version() != mask_version)
            rekeyQueuedPackets();
        processRetries();
        processRehomes();
        // The mask is now fixed until next cycle's pre-pass, and
        // the sharded arbitration and injection phases route
        // through the fault router.
        if (faultRouter)
            faultRouter->prepare();
    }

    if (flit) {
        runAdvancePhases(flitAdvance);
        return;
    }
    runAdvancePhases(packetAdvance);
}

void
SyncEngine::runAdvancePhases(AdvancePhase &phase)
{
    // A1: every switch arbitrates against the start-of-cycle
    // snapshot.  The phase only *reads* buffer state (its own
    // queues, downstream canAccept) and the fault hooks pre-rolled
    // by phaseFaults; the sole mutation is each switch's own
    // arbiter fairness state — so shards share nothing writable.
    shardPool->run(
        [&phase](unsigned shard) { phase.arbitrate(shard); });

    // When a grant-legality audit is due, the coordinator checks
    // the schedules before they are consumed (ascending id, same
    // order the sequential engine recorded in).
    if (auditor.due(currentCycle))
        phase.auditGrants();

    // A2: granted sends execute on their (shard-owned) buffers
    // into per-shard move lists.  Between A1's capacity checks and
    // A3's receives only removals happen, so downstream space can
    // only grow — a start-of-cycle "accepts" verdict cannot sour.
    shardPool->run([&phase](unsigned shard) { phase.pop(shard); });

    // A3: apply the moves.  Concatenating the shard lists in shard
    // order reproduces the sequential ascending-SwitchId move
    // order.
    if (phase.coordinatorExchange()) {
        phase.exchangeSerial();
        return;
    }
    shardPool->run([&phase](unsigned shard) { phase.exchange(shard); });
    phase.finishExchange();
}

void
SyncEngine::auditGrantsNow()
{
    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        auditor.record(
            currentCycle, injector.componentName(sw),
            auditGrantLegality(
                grantStore[sw], portCount, portCount,
                switchStore[sw].buffer(0).maxReadsPerCycle(),
                cfg.common.vcs));
    }
}

void
SyncEngine::exchangeMovesSerial()
{
    // Per-packet fault draws (drop/corrupt) and link-layer
    // protocol state are global and order-sensitive: apply the
    // global move list on the coordinator, exactly as the
    // sequential engine does.
    {
        const bool hard_faults = common.faults.hardFaultsEnabled();
        for (unsigned s = 0; s < shardPool->shards(); ++s) {
            for (Move &move : shardScratch[s].moves) {
                if (linkLayer) {
                    // Recovery on: the frame crosses under the
                    // link-level protocol (CRC, same-cycle
                    // ack/nack, retransmission).
                    const LinkId link =
                        linkIdOf(move.sw, move.packet.outPort,
                                 portCount);
                    wireCross(move.sw, move.packet,
                              linkLayer->assignSeq(link),
                              /*is_retry=*/false);
                    continue;
                }
                // Hard faults without recovery: every frame onto a
                // forced-down link (or into a frozen router) is
                // lost.
                if (hard_faults &&
                    hardFaultLoss(move.sw, move.packet.outPort)) {
                    ++counters.faultDropped;
                    traceLoss(move.packet, "drop@linkdown");
                    continue;
                }
                // Link faults: the packet can vanish or arrive
                // with a flipped header bit.  The receiving side
                // verifies the sealed checksum before using any
                // header field, so a corrupted packet is detected
                // and discarded — never misrouted or silently
                // delivered.
                if (injector.dropOnLink(move.sw, currentCycle,
                                        move.packet)) {
                    ++counters.faultDropped;
                    traceLoss(move.packet, "drop@fault");
                    continue;
                }
                injector.corruptOnLink(move.sw, currentCycle,
                                       move.packet);
                if (!headerIntact(move.packet)) {
                    injector.recordDetectedCorruption();
                    ++counters.faultDropped;
                    traceLoss(move.packet, "drop@corrupt");
                    continue;
                }
                const HopTarget next =
                    topo.hop(move.sw, move.packet.outPort);
                if (next.toSink) {
                    deliver(move.packet, next.sink);
                    continue;
                }
                Packet pkt = move.packet;
                // The link VC must be computed from the packet's
                // state at the switch it left, before vc/inPort
                // are rewritten for the next hop.
                pkt.vc = vcAlloc.linkVc(move.packet, move.sw,
                                        move.packet.outPort);
                pkt.inPort = next.inputPort;
                pkt.outPort = topo.route(next.switchId, pkt.dest);
                ++pkt.hops;
                // Blocking hops were admitted at grant time (the
                // arbiter's canSendFrom check); only the static
                // space rule is re-verified at commit.  Discarding
                // hops get no upstream check, so the receive IS the
                // admission point and the full policy runs.
                const bool accepted =
                    cfg.protocol == FlowControl::Blocking
                        ? switches[next.switchId]->receiveGranted(
                              next.inputPort, pkt)
                        : switches[next.switchId]->tryReceive(
                              next.inputPort, pkt);
                if (!accepted) {
                    damq_assert(
                        cfg.protocol == FlowControl::Discarding,
                        "blocking protocol transmitted into a full "
                        "buffer — back-pressure check is broken");
                    ++counters.discardedInternal;
                    traceLoss(pkt, "drop@internal");
                }
            }
        }
    }
}

void
SyncEngine::finishMovesExchange()
{
    // A3b: sink deliveries and counter sums stay on the
    // coordinator, walked in global move order — deliver()'s
    // Welford statistics are order-sensitive floating point, and
    // this order is the sequential engine's.
    for (unsigned s = 0; s < shardPool->shards(); ++s) {
        ShardScratch &sc = shardScratch[s];
        counters.discardedInternal += sc.discardedInternal;
        for (const Move &move : sc.moves) {
            const LinkId link =
                move.sw * portCount + move.packet.outPort;
            if (chanToSink[link])
                deliver(move.packet, chanSink[link]);
        }
    }
}

bool
SyncEngine::canSendFrom(SwitchId sw, QueueKey out_key,
                        const Packet &pkt)
{
    const LinkId link = sw * portCount + out_key.out;
    if (linkLayer) {
        // Stop-and-wait: a link holding an unacked frame, a
        // declared-dead link, or a link a retransmission used this
        // cycle admits no fresh frame.
        if (!linkLayer->canSendFresh(link) || linkUsed[link])
            return false;
    }
    if (cfg.protocol == FlowControl::Discarding)
        return true; // transmit blindly; receiver may drop
    if (chanToSink[link])
        return true; // sinks always accept
    const SwitchId next_sw = chanNextSwitch[link];
    // A delayed credit makes the downstream switch report "full"
    // even when space exists: transfers stall but no packet is
    // lost.  (Pre-rolled in phaseFaults — a pure read here.)
    if (injector.creditDelayed(next_sw, currentCycle))
        return false;
    const PortId next_out =
        routeAfterHop(sw, out_key.out, next_sw, pkt);
    if (next_out == kInvalidPort)
        return false; // dest unroutable from downstream
    // The VC the packet will occupy on this link decides which
    // downstream queue must have room.
    const VcId next_vc = linkVcFlat(pkt, link, out_key.out);
    return switchStore[next_sw].canAcceptClass(
        chanNextInput[link], QueueKey{next_out, next_vc},
        pkt.lengthSlots, pkt.trafficClass);
}

void
SyncEngine::advanceArbitrate(unsigned shard)
{
    const bool hard_faults = common.faults.hardFaultsEnabled();
    for (SwitchId sw = plan.begin[shard]; sw < plan.begin[shard + 1];
         ++sw) {
        GrantList &grants = grantStore[sw];
        grants.clear();
        // A stuck arbiter issues no grants at all this cycle;
        // neither does a router frozen by a hard fault.  Both
        // hooks are pre-rolled in phaseFaults, so these queries
        // are pure reads.
        if (injector.arbiterStuck(sw, currentCycle))
            continue;
        if (hard_faults &&
            injector.routerForcedDown(sw, currentCycle))
            continue;
        const auto can_send = [this, sw](PortId, QueueKey out_key,
                                         const Packet &pkt) {
            return canSendFrom(sw, out_key, pkt);
        };
        switchStore[sw].arbitrateInto(can_send, grants);
    }
}

void
SyncEngine::advancePop(unsigned shard)
{
    ShardScratch &sc = shardScratch[shard];
    sc.moves.clear();
    for (SwitchId sw = plan.begin[shard]; sw < plan.begin[shard + 1];
         ++sw) {
        const GrantList &grants = grantStore[sw];
        if (grants.empty())
            continue;
        switchStore[sw].popGrantedInto(grants, sc.sent);
        for (Packet &pkt : sc.sent)
            sc.moves.push_back(Move{sw, pkt});
    }
}

void
SyncEngine::advanceReceive(unsigned shard)
{
    ShardScratch &sc = shardScratch[shard];
    sc.discardedInternal = 0;
    const SwitchId begin_sw = plan.begin[shard];
    const SwitchId end_sw = plan.begin[shard + 1];
    // Every shard scans the full move list and applies only the
    // hops that land on a switch it owns; the coordinator picks up
    // the sink deliveries afterwards.
    for (unsigned s = 0; s < plan.shards(); ++s) {
        for (const Move &move : shardScratch[s].moves) {
            const LinkId link =
                move.sw * portCount + move.packet.outPort;
            if (chanToSink[link])
                continue;
            const SwitchId next_sw = chanNextSwitch[link];
            if (next_sw < begin_sw || next_sw >= end_sw)
                continue;
            Packet pkt = move.packet;
            // The link VC must be computed from the packet's state
            // at the switch it left, before vc/inPort are
            // rewritten for the next hop.
            pkt.vc = linkVcFlat(move.packet, link,
                                move.packet.outPort);
            pkt.inPort = chanNextInput[link];
            pkt.outPort = topo.route(next_sw, pkt.dest);
            ++pkt.hops;
            // Same grant/commit split as the single-shard path:
            // blocking hops re-verify only the static space rule.
            const bool accepted =
                cfg.protocol == FlowControl::Blocking
                    ? switchStore[next_sw].receiveGranted(pkt.inPort,
                                                          pkt)
                    : switchStore[next_sw].tryReceive(pkt.inPort,
                                                      pkt);
            if (!accepted) {
                damq_assert(
                    cfg.protocol == FlowControl::Discarding,
                    "blocking protocol transmitted into a full "
                    "buffer — back-pressure check is broken");
                ++sc.discardedInternal;
                traceLoss(pkt, "drop@internal");
            }
        }
    }
}

void
SyncEngine::phaseAdvanceShared()
{
    // Central-pool and output-queued switches share one structure
    // across inputs, and several switches can commit into the same
    // downstream structure in one cycle — so the blocking
    // back-pressure test also counts the arrivals already granted
    // this cycle.  (Two outputs of one switch can never reach the
    // same downstream switch in the supported topologies, so
    // accounting between transmit() calls is exact.)  This path is
    // single-shard by construction (effectiveShards rejects more).
    const bool hard_faults = common.faults.hardFaultsEnabled();
    std::unordered_map<std::uint64_t, std::uint32_t> &pending =
        pendingScratch;
    pending.clear();
    auto pending_key = [&](SwitchId sw, PortId out) {
        const std::uint64_t structure =
            cfg.placement == BufferPlacement::Output ? out : 0;
        return static_cast<std::uint64_t>(sw) *
                   topo.portsPerSwitch() +
               structure;
    };

    std::vector<Move> &moves = moveScratch;
    moves.clear();
    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        // A stuck arbiter issues no grants at all this cycle.
        if (injector.arbiterStuck(sw, currentCycle))
            continue;
        // Neither does a router frozen by a hard fault.
        if (hard_faults &&
            injector.routerForcedDown(sw, currentCycle))
            continue;
        auto can_send = [&, sw](PortId, QueueKey out_key,
                                const Packet &pkt) {
            if (cfg.protocol == FlowControl::Discarding)
                return true; // transmit blindly; receiver may drop
            const HopTarget next = topo.hop(sw, out_key.out);
            if (next.toSink)
                return true; // sinks always accept
            if (injector.creditDelayed(next.switchId, currentCycle))
                return false;
            const PortId next_out = routeAfterHop(
                sw, out_key.out, next.switchId, pkt);
            if (next_out == kInvalidPort)
                return false; // dest unroutable from downstream
            const VcId next_vc =
                vcAlloc.linkVc(pkt, sw, out_key.out);
            std::uint32_t held = 0;
            const auto found = pending.find(
                pending_key(next.switchId, next_out));
            if (found != pending.end())
                held = found->second;
            return switches[next.switchId]->canAcceptClass(
                next.inputPort, QueueKey{next_out, next_vc},
                pkt.lengthSlots + held, pkt.trafficClass);
        };
        std::vector<Packet> &sent = sentScratch;
        switches[sw]->transmitInto(can_send, sent);
        for (Packet &pkt : sent) {
            const HopTarget next = topo.hop(sw, pkt.outPort);
            if (!next.toSink) {
                const PortId next_out = routeAfterHop(
                    sw, pkt.outPort, next.switchId, pkt);
                if (next_out != kInvalidPort)
                    pending[pending_key(next.switchId, next_out)] +=
                        pkt.lengthSlots;
            }
            moves.push_back(Move{sw, pkt});
        }
    }

    for (Move &move : moves) {
        if (hard_faults &&
            hardFaultLoss(move.sw, move.packet.outPort)) {
            ++counters.faultDropped;
            traceLoss(move.packet, "drop@linkdown");
            continue;
        }
        if (injector.dropOnLink(move.sw, currentCycle,
                                move.packet)) {
            ++counters.faultDropped;
            traceLoss(move.packet, "drop@fault");
            continue;
        }
        injector.corruptOnLink(move.sw, currentCycle, move.packet);
        if (injector.enabled() && !headerIntact(move.packet)) {
            injector.recordDetectedCorruption();
            ++counters.faultDropped;
            traceLoss(move.packet, "drop@corrupt");
            continue;
        }
        const HopTarget next = topo.hop(move.sw, move.packet.outPort);
        if (next.toSink) {
            deliver(move.packet, next.sink);
            continue;
        }
        Packet pkt = move.packet;
        pkt.vc =
            vcAlloc.linkVc(move.packet, move.sw, move.packet.outPort);
        pkt.inPort = next.inputPort;
        pkt.outPort = topo.route(next.switchId, pkt.dest);
        ++pkt.hops;
        SwitchUnit &target = *switches[next.switchId];
        const bool accepted = target.tryReceive(next.inputPort, pkt);
        if (!accepted) {
            damq_assert(cfg.protocol == FlowControl::Discarding,
                        "blocking protocol transmitted into a full "
                        "buffer — back-pressure check is broken");
            ++counters.discardedInternal;
            traceLoss(pkt, "drop@internal");
        }
    }
}

PortId
SyncEngine::routeFor(SwitchId sw, const Packet &pkt)
{
    return faultRouter
               ? faultRouter->nextHop(sw, pkt.dest, pkt.routeDown)
                     .port
               : topo.route(sw, pkt.dest);
}

PortId
SyncEngine::routeAfterHop(SwitchId sw, PortId out, SwitchId next_sw,
                          const Packet &pkt)
{
    if (!faultRouter)
        return topo.route(next_sw, pkt.dest);
    const bool down = pkt.routeDown || faultRouter->downHop(sw, out);
    return faultRouter->nextHop(next_sw, pkt.dest, down).port;
}

bool
SyncEngine::hardFaultLoss(SwitchId sw, PortId out)
{
    const LinkId link = linkIdOf(sw, out, topo.portsPerSwitch());
    if (injector.linkForcedDown(link, currentCycle))
        return true;
    const HopTarget next = topo.hop(sw, out);
    return !next.toSink &&
           injector.routerForcedDown(next.switchId, currentCycle);
}

bool
SyncEngine::wireCross(SwitchId sw, const Packet &pristine,
                      std::uint32_t seq, bool is_retry)
{
    const PortId out = pristine.outPort;
    const LinkId link = linkIdOf(sw, out, topo.portsPerSwitch());
    const HopTarget next = topo.hop(sw, out);
    RecoveryStats &rs = linkLayer->stats();
    ++rs.framesSent;
    if (is_retry)
        ++rs.retransmits;

    // A hard fault loses the frame outright; so does a transient
    // drop.  Either way no ack comes back and the sender times out.
    bool lost = false;
    if (common.faults.hardFaultsEnabled()) {
        lost = injector.linkForcedDown(link, currentCycle) ||
               (!next.toSink && injector.routerForcedDown(
                                    next.switchId, currentCycle));
    }
    if (!lost)
        lost = injector.dropOnLink(sw, currentCycle, pristine);
    if (lost) {
        frameFailed(sw, link, pristine, seq, is_retry,
                    /*nacked=*/false);
        return false;
    }

    // The receiver sees the wire copy; a corrupted frame fails the
    // CRC check there and is nacked within the transfer cycle.
    Packet wire = pristine;
    injector.corruptOnLink(sw, currentCycle, wire);
    if (linkFrameCrc(wire, seq) != linkFrameCrc(pristine, seq)) {
        injector.recordDetectedCorruption();
        frameFailed(sw, link, pristine, seq, is_retry,
                    /*nacked=*/true);
        return false;
    }

    // Acked.  The CRC catches every single-bit flip (the fault
    // model's whole repertoire), so an accepted frame is pristine.
    linkLayer->onAck(link);
    if (is_retry) {
        // The link carried this retransmission; no fresh frame may
        // use it again this cycle.
        linkUsed[link] = 1;
        linksUsedScratch.push_back(link);
    }

    if (next.toSink) {
        deliver(pristine, next.sink);
        return true;
    }
    Packet pkt = pristine;
    pkt.vc = vcAlloc.linkVc(pristine, sw, out);
    pkt.inPort = next.inputPort;
    if (faultRouter && faultRouter->active()) {
        pkt.routeDown =
            pristine.routeDown || faultRouter->downHop(sw, out);
        const FaultRouter::Hop onward = faultRouter->nextHop(
            next.switchId, pkt.dest, pkt.routeDown);
        pkt.outPort = onward.port;
        if (pkt.outPort == kInvalidPort) {
            // Reachability collapsed while the frame was in
            // flight: the wire worked (the ack above stands), but
            // no legal route onward exists — charge the loss to
            // the faults.
            ++counters.faultDropped;
            traceLoss(pkt, "drop@unroutable");
            return true;
        }
        if (pkt.routeDown && !onward.down) {
            // The frame's descent chain vanished while it was in
            // flight (epoch change): it must restart as a climber,
            // but climbing out of a down-link's buffer is the one
            // dependency edge the up*-down* order forbids.  It
            // re-enters through the local injection buffer via the
            // re-home queue instead.
            ++pkt.hops;
            rehomeQueue.push_back(Rehome{next.switchId, pkt});
            return true;
        }
    } else {
        pkt.outPort = routeFor(next.switchId, pkt);
    }
    ++pkt.hops;
    SwitchUnit &target = *switches[next.switchId];
    const bool accepted = target.tryReceive(next.inputPort, pkt);
    if (!accepted) {
        damq_assert(cfg.protocol == FlowControl::Discarding,
                    "blocking protocol transmitted into a full "
                    "buffer — back-pressure check is broken");
        ++counters.discardedInternal;
        traceLoss(pkt, "drop@internal");
    }
    return true;
}

void
SyncEngine::frameFailed(SwitchId sw, LinkId link,
                        const Packet &pristine, std::uint32_t seq,
                        bool is_retry, bool nacked)
{
    if (!is_retry)
        linkLayer->holdFrame(link, pristine, seq, currentCycle);
    if (linkLayer->onFail(link, nacked, currentCycle) ==
        LinkLayer::Verdict::DeclareDead) {
        // Deferred to next cycle's pre-pass: declaring now would
        // change the routing function mid-cycle, after this
        // cycle's capacity checks already ran against it.
        deadPending.push_back(DeadLink{sw, link});
    }
}

void
SyncEngine::applyDeadLinks()
{
    for (const DeadLink &dead : deadPending)
        handleDeadLink(dead.sw, dead.link);
    deadPending.clear();
}

void
SyncEngine::handleDeadLink(SwitchId sw, LinkId link)
{
    linkLayer->declareDead(link);
    Packet victim = linkLayer->takePending(link);
    if (faultRouter) {
        // Re-home the stranded frame and everything queued behind
        // it; their detours are computed when they re-enter.
        rehomeQueue.push_back(Rehome{sw, victim});
        rehomeQueuedPackets(
            sw, static_cast<PortId>(link % topo.portsPerSwitch()));
    } else {
        // Retransmit-only: the stranded frame is charged to the
        // fault counters.  Packets queued behind the dead output
        // stay blocked — the watchdog will diagnose the partition.
        ++counters.faultDropped;
        ++linkLayer->stats().packetsLostAfterRetry;
        traceLoss(victim, "drop@deadlink");
    }
}

void
SyncEngine::rehomeQueuedPackets(SwitchId sw, PortId out)
{
    auto *sm = static_cast<SwitchModel *>(switches[sw]);
    for (PortId in = 0; in < sm->numPorts(); ++in) {
        BufferModel &buf = sm->buffer(in);
        for (VcId vc = 0; vc < cfg.common.vcs; ++vc) {
            const QueueKey key{out, vc};
            while (buf.peek(key) != nullptr)
                rehomeQueue.push_back(Rehome{sw, buf.pop(key)});
        }
    }
}

void
SyncEngine::rekeyQueuedPackets()
{
    // Every packet restarts as a climber: its old phase bit and
    // queue key both belong to routes of the previous epoch, and a
    // standing restart (fresh up*-then-down* route from the buffer
    // it already sits in) is legal from scratch.  Packets whose
    // key survives the change are re-pushed in order; the rest
    // join the re-home queue and re-enter via processRehomes().
    std::vector<Packet> keep;
    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        auto *sm = static_cast<SwitchModel *>(switches[sw]);
        for (PortId in = 0; in < sm->numPorts(); ++in) {
            BufferModel &buf = sm->buffer(in);
            for (PortId out = 0; out < sm->numPorts(); ++out) {
                for (VcId vc = 0; vc < cfg.common.vcs; ++vc) {
                    const QueueKey key{out, vc};
                    if (buf.peek(key) == nullptr)
                        continue;
                    keep.clear();
                    while (buf.peek(key) != nullptr) {
                        Packet pkt = buf.pop(key);
                        pkt.routeDown = false;
                        const PortId want = routeFor(sw, pkt);
                        // Keeping the packet in place requires both
                        // that the new routing still picks this
                        // output and that waiting for it from this
                        // buffer is not a down→up turn of the new
                        // orientation; everything else re-enters
                        // through the local buffer.
                        if (want == out &&
                            !faultRouter->illegalTurn(sw, in, out))
                            keep.push_back(pkt);
                        else if (want == kInvalidPort) {
                            // Cut off from its sink by the change.
                            ++counters.faultDropped;
                            traceLoss(pkt, "drop@unroutable");
                        } else
                            rehomeQueue.push_back(Rehome{sw, pkt});
                    }
                    for (const Packet &pkt : keep) {
                        // Refill in arrival order.  The pops above
                        // freed at least these slots, but the
                        // escape-slot reservation can still refuse
                        // a refill on the margin — those packets
                        // re-enter through the re-home queue.
                        if (buf.canAcceptClass(key, pkt.lengthSlots,
                                               pkt.trafficClass))
                            buf.push(pkt);
                        else
                            rehomeQueue.push_back(Rehome{sw, pkt});
                    }
                }
            }
        }
    }
}

void
SyncEngine::processRetries()
{
    if (linkLayer->pendingLinks() == 0)
        return;
    const std::uint32_t ports = topo.portsPerSwitch();
    for (LinkId link = 0; link < topo.numLinks(); ++link) {
        if (!linkLayer->retryDue(link, currentCycle))
            continue;
        const SwitchId sw = link / ports;
        const Packet &pristine = linkLayer->pendingPacket(link);
        // Mirror can_send: a retransmission into a full downstream
        // buffer waits for room without consuming an attempt (the
        // failure streak tracks the *wire*, not back-pressure).
        const HopTarget next = topo.hop(sw, pristine.outPort);
        if (cfg.protocol != FlowControl::Discarding &&
            !next.toSink) {
            if (injector.creditDelayed(next.switchId, currentCycle))
                continue;
            // A frame whose arrival will not enter a buffer — the
            // destination became unroutable (dropped on arrival)
            // or its descent chain vanished (diverted to the
            // re-home queue) — needs no downstream space, and
            // holding it would block the link indefinitely.
            bool needs_space = true;
            PortId next_out = kInvalidPort;
            if (faultRouter && faultRouter->active()) {
                const bool went_down =
                    pristine.routeDown ||
                    faultRouter->downHop(sw, pristine.outPort);
                const FaultRouter::Hop onward = faultRouter->nextHop(
                    next.switchId, pristine.dest, went_down);
                next_out = onward.port;
                needs_space = next_out != kInvalidPort &&
                              !(went_down && !onward.down);
            } else {
                next_out = routeAfterHop(
                    sw, pristine.outPort, next.switchId, pristine);
            }
            if (needs_space) {
                const VcId next_vc =
                    vcAlloc.linkVc(pristine, sw, pristine.outPort);
                if (!switches[next.switchId]->canAcceptClass(
                        next.inputPort, QueueKey{next_out, next_vc},
                        pristine.lengthSlots, pristine.trafficClass))
                    continue;
            }
        }
        wireCross(sw, pristine, linkLayer->pendingSeq(link),
                  /*is_retry=*/true);
    }
}

void
SyncEngine::processRehomes()
{
    if (rehomeQueue.empty())
        return;
    // One bounded pass: whatever cannot re-enter yet stays queued
    // (and counts as in-flight for the packet accounting).
    for (std::size_t n = rehomeQueue.size(); n > 0; --n) {
        Rehome item = rehomeQueue.front();
        rehomeQueue.pop_front();
        Packet &pkt = item.pkt;
        // Re-homing is a standing restart: the packet's old phase
        // belonged to routes through the now-dead link, and a fresh
        // up*-then-down* route from here is legal from scratch.
        pkt.routeDown = false;
        const PortId detour = routeFor(item.sw, pkt);
        if (detour == kInvalidPort) {
            // The failures cut this packet off from its sink.
            ++counters.faultDropped;
            ++linkLayer->stats().packetsLostAfterRetry;
            traceLoss(pkt, "drop@unroutable");
            continue;
        }
        const LinkId link =
            linkIdOf(item.sw, detour, topo.portsPerSwitch());
        auto *sm = static_cast<SwitchModel *>(switches[item.sw]);
        // Re-entry goes through the local injection buffer when
        // the switch has one: no fabric link feeds that buffer, so
        // a displaced packet waiting there can never extend a
        // channel-dependency chain — re-entry cannot close a
        // deadlock cycle no matter which output it waits for.  The
        // packet keeps its VC.
        const PortId local = topo.localInputPort(item.sw);
        const PortId entry =
            local != kInvalidPort ? local : pkt.inPort;
        if (linkLayer->linkMask().linkUp(link) &&
            sm->canAcceptClass(entry, QueueKey{detour, pkt.vc},
                               pkt.lengthSlots, pkt.trafficClass)) {
            pkt.outPort = detour;
            pkt.inPort = entry;
            const bool ok = sm->tryReceive(entry, pkt);
            damq_assert(ok, "canAccept/tryReceive disagree on a "
                            "re-homed packet");
            ++linkLayer->stats().packetsRerouted;
        } else {
            rehomeQueue.push_back(item);
        }
    }
}

void
SyncEngine::probeDeadLinks()
{
    if (!linkLayer->probeDue(currentCycle))
        return;
    const std::uint32_t ports = topo.portsPerSwitch();
    // Reviving inside the visit is safe: the mask's storage does
    // not move, and clearing the current bit never hides later
    // dead links from the ascending walk.
    linkLayer->linkMask().forEachDeadLink([&](LinkId link) {
        if (injector.linkForcedDown(link, currentCycle))
            return; // episode still running
        const HopTarget next = topo.hop(link / ports, link % ports);
        if (!next.toSink && injector.routerForcedDown(
                                next.switchId, currentCycle))
            return; // receiver still frozen
        linkLayer->revive(link);
    });
}

void
SyncEngine::traceLoss(const Packet &pkt, const char *why)
{
    if (!telemetry)
        return;
    obs::PacketTracer *tr = telemetry->trace();
    if (!tr)
        return;
    tr->instant(why, "pkt", currentCycle, endpointPid, pkt.source);
    tr->asyncEnd("pkt", "pkt", pkt.id, currentCycle, endpointPid,
                 pkt.source);
}

void
SyncEngine::phaseInject()
{
    // I1 (coordinator): every PRNG draw of the phase — the
    // generation Bernoulli/burst draws and the destination draw —
    // happens here, in ascending source order.  The draws read no
    // network state, so hoisting them out of the injection pass
    // preserves the per-source-per-cycle draw-order contract
    // exactly; the generated packets wait in per-source staging
    // slots for the owning shard.
    for (NodeId src = 0; src < topo.numEndpoints(); ++src) {
        stagedHas[src] = 0;
        // Drain mode makes no PRNG draws: new generation is skipped
        // entirely (closed-loop processes may still flush replies
        // they already owe — also draw-free), and blocked source
        // queues keep retrying in I2.
        const bool offered = draining
                                 ? traffic.drainPending(src,
                                                        currentCycle)
                                 : traffic.shouldGenerate(
                                       src, currentCycle, rng);
        if (!offered)
            continue;
        Packet pkt;
        pkt.id = nextPacketId++;
        pkt.source = src;
        // The process may pin the destination (replies go home,
        // traces replay verbatim); only the pattern draws from the
        // PRNG, so pinned destinations cost no draw.
        pkt.dest = traffic.destinationFor(src, rng);
        pkt.kind = traffic.stagedKind();
        // At flit granularity a packet is flitsPerPacket flits of
        // one slot each, or a drawn length; the source NI assembles
        // whole packets, so injection stays packet-granular
        // (flitsArrived = 0 is the "all arrived" sentinel).
        if (drawLengths)
            pkt.lengthSlots = cfg.common.workload.lengths.sample(rng);
        else
            pkt.lengthSlots = flit ? cfg.flitsPerPacket : 1;
        pkt.generatedAt = currentCycle;
        pkt.seq = nextSeq[src]++;
        // Deterministic class assignment — no RNG draw (draw order
        // is a bit-identity contract), and class 0 everywhere when
        // classes are off, leaving historical runs untouched.
        pkt.trafficClass =
            cfg.trafficClasses > 1
                ? static_cast<std::uint8_t>(src % cfg.trafficClasses)
                : 0;
        sealHeader(pkt);
        ++counters.generated;
        if (telemetry) {
            if (obs::PacketTracer *tr = telemetry->trace())
                tr->instant("gen", "pkt", currentCycle,
                            endpointPid, src);
        }
        if (injectionRecord) {
            injectionRecord->push_back(
                WorkloadTraceEntry{currentCycle, src, pkt.dest});
        }
        stagedPkt[src] = pkt;
        stagedHas[src] = 1;
    }

    // I2: each shard injects at the sources whose injection switch
    // it owns, so every buffer touched is shard-local.
    shardPool->run([this](unsigned shard) { injectShard(shard); });

    for (unsigned s = 0; s < shardPool->shards(); ++s) {
        const ShardScratch &sc = shardScratch[s];
        counters.injected += sc.injected;
        counters.discardedAtEntry += sc.discardedAtEntry;
        counters.faultDropped += sc.faultDropped;
    }
}

void
SyncEngine::injectShard(unsigned shard)
{
    ShardScratch &sc = shardScratch[shard];
    sc.injected = 0;
    sc.discardedAtEntry = 0;
    sc.faultDropped = 0;
    // Credit and on-off flow control never drop at entry either:
    // a source that cannot inject queues up, exactly as blocking.
    const bool blocking = cfg.protocol != FlowControl::Discarding;
    for (const NodeId src : plan.sources[shard]) {
        if (stagedHas[src]) {
            const Packet &pkt = stagedPkt[src];
            if (blocking) {
                sourceQueues[src].push_back(pkt);
            } else if (!tryInject(src, pkt, sc)) {
                ++sc.discardedAtEntry;
                if (telemetry) {
                    if (obs::PacketTracer *tr = telemetry->trace())
                        tr->instant("drop@entry", "pkt",
                                    currentCycle, endpointPid, src);
                }
            }
        }

        if (blocking && !sourceQueues[src].empty()) {
            // The link from the source delivers at most one packet
            // per cycle, and only the head may try.
            if (tryInject(src, sourceQueues[src].front(), sc))
                sourceQueues[src].pop_front();
        }
    }
}

bool
SyncEngine::tryInject(NodeId src, Packet pkt, ShardScratch &sc)
{
    const InjectPoint entry = topo.injectionPoint(src);
    // A frozen router grants no credit to its host link either.
    if (common.faults.hardFaultsEnabled() &&
        injector.routerForcedDown(entry.switchId, currentCycle))
        return false;
    pkt.outPort = routeFor(entry.switchId, pkt);
    if (pkt.outPort == kInvalidPort) {
        // The destination is unroutable from here (partitioned
        // fabric).  Consume the packet into the fault accounting
        // rather than blocking the source queue forever.
        ++sc.injected;
        ++sc.faultDropped;
        traceLoss(pkt, "drop@unroutable");
        return true;
    }
    pkt.inPort = entry.port; // injected packets start on VC 0
    pkt.injectedAt = currentCycle;
    pkt.hopArrivedAt = static_cast<std::uint32_t>(currentCycle);
    SwitchUnit &first = *switches[entry.switchId];
    if (!first.canAcceptClass(entry.port, pkt.outPort,
                              pkt.lengthSlots, pkt.trafficClass))
        return false;
    const bool accepted = first.tryReceive(entry.port, pkt);
    damq_assert(accepted, "canAccept/tryReceive disagree");
    ++sc.injected;
    if (telemetry) {
        if (obs::PacketTracer *tr = telemetry->trace())
            tr->asyncBegin("pkt", "pkt", pkt.id, currentCycle,
                           endpointPid, src,
                           detail::concat("{\"src\": ", pkt.source,
                                          ", \"dest\": ", pkt.dest,
                                          "}"));
    }
    return true;
}

void
SyncEngine::deliver(const Packet &pkt, NodeId sink)
{
    if (pkt.dest != sink) {
        ++counters.misrouted;
        damq_panic("packet ", pkt.id, " for node ", pkt.dest,
                   " delivered to node ", sink,
                   " — routing is broken");
    }
    ++counters.delivered;
    counters.deliveredFlits += pkt.lengthSlots;
    if (telemetry) {
        if (obs::PacketTracer *tr = telemetry->trace())
            tr->asyncEnd("pkt", "pkt", pkt.id, currentCycle,
                         endpointPid, sink);
    }
    // Closed-loop state transitions (reply scheduling, window
    // slots) must see *every* delivery, warmup and drain included;
    // deliver() runs on the coordinator in global move order, so
    // the callback inherits the bit-identity argument.
    traffic.onDelivered(pkt, currentCycle);
    if (measuring) {
        const double latency =
            static_cast<double>(currentCycle - pkt.injectedAt) *
            latencyScale;
        latencyStats.add(latency);
        latencyHist.add(latency);
        perSourceLatency[pkt.source].add(latency);
        hopStats.add(static_cast<double>(pkt.hops));
        // End-to-end latency counts from generation, so the source
        // queue wait under back-pressure is included — that is the
        // tail the percentiles exist to expose.
        const double e2e =
            static_cast<double>(currentCycle - pkt.generatedAt) *
            latencyScale;
        e2eHist.add(e2e);
        if (!e2eClassHist.empty())
            e2eClassHist[pkt.trafficClass].add(e2e);
    }
}

void
SyncEngine::beginMeasurement()
{
    windowStart = counters;
    latencyStats.reset();
    latencyHist.reset();
    e2eHist.reset();
    for (TailHistogram &hist : e2eClassHist)
        hist.reset();
    hopStats.reset();
    sourceQueueSamples.reset();
    switchOccupancySamples.reset();
    for (auto &stats : perSourceLatency)
        stats.reset();
}

void
SyncEngine::runBatchSchedule()
{
    // Batch mode ignores the warmup/measure split: the metric *is*
    // the time to absorb the whole batch, so measurement starts at
    // cycle 0 and the schedule ends when the batch has drained (the
    // configured warmup+measure total serves as the cycle budget —
    // a wedged run still terminates and the watchdog reports it).
    measuring = true;
    beginMeasurement();
    const Cycle budget = common.warmupCycles + common.measureCycles;
    batchCycles = 0;
    while (batchCycles < budget) {
        step();
        ++batchCycles;
        if (traffic.exhausted() && packetsInFlight() == 0 &&
            packetsAtSources() == 0 && traffic.pendingOffers() == 0)
            break;
    }
    measuring = false;
    if (telemetry)
        telemetry->writeFiles();
}

SyncResult
SyncEngine::run()
{
    const bool batch =
        cfg.common.workload.kind == WorkloadKind::Batch;
    if (batch)
        runBatchSchedule();
    else
        runSchedule();
    const Cycle window = batch ? batchCycles : common.measureCycles;

    SyncResult result;
    result.window = counters - windowStart;
    result.measuredCycles = window;
    result.offeredLoad = cfg.offeredLoad;
    const double denom = static_cast<double>(topo.numEndpoints()) *
                         static_cast<double>(window);
    result.deliveredThroughput =
        static_cast<double>(result.window.delivered) / denom;
    result.discardFraction =
        result.window.generated == 0
            ? 0.0
            : static_cast<double>(result.window.discarded()) /
                  static_cast<double>(result.window.generated);
    result.latency = latencyStats;
    result.latencyP50 = latencyHist.quantile(0.5);
    result.latencyP99 = latencyHist.quantile(0.99);
    result.e2eLatencyP50 = e2eHist.quantile(0.5);
    result.e2eLatencyP99 = e2eHist.quantile(0.99);
    result.e2eLatencyP999 = e2eHist.quantile(0.999);
    result.e2eSamples = e2eHist.count();
    for (std::uint32_t cls = 0; cls < e2eClassHist.size(); ++cls) {
        const TailHistogram &hist = e2eClassHist[cls];
        result.classLatency.push_back(SyncResult::ClassTail{
            cls, hist.count(), hist.quantile(0.5),
            hist.quantile(0.99), hist.quantile(0.999)});
    }
    result.hops = hopStats;
    result.avgSourceQueueLen = sourceQueueSamples.mean();
    result.avgSwitchOccupancy = switchOccupancySamples.mean();

    // Jain fairness over the per-source mean latencies.
    double sum = 0.0;
    double sum_sq = 0.0;
    std::size_t active = 0;
    double worst = 0.0;
    for (const RunningStats &stats : perSourceLatency) {
        if (stats.count() == 0)
            continue;
        const double mean = stats.mean();
        sum += mean;
        sum_sq += mean * mean;
        worst = std::max(worst, mean);
        ++active;
    }
    result.latencyFairness =
        active == 0 || sum_sq == 0.0
            ? 1.0
            : sum * sum / (static_cast<double>(active) * sum_sq);
    result.worstSourceLatency = worst;
    result.watchdogTrips = faultReport().watchdogFired ? 1 : 0;

    return result;
}

std::uint64_t
SyncEngine::packetsInFlight() const
{
    std::uint64_t total = 0;
    if (flit) {
        // A packet streaming across k hops holds k+1 records; at
        // any phase boundary exactly one of them — the one holding
        // the tail flit — is fully arrived, so the conservation
        // identity sums those.
        for (const SwitchModel &sm : switchStore)
            for (PortId in = 0; in < portCount; ++in)
                total += sm.buffer(in).fullyResidentPackets();
        return total;
    }
    for (const auto &sw : switches)
        total += sw->totalPackets();
    // Unacked frames in retransmit buffers and displaced packets
    // awaiting their detour are still inside the fabric.
    if (linkLayer)
        total += linkLayer->packetsHeld();
    total += rehomeQueue.size();
    return total;
}

std::uint64_t
SyncEngine::packetsAtSources() const
{
    std::uint64_t total = 0;
    for (const auto &q : sourceQueues)
        total += q.size();
    return total;
}

void
SyncEngine::debugValidate() const
{
    for (const auto &sw : switches)
        sw->debugValidate();
}

void
SyncEngine::phaseFaults()
{
    if (!injector.enabled())
        return;
    // Roll every hard-fault episode in fixed id order, so the draw
    // sequence never depends on which links traffic happens to use.
    if (common.faults.routerDownRate > 0.0) {
        for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw)
            injector.routerForcedDown(sw, currentCycle);
    }
    if (common.faults.linkDownRate > 0.0) {
        for (LinkId link = 0; link < topo.numLinks(); ++link)
            injector.linkForcedDown(link, currentCycle);
    }
    // Pre-roll the remaining memoized per-switch hooks the same
    // way.  The sharded arbitration phase queries arbiterStuck and
    // creditDelayed concurrently, so every same-cycle draw must
    // happen here — after this pass those queries are pure reads.
    if (common.faults.arbiterStuckRate > 0.0) {
        for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw)
            injector.arbiterStuck(sw, currentCycle);
    }
    if (common.faults.creditDelayRate > 0.0) {
        for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw)
            injector.creditDelayed(sw, currentCycle);
    }
    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        if (!injector.rollSlotLeak(sw, currentCycle))
            continue;
        // Deterministic target without an extra draw.
        const PortId input = static_cast<PortId>(
            currentCycle % topo.portsPerSwitch());
        if (switches[sw]->faultLeakSlot(input)) {
            injector.recordFault(
                FaultKind::SlotLeak, sw, currentCycle,
                detail::concat("slot lost via input ", input));
        }
    }
}

void
SyncEngine::phaseAudit()
{
    if (!auditor.due(currentCycle))
        return;
    auditor.beginAudit();
    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        auditor.record(currentCycle, injector.componentName(sw),
                       switches[sw]->checkInvariants());
        if (cfg.placement != BufferPlacement::Input)
            continue;
        // Rerouting legitimately reorders: a re-homed packet jumps
        // to another queue, and detoured packets can overtake
        // same-source packets on the original path — so the
        // per-source FIFO audit only applies without reroute.
        if (faultRouter)
            continue;
        // Per-source FIFO delivery order, walked in place via
        // forEachInQueue — no queue snapshot is copied.
        const auto *sm =
            static_cast<const SwitchModel *>(switches[sw]);
        for (PortId in = 0; in < sm->numPorts(); ++in) {
            auditor.record(currentCycle,
                           injector.componentName(sw),
                           auditQueueFifoOrder(sm->buffer(in)));
        }
    }
    // Flit-layer invariants: streams release their wire and VC at
    // the tail, credits respect their caps and account for every
    // used slot, and no two packets interleave in one buffer.
    if (flit)
        auditor.record(currentCycle, "flit", flitCheckInvariants());
    // End-to-end conservation: every packet that entered the fabric
    // must be delivered, discarded, removed by a fault, or still
    // buffered — nothing may vanish unaccounted.
    const std::uint64_t accounted =
        counters.delivered + counters.discardedInternal +
        counters.faultDropped + packetsInFlight();
    if (counters.injected != accounted) {
        auditor.record(
            currentCycle, topo.accountingScope(),
            {detail::concat(
                "packet accounting broken: injected ",
                counters.injected, " != delivered ",
                counters.delivered, " + discarded ",
                counters.discardedInternal, " + fault-dropped ",
                counters.faultDropped, " + in-flight ",
                packetsInFlight())});
    }
}

void
SyncEngine::phaseWatchdog()
{
    if (!watchdog.enabled())
        return;
    const bool hard_faults = common.faults.hardFaultsEnabled();
    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        // Flit motion is finer than pops: a long packet streaming
        // body flits is progress even though nothing popped yet.
        const std::uint64_t transmitted =
            flit ? flit->sends[sw]
                 : switches[sw]->unitStats().transmitted;
        const bool moved = transmitted != prevTransmitted[sw];
        prevTransmitted[sw] = transmitted;
        bool has_work = switches[sw]->hasWork();
        // A router frozen by an injected hard fault is stalled by
        // design, not deadlocked — don't let it trip the watchdog.
        if (has_work && hard_faults &&
            injector.routerForcedDown(sw, currentCycle))
            has_work = false;
        watchdog.observe(sw, currentCycle, has_work, moved);
    }
    if (watchdog.check(currentCycle,
                       [this] { return snapshotText(); })) {
        damq_warn("deadlock watchdog fired:\n",
                  watchdog.diagnostic());
    }
}

FaultReport
SyncEngine::faultReport() const
{
    FaultReport report = SimEngine::faultReport();
    if (linkLayer)
        linkLayer->fillReport(report);
    if (flit) {
        report.creditsIssued = flit->creditsIssued;
        report.creditsReturned = flit->creditsReturned;
    }
    return report;
}

bool
SyncEngine::drain(Cycle max_cycles)
{
    draining = true;
    for (Cycle c = 0; c < max_cycles; ++c) {
        // Pending closed-loop replies are offers no in-network
        // packet represents yet; the drain is not done until the
        // loop has closed on them too.
        if (packetsInFlight() == 0 && packetsAtSources() == 0 &&
            traffic.pendingOffers() == 0)
            break;
        step();
    }
    draining = false;
    return packetsInFlight() == 0 && packetsAtSources() == 0 &&
           traffic.pendingOffers() == 0;
}

std::string
SyncEngine::snapshotText() const
{
    std::ostringstream out;
    out << "    snapshot at cycle " << currentCycle << " (seed "
        << common.seed << ", fault seed " << common.faults.seed
        << ")\n";
    for (SwitchId id = 0; id < topo.numSwitches(); ++id) {
        const SwitchUnit &sw = *switches[id];
        if (topo.snapshotSkipsEmpty() && sw.totalPackets() == 0)
            continue; // keep the snapshot readable on big fabrics
        out << "    " << topo.switchName(id) << ": "
            << sw.totalPackets() << " packets in "
            << sw.totalUsedSlots() << " slots";
        if (cfg.placement == BufferPlacement::Input) {
            const auto *sm = static_cast<const SwitchModel *>(&sw);
            const VcId vcs = cfg.common.vcs;
            for (PortId in = 0; in < sm->numPorts(); ++in) {
                for (PortId o = 0; o < sm->numPorts(); ++o) {
                    for (VcId v = 0; v < vcs; ++v) {
                        const Packet *head =
                            sm->buffer(in).peek(QueueKey{o, v});
                        if (!head)
                            continue;
                        out << " in" << in << "->out" << o;
                        if (vcs > 1)
                            out << ".vc" << v;
                        out << " head dest " << head->dest;
                    }
                }
            }
        }
        out << "\n";
    }
    return out.str();
}

} // namespace core
} // namespace damq
