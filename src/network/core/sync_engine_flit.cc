/**
 * @file
 * The flit-granular advance of SyncEngine: store-and-forward,
 * wormhole and virtual cut-through switching under credit (or
 * on-off) flow control.
 *
 * The three differ only at the head grant: wormhole secures one
 * downstream slot, the other two the whole packet, and
 * store-and-forward also holds the head until its own tail has
 * arrived.  Every mode waits routeCycles (R) cycles after a head
 * arrives before it may leave — the per-hop route turn-around.
 *
 * One flit crosses one link per cycle.  A packet earns a *virtual
 * channel* of a link through the ordinary crossbar arbiter (head
 * flits only); from then on it owns that VC stream — its flits
 * cross without re-arbitration until the tail frees the VC, so
 * flits of two packets can never interleave within a VC.  The
 * physical wire, by contrast, is flit-multiplexed among the link's
 * VC streams cycle by cycle (rotating priority): a packet stalled
 * waiting for downstream credits holds only its own VC, never the
 * wire — the property that lets the dateline escape VC keep moving
 * and preserves the torus deadlock-freedom argument under wormhole
 * (Dally's virtual-channel construction).  Upstream, a streaming
 * packet stays the head of its queue, advancing its flit cursor
 * each sent flit and popping only when the tail leaves; downstream
 * it occupies slots as flits arrive, so buffer occupancy is
 * flit-granular on both sides (Packet::slotsHeld).
 *
 * Credit accounting (creditBased schemes): the sender consumes one
 * credit per flit placed on a link; the downstream buffer hands
 * credits back on the three events that change what it holds —
 *   - an arriving flit lands in a slot the packet already held
 *     (slotsHeld did not grow): immediate rebate;
 *   - a sent flit shrinks slotsHeld: one credit back;
 *   - the tail-send pop frees the packet's last slot: one credit
 *     back.
 * Per packet the returns telescope to exactly its length, so at
 * quiescence every counter is back at its cap (credits issued ==
 * credits returned, checked by the conformance tests).  Hand-backs
 * are deferred to the end-of-cycle barrier: within a cycle every
 * sender reads start-of-cycle counter values, and only the owner of
 * a link's sending switch ever decrements its counters — which is
 * what keeps the advance bit-identical at any shard count.
 *
 * The per-(link,VC) counters cap at capacity minus one *head's
 * worth* of slots per other VC (one slot under wormhole, a whole
 * packet under VCT), so no VC can claim the head-room another VC's
 * head needs to enter — the dateline escape VC always finds room
 * eventually, preserving the torus deadlock argument at flit
 * granularity.
 */

#include "network/core/sync_engine.hh"

#include <algorithm>

#include "common/logging.hh"

namespace damq {
namespace core {

void
SyncEngine::FlitAdvance::exchangeSerial()
{
    damq_panic("flit advance has no serial exchange — the fault "
               "classes requiring one are rejected at construction");
}

void
SyncEngine::setupFlitState()
{
    if (cfg.placement != BufferPlacement::Input)
        damq_fatal(switchingName(cfg.switching),
                   " switching requires input-buffered placement "
                   "(per-link credit counters assume one feeding "
                   "link per buffer)");
    if (cfg.common.recovery.enabled())
        damq_fatal("flit-level switching does not compose with the "
                   "link-level recovery protocol yet (frames are "
                   "whole packets there)");
    const FaultConfig &f = cfg.common.faults;
    if (f.headerBitFlipRate > 0.0 || f.packetDropRate > 0.0 ||
        f.slotLeakRate > 0.0 || f.linkDownRate > 0.0 ||
        f.linkDownFraction > 0.0 || f.routerDownRate > 0.0)
        damq_fatal("flit-level switching supports only the "
                   "arbiter-stuck and credit-delay fault classes; "
                   "losing or corrupting individual flits would "
                   "strand the rest of their packet");
    if (cfg.common.vcs > 2)
        damq_fatal("flit-level switching supports at most 2 VCs "
                   "(the per-VC credit head-room rule reserves one "
                   "head's worth of slots per other VC)");
    if (cfg.flitsPerPacket == 0)
        damq_fatal("flitsPerPacket must be at least 1");
    if (cfg.bufferType == BufferType::Voq &&
        !scheme->reservesWholePacket())
        damq_fatal("VOQ's private-slot guarantee needs whole-packet "
                   "admission; wormhole body flits land without an "
                   "admission check and could eat another queue's "
                   "private slots (use virtual cut-through or "
                   "packet-sync switching)");
    // Every VC must be able to admit a head even when the others
    // are saturated up to their per-VC credit caps — that head-room
    // is one downstream slot under wormhole but a whole (longest)
    // packet otherwise, so the buffer must fit one head's worth per
    // VC.
    const std::uint32_t headroom = scheme->headSlotsNeeded(
        drawLengths ? cfg.common.workload.lengths.maxLength()
                    : cfg.flitsPerPacket);
    if (cfg.slotsPerBuffer <
        static_cast<std::uint32_t>(cfg.common.vcs) * headroom)
        damq_fatal(switchingName(cfg.switching),
                   " switching with ", cfg.common.vcs,
                   " VCs needs slotsPerBuffer >= ",
                   cfg.common.vcs * headroom, " (vcs x ", headroom,
                   " head slots), got ", cfg.slotsPerBuffer);

    flit = std::make_unique<FlitState>();
    flit->tailGate = scheme->headWaitsForTail() ? ~std::uint32_t(0) : 0;
    const std::uint32_t links = topo.numLinks();
    const std::uint32_t n = topo.numSwitches();
    flit->streams.resize(static_cast<std::size_t>(links) * numVcs);
    flit->sendFlit.assign(links, 0);
    flit->linkCredits.assign(links, 0);
    flit->linkCreditCap.assign(links, 0);
    flit->vcCredits.assign(static_cast<std::size_t>(links) * numVcs,
                           0);
    flit->vcCreditCap.assign(links, 0);
    flit->feedLink.assign(static_cast<std::size_t>(n) * portCount,
                          kNoFeedLink);
    flit->sends.assign(n, 0);
    for (SwitchId sw = 0; sw < n; ++sw) {
        for (PortId out = 0; out < portCount; ++out) {
            if (!topo.hasLink(sw, out))
                continue;
            const LinkId link = linkIdOf(sw, out, portCount);
            if (chanToSink[link])
                continue; // sinks absorb flits without credits
            const SwitchId next_sw = chanNextSwitch[link];
            const PortId next_in = chanNextInput[link];
            damq_assert(
                flit->feedLink[next_sw * portCount + next_in] ==
                    kNoFeedLink,
                "two links feed one input buffer — per-link "
                "credits are unsound here");
            flit->feedLink[next_sw * portCount + next_in] = link;
            const std::int32_t cap = static_cast<std::int32_t>(
                switchStore[next_sw].buffer(next_in).capacitySlots());
            flit->linkCreditCap[link] = cap;
            flit->linkCredits[link] = cap;
            // One head's worth of head-room per other VC (checked
            // >= headroom above), so the dateline escape VC can
            // always eventually admit a head.
            const std::int32_t vc_cap =
                cap - static_cast<std::int32_t>(
                          (numVcs - 1) * headroom);
            flit->vcCreditCap[link] = vc_cap;
            for (VcId vc = 0; vc < numVcs; ++vc)
                flit->vcCredits[static_cast<std::size_t>(link) *
                                    numVcs +
                                vc] = vc_cap;
        }
    }
    // Injection must not share a buffer with a link: injected
    // packets consume slots no upstream paid credits for.
    for (NodeId src = 0; src < topo.numEndpoints(); ++src) {
        const InjectPoint entry = topo.injectionPoint(src);
        damq_assert(
            flit->feedLink[entry.switchId * portCount + entry.port] ==
                kNoFeedLink,
            "injection point shares an input buffer with a link — "
            "credits cannot account for it");
    }
    flit->shard.resize(shardPool->shards());
    for (FlitShard &fs : flit->shard) {
        // At most one flit per link leaves a switch per cycle.
        fs.moves.reserve(static_cast<std::size_t>(n) * portCount);
        fs.returns.reserve(static_cast<std::size_t>(n) * portCount *
                           2);
        fs.tailGrants.reserve(portCount);
        fs.tailVcs.reserve(portCount);
        fs.reads.assign(portCount, 0);
    }
}

bool
SyncEngine::flitCanSendHead(SwitchId sw, QueueKey out_key,
                            const Packet &pkt)
{
    // Store-and-forward: the head waits for its own tail.
    if (pkt.arrivedFlits() < (pkt.lengthSlots & flit->tailGate))
        return false;
    // Per-hop turn-around: the head leaves R cycles after arriving.
    if (static_cast<std::uint32_t>(currentCycle) - pkt.hopArrivedAt <
        cfg.routeCycles)
        return false;
    const LinkId link = sw * portCount + out_key.out;
    // A wire already claimed by a continuation this cycle carries
    // no second flit; a different VC's *stalled* stream does not
    // block the wire (virtual channels multiplex it).
    if (flit->sendFlit[link])
        return false;
    const VcId next_vc = linkVcFlat(pkt, link, out_key.out);
    // The target VC must be free: a stream owns its VC from head
    // grant to tail crossing, so flits of two packets never
    // interleave within a VC.
    if (flit->streams[static_cast<std::size_t>(link) * numVcs +
                      next_vc]
            .active)
        return false;
    if (chanToSink[link])
        return true; // sinks always accept
    const SwitchId next_sw = chanNextSwitch[link];
    if (injector.creditDelayed(next_sw, currentCycle))
        return false;
    const PortId next_out =
        routeAfterHop(sw, out_key.out, next_sw, pkt);
    if (next_out == kInvalidPort)
        return false;
    // Wormhole heads need one downstream slot; VCT heads need the
    // whole packet's worth (the cut-through guarantee) — plus room
    // for every flit the link's other streams have committed but
    // not yet delivered, or two VCT packets could jointly overbook
    // the buffer.  (Conservative for partitioned organizations,
    // whose per-queue space is not actually shared.)
    std::uint32_t needed = scheme->headSlotsNeeded(pkt.lengthSlots);
    if (scheme->reservesWholePacket())
        needed += flitCommitted(link);
    if (scheme->creditBased() &&
        (flit->linkCredits[link] < static_cast<std::int32_t>(needed) ||
         flit->vcCredits[static_cast<std::size_t>(link) * numVcs +
                         next_vc] <
             static_cast<std::int32_t>(needed)))
        return false;
    // Exact organization-aware check on top of the credit counters:
    // a partitioned buffer can be "full" for this queue with total
    // credits to spare.
    return switchStore[next_sw].canAcceptClass(
        chanNextInput[link], QueueKey{next_out, next_vc}, needed,
        pkt.trafficClass);
}

std::uint32_t
SyncEngine::flitCommitted(LinkId link)
{
    const SwitchId sw = link / portCount;
    std::uint32_t committed = 0;
    for (VcId vc = 0; vc < numVcs; ++vc) {
        const FlitStream &st =
            flit->streams[static_cast<std::size_t>(link) * numVcs +
                          vc];
        if (!st.active)
            continue;
        const Packet *head =
            switchStore[sw].buffer(st.input).peek(st.srcKey);
        damq_assert(head && head->id == st.packet,
                    "active flit stream lost its packet");
        committed += head->lengthSlots - head->flitsSent;
    }
    return committed;
}

bool
SyncEngine::flitCanContinue(LinkId link, const FlitStream &st,
                            const Packet &head)
{
    // The next flit must have arrived upstream (wormhole pipelining
    // lets a packet stream out of a buffer it is still streaming
    // into).
    if (head.flitsSent >= head.arrivedFlits())
        return false;
    if (chanToSink[link])
        return true;
    const SwitchId next_sw = chanNextSwitch[link];
    if (injector.creditDelayed(next_sw, currentCycle))
        return false;
    // In-place arrival: if the downstream record has forwarded
    // everything that arrived, the next flit lands in the one slot
    // the packet still anchors — no new slot, no credit head-room
    // needed.  Without this a partial packet pipelining through a
    // full buffer could never receive its next flit and would hold
    // its VC forever (deadlock).  The credit it consumes is rebated
    // at this cycle's barrier (see flitExchange).
    const PortId next_in = chanNextInput[link];
    bool grows = true;
    bool found = false;
    switchStore[next_sw].buffer(next_in).forEachInQueue(
        st.dstKey, [&](const Packet &p) {
            if (p.id != st.packet)
                return;
            found = true;
            grows = p.flitsSent < p.arrivedFlits();
        });
    damq_assert(found, "streaming packet has no downstream record");
    if (!grows)
        return true;
    if (scheme->creditBased() &&
        (flit->linkCredits[link] < 1 ||
         flit->vcCredits[static_cast<std::size_t>(link) * numVcs +
                         st.linkVc] < 1))
        return false;
    return switchStore[next_sw].canAccept(next_in, st.dstKey, 1);
}

void
SyncEngine::flitArbitrate(unsigned shard)
{
    FlitShard &fs = flit->shard[shard];
    for (SwitchId sw = plan.begin[shard]; sw < plan.begin[shard + 1];
         ++sw) {
        GrantList &grants = grantStore[sw];
        grants.clear();
        std::fill(fs.reads.begin(), fs.reads.end(), 0);
        const std::uint32_t budget =
            switchStore[sw].buffer(0).maxReadsPerCycle();
        // Stream continuations claim wires and read ports first, in
        // link order; only then may the arbiter grant new heads
        // onto the leftovers.  Each wire carries one flit per
        // cycle, picked among its VC streams with a rotating
        // priority (cycle-based, so it is identical at any shard
        // count) — a stalled VC never starves the other.
        for (PortId out = 0; out < portCount; ++out) {
            const LinkId link = sw * portCount + out;
            flit->sendFlit[link] = 0;
            for (VcId i = 0; i < numVcs; ++i) {
                const VcId vc = static_cast<VcId>(
                    (currentCycle + i) % numVcs);
                const FlitStream &st =
                    flit->streams[static_cast<std::size_t>(link) *
                                      numVcs +
                                  vc];
                if (!st.active)
                    continue;
                if (fs.reads[st.input] >= budget)
                    continue; // read ports exhausted this cycle
                const Packet *head =
                    switchStore[sw].buffer(st.input).peek(st.srcKey);
                damq_assert(head && head->id == st.packet,
                            "active flit stream lost its packet");
                if (!flitCanContinue(link, st, *head))
                    continue;
                flit->sendFlit[link] =
                    static_cast<std::uint8_t>(1 + vc);
                ++fs.reads[st.input];
                break;
            }
        }
        // A stuck arbiter issues no new grants; streams in flight
        // keep draining (their arbitration already happened).
        if (injector.arbiterStuck(sw, currentCycle))
            continue;
        const auto can_send = [this, sw](PortId, QueueKey out_key,
                                         const Packet &pkt) {
            return flitCanSendHead(sw, out_key, pkt);
        };
        switchStore[sw].arbitrateInto(can_send, grants);
        // The arbiter caps reads among its own grants but cannot
        // see the continuations' claims — drop what exceeds the
        // remaining budget, in grant order.
        std::size_t kept = 0;
        for (const Grant &g : grants) {
            if (fs.reads[g.input] >= budget)
                continue;
            ++fs.reads[g.input];
            grants[kept++] = g;
        }
        grants.resize(kept);
    }
}

void
SyncEngine::flitConsumeCredit(FlitShard &fs, LinkId link, VcId vc)
{
    if (chanToSink[link] || !scheme->creditBased())
        return;
    std::int32_t &lc = flit->linkCredits[link];
    std::int32_t &vcc =
        flit->vcCredits[static_cast<std::size_t>(link) * numVcs + vc];
    --lc;
    --vcc;
    // At most one flit crosses a link per cycle, so only an
    // in-place send (rebated at the barrier) may dip below zero,
    // and only to -1.
    damq_assert(lc >= -1 && vcc >= -1,
                "flit sent without a credit — admission check is "
                "broken");
    ++fs.issued;
}

void
SyncEngine::flitDeferReturn(FlitShard &fs, SwitchId sw, PortId input,
                            VcId vc)
{
    const LinkId feeder = flit->feedLink[sw * portCount + input];
    if (feeder == kNoFeedLink || !scheme->creditBased())
        return; // injection-fed buffer: no upstream to repay
    fs.returns.push_back(CreditReturn{feeder, vc});
}

void
SyncEngine::flitPop(unsigned shard)
{
    ShardScratch &sc = shardScratch[shard];
    FlitShard &fs = flit->shard[shard];
    fs.moves.clear();
    fs.returns.clear();
    fs.issued = 0;
    fs.cutThrough = 0;
    for (SwitchId sw = plan.begin[shard]; sw < plan.begin[shard + 1];
         ++sw) {
        fs.tailGrants.clear();
        fs.tailVcs.clear();
        // Continuations, in the link order A1 decided them.
        for (PortId out = 0; out < portCount; ++out) {
            const LinkId link = sw * portCount + out;
            if (!flit->sendFlit[link])
                continue;
            const VcId wire_vc =
                static_cast<VcId>(flit->sendFlit[link] - 1);
            FlitStream &st =
                flit->streams[static_cast<std::size_t>(link) *
                                  numVcs +
                              wire_vc];
            BufferModel &buf = switchStore[sw].buffer(st.input);
            const Packet *head = buf.peek(st.srcKey);
            if (head->flitsSent + 1 == head->lengthSlots) {
                // Tail flit: the send is the pop — it frees the
                // stream's VC in the same cycle.
                fs.tailGrants.push_back(
                    Grant{st.input, st.srcKey.out, st.srcKey.vc});
                fs.tailVcs.push_back(wire_vc);
                st.active = false;
            } else {
                const VcId held_vc = head->vc;
                const bool shrank = buf.flitSent(st.srcKey);
                if (shrank)
                    flitDeferReturn(fs, sw, st.input, held_vc);
                fs.moves.push_back(
                    FlitMove{link, wire_vc, FlitType::Body,
                             Packet{}});
                ++flit->sends[sw];
            }
            flitConsumeCredit(fs, link, wire_vc);
        }
        // New heads granted this cycle.
        for (const Grant &g : grantStore[sw]) {
            const LinkId link = sw * portCount + g.output;
            BufferModel &buf = switchStore[sw].buffer(g.input);
            const Packet *head = buf.peek(g.queue());
            const VcId link_vc = linkVcFlat(*head, link, g.output);
            FlitStream &st =
                flit->streams[static_cast<std::size_t>(link) *
                                  numVcs +
                              link_vc];
            damq_assert(!st.active,
                        "head granted onto an occupied VC stream");
            if (head->lengthSlots == 1) {
                // Single-flit packet: head and tail at once — no
                // stream forms.
                fs.tailGrants.push_back(g);
                fs.tailVcs.push_back(link_vc);
            } else {
                st.packet = head->id;
                st.active = true;
                st.input = g.input;
                st.srcKey = g.queue();
                st.linkVc = link_vc;
                if (!head->fullyArrived())
                    ++fs.cutThrough;
                Packet copy = *head;
                const bool shrank = buf.flitSent(g.queue());
                if (shrank)
                    flitDeferReturn(fs, sw, g.input, copy.vc);
                fs.moves.push_back(
                    FlitMove{link, link_vc, FlitType::Head, copy});
                ++flit->sends[sw];
            }
            flitConsumeCredit(fs, link, link_vc);
        }
        // Tail and single-flit pops in one batch (keeps the
        // SwitchModel transmit counters true).
        if (!fs.tailGrants.empty()) {
            switchStore[sw].popGrantedInto(fs.tailGrants, sc.sent);
            for (std::size_t i = 0; i < sc.sent.size(); ++i) {
                const Grant &g = fs.tailGrants[i];
                const LinkId link = sw * portCount + g.output;
                const Packet &p = sc.sent[i];
                flitDeferReturn(fs, sw, g.input, p.vc);
                fs.moves.push_back(FlitMove{
                    link, fs.tailVcs[i],
                    p.lengthSlots == 1 ? FlitType::HeadTail
                                       : FlitType::Tail,
                    p});
                ++flit->sends[sw];
            }
        }
    }
}

void
SyncEngine::flitExchange(unsigned shard)
{
    FlitShard &own = flit->shard[shard];
    const SwitchId begin_sw = plan.begin[shard];
    const SwitchId end_sw = plan.begin[shard + 1];
    // Every shard scans the full move list and applies only the
    // flits landing on a switch it owns — sound because each input
    // buffer is fed by exactly one link and a link carries at most
    // one flit per cycle.
    for (unsigned s = 0; s < plan.shards(); ++s) {
        for (const FlitMove &m : flit->shard[s].moves) {
            if (chanToSink[m.link])
                continue; // coordinator delivers sinks in order
            const SwitchId next_sw = chanNextSwitch[m.link];
            if (next_sw < begin_sw || next_sw >= end_sw)
                continue;
            FlitStream &st =
                flit->streams[static_cast<std::size_t>(m.link) *
                                  numVcs +
                              m.vc];
            const PortId in = chanNextInput[m.link];
            if (m.type == FlitType::Head ||
                m.type == FlitType::HeadTail) {
                Packet pkt = m.pkt;
                // Same per-hop rewrite as the packet engine: link
                // VC from the wire, then route at the new switch.
                pkt.vc = m.vc;
                pkt.inPort = in;
                pkt.outPort = topo.route(next_sw, pkt.dest);
                ++pkt.hops;
                pkt.flitsArrived = 1;
                pkt.flitsSent = 0;
                pkt.hopArrivedAt =
                    static_cast<std::uint32_t>(currentCycle);
                st.dstKey = QueueKey{pkt.outPort, pkt.vc};
                // Credit flow control: the head was admitted by
                // flitCanSendHead at grant time, so the commit
                // re-verifies only the static space rule (the
                // dynamic policy verdict must not run again — see
                // SwitchUnit::receiveGranted).
                const bool accepted =
                    switchStore[next_sw].receiveGranted(in, pkt);
                damq_assert(accepted,
                            "flit admission check lied: head flit "
                            "rejected downstream");
            } else {
                const bool grew =
                    switchStore[next_sw].buffer(in).flitArrived(
                        st.dstKey);
                if (!grew && scheme->creditBased()) {
                    // Rebate: the flit landed in a slot its packet
                    // already held (downstream is streaming out as
                    // fast as we stream in).
                    own.returns.push_back(
                        CreditReturn{m.link, m.vc});
                }
            }
        }
    }
}

void
SyncEngine::flitFinishExchange()
{
    for (unsigned s = 0; s < plan.shards(); ++s) {
        FlitShard &fs = flit->shard[s];
        // Sink deliveries in global move order — deliver()'s
        // Welford statistics are order-sensitive floating point.
        // A packet's latency stops at its tail flit, so
        // serialization latency is included.
        for (const FlitMove &m : fs.moves) {
            if (!chanToSink[m.link])
                continue;
            if (m.type == FlitType::Tail ||
                m.type == FlitType::HeadTail)
                deliver(m.pkt, chanSink[m.link]);
        }
        flit->creditsIssued += fs.issued;
        counters.headsCutThrough += fs.cutThrough;
        for (const CreditReturn &r : fs.returns) {
            std::int32_t &lc = flit->linkCredits[r.link];
            std::int32_t &vcc =
                flit->vcCredits[static_cast<std::size_t>(r.link) *
                                    numVcs +
                                r.vc];
            ++lc;
            ++vcc;
            ++flit->creditsReturned;
            damq_assert(lc <= flit->linkCreditCap[r.link] &&
                            vcc <= flit->vcCreditCap[r.link],
                        "credit counter exceeded its cap — a "
                        "return was double-counted");
        }
    }
}

bool
SyncEngine::flitCreditsAtRest() const
{
    if (!flit || !scheme->creditBased())
        return true;
    const std::uint32_t links = topo.numLinks();
    for (LinkId link = 0; link < links; ++link) {
        if (flit->linkCreditCap[link] == 0)
            continue; // sink or absent link: no counters
        if (flit->linkCredits[link] != flit->linkCreditCap[link])
            return false;
        for (VcId vc = 0; vc < numVcs; ++vc) {
            if (flit->vcCredits[static_cast<std::size_t>(link) *
                                    numVcs +
                                vc] != flit->vcCreditCap[link])
                return false;
        }
    }
    return true;
}

std::vector<std::string>
SyncEngine::flitCheckInvariants() const
{
    std::vector<std::string> violations;
    const std::uint32_t links = topo.numLinks();
    for (LinkId link = 0; link < links; ++link) {
        for (VcId vc = 0; vc < numVcs; ++vc) {
            const FlitStream &st =
                flit->streams[static_cast<std::size_t>(link) *
                                  numVcs +
                              vc];
            if (!st.active)
                continue;
            // A live stream must still be draining its packet: the
            // tail send deactivates the stream in the same cycle it
            // pops, so a dangling stream means a tail failed to
            // free its VC.
            const SwitchId sw = link / portCount;
            const Packet *head =
                switchStore[sw].buffer(st.input).peek(st.srcKey);
            if (!head || head->id != st.packet) {
                violations.push_back(detail::concat(
                    "link ", link, " vc ", vc,
                    ": active stream for packet ", st.packet,
                    " but its queue head is gone — tail flit did "
                    "not free the VC"));
            } else if (head->flitsSent >= head->lengthSlots) {
                violations.push_back(detail::concat(
                    "link ", link, " vc ", vc, ": packet ",
                    st.packet, " sent all ", head->lengthSlots,
                    " flits but still holds its VC"));
            }
        }
        if (scheme->creditBased() && flit->linkCreditCap[link] > 0) {
            if (flit->linkCredits[link] > flit->linkCreditCap[link] ||
                flit->linkCredits[link] < 0)
                violations.push_back(detail::concat(
                    "link ", link, ": ", flit->linkCredits[link],
                    " credits outside [0, ",
                    flit->linkCreditCap[link], "]"));
            const std::int32_t used = static_cast<std::int32_t>(
                switchStore[chanNextSwitch[link]]
                    .buffer(chanNextInput[link])
                    .usedSlots());
            if (flit->linkCredits[link] + used !=
                flit->linkCreditCap[link])
                violations.push_back(detail::concat(
                    "link ", link, ": credits ",
                    flit->linkCredits[link], " + used slots ", used,
                    " != capacity ", flit->linkCreditCap[link],
                    " — a credit leaked"));
        }
    }
    // At most one partially-arrived packet per (input buffer, VC):
    // a buffer is fed by one link and each of the link's VCs
    // streams one packet at a time — two partials on one VC means
    // flits of two packets interleaved within it.
    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        for (PortId in = 0; in < portCount; ++in) {
            const BufferModel &buf = switchStore[sw].buffer(in);
            for (VcId vc = 0; vc < numVcs; ++vc) {
                std::uint32_t partial = 0;
                for (PortId out = 0; out < portCount; ++out) {
                    const_cast<BufferModel &>(buf).forEachInQueue(
                        QueueKey{out, vc},
                        [&partial](const Packet &pkt) {
                            if (!pkt.fullyArrived())
                                ++partial;
                        });
                }
                if (partial > 1)
                    violations.push_back(detail::concat(
                        "switch ", sw, " input ", in, " vc ", vc,
                        ": ", partial,
                        " partially-arrived packets share one VC "
                        "— flits of two packets interleaved on "
                        "its link"));
            }
        }
    }
    return violations;
}

} // namespace core
} // namespace damq
