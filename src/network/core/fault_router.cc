#include "network/core/fault_router.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace damq {
namespace core {

namespace {

constexpr std::uint32_t kUnreached =
    std::numeric_limits<std::uint32_t>::max();

} // namespace

FaultRouter::FaultRouter(const Topology &topology,
                         const LinkStateMask &state_mask)
    : topo(topology), mask(state_mask),
      inEdges(topology.numSwitches()),
      sinkEdges(topology.numEndpoints()),
      level(topology.numSwitches(), kUnreached),
      tableBuilt(topology.numEndpoints(), 0),
      tables(topology.numEndpoints())
{
    // The graph is immutable; only link liveness changes.  Walk it
    // once to build the reverse adjacency the BFS consumes.
    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        for (PortId out = 0; out < topo.portsPerSwitch(); ++out) {
            if (!topo.hasLink(sw, out))
                continue; // mesh edge: no such link
            const HopTarget next = topo.hop(sw, out);
            if (next.toSink)
                sinkEdges[next.sink].push_back(InEdge{sw, out});
            else
                inEdges[next.switchId].push_back(InEdge{sw, out});
        }
    }
    keyOrder.resize(topo.numSwitches());
    queueScratch.reserve(topo.numSwitches());
}

FaultRouter::Hop
FaultRouter::nextHop(SwitchId sw, NodeId dest, bool went_down)
{
    // Clean mask: minimal routing, zero overhead beyond the check.
    if (mask.deadLinks() == 0)
        return Hop{topo.route(sw, dest), false};
    refresh();
    if (!tableBuilt[dest])
        buildTable(dest);
    const DestTable &t = tables[dest];

    // A descending packet may only continue down (the up*-down*
    // invariant).  If an epoch change stranded it — no down path
    // any more — it restarts as a climber, which is legal from a
    // standing start.
    if (went_down && t.downPort[sw] != kInvalidPort)
        return Hop{t.downPort[sw], true};

    // Climbing phase: descend as soon as descending is optimal
    // (distLegal is the min over both choices, so equality means
    // "no up-hop improves on going down from here").
    if (t.downPort[sw] != kInvalidPort &&
        t.distDown[sw] <= t.distLegal[sw])
        return Hop{t.downPort[sw], true};
    if (t.upPort[sw] != kInvalidPort)
        return Hop{t.upPort[sw], false};

    // Unreachable under up*-down*: no legal hop exists.  Falling
    // back to the minimal route here would inject a hop outside
    // the up*-down* ordering — one such edge can close a channel-
    // dependency cycle and wedge the whole fabric — so the router
    // reports "unroutable" and the engine drops the packet into
    // the fault accounting instead.
    return Hop{kInvalidPort, false};
}

bool
FaultRouter::downHop(SwitchId sw, PortId out)
{
    if (mask.deadLinks() == 0)
        return false; // clean epochs accumulate no phase
    refresh();
    const HopTarget next = topo.hop(sw, out);
    if (next.toSink)
        return true; // terminal hop; the bit is never read again
    return keyLess(sw, next.switchId);
}

bool
FaultRouter::illegalTurn(SwitchId sw, PortId in, PortId out)
{
    if (mask.deadLinks() == 0)
        return false;
    refresh();
    // The buffer at input `in` holds packets that crossed the link
    // whose reverse direction is output `in` (duplex convention);
    // a sink or absent reverse means no fabric link feeds it.
    if (!topo.hasLink(sw, in))
        return false;
    const HopTarget prev = topo.hop(sw, in);
    if (prev.toSink)
        return false; // local injection buffer: a chain source
    if (!keyLess(prev.switchId, sw))
        return false; // arrived climbing: any turn is legal
    const HopTarget next = topo.hop(sw, out);
    if (next.toSink)
        return false; // delivery is a terminal down-hop
    return keyLess(next.switchId, sw); // down-buffer, up-hop
}

void
FaultRouter::prepare()
{
    if (mask.deadLinks() == 0)
        return;
    refresh();
    for (NodeId dest = 0; dest < topo.numEndpoints(); ++dest) {
        if (!tableBuilt[dest])
            buildTable(dest);
    }
}

void
FaultRouter::refresh()
{
    if (orientationBuilt && builtVersion == mask.version())
        return;
    rebuildOrientation();
    std::fill(tableBuilt.begin(), tableBuilt.end(),
              std::uint8_t{0});
    builtVersion = mask.version();
    orientationBuilt = true;
}

void
FaultRouter::rebuildOrientation()
{
    std::fill(level.begin(), level.end(), kUnreached);
    std::vector<SwitchId> &queue = queueScratch;
    queue.clear();

    // BFS from a fixed root over the live directed graph.  The
    // levels only shape path quality; deadlock freedom needs
    // nothing more than the injective (level, id) key, so even a
    // disconnected switch (level = kUnreached, sorted "most down")
    // keeps the order total and the up-edge relation acyclic.
    level[0] = 0;
    queue.push_back(0);
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const SwitchId at = queue[head];
        for (PortId out = 0; out < topo.portsPerSwitch(); ++out) {
            if (!topo.hasLink(at, out))
                continue;
            const HopTarget next = topo.hop(at, out);
            if (next.toSink || level[next.switchId] != kUnreached)
                continue;
            const LinkId link =
                linkIdOf(at, out, topo.portsPerSwitch());
            if (mask.linkDown(link))
                continue;
            level[next.switchId] = level[at] + 1;
            queue.push_back(next.switchId);
        }
    }

    for (SwitchId sw = 0; sw < topo.numSwitches(); ++sw)
        keyOrder[sw] = sw;
    std::sort(keyOrder.begin(), keyOrder.end(),
              [this](SwitchId a, SwitchId b) {
                  return keyLess(a, b);
              });
}

void
FaultRouter::buildTable(NodeId dest)
{
    DestTable &t = tables[dest];
    const SwitchId n = topo.numSwitches();
    const std::uint32_t ports = topo.portsPerSwitch();
    t.downPort.assign(n, kInvalidPort);
    t.distDown.assign(n, kUnreached);
    t.upPort.assign(n, kInvalidPort);
    t.distLegal.assign(n, kUnreached);

    // distDown by reverse BFS from the sink over down-edges only.
    // The delivery link itself counts as a down-hop: it creates no
    // further channel dependency, so it is legal in either phase.
    std::vector<SwitchId> &queue = queueScratch;
    queue.clear();
    for (const InEdge &edge : sinkEdges[dest]) {
        const LinkId link = linkIdOf(edge.from, edge.out, ports);
        if (mask.linkDown(link) ||
            t.distDown[edge.from] != kUnreached)
            continue;
        t.distDown[edge.from] = 1;
        t.downPort[edge.from] = edge.out;
        queue.push_back(edge.from);
    }
    for (std::size_t head = 0; head < queue.size(); ++head) {
        const SwitchId at = queue[head];
        for (const InEdge &edge : inEdges[at]) {
            if (t.distDown[edge.from] != kUnreached)
                continue;
            if (!keyLess(edge.from, at))
                continue; // edge.from -> at must descend
            const LinkId link =
                linkIdOf(edge.from, edge.out, ports);
            if (mask.linkDown(link))
                continue;
            t.distDown[edge.from] = t.distDown[at] + 1;
            t.downPort[edge.from] = edge.out;
            queue.push_back(edge.from);
        }
    }

    // distLegal by DP in increasing key order: every up-edge leads
    // to an earlier switch in this order, so its distLegal is
    // final when consumed.
    for (const SwitchId sw : keyOrder) {
        std::uint32_t best = t.distDown[sw];
        PortId best_up = kInvalidPort;
        for (PortId out = 0; out < topo.portsPerSwitch(); ++out) {
            if (!topo.hasLink(sw, out))
                continue;
            const HopTarget next = topo.hop(sw, out);
            if (next.toSink || !keyLess(next.switchId, sw))
                continue; // climbing hops only
            const LinkId link = linkIdOf(sw, out, ports);
            if (mask.linkDown(link))
                continue;
            const std::uint32_t via = t.distLegal[next.switchId];
            if (via != kUnreached && via + 1 < best) {
                best = via + 1;
                best_up = out;
            }
        }
        t.distLegal[sw] = best;
        t.upPort[sw] = best_up;
    }

    tableBuilt[dest] = 1;
}

} // namespace core
} // namespace damq
