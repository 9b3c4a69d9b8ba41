/**
 * @file
 * FaultRouter: deadlock-free up*-down* rerouting around dead links.
 *
 * When the recovery protocol declares a link dead, minimal DOR can
 * no longer be followed blindly — and naive shortest-live-path
 * detours are worse than useless under blocking flow control: each
 * per-destination detour tree is acyclic on its own, but their
 * union shares channels, and the combined channel-dependency graph
 * cycles in ways the dateline VCs (which only cover minimal DOR)
 * cannot break.  The first bench run of that scheme deadlocked at
 * every failed-link fraction.
 *
 * Real irregular/faulty fabrics solve this with *up*-down* routing
 * (Autonet): orient every live link by a BFS spanning order from a
 * root — the end closer to the root (lower level, lower id on ties)
 * is "up" — and only allow routes that take zero or more up-hops
 * followed by zero or more down-hops.  Up-hops strictly decrease
 * the (level, id) key and down-hops strictly increase it, and no
 * route ever turns down→up, so the channel-dependency graph is
 * acyclic and blocking flow control cannot deadlock, with any
 * number of virtual channels.
 *
 * The router keeps one bit of state on the packet (Packet::
 * routeDown, "has taken a down-hop"): a climbing packet may go
 * either way, a descending packet may only continue down.  Per
 * destination it computes two tables over the live graph —
 * distDown (shortest all-down distance) by reverse BFS from the
 * sink, and distLegal (shortest up*-then-down* distance) by a DP
 * in increasing key order over the acyclic up-edges — and routes
 * down whenever descending is already optimal.  Both phases
 * strictly decrease their distance-to-go, so progress is
 * guaranteed within a link-state epoch.
 *
 * While no link is dead the router is pass-through: it returns the
 * topology's own (minimal, deterministic) route, so rerouting costs
 * nothing until a failure actually exists.  Destinations with no
 * legal up*-down* route are reported as unroutable (an invalid
 * port) and the engine drops such packets into the fault
 * accounting — the honest behavior for a partitioned fabric, and
 * the only safe one: any off-ordering fallback hop can close a
 * dependency cycle.
 *
 * Determinism: the BFS visits switches in ascending SwitchId and
 * ports in ascending PortId, so the same mask always yields the
 * same orientation and tables, independent of traffic or
 * declaration order.
 */

#ifndef DAMQ_NETWORK_CORE_FAULT_ROUTER_HH
#define DAMQ_NETWORK_CORE_FAULT_ROUTER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "network/core/link_state.hh"
#include "network/core/topology.hh"

namespace damq {
namespace core {

/** Up*-down* next-hop router over a LinkStateMask. */
class FaultRouter
{
  public:
    /** One routing decision: the port, and whether taking it is a
     *  down-hop (commits the packet to descending). */
    struct Hop
    {
        PortId port = kInvalidPort;
        bool down = false;
    };

    /** Both references must outlive the router. */
    FaultRouter(const Topology &topology, const LinkStateMask &mask);

    /**
     * Routing decision at @p sw for a packet to @p dest whose
     * down-phase bit is @p went_down.  Passes through to
     * topology.route() while the mask is clean; returns
     * port = kInvalidPort when @p dest is unreachable from @p sw
     * under the up*-down* rule (the caller must drop the packet —
     * any off-ordering hop risks a dependency cycle).
     */
    Hop nextHop(SwitchId sw, NodeId dest, bool went_down);

    /**
     * Whether the hop out of @p sw through @p out descends the
     * current orientation (false while the mask is clean).  The
     * engine uses it to update Packet::routeDown when a frame
     * actually crosses the link.
     */
    bool downHop(SwitchId sw, PortId out);

    /** Whether any link is currently dead (rerouting in effect). */
    bool active() const { return mask.deadLinks() != 0; }

    /**
     * Whether a packet buffered at input @p in of @p sw that waits
     * for output @p out forms a down→up turn under the current
     * orientation — the one channel-dependency edge the up*-down*
     * order does not cover.  Always false while the mask is clean,
     * on the local injection buffer (no fabric link feeds it), and
     * for delivery hops.  The engine checks it when re-keying
     * buffered packets on an epoch change: a packet whose restart
     * route would climb out of a down-link's buffer must re-enter
     * through the local port instead.
     */
    bool illegalTurn(SwitchId sw, PortId in, PortId out);

    /**
     * Bring the orientation and every destination's table up to
     * date with the mask, so the queries above only read until the
     * mask next changes.  The engine calls it on the coordinator
     * before its sharded phases: building tables lazily from
     * concurrent shards would race.  No-op while the mask is clean.
     */
    void prepare();

  private:
    /** Rebuild orientation + drop cached tables on a mask change. */
    void refresh();

    /** BFS levels from the root over the live graph. */
    void rebuildOrientation();

    /** (Re)build the per-destination tables for @p dest. */
    void buildTable(NodeId dest);

    /** Up*-down* order: true iff @p a is nearer the root. */
    bool keyLess(SwitchId a, SwitchId b) const
    {
        return level[a] != level[b] ? level[a] < level[b] : a < b;
    }

    const Topology &topo;
    const LinkStateMask &mask;

    /** Reverse adjacency: for each switch, the (sw, out) links
     *  feeding it — fixed by the immutable topology. */
    struct InEdge
    {
        SwitchId from;
        PortId out;
    };
    std::vector<std::vector<InEdge>> inEdges;

    /** Delivery ports: for each endpoint, the (sw, out) links that
     *  reach its sink. */
    std::vector<std::vector<InEdge>> sinkEdges;

    std::uint64_t builtVersion = 0;
    bool orientationBuilt = false;

    /** BFS level from the root (kUnreached = disconnected). */
    std::vector<std::uint32_t> level;

    /** Switch ids sorted by keyLess — topological for up-edges. */
    std::vector<SwitchId> keyOrder;

    /** Per-destination routing state over the live graph. */
    struct DestTable
    {
        std::vector<PortId> downPort;        ///< best descending hop
        std::vector<std::uint32_t> distDown; ///< all-down distance
        std::vector<PortId> upPort;          ///< best climbing hop
        std::vector<std::uint32_t> distLegal; ///< up*-down* distance
    };
    std::vector<std::uint8_t> tableBuilt; ///< per destination
    std::vector<DestTable> tables;        ///< per destination

    // BFS scratch, reused across builds.
    std::vector<SwitchId> queueScratch;
};

} // namespace core
} // namespace damq

#endif // DAMQ_NETWORK_CORE_FAULT_ROUTER_HH
