/**
 * @file
 * The packet record that flows through the switch-level simulators.
 *
 * At this level of abstraction a packet is pure metadata: the data
 * bytes themselves are only modeled in the byte-accurate microarch
 * library.  A packet occupies @ref lengthSlots buffer slots; the
 * paper's fixed-length evaluation uses one slot per packet, the
 * variable-length ablation uses one to four (matching the 8-byte
 * slots holding 1-32 byte packets in the ComCoBB design).
 */

#ifndef DAMQ_QUEUEING_PACKET_HH
#define DAMQ_QUEUEING_PACKET_HH

#include <cstdint>

#include "common/types.hh"
#include "queueing/queue_key.hh"

namespace damq {

/**
 * Role of a packet within its workload.  Open-loop workloads only
 * ever stamp Data; the request–reply closed loop stamps Request on
 * packets whose delivery schedules a reply and Reply on the answers
 * (see network/core/workload.hh).
 */
enum class PacketKind : std::uint8_t
{
    Data = 0,
    Request = 1,
    Reply = 2,
};

/** Human-readable packet-kind name. */
inline const char *
packetKindName(PacketKind kind)
{
    switch (kind) {
      case PacketKind::Data: return "data";
      case PacketKind::Request: return "request";
      case PacketKind::Reply: return "reply";
    }
    return "?";
}

/** Metadata for one packet traversing the network. */
struct Packet
{
    /** Unique id assigned at generation. */
    PacketId id = kInvalidPacket;

    /** Generating endpoint. */
    NodeId source = kInvalidNode;

    /** Final destination endpoint. */
    NodeId dest = kInvalidNode;

    /**
     * Output port at the switch currently buffering the packet.
     * Assigned by the router when the packet enters each switch.
     */
    PortId outPort = kInvalidPort;

    /**
     * Virtual channel the packet occupies at the current switch,
     * i.e., the VC of the link it arrived on.  Assigned per hop by
     * the VC allocation policy (vc_policy.hh); stays 0 in single-VC
     * configurations, so every pre-VC simulator is unaffected.
     */
    VcId vc = 0;

    /**
     * Input port at the switch currently buffering the packet, or
     * kInvalidPort at the injection source.  The dateline VC policy
     * needs it to tell "continuing along this ring" (keep the VC)
     * from "turning into a new dimension" (restart at VC 0).
     */
    PortId inPort = kInvalidPort;

    /**
     * Up*-down* routing phase under fault-tolerant rerouting: set
     * once the packet has traversed a down-hop of the current
     * link-state orientation, after which it may only continue
     * descending (the invariant that keeps rerouted traffic
     * deadlock-free — see network/core/fault_router.hh).  Stays
     * false, and is never read, outside reroute recovery.  Not part
     * of the sealed header: it is per-epoch transit state, like
     * outPort.
     */
    bool routeDown = false;

    /**
     * QoS traffic class stamped at generation (0 = best effort,
     * higher = more important; < kMaxTrafficClasses).  Read by the
     * class-segregated admission policies.  Deliberately *excluded*
     * from the sealed header so stamping it never perturbs the
     * checksum of single-class runs, and placed in the padding
     * after routeDown so the Packet layout is unchanged.
     */
    std::uint8_t trafficClass = 0;

    /**
     * Workload role stamped at generation (data / request / reply).
     * Read by closed-loop injection processes on delivery; like
     * trafficClass it lives in pre-existing padding and is excluded
     * from the sealed header, so open-loop runs (which always stamp
     * Data) are byte-for-byte unaffected.
     */
    PacketKind kind = PacketKind::Data;

    /** Buffer slots this packet occupies when fully resident (>= 1). */
    std::uint32_t lengthSlots = 1;

    /**
     * Flits of this packet that have arrived at the current buffer.
     * 0 is the packet-synchronized sentinel meaning "all of them":
     * whole-packet transfers never touch this field, so every
     * pre-flit simulator sees slotsHeld() == lengthSlots unchanged.
     * Under wormhole/VCT switching the head flit enqueues with
     * flitsArrived = 1 and each body/tail flit increments it until
     * it reaches lengthSlots.  Per-hop transit state, reset at each
     * switch; excluded from the sealed header.
     */
    std::uint32_t flitsArrived = 0;

    /**
     * Flits already forwarded downstream (or to the sink) from the
     * current buffer.  A cut-through switch may forward flits of a
     * packet whose tail has not yet arrived, so flitsSent can grow
     * while flitsArrived is still below lengthSlots.  Per-hop
     * transit state like flitsArrived.
     */
    std::uint32_t flitsSent = 0;

    /**
     * Network cycle (low 32 bits) at which the head flit entered
     * the current buffer, by injection or across a link.  The
     * flit-level per-hop turn-around R reads it: a head may leave
     * only routeCycles cycles after it arrived.  Per-hop transit
     * state, excluded from the sealed header, and placed in the
     * padding before generatedAt so the Packet layout is unchanged.
     */
    std::uint32_t hopArrivedAt = 0;

    /**
     * Buffer slots this record occupies *right now*.  Equal to
     * lengthSlots for fully resident packets (the packet-mode
     * invariant), fewer for a partially arrived or partially
     * forwarded one.  Never 0: a packet holds at least its head
     * slot from head-flit arrival until the pop at tail send, even
     * when every arrived flit has already been forwarded.
     */
    std::uint32_t slotsHeld() const
    {
        const std::uint32_t arrived = arrivedFlits();
        return arrived > flitsSent + 1 ? arrived - flitsSent : 1;
    }

    /** Flits present here, resolving the packet-mode sentinel. */
    std::uint32_t arrivedFlits() const
    {
        return flitsArrived ? flitsArrived : lengthSlots;
    }

    /** Whether every flit of the packet has arrived here. */
    bool fullyArrived() const
    {
        return flitsArrived == 0 || flitsArrived >= lengthSlots;
    }

    /** Network cycle at which the source generated the packet. */
    Cycle generatedAt = 0;

    /** Network cycle at which it entered the first-stage buffer. */
    Cycle injectedAt = 0;

    /** Switches traversed so far. */
    std::uint32_t hops = 0;

    /**
     * Per-source sequence number, assigned consecutively at
     * generation.  Together with @ref source it identifies the
     * packet end-to-end, which the fault subsystem's accounting
     * (injected = delivered + dropped + in-flight) relies on.
     */
    std::uint32_t seq = 0;

    /**
     * Checksum over the end-to-end header fields (id, source, dest,
     * seq, lengthSlots), sealed once at generation by sealHeader().
     * Receivers verify it with headerIntact() so a link fault that
     * flips a header bit is *detected* instead of silently routing
     * the packet to the wrong sink.  Mutable per-hop fields
     * (outPort, inPort, vc, hops, timestamps) are excluded.  32 bits: a
     * fault-rate sweep injects ~10^5 flips per bench run, so a
     * 16-bit seal would collide (and misroute) about once per
     * sweep.
     */
    std::uint32_t headerCheck = 0;

    /** True iff this record refers to a real packet. */
    bool valid() const { return id != kInvalidPacket; }
};

// Packets are copied through every buffer push/pop; the per-hop
// fields above live in padding, and a larger record would slow the
// whole simulator.
static_assert(sizeof(Packet) == 80, "Packet outgrew its 80 bytes");

/** Checksum over the immutable header fields of @p pkt. */
inline std::uint32_t
headerChecksum(const Packet &pkt)
{
    std::uint64_t h = 0x9e3779b97f4a7c15ULL;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    };
    mix(pkt.id);
    mix(pkt.source);
    mix(pkt.dest);
    mix(pkt.seq);
    mix(pkt.lengthSlots);
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/** Stamp the header checksum (call once, after filling the header). */
inline void
sealHeader(Packet &pkt)
{
    pkt.headerCheck = headerChecksum(pkt);
}

/**
 * Whether the sealed header survived transit unmodified.  Packets
 * that predate sealing (headerCheck left 0) are only "intact" if
 * their checksum happens to be 0, so simulators seal every packet
 * they generate.
 */
inline bool
headerIntact(const Packet &pkt)
{
    return pkt.headerCheck == headerChecksum(pkt);
}

} // namespace damq

#endif // DAMQ_QUEUEING_PACKET_HH
