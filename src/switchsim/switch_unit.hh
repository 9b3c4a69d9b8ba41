/**
 * @file
 * The abstract switch interface the network simulator drives, and
 * the three buffer *placements* Section 2 of the paper weighs:
 *
 *  - input buffering (one buffer per input port) — the paper's
 *    choice, with the four buffer organizations of Figure 1;
 *  - a centralized buffer pool shared by the whole switch, which
 *    is space-optimal in queueing theory but suffers Fujimoto's
 *    "hogging" (a busy input can starve the others) and needs
 *    impractical memory bandwidth;
 *  - output-port buffering (Karol et al.), which eliminates
 *    head-of-line blocking entirely but requires the buffers to
 *    absorb n simultaneous writes.
 *
 * The latter two are modeled with idealized memory bandwidth so
 * the *space* behaviour — the thing the DAMQ design competes on —
 * is isolated.
 */

#ifndef DAMQ_SWITCHSIM_SWITCH_UNIT_HH
#define DAMQ_SWITCHSIM_SWITCH_UNIT_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "queueing/buffer_model.hh"
#include "switchsim/arbiter.hh"

namespace damq {

/** Where a switch keeps its packets. */
enum class BufferPlacement
{
    Input,   ///< per-input buffers (paper's design space)
    Central, ///< one shared pool for the whole switch
    Output   ///< per-output queues fed directly by arrivals
};

/** Human-readable placement name. */
const char *bufferPlacementName(BufferPlacement placement);

/** Parse a case-insensitive placement name; nullopt on bad input. */
std::optional<BufferPlacement> tryBufferPlacementFromString(
    const std::string &name);

/** Counters shared by every switch organization. */
struct SwitchUnitStats
{
    std::uint64_t received = 0;
    std::uint64_t discarded = 0;
    std::uint64_t transmitted = 0;

    void reset() { *this = SwitchUnitStats{}; }
};

/**
 * One switch, as the network simulator sees it: packets offered to
 * input ports, packets emitted from output ports once per cycle.
 */
class SwitchUnit
{
  public:
    virtual ~SwitchUnit() = default;

    /** Number of ports (inputs = outputs). */
    virtual PortId numPorts() const = 0;

    /**
     * Whether a packet of @p len slots routed to local queue
     * @p out (output port x VC; a bare PortId means VC 0) could be
     * accepted at input @p input right now (the blocking protocol's
     * back-pressure test).
     */
    virtual bool canAccept(PortId input, QueueKey out,
                           std::uint32_t len) const = 0;

    /**
     * As canAccept(), but carrying the packet's traffic class so
     * class-aware sharing policies (SharingPolicy::ClassQos) can
     * apply their per-class cap.  The default ignores the class:
     * only the input-buffered placement keeps BufferModel objects
     * with an admission-policy layer.
     */
    virtual bool canAcceptClass(PortId input, QueueKey out,
                                std::uint32_t len,
                                std::uint8_t traffic_class) const
    {
        (void)traffic_class;
        return canAccept(input, out, len);
    }

    /**
     * Offer a packet (pkt.outPort set).  Stores it and returns
     * true, or counts a discard and returns false.
     */
    virtual bool tryReceive(PortId input, const Packet &pkt) = 0;

    /**
     * Commit a packet whose admission was already decided by an
     * earlier-phase flow-control check (the upstream grant).  Only
     * the organization's static space rule is re-verified — that
     * check is monotone under the pops that can land between grant
     * and commit, while a dynamic sharing policy's verdict is not
     * (a delay-driven threshold re-tightens when the aged queue
     * head it was loosened by departs mid-cycle).  Defaults to
     * tryReceive(), which is equivalent wherever no dynamic policy
     * can be installed (central/output placements).
     */
    virtual bool receiveGranted(PortId input, const Packet &pkt)
    {
        return tryReceive(input, pkt);
    }

    /**
     * Emit this cycle's departures: at most one packet per output,
     * each cleared by @p can_send.  Returned packets carry the
     * local output they left through in `outPort`.
     */
    virtual std::vector<Packet> transmit(const CanSendFn &can_send) = 0;

    /**
     * Allocation-free variant of transmit(): replace the contents
     * of @p sent with this cycle's departures.  The simulators keep
     * one scratch vector per switch and hand it back every cycle,
     * so steady-state operation never touches the allocator.
     */
    virtual void transmitInto(const CanSendFn &can_send,
                              std::vector<Packet> &sent)
    {
        sent = transmit(can_send);
    }

    /** Packets currently stored. */
    virtual std::uint32_t totalPackets() const = 0;

    /** Whether any packet is stored (the watchdog's "has work"). */
    virtual bool hasWork() const { return totalPackets() > 0; }

    /** Slots currently occupied. */
    virtual std::uint32_t totalUsedSlots() const = 0;

    /** Event counters. */
    virtual const SwitchUnitStats &unitStats() const = 0;

    /** Drop all contents and state. */
    virtual void reset() = 0;

    /**
     * Check internal invariants without aborting: returns one
     * human-readable description per violation, empty when healthy.
     * The fault auditor calls this periodically; tests call it
     * directly.
     */
    virtual std::vector<std::string> checkInvariants() const = 0;

    /** Callback type for forEachBuffer. */
    using BufferVisitor =
        std::function<void(PortId input, BufferModel &buffer)>;

    /**
     * Visit every BufferModel inside the switch with the input port
     * it serves — the telemetry layer attaches its per-queue probes
     * this way.  The default visits nothing: the central-pool and
     * output-queued organizations store packets in plain queues,
     * not BufferModel objects, so there is nothing to probe.
     */
    virtual void forEachBuffer(const BufferVisitor &visit)
    {
        (void)visit;
    }

    /** Panic on the first invariant violation (tests). */
    void debugValidate() const;

    /**
     * Fault hook: corrupt the bookkeeping of the buffer reached
     * through input @p input as if one slot's state latched garbage.
     * Returns false when the targeted storage has no slot to lose.
     * The damage is intentionally detectable by checkInvariants().
     */
    virtual bool faultLeakSlot(PortId input) = 0;
};

/**
 * Build a switch:
 *  - Input placement: @p buffer_type at each input with
 *    @p slots_per_input slots, arbitration per @p arbitration;
 *  - Central placement: one pool of n * slots_per_input slots
 *    (equal total storage) with per-output queues;
 *  - Output placement: per-output queues of @p slots_per_input
 *    slots each (equal total storage).
 * @p buffer_type and @p arbitration are ignored for the non-input
 * placements.  @p num_vcs > 1 (virtual channels per output) is only
 * supported by the Input placement, whose BufferModel queues carry
 * the VC dimension; requesting it elsewhere is fatal.  Likewise a
 * non-static @p sharing policy needs the Input placement's
 * admission-policy layer and is fatal elsewhere.
 */
std::unique_ptr<SwitchUnit> makeSwitchUnit(
    BufferPlacement placement, PortId num_ports,
    BufferType buffer_type, std::uint32_t slots_per_input,
    ArbitrationPolicy arbitration, std::uint32_t stale_threshold = 8,
    VcId num_vcs = 1, const SharingPolicyConfig &sharing = {});

} // namespace damq

#endif // DAMQ_SWITCHSIM_SWITCH_UNIT_HH
