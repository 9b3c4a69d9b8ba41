/**
 * @file
 * First-class flow-control API: one Switching enum for every
 * transfer granularity the simulators support, and the
 * FlowControlScheme policy object that owns the can-send / credit /
 * allocation decisions the engines used to hard-code per mode.
 *
 * Before this redesign the granularity knobs were scattered: the
 * SyncEngine's synchronized whole-packet transfer was implicit, and
 * FlowControl only distinguished discard from block.  They collapse
 * into:
 *
 *  - Switching — *what crosses a link per transfer*: a whole packet
 *    per network cycle (packet-synchronized) or one flit per cycle
 *    (store-and-forward / wormhole / virtual-cut-through);
 *  - FlowControl — *how a full receiver pushes back*: discard,
 *    block, per-hop credits, or an on/off wire (sim_types.hh);
 *  - FlowControlScheme — the validated combination, answering the
 *    questions an engine's advance path asks: is this flit-level,
 *    how many downstream slots must a head flit secure
 *    (headSlotsNeeded: 1 under wormhole — the packet may spread
 *    over several switches — the whole packet under VCT and
 *    store-and-forward, which never stall a packet across a link
 *    boundary for space), whether a head must wait for its own
 *    tail, and whether sends are credit-gated.
 */

#ifndef DAMQ_NETWORK_CORE_FLOW_CONTROL_HH
#define DAMQ_NETWORK_CORE_FLOW_CONTROL_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "network/core/sim_types.hh"

namespace damq {

/** Transfer granularity of a link, per transfer. */
enum class Switching
{
    /**
     * The paper's synchronized whole-packet transfer: every link
     * moves one complete packet per network cycle (SyncEngine's
     * historical behavior; the 12-cycle transfer is the cycle).
     */
    PacketSync,
    /**
     * Flit-level store-and-forward: the head reserves the whole
     * packet downstream like VCT, but may leave a switch only after
     * its own tail flit has arrived there.
     */
    StoreAndForward,
    /**
     * Flit-level wormhole: the head flit advances as soon as one
     * downstream slot is secured; body flits follow one per cycle
     * and may stall mid-packet, spreading the packet over several
     * switches (tree blocking — the behavior VCT avoids).
     */
    Wormhole,
    /**
     * Flit-level virtual cut-through (the paper's Table 1
     * micro-architecture): the head advances only once the whole
     * packet's worth of downstream space is secured, so a blocked
     * packet always collapses into a single buffer.
     */
    VirtualCutThrough
};

/** Canonical name ("packet-sync", "wormhole", ...). */
const char *switchingName(Switching mode);

/** Parse a case-insensitive switching-mode name; nullopt if bad. */
std::optional<Switching> trySwitchingFromString(
    const std::string &name);

/** Whether @p mode moves flits rather than whole packets. */
inline bool
flitLevelSwitching(Switching mode)
{
    return mode != Switching::PacketSync;
}

/**
 * A validated (Switching, FlowControl) combination plus the policy
 * decisions that depend on it.  Engines hold one scheme for the
 * whole run; it is immutable and stateless (credit *counters* are
 * engine state — per link — not scheme state).
 */
class FlowControlScheme
{
  public:
    virtual ~FlowControlScheme() = default;

    /** The transfer granularity this scheme implements. */
    Switching switching() const { return mode; }

    /** The back-pressure protocol sends are gated by. */
    FlowControl protocol() const { return fc; }

    /** Whether links move flits instead of whole packets. */
    bool flitLevel() const { return flitLevelSwitching(mode); }

    /** Whether sends consume per-hop credits (vs direct state). */
    bool creditBased() const { return fc == FlowControl::Credit; }

    /**
     * Downstream slots a head flit must secure before it may cross
     * a link, for a packet of @p length_slots flits.  1 under
     * wormhole, @p length_slots under every other mode.
     *
     * This count is what the engines feed into the buffers'
     * AdmissionPolicy layer (AdmissionRequest::lengthSlots), so a
     * head admission runs through the same accept/reject rule —
     * static, dynamic-threshold, or delay-driven — as whole-packet
     * admission does.
     */
    virtual std::uint32_t headSlotsNeeded(
        std::uint32_t length_slots) const = 0;

    /**
     * Whether a granted head reserves whole-packet space downstream
     * (true for every mode but wormhole): once the head crosses, no
     * flit of the packet can ever stall for space.
     */
    virtual bool reservesWholePacket() const = 0;

    /**
     * Whether a head may leave a switch only after its own tail has
     * arrived there (store-and-forward).
     */
    bool headWaitsForTail() const
    {
        return mode == Switching::StoreAndForward;
    }

    /** The switching-mode name ("wormhole", "vct", ...). */
    const char *name() const { return switchingName(mode); }

    /**
     * Build the scheme for a validated combination.  Fatal on a
     * meaningless pairing — flit switching with Discarding (flits
     * of one packet must not be dropped independently), or credit /
     * on-off protocols under packet-synchronized switching.  As a
     * deployment convenience, flit switching with the packet-mode
     * default Blocking upgrades to Credit (blocking *is* the
     * credit-stalled state at flit granularity).
     */
    static std::unique_ptr<FlowControlScheme> make(Switching mode,
                                                   FlowControl fc);

  protected:
    FlowControlScheme(Switching mode, FlowControl fc)
        : mode(mode), fc(fc)
    {
    }

  private:
    Switching mode;
    FlowControl fc;
};

} // namespace damq

#endif // DAMQ_NETWORK_CORE_FLOW_CONTROL_HH
