/**
 * @file
 * An n x n switch with per-input buffers, a crossbar, and an
 * arbiter — the building block of the Omega-network evaluation.
 *
 * The switch is passive with respect to time: the network simulator
 * drives it once per network cycle (arbitrate -> pop -> receive),
 * which matches the synchronized "long clock" model of Section 4.2.
 */

#ifndef DAMQ_SWITCHSIM_SWITCH_MODEL_HH
#define DAMQ_SWITCHSIM_SWITCH_MODEL_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "queueing/buffer_model.hh"
#include "switchsim/arbiter.hh"
#include "switchsim/grant.hh"
#include "switchsim/switch_unit.hh"

namespace damq {

/** Aggregate per-switch event counters. */
using SwitchStats = SwitchUnitStats;

/**
 * One n x n switch: n input buffers of a chosen organization plus a
 * stateful arbiter.  This is the input-buffered organization; the
 * central-pool and output-queued alternatives implement the same
 * SwitchUnit interface.
 */
class SwitchModel final : public SwitchUnit
{
  public:
    /**
     * @param num_ports        n (inputs = outputs = n).
     * @param buffer_type      organization of each input buffer.
     * @param slots_per_buffer storage per input buffer, in slots.
     * @param arbitration      crossbar arbitration policy.
     * @param stale_threshold  smart-arbitration stale threshold.
     * @param num_vcs          virtual channels per output (1 = the
     *                         paper's single-VC switches).
     * @param sharing          admission-policy configuration applied
     *                         to every input buffer (static rules,
     *                         dynamic thresholds, or class QoS; also
     *                         carries the VOQ private-slot count).
     */
    SwitchModel(PortId num_ports, BufferType buffer_type,
                std::uint32_t slots_per_buffer,
                ArbitrationPolicy arbitration,
                std::uint32_t stale_threshold = 8, VcId num_vcs = 1,
                const SharingPolicyConfig &sharing = {});

    /** Number of ports (inputs and outputs). */
    PortId numPorts() const override { return ports; }

    /** Buffer organization used at every input. */
    BufferType bufferType() const { return type; }

    /** The buffer at input @p input. */
    BufferModel &buffer(PortId input) { return *buffers[input]; }
    const BufferModel &buffer(PortId input) const
    {
        return *buffers[input];
    }

    /** Virtual channels per output. */
    VcId numVcs() const { return vcs; }

    /**
     * Whether input @p input can accept a packet of @p len slots
     * routed to local queue @p out (used for blocking-protocol
     * back-pressure and discard decisions).
     */
    bool canAccept(PortId input, QueueKey out,
                   std::uint32_t len) const override;

    /** Class-aware variant consulted by class-QoS sharing. */
    bool canAcceptClass(PortId input, QueueKey out,
                        std::uint32_t len,
                        std::uint8_t traffic_class) const override;

    /**
     * Offer a packet to input @p input (pkt.outPort and pkt.vc must
     * already be set by routing / VC allocation).  Returns true and
     * stores it if space allows; returns false (and counts a
     * discard) otherwise.
     */
    bool tryReceive(PortId input, const Packet &pkt) override;

    /** Commit a packet already admitted at grant time: re-check
     *  only the static space rule (see SwitchUnit::receiveGranted
     *  for why the dynamic policy must not run again here). */
    bool receiveGranted(PortId input, const Packet &pkt) override;

    /** Compute this cycle's crossbar schedule. */
    GrantList arbitrate(const CanSendFn &can_send);

    /** Remove the granted head packets, in grant order. */
    std::vector<Packet> popGranted(const GrantList &grants);

    /**
     * Compute this cycle's schedule into caller-owned @p grants —
     * no per-cycle allocation once @p grants has warmed up.  Only
     * this switch's state (buffers read, arbiter fairness state
     * mutated) is touched, so distinct switches may arbitrate
     * concurrently as long as @p can_send reads are race-free.
     * A switch with no ready queue skips the scan: the arbiter's
     * idleCycle() has exactly the effect of arbitrating over empty
     * buffers.
     */
    void arbitrateInto(const CanSendFn &can_send, GrantList &grants)
    {
        if (!hasWork()) {
            grants.clear();
            arbiter->idleCycle();
            return;
        }
        arbiter->arbitrateInto(bufferPtrs, can_send, grants);
    }

    /**
     * Pop the packets granted in @p grants, in grant order,
     * reusing @p sent (cleared first).  Pairs with arbitrateInto
     * to split transmitInto across phase barriers.
     */
    void popGrantedInto(const GrantList &grants,
                        std::vector<Packet> &sent);

    /** SwitchUnit: arbitrate + pop in one step. */
    std::vector<Packet> transmit(const CanSendFn &can_send) override;

    /** SwitchUnit: arbitrate + pop reusing @p sent and an internal
     *  grant scratch list — no per-cycle allocation. */
    void transmitInto(const CanSendFn &can_send,
                      std::vector<Packet> &sent) override;

    /** Slots in use across all input buffers. */
    std::uint32_t totalUsedSlots() const override;

    /** Packets buffered across all input buffers. */
    std::uint32_t totalPackets() const override;

    /** Whether any input buffer has a ready queue — equivalently,
     *  holds a packet — read from the ready masks alone. */
    bool hasWork() const override
    {
        for (const BufferModel *buf : bufferPtrs) {
            if (buf->anyReady())
                return true;
        }
        return false;
    }

    /** Event counters. */
    const SwitchStats &stats() const { return switchStats; }

    /** SwitchUnit: same counters. */
    const SwitchUnitStats &unitStats() const override
    {
        return switchStats;
    }

    /** Clear buffers, arbiter fairness state, and counters. */
    void reset() override;

    /** Every buffer's violations, prefixed with its input port. */
    std::vector<std::string> checkInvariants() const override;

    /** SwitchUnit: visit each input buffer with its port number. */
    void forEachBuffer(const BufferVisitor &visit) override
    {
        for (PortId input = 0; input < ports; ++input)
            visit(input, *buffers[input]);
    }

    /** The crossbar arbiter's lifetime grant counters. */
    const ArbiterStats &arbiterStats() const
    {
        return arbiter->stats();
    }

    /** Leak a slot from input @p input's buffer. */
    bool faultLeakSlot(PortId input) override;

  private:
    PortId ports;
    VcId vcs;
    BufferType type;
    std::vector<std::unique_ptr<BufferModel>> buffers;
    std::vector<BufferModel *> bufferPtrs;
    std::unique_ptr<Arbiter> arbiter;
    SwitchStats switchStats;
    GrantList grantScratch; ///< reused by transmitInto every cycle
};

} // namespace damq

#endif // DAMQ_SWITCHSIM_SWITCH_MODEL_HH
