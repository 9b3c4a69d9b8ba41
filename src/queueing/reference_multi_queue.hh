/**
 * @file
 * A deliberately simple multi-queue oracle used by the property
 * tests: per-queue FIFO lists over one shared slot budget.
 * Behaviorally it must match DamqBuffer operation for operation;
 * the tests drive both with identical random streams and compare.
 *
 * Storage is a pool of per-*packet* nodes threaded into one free
 * list and one list per output — intentionally a different shape
 * from DamqBuffer's per-*slot* chains (where an L-slot packet
 * occupies L linked entries), so the oracle stays structurally
 * independent of the implementation it checks while avoiding the
 * allocation churn of std::deque.
 */

#ifndef DAMQ_QUEUEING_REFERENCE_MULTI_QUEUE_HH
#define DAMQ_QUEUEING_REFERENCE_MULTI_QUEUE_HH

#include <vector>

#include "queueing/buffer_model.hh"
#include "queueing/slot_pool.hh"

namespace damq {

/** Oracle implementation of the DAMQ semantics. */
class ReferenceMultiQueue final : public BufferModel
{
  public:
    /** See BufferModel::BufferModel. */
    ReferenceMultiQueue(QueueLayout queue_layout,
                        std::uint32_t capacity_slots);

    std::uint32_t usedSlots() const override { return used; }
    std::uint32_t totalPackets() const override { return packets; }

    void fillAdmissionState(QueueKey key,
                            AdmissionState &st) const override;
    void pushImpl(const Packet &pkt) override;
    const Packet *peek(QueueKey key) const override;
    std::uint32_t queueLength(QueueKey key) const override;
    Packet popImpl(QueueKey key) override;
    FlitEvent flitArrivedImpl(QueueKey key) override;
    FlitEvent flitSentImpl(QueueKey key) override;
    void forEachInQueue(QueueKey key,
                        const PacketVisitor &visit) const override;

    BufferType type() const override { return BufferType::Damq; }

    void clear() override;

    /** The oracle's only audit is the shared ready-mask check. */
    std::vector<std::string> checkInvariants() const override
    {
        return auditReadyMask();
    }

  private:
    /** One queued packet (every packet is >= 1 slot, so
     *  capacitySlots() nodes always suffice). */
    struct Node
    {
        SlotId next = kNullSlot;
        Packet packet;
    };

    std::vector<Node> nodes;
    SlotListRegs freeNodes;
    /// one per flat queue (QueueLayout::flatten); .slots counts packets
    std::vector<SlotListRegs> queues;
    std::uint32_t used = 0;
    std::uint32_t packets = 0;
};

} // namespace damq

#endif // DAMQ_QUEUEING_REFERENCE_MULTI_QUEUE_HH
