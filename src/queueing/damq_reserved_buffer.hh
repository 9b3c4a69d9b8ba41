/**
 * @file
 * DAMQ with reserved slots — the follow-up fix for the hot-spot
 * weakness the paper itself reports.
 *
 * Section 4.2.1 observes that under hot-spot traffic a plain DAMQ
 * "fills up with hot spot traffic and, once that happens, the DAMQ
 * is tree saturated and behaves just like a FIFO switch": the
 * dynamically shared pool lets one congested destination monopolize
 * every slot.  Tamir & Frazier's 1992 journal follow-up solves this
 * by *reserving* one slot per queue out of the shared pool, so no
 * queue can ever be completely squeezed out.
 *
 * Admission rule: a packet for queue `q` may take a free slot as
 * long as, afterwards, there is still at least one slot available
 * for every *other* queue that is currently empty.  Equivalently,
 * the usable free space for `q` is
 *
 *     freeSlots - (number of other empty queues)
 *
 * which degrades gracefully to plain DAMQ behaviour when all queues
 * are busy.  Requires capacity >= number of queues.  In a multi-VC
 * layout the per-queue reservation is strictly stronger than the
 * shared-pool per-VC escape rule (every VC owns at least one of the
 * reserved queues), so this organization needs no extra VC logic.
 */

#ifndef DAMQ_QUEUEING_DAMQ_RESERVED_BUFFER_HH
#define DAMQ_QUEUEING_DAMQ_RESERVED_BUFFER_HH

#include "queueing/damq_buffer.hh"

namespace damq {

/** DAMQ buffer with one reserved slot per queue. */
class DamqReservedBuffer final : public BufferModel
{
  public:
    /** See BufferModel::BufferModel; capacity must cover one
     *  reserved slot per queue. */
    DamqReservedBuffer(QueueLayout queue_layout,
                       std::uint32_t capacity_slots);

    std::uint32_t usedSlots() const override
    {
        return inner.usedSlots();
    }
    std::uint32_t totalPackets() const override
    {
        return inner.totalPackets();
    }

    void fillAdmissionState(QueueKey key,
                            AdmissionState &st) const override;
    void pushImpl(const Packet &pkt) override
    {
        inner.push(pkt);
        markReady({pkt.outPort, pkt.vc});
    }
    const Packet *peek(QueueKey key) const override
    {
        return inner.peek(key);
    }
    std::uint32_t queueLength(QueueKey key) const override
    {
        return inner.queueLength(key);
    }
    Packet popImpl(QueueKey key) override
    {
        const Packet pkt = inner.pop(key);
        if (!inner.queueReady(key))
            markIdle(key);
        return pkt;
    }
    FlitEvent flitArrivedImpl(QueueKey key) override
    {
        // Delegate through the inner buffer's public wrapper so its
        // own census stays consistent; report the event upward from
        // the post-update head-of-queue state.
        const bool charged = inner.flitArrived(key);
        const Packet *pkt = youngestIn(key);
        return {pkt, charged};
    }
    FlitEvent flitSentImpl(QueueKey key) override
    {
        const bool freed = inner.flitSent(key);
        return {inner.peek(key), freed};
    }
    void forEachInQueue(QueueKey key,
                        const PacketVisitor &visit) const override
    {
        inner.forEachInQueue(key, visit);
    }

    BufferType type() const override { return BufferType::DamqR; }

    void clear() override;

    /**
     * Inner DAMQ structural checks plus this organization's extra
     * guarantee: every currently-empty queue must still be able to
     * claim a free slot, so hot-spot traffic can never squeeze a
     * destination out entirely.
     */
    std::vector<std::string> checkInvariants() const override;

    bool faultLeakSlot() override { return inner.faultLeakSlot(); }

  private:
    /** Youngest resident packet of queue @p key, or nullptr. */
    const Packet *youngestIn(QueueKey key) const
    {
        const Packet *last = nullptr;
        inner.forEachInQueue(key,
                             [&last](const Packet &p) { last = &p; });
        return last;
    }

    DamqBuffer inner;
};

} // namespace damq

#endif // DAMQ_QUEUEING_DAMQ_RESERVED_BUFFER_HH
