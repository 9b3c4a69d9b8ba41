#include "queueing/reference_multi_queue.hh"

#include "common/logging.hh"

namespace damq {

ReferenceMultiQueue::ReferenceMultiQueue(QueueLayout queue_layout,
                                         std::uint32_t capacity_slots)
    : BufferModel(queue_layout, capacity_slots), nodes(capacity_slots),
      queues(queue_layout.numQueues())
{
    for (SlotId n = 0; n < capacity_slots; ++n)
        slotListAppendTail(nodes, freeNodes, n);
}

void
ReferenceMultiQueue::fillAdmissionState(QueueKey key,
                                        AdmissionState &st) const
{
    // Same admission inputs as DamqBuffer — shared pool free space
    // with the escape-slot debt (see admissionFeasible() in
    // admission_policy.hh) — so the property tests can compare the
    // two decision for decision.
    st.poolFree = capacitySlots() - used;
    st.guaranteeSlots = escapeSlotsOwed(key.vc);
    const SlotListRegs &queue = queues[layout().flatten(key)];
    st.queueLength = queue.slots; // one node per packet
    if (admissionPolicy().wantsQueueOccupancy()) {
        std::uint32_t slots = 0;
        for (SlotId n = queue.head; n != kNullSlot; n = nodes[n].next)
            slots += nodes[n].packet.slotsHeld();
        st.queueSlots = slots;
    }
}

void
ReferenceMultiQueue::pushImpl(const Packet &pkt)
{
    const QueueKey key{pkt.outPort, pkt.vc};
    damq_assert(layout().contains(key), "push: bad output port");
    damq_assert(used + pkt.slotsHeld() <= capacitySlots(),
                "push into a full reference buffer");
    const SlotId n = slotListRemoveHead(nodes, freeNodes);
    nodes[n].packet = pkt;
    slotListAppendTail(nodes, queues[layout().flatten(key)], n);
    used += pkt.slotsHeld();
    ++packets;
    markReady(key);
}

const Packet *
ReferenceMultiQueue::peek(QueueKey key) const
{
    damq_assert(layout().contains(key), "peek: bad output ", key.out);
    const SlotListRegs &queue = queues[layout().flatten(key)];
    if (queue.head == kNullSlot)
        return nullptr;
    return &nodes[queue.head].packet;
}

std::uint32_t
ReferenceMultiQueue::queueLength(QueueKey key) const
{
    damq_assert(layout().contains(key), "queueLength: bad output ",
                key.out);
    return queues[layout().flatten(key)].slots;
}

Packet
ReferenceMultiQueue::popImpl(QueueKey key)
{
    damq_assert(layout().contains(key), "pop: bad output ", key.out);
    SlotListRegs &queue = queues[layout().flatten(key)];
    damq_assert(queue.head != kNullSlot,
                "pop from empty queue ", key.out);
    const SlotId n = slotListRemoveHead(nodes, queue);
    const Packet pkt = nodes[n].packet;
    slotListAppendTail(nodes, freeNodes, n);
    used -= pkt.slotsHeld();
    --packets;
    if (queue.head == kNullSlot)
        markIdle(key);
    return pkt;
}

BufferModel::FlitEvent
ReferenceMultiQueue::flitArrivedImpl(QueueKey key)
{
    damq_assert(layout().contains(key), "flitArrived: bad queue ",
                key.out, ".vc", key.vc);
    SlotListRegs &queue = queues[layout().flatten(key)];
    damq_assert(queue.tail != kNullSlot,
                "flitArrived on an empty queue");
    Packet &pkt = nodes[queue.tail].packet;
    damq_assert(pkt.flitsArrived > 0 &&
                    pkt.flitsArrived < pkt.lengthSlots,
                "flit arrival on a fully arrived packet");
    const std::uint32_t before = pkt.slotsHeld();
    ++pkt.flitsArrived;
    const bool grew = pkt.slotsHeld() > before;
    if (grew)
        ++used;
    return {&pkt, grew};
}

BufferModel::FlitEvent
ReferenceMultiQueue::flitSentImpl(QueueKey key)
{
    damq_assert(layout().contains(key), "flitSent: bad queue ",
                key.out, ".vc", key.vc);
    SlotListRegs &queue = queues[layout().flatten(key)];
    damq_assert(queue.head != kNullSlot, "flitSent on an empty queue");
    Packet &pkt = nodes[queue.head].packet;
    damq_assert(pkt.flitsSent < pkt.arrivedFlits(),
                "flitSent without an arrived flit to forward");
    damq_assert(pkt.flitsSent + 1 < pkt.lengthSlots,
                "flitSent would forward the tail (that is the pop)");
    const std::uint32_t before = pkt.slotsHeld();
    ++pkt.flitsSent;
    const bool shrank = pkt.slotsHeld() < before;
    if (shrank)
        --used;
    return {&pkt, shrank};
}

void
ReferenceMultiQueue::forEachInQueue(QueueKey key,
                                    const PacketVisitor &visit) const
{
    damq_assert(layout().contains(key), "forEachInQueue: bad output ",
                key.out);
    for (SlotId n = queues[layout().flatten(key)].head; n != kNullSlot;
         n = nodes[n].next)
        visit(nodes[n].packet);
}

void
ReferenceMultiQueue::clear()
{
    BufferModel::clear();
    for (auto &node : nodes)
        node = Node{};
    freeNodes = SlotListRegs{};
    for (auto &queue : queues)
        queue = SlotListRegs{};
    for (SlotId n = 0; n < capacitySlots(); ++n)
        slotListAppendTail(nodes, freeNodes, n);
    used = 0;
    packets = 0;
}

} // namespace damq
