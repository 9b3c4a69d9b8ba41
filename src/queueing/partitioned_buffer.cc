#include "queueing/partitioned_buffer.hh"

#include "common/logging.hh"

namespace damq {

StaticallyPartitionedBuffer::StaticallyPartitionedBuffer(
    QueueLayout queue_layout, std::uint32_t capacity_slots)
    : BufferModel(queue_layout, capacity_slots),
      perQueueCapacity(capacity_slots / queue_layout.numQueues()),
      pool(capacity_slots),
      freeLists(queue_layout.numQueues()),
      queues(queue_layout.numQueues()),
      packetsPerQueue(queue_layout.numQueues(), 0)
{
    if (capacity_slots % numQueues() != 0) {
        if (numVcs() > 1) {
            damq_fatal("statically partitioned buffers need a slot "
                       "count divisible by the number of queues (got ",
                       capacity_slots, " slots for ", numQueues(),
                       " queues = ", numOutputs(), " outputs x ",
                       numVcs(), " VCs)");
        }
        damq_fatal("statically partitioned buffers need a slot count "
                   "divisible by the number of outputs (got ",
                   capacity_slots, " slots for ", numOutputs(),
                   " outputs)");
    }
    for (std::uint32_t q = 0; q < numQueues(); ++q)
        threadPartitionFreeList(q);
    freeTotal = capacity_slots;
}

void
StaticallyPartitionedBuffer::threadPartitionFreeList(std::uint32_t q)
{
    const SlotId base = q * perQueueCapacity;
    for (SlotId s = base; s < base + perQueueCapacity; ++s)
        slotListAppendTail(pool, freeLists[q], s);
}

void
StaticallyPartitionedBuffer::fillAdmissionState(QueueKey key,
                                                AdmissionState &st) const
{
    // The target partition *is* the allocation domain: its free
    // space and its reservations, with no guarantee term — slots
    // statically owned by a queue cannot be taken by another, so
    // there is nothing to protect (and nothing to share: the
    // factory rejects dynamic sharing policies here).
    const std::uint32_t q = layout().flatten(key);
    st.poolFree = freeLists[q].slots;
    st.queueSlots = queues[q].slots;
    st.queueLength = packetsPerQueue[q];
}

void
StaticallyPartitionedBuffer::pushImpl(const Packet &pkt)
{
    const QueueKey key{pkt.outPort, pkt.vc};
    damq_assert(layout().contains(key), "push: bad output port");
    damq_assert(pkt.lengthSlots >= 1, "push: zero-length packet");
    const std::uint32_t q = layout().flatten(key);
    SlotListRegs &free = freeLists[q];
    damq_assert(free.slots >= pkt.slotsHeld(),
                "push into a full ", name(), " partition");

    SlotListRegs &queue = queues[q];
    const SlotId head = slotListRemoveHead(pool, free);
    pool[head].headOfPacket = true;
    pool[head].packet = pkt;
    slotListAppendTail(pool, queue, head);
    for (std::uint32_t i = 1; i < pkt.slotsHeld(); ++i) {
        const SlotId s = slotListRemoveHead(pool, free);
        pool[s].headOfPacket = false;
        slotListAppendTail(pool, queue, s);
    }
    freeTotal -= pkt.slotsHeld();
    ++packetsPerQueue[q];
    ++packets;
    markReady(key);
}

const Packet *
StaticallyPartitionedBuffer::peek(QueueKey key) const
{
    damq_assert(layout().contains(key), "peek: bad output ", key.out);
    const SlotListRegs &queue = queues[layout().flatten(key)];
    if (queue.head == kNullSlot)
        return nullptr;
    const Slot &slot = pool[queue.head];
    damq_assert(slot.headOfPacket,
                "queue head register does not point at a packet head");
    return &slot.packet;
}

std::uint32_t
StaticallyPartitionedBuffer::queueLength(QueueKey key) const
{
    damq_assert(layout().contains(key), "queueLength: bad output ",
                key.out);
    return packetsPerQueue[layout().flatten(key)];
}

Packet
StaticallyPartitionedBuffer::popImpl(QueueKey key)
{
    // Qualified call: keeps the lookup direct (and inlinable)
    // instead of re-dispatching through the vtable.
    const Packet *head = StaticallyPartitionedBuffer::peek(key);
    damq_assert(head != nullptr, "pop from empty queue ", key.out);
    const Packet pkt = *head;

    const std::uint32_t q = layout().flatten(key);
    SlotListRegs &queue = queues[q];
    SlotListRegs &free = freeLists[q];
    for (std::uint32_t i = 0; i < pkt.slotsHeld(); ++i) {
        const SlotId s = slotListRemoveHead(pool, queue);
        damq_assert((i == 0) == pool[s].headOfPacket,
                    "packet slot chain corrupted");
        pool[s].headOfPacket = false;
        slotListAppendTail(pool, free, s);
    }
    freeTotal += pkt.slotsHeld();
    --packetsPerQueue[q];
    --packets;
    if (packetsPerQueue[q] == 0)
        markIdle(key);
    return pkt;
}

BufferModel::FlitEvent
StaticallyPartitionedBuffer::flitArrivedImpl(QueueKey key)
{
    damq_assert(layout().contains(key), "flitArrived: bad queue ",
                key.out, ".vc", key.vc);
    const std::uint32_t q = layout().flatten(key);
    SlotListRegs &queue = queues[q];
    damq_assert(queue.head != kNullSlot,
                "flitArrived on an empty queue");
    // The streaming packet is the youngest of its partition; its
    // record lives in the last head slot of the chain.
    SlotId head_slot = kNullSlot;
    for (SlotId s = queue.head; s != kNullSlot; s = pool[s].next) {
        if (pool[s].headOfPacket)
            head_slot = s;
    }
    damq_assert(head_slot != kNullSlot,
                "flitArrived: queue has no packet head");
    Packet &pkt = pool[head_slot].packet;
    damq_assert(pkt.flitsArrived > 0 &&
                    pkt.flitsArrived < pkt.lengthSlots,
                "flit arrival on a fully arrived packet");
    const std::uint32_t before = pkt.slotsHeld();
    ++pkt.flitsArrived;
    const bool grew = pkt.slotsHeld() > before;
    if (grew) {
        SlotListRegs &free = freeLists[q];
        damq_assert(free.slots > 0, "flit arrival into a full ",
                    name(), " partition");
        const SlotId s = slotListRemoveHead(pool, free);
        pool[s].headOfPacket = false;
        slotListAppendTail(pool, queue, s);
        --freeTotal;
    }
    return {&pkt, grew};
}

BufferModel::FlitEvent
StaticallyPartitionedBuffer::flitSentImpl(QueueKey key)
{
    damq_assert(layout().contains(key), "flitSent: bad queue ",
                key.out, ".vc", key.vc);
    const std::uint32_t q = layout().flatten(key);
    SlotListRegs &queue = queues[q];
    damq_assert(queue.head != kNullSlot && pool[queue.head].headOfPacket,
                "flitSent on an empty queue");
    Packet &pkt = pool[queue.head].packet;
    damq_assert(pkt.flitsSent < pkt.arrivedFlits(),
                "flitSent without an arrived flit to forward");
    damq_assert(pkt.flitsSent + 1 < pkt.lengthSlots,
                "flitSent would forward the tail (that is the pop)");
    const std::uint32_t before = pkt.slotsHeld();
    ++pkt.flitsSent;
    const bool shrank = pkt.slotsHeld() < before;
    if (shrank) {
        // Unlink the packet's first body slot (the successor of the
        // head slot, which keeps the record until the tail pop).
        const SlotId victim = pool[queue.head].next;
        damq_assert(victim != kNullSlot && !pool[victim].headOfPacket,
                    "flitSent would free another packet's head slot");
        pool[queue.head].next = pool[victim].next;
        if (queue.tail == victim)
            queue.tail = queue.head;
        pool[victim].next = kNullSlot;
        --queue.slots;
        slotListAppendTail(pool, freeLists[q], victim);
        ++freeTotal;
    }
    return {&pkt, shrank};
}

void
StaticallyPartitionedBuffer::forEachInQueue(
    QueueKey key, const PacketVisitor &visit) const
{
    damq_assert(layout().contains(key), "forEachInQueue: bad output ",
                key.out);
    const std::uint32_t q = layout().flatten(key);
    for (SlotId s = queues[q].head; s != kNullSlot; s = pool[s].next) {
        if (pool[s].headOfPacket)
            visit(pool[s].packet);
    }
}

void
StaticallyPartitionedBuffer::clear()
{
    BufferModel::clear();
    for (auto &slot : pool)
        slot = Slot{};
    for (std::uint32_t q = 0; q < numQueues(); ++q) {
        freeLists[q] = SlotListRegs{};
        queues[q] = SlotListRegs{};
        threadPartitionFreeList(q);
    }
    std::fill(packetsPerQueue.begin(), packetsPerQueue.end(), 0);
    freeTotal = capacitySlots();
    packets = 0;
}

std::vector<std::string>
StaticallyPartitionedBuffer::checkInvariants() const
{
    std::vector<std::string> violations;
    const auto report = [&violations](auto &&...parts) {
        violations.push_back(detail::concat(parts...));
    };

    std::vector<bool> seen(pool.size(), false);

    // Walk one partition's list defensively: a corrupted pointer
    // register must yield a report, never a crash or an endless
    // loop.  Returns the number of packet heads encountered.
    const auto walk = [&](const SlotListRegs &list,
                          const std::string &label,
                          std::uint32_t partition, bool is_free) {
        const SlotId lo = partition * perQueueCapacity;
        const SlotId hi = lo + perQueueCapacity;
        const QueueKey owner = layout().unflatten(partition);
        std::uint32_t slots = 0;
        std::uint32_t heads = 0;
        std::uint32_t tail_of_packet = 0; ///< body slots still owed
        SlotId prev = kNullSlot;
        for (SlotId s = list.head; s != kNullSlot; s = pool[s].next) {
            if (s >= pool.size()) {
                report(label, ": pointer register out of range (slot ",
                       s, ")");
                return heads;
            }
            if (s < lo || s >= hi) {
                report(label, ": slot ", s,
                       " belongs to another partition");
                return heads;
            }
            if (seen[s]) {
                report(label, ": slot ", s, " linked into two lists");
                return heads;
            }
            seen[s] = true;
            ++slots;
            if (is_free) {
                if (pool[s].headOfPacket)
                    report(label, ": free slot ", s,
                           " still marked as a packet head");
            } else if (pool[s].headOfPacket) {
                if (tail_of_packet != 0)
                    report(label, ": packet slot chain truncated at "
                           "slot ", s, " (", tail_of_packet,
                           " body slots missing)");
                if (pool[s].packet.outPort != owner.out)
                    report(label, ": packet ", pool[s].packet.id,
                           " queued under output ", owner.out,
                           " but routed to ", pool[s].packet.outPort);
                if (numVcs() > 1 && pool[s].packet.vc != owner.vc)
                    report(label, ": packet ", pool[s].packet.id,
                           " queued under vc ", owner.vc,
                           " but travelling on vc ",
                           pool[s].packet.vc);
                if (!pool[s].packet.valid())
                    report(label, ": invalid packet ",
                           pool[s].packet.id, " in partition ",
                           partition);
                tail_of_packet = pool[s].packet.slotsHeld() - 1;
                ++heads;
            } else {
                if (tail_of_packet == 0)
                    report(label, ": slot ", s,
                           " belongs to no packet (FIFO chain "
                           "broken)");
                else
                    --tail_of_packet;
            }
            prev = s;
            if (slots > perQueueCapacity) {
                report(label, ": cycle detected in slot list");
                return heads;
            }
        }
        if (tail_of_packet != 0)
            report(label, ": last packet is missing ", tail_of_packet,
                   " of its body slots");
        if (prev != list.tail)
            report(label,
                   ": tail register does not point at the last slot");
        if (slots != list.slots)
            report(label, ": list slot counter drifted (walked ", slots,
                   ", register holds ", list.slots, ")");
        return heads;
    };

    std::uint32_t total_packets = 0;
    std::uint32_t total_free = 0;
    for (std::uint32_t q = 0; q < numQueues(); ++q) {
        walk(freeLists[q],
             detail::concat("partition ", q, " free list"), q, true);
        const std::string label = detail::concat("queue ", q);
        const std::uint32_t heads = walk(queues[q], label, q, false);
        if (heads != packetsPerQueue[q])
            report(label, ": packet counter drifted (walked ", heads,
                   ", register holds ", packetsPerQueue[q], ")");
        if (queues[q].slots > perQueueCapacity)
            report("partition ", q, " over its static bound (",
                   queues[q].slots, " used > ", perQueueCapacity,
                   ")");
        total_packets += heads;
        total_free += freeLists[q].slots;
    }
    for (std::size_t s = 0; s < pool.size(); ++s) {
        if (!seen[s])
            report("slot ", s, " leaked from every list");
    }
    if (total_packets != packets)
        report("packet count accounting drifted (", total_packets,
               " stored, ", packets, " counted)");
    if (total_free != freeTotal)
        report("free slot accounting drifted (", total_free,
               " on the lists, ", freeTotal, " counted)");
    for (std::string &v : auditClassCensus())
        violations.push_back(std::move(v));
    for (std::string &v : auditReadyMask())
        violations.push_back(std::move(v));
    return violations;
}

bool
StaticallyPartitionedBuffer::faultLeakSlot()
{
    if (freeLists[0].slots == 0)
        return false;
    slotListRemoveHead(pool, freeLists[0]);
    --freeTotal;
    return true;
}

} // namespace damq
