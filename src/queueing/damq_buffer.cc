#include "queueing/damq_buffer.hh"

#include "common/logging.hh"

namespace damq {

DamqBuffer::DamqBuffer(QueueLayout queue_layout,
                       std::uint32_t capacity_slots)
    : BufferModel(queue_layout, capacity_slots),
      pool(capacity_slots),
      queues(queue_layout.numQueues())
{
    // Thread every slot onto the free list, in index order.
    for (SlotId s = 0; s < capacity_slots; ++s)
        appendTail(freeList, s);
}

void
DamqBuffer::fillAdmissionState(QueueKey key, AdmissionState &st) const
{
    // Dynamic allocation: any free slot can hold any packet, so the
    // domain is the whole free list, guarded by the escape-slot
    // debt (rationale with admissionFeasible() in
    // admission_policy.hh).
    st.poolFree = freeList.slots;
    st.guaranteeSlots = escapeSlotsOwed(key.vc);
    const ListRegs &queue = queueOf(key);
    st.queueSlots = queue.slots;
    st.queueLength = queue.packets;
}

void
DamqBuffer::pushImpl(const Packet &pkt)
{
    const QueueKey key{pkt.outPort, pkt.vc};
    damq_assert(layout().contains(key), "push: bad output port");
    damq_assert(pkt.lengthSlots >= 1, "push: zero-length packet");
    damq_assert(freeList.slots >= pkt.slotsHeld(),
                "push into a full DAMQ buffer");

    ListRegs &queue = queueOf(key);
    for (std::uint32_t i = 0; i < pkt.slotsHeld(); ++i) {
        const SlotId s = removeHead(freeList);
        pool[s].headOfPacket = (i == 0);
        if (i == 0)
            pool[s].packet = pkt;
        appendTail(queue, s);
    }
    ++queue.packets;
    ++packetCount;
    markReady(key);
}

const Packet *
DamqBuffer::peek(QueueKey key) const
{
    damq_assert(layout().contains(key), "peek: bad queue ", key.out,
                ".vc", key.vc);
    const ListRegs &queue = queueOf(key);
    if (queue.head == kNullSlot)
        return nullptr;
    const Slot &slot = pool[queue.head];
    damq_assert(slot.headOfPacket,
                "queue head register does not point at a packet head");
    return &slot.packet;
}

std::uint32_t
DamqBuffer::queueLength(QueueKey key) const
{
    damq_assert(layout().contains(key), "queueLength: bad queue ",
                key.out, ".vc", key.vc);
    return queueOf(key).packets;
}

Packet
DamqBuffer::popImpl(QueueKey key)
{
    const Packet *head = DamqBuffer::peek(key);
    damq_assert(head != nullptr, "pop(", key.out, ") from empty queue");
    const Packet pkt = *head;

    ListRegs &queue = queueOf(key);
    for (std::uint32_t i = 0; i < pkt.slotsHeld(); ++i) {
        const SlotId s = removeHead(queue);
        damq_assert((i == 0) == pool[s].headOfPacket,
                    "packet slot chain corrupted");
        pool[s].headOfPacket = false;
        appendTail(freeList, s);
    }
    --queue.packets;
    --packetCount;
    if (queue.packets == 0)
        markIdle(key);
    return pkt;
}

BufferModel::FlitEvent
DamqBuffer::flitArrivedImpl(QueueKey key)
{
    damq_assert(layout().contains(key), "flitArrived: bad queue ",
                key.out, ".vc", key.vc);
    ListRegs &queue = queueOf(key);
    damq_assert(queue.head != kNullSlot,
                "flitArrived on an empty queue");
    // The streaming packet is the youngest of its queue; its record
    // lives in the last head slot of the chain.
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
        damq_assert(freeList.slots > 0,
                    "flit arrival into a full DAMQ buffer");
        const SlotId s = removeHead(freeList);
        pool[s].headOfPacket = false;
        // The queue tail is the youngest packet's last slot, so
        // appending extends exactly this packet's run.
        appendTail(queue, s);
    }
    return {&pkt, grew};
}

BufferModel::FlitEvent
DamqBuffer::flitSentImpl(QueueKey key)
{
    damq_assert(layout().contains(key), "flitSent: bad queue ",
                key.out, ".vc", key.vc);
    ListRegs &queue = queueOf(key);
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
        // Free the packet's first body slot; the head slot keeps the
        // record until the pop at tail send.
        const SlotId victim = removeAfter(queue, queue.head);
        damq_assert(!pool[victim].headOfPacket,
                    "flitSent would free another packet's head slot");
        appendTail(freeList, victim);
    }
    return {&pkt, shrank};
}

void
DamqBuffer::clear()
{
    BufferModel::clear();
    freeList = ListRegs{};
    for (auto &queue : queues)
        queue = ListRegs{};
    for (auto &slot : pool)
        slot = Slot{};
    for (SlotId s = 0; s < capacitySlots(); ++s)
        appendTail(freeList, s);
    packetCount = 0;
}

void
DamqBuffer::forEachInQueue(QueueKey key, const PacketVisitor &visit) const
{
    damq_assert(layout().contains(key), "forEachInQueue: bad queue ",
                key.out, ".vc", key.vc);
    for (SlotId s = queueOf(key).head; s != kNullSlot; s = pool[s].next) {
        if (pool[s].headOfPacket)
            visit(pool[s].packet);
    }
}

std::vector<Packet>
DamqBuffer::snapshotQueue(QueueKey key) const
{
    std::vector<Packet> result;
    result.reserve(queueOf(key).packets);
    forEachInQueue(key,
                   [&result](const Packet &pkt) { result.push_back(pkt); });
    return result;
}

bool
DamqBuffer::faultLeakSlot()
{
    if (freeList.slots == 0)
        return false;
    removeHead(freeList);
    return true;
}

void
DamqBuffer::testCorruptNextPointer(SlotId s, SlotId next)
{
    damq_assert(s < pool.size(),
                "testCorruptNextPointer: slot out of range");
    pool[s].next = next;
}

std::vector<std::string>
DamqBuffer::checkInvariants() const
{
    std::vector<std::string> violations;
    const auto report = [&violations](auto &&...parts) {
        violations.push_back(detail::concat(parts...));
    };

    std::vector<bool> seen(pool.size(), false);

    // Walk one list defensively: a corrupted pointer register must
    // yield a report, never a crash or an endless loop.  Returns the
    // number of packet heads encountered.
    const auto walk = [&](const ListRegs &list, const std::string &label,
                          bool is_free) {
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
                if (pool[s].packet.outPort >= numOutputs())
                    report(label, ": stored packet has bad output "
                           "port ", pool[s].packet.outPort);
                tail_of_packet = pool[s].packet.slotsHeld() - 1;
                ++heads;
            } else {
                // Body slot: must be owed to the preceding head —
                // this is what keeps per-queue FIFO order intact.
                if (tail_of_packet == 0)
                    report(label, ": slot ", s,
                           " belongs to no packet (FIFO chain "
                           "broken)");
                else
                    --tail_of_packet;
            }
            prev = s;
            if (slots > pool.size()) {
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

    walk(freeList, "free list", true);
    std::uint32_t total_packets = 0;
    std::uint32_t total_used = 0;
    std::vector<std::uint32_t> vc_heads(numVcs(), 0);
    for (std::uint32_t q = 0; q < numQueues(); ++q) {
        const std::string label = detail::concat("queue ", q);
        const std::uint32_t heads = walk(queues[q], label, false);
        if (heads != queues[q].packets)
            report(label, ": packet counter drifted (walked ", heads,
                   ", register holds ", queues[q].packets, ")");
        total_packets += heads;
        total_used += queues[q].slots;
        vc_heads[layout().unflatten(q).vc] += heads;
    }
    for (std::size_t s = 0; s < pool.size(); ++s) {
        if (!seen[s])
            report("slot ", s, " leaked from every list");
    }
    if (total_packets != packetCount)
        report("buffer packet counter drifted (", total_packets,
               " walked, ", packetCount, " counted)");
    if (total_used + freeList.slots != capacitySlots())
        report("slot conservation violated (", total_used, " used + ",
               freeList.slots, " free != ", capacitySlots(),
               " capacity)");
    if (numVcs() > 1) {
        // Multi-VC extras, gated so single-VC reports (which the
        // corruption tests count exactly) stay word-for-word stable.
        for (std::uint32_t q = 0; q < numQueues(); ++q) {
            const QueueKey key = layout().unflatten(q);
            const SlotId h = queues[q].head;
            if (h == kNullSlot || h >= pool.size() ||
                !pool[h].headOfPacket)
                continue;
            const Packet &head = pool[h].packet;
            if (QueueKey{head.outPort, head.vc} != key)
                report("queue ", q, ": head packet keyed to queue ",
                       layout().flatten({head.outPort, head.vc}));
        }
        for (VcId vc = 0; vc < numVcs(); ++vc) {
            if (vc_heads[vc] != vcPackets(vc))
                report("vc ", vc, " census drifted (walked ",
                       vc_heads[vc], ", counted ", vcPackets(vc), ")");
        }
        std::uint32_t empty_vcs = 0;
        for (VcId vc = 0; vc < numVcs(); ++vc)
            empty_vcs += vcPackets(vc) == 0 ? 1 : 0;
        if (freeList.slots < empty_vcs)
            report("escape-slot guarantee violated (", freeList.slots,
                   " free < ", empty_vcs, " empty VCs)");
    }
    for (std::string &v : auditClassCensus())
        violations.push_back(std::move(v));
    for (std::string &v : auditReadyMask())
        violations.push_back(std::move(v));
    return violations;
}

} // namespace damq
