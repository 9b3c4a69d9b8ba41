#include "queueing/fifo_buffer.hh"

#include "common/logging.hh"

namespace damq {

FifoBuffer::FifoBuffer(QueueLayout queue_layout,
                       std::uint32_t capacity_slots)
    : BufferModel(queue_layout, capacity_slots),
      lanes(queue_layout.vcs)
{
}

void
FifoBuffer::fillAdmissionState(QueueKey key, AdmissionState &st) const
{
    // Shared pool: the free space is whatever the lanes left, and
    // the escape-slot debt guards the other VCs (rationale with
    // admissionFeasible() in admission_policy.hh).
    st.poolFree = capacitySlots() - used;
    st.guaranteeSlots = escapeSlotsOwed(key.vc);
    if (admissionPolicy().wantsQueueOccupancy()) {
        // The lane is the queue (one FIFO per VC), so a dynamic
        // threshold throttles the whole lane — the organization has
        // no finer-grained queue to meter.
        std::uint32_t slots = 0;
        for (const Packet &pkt : lanes[key.vc])
            slots += pkt.slotsHeld();
        st.queueSlots = slots;
        st.queueLength =
            static_cast<std::uint32_t>(lanes[key.vc].size());
    }
}

void
FifoBuffer::pushImpl(const Packet &pkt)
{
    damq_assert(layout().contains({pkt.outPort, pkt.vc}),
                "push: bad output port");
    damq_assert(used + pkt.slotsHeld() <= capacitySlots(),
                "push into a full FIFO buffer");
    std::deque<Packet> &lane = lanes[pkt.vc];
    // Only the head-of-line packet's queue is ready.
    if (lane.empty())
        markReady({pkt.outPort, pkt.vc});
    lane.push_back(pkt);
    used += pkt.slotsHeld();
    ++packetsStored;
}

const Packet *
FifoBuffer::peek(QueueKey key) const
{
    damq_assert(layout().contains(key), "peek: bad output ", key.out);
    const std::deque<Packet> &lane = lanes[key.vc];
    if (lane.empty() || lane.front().outPort != key.out)
        return nullptr;
    return &lane.front();
}

std::uint32_t
FifoBuffer::queueLength(QueueKey key) const
{
    // The lane is one queue; it only counts toward the output its
    // head-of-line packet is routed to.
    if (!FifoBuffer::peek(key))
        return 0;
    return static_cast<std::uint32_t>(lanes[key.vc].size());
}

Packet
FifoBuffer::popImpl(QueueKey key)
{
    const Packet *head = FifoBuffer::peek(key);
    damq_assert(head != nullptr,
                "pop(", key.out, ") but head-of-line is elsewhere");
    Packet pkt = *head;
    std::deque<Packet> &lane = lanes[key.vc];
    lane.pop_front();
    used -= pkt.slotsHeld();
    --packetsStored;
    // The next packet in the lane, if any, becomes the head.
    markIdle(key);
    if (!lane.empty())
        markReady({lane.front().outPort, key.vc});
    return pkt;
}

BufferModel::FlitEvent
FifoBuffer::flitArrivedImpl(QueueKey key)
{
    damq_assert(layout().contains(key), "flitArrived: bad queue ",
                key.out, ".vc", key.vc);
    std::deque<Packet> &lane = lanes[key.vc];
    // Flits arrive in order on the buffer's one feeding link, so the
    // streaming packet is always the youngest entry of its lane.
    damq_assert(!lane.empty() && lane.back().outPort == key.out,
                "flitArrived(", key.out, ".vc", key.vc,
                ") but the youngest packet is elsewhere");
    Packet &pkt = lane.back();
    damq_assert(pkt.flitsArrived > 0 &&
                    pkt.flitsArrived < pkt.lengthSlots,
                "flit arrival on a fully arrived packet");
    const std::uint32_t before = pkt.slotsHeld();
    ++pkt.flitsArrived;
    const bool grew = pkt.slotsHeld() > before;
    if (grew) {
        damq_assert(used < capacitySlots(),
                    "flit arrival into a full FIFO buffer");
        ++used;
    }
    return {&pkt, grew};
}

BufferModel::FlitEvent
FifoBuffer::flitSentImpl(QueueKey key)
{
    const Packet *head = FifoBuffer::peek(key);
    damq_assert(head != nullptr, "flitSent(", key.out,
                ") but head-of-line is elsewhere");
    Packet &pkt = lanes[key.vc].front();
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
FifoBuffer::forEachInQueue(QueueKey key, const PacketVisitor &visit) const
{
    damq_assert(layout().contains(key), "forEachInQueue: bad output ",
                key.out);
    // One shared lane per VC: the packets "queued for out" are the
    // stored packets routed to it, in arrival order.
    for (const Packet &pkt : lanes[key.vc]) {
        if (pkt.outPort == key.out)
            visit(pkt);
    }
}

void
FifoBuffer::clear()
{
    BufferModel::clear();
    for (std::deque<Packet> &lane : lanes)
        lane.clear();
    used = 0;
    packetsStored = 0;
}

std::vector<std::string>
FifoBuffer::checkInvariants() const
{
    std::vector<std::string> violations;
    std::uint32_t slots = 0;
    std::uint32_t packets = 0;
    for (VcId vc = 0; vc < numVcs(); ++vc) {
        for (const auto &pkt : lanes[vc]) {
            if (!pkt.valid())
                violations.push_back(detail::concat(
                    "invalid packet ", pkt.id, " stored in FIFO"));
            if (pkt.outPort >= numOutputs())
                violations.push_back(detail::concat(
                    "stored packet has bad output port ", pkt.outPort));
            if (numVcs() > 1 && pkt.vc != vc)
                violations.push_back(detail::concat(
                    "packet on vc ", pkt.vc, " stored in lane ", vc));
            slots += pkt.slotsHeld();
            ++packets;
        }
        if (numVcs() > 1 &&
            lanes[vc].size() != vcPackets(vc))
            violations.push_back(detail::concat(
                "vc ", vc, " census drifted (", lanes[vc].size(),
                " stored, ", vcPackets(vc), " counted)"));
    }
    if (slots != used)
        violations.push_back(detail::concat(
            "FIFO slot accounting drifted (", slots, " stored, ",
            used, " counted)"));
    if (packets != packetsStored)
        violations.push_back(detail::concat(
            "FIFO packet counter drifted (", packets, " stored, ",
            packetsStored, " counted)"));
    if (used > capacitySlots())
        violations.push_back(detail::concat(
            "FIFO over capacity (", used, " used > ", capacitySlots(),
            ")"));
    for (std::string &v : auditClassCensus())
        violations.push_back(std::move(v));
    for (std::string &v : auditReadyMask())
        violations.push_back(std::move(v));
    return violations;
}

bool
FifoBuffer::faultLeakSlot()
{
    if (used >= capacitySlots())
        return false;
    ++used;
    return true;
}

} // namespace damq
