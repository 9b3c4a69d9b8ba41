#include "switchsim/switch_model.hh"

#include "common/logging.hh"
#include "queueing/buffer_factory.hh"

namespace damq {

SwitchModel::SwitchModel(PortId num_ports, BufferType buffer_type,
                         std::uint32_t slots_per_buffer,
                         ArbitrationPolicy arbitration,
                         std::uint32_t stale_threshold, VcId num_vcs,
                         const SharingPolicyConfig &sharing)
    : ports(num_ports), vcs(num_vcs), type(buffer_type),
      arbiter(makeArbiter(arbitration, num_ports, num_ports,
                          stale_threshold, num_vcs))
{
    damq_assert(num_ports > 0, "switch needs at least one port");
    damq_assert(num_vcs > 0, "switch needs at least one VC");
    const QueueLayout layout{num_ports, num_vcs};
    buffers.reserve(num_ports);
    for (PortId input = 0; input < num_ports; ++input) {
        buffers.push_back(makeBuffer(buffer_type, layout,
                                     slots_per_buffer, sharing));
        bufferPtrs.push_back(buffers.back().get());
    }
}

bool
SwitchModel::canAccept(PortId input, QueueKey out,
                       std::uint32_t len) const
{
    damq_assert(input < ports, "canAccept: bad input port ", input);
    return buffers[input]->canAccept(out, len);
}

bool
SwitchModel::canAcceptClass(PortId input, QueueKey out,
                            std::uint32_t len,
                            std::uint8_t traffic_class) const
{
    damq_assert(input < ports, "canAccept: bad input port ", input);
    return buffers[input]->canAcceptClass(out, len, traffic_class);
}

bool
SwitchModel::tryReceive(PortId input, const Packet &pkt)
{
    damq_assert(input < ports, "tryReceive: bad input port ", input);
    damq_assert(pkt.outPort < ports, "tryReceive: unrouted packet");
    // Admission is by slots the record occupies *now*: the whole
    // packet in the packet-synchronized modes, just the head flit's
    // slot when a flit-level mode delivers a partial record (the
    // rest of the allocation was checked at grant time by the
    // FlowControlScheme's headSlotsNeeded rule).
    const QueueKey key{pkt.outPort, pkt.vc};
    if (!buffers[input]->canAcceptClass(key, pkt.slotsHeld(),
                                        pkt.trafficClass)) {
        ++switchStats.discarded;
        return false;
    }
    buffers[input]->push(pkt);
    ++switchStats.received;
    return true;
}

bool
SwitchModel::receiveGranted(PortId input, const Packet &pkt)
{
    damq_assert(input < ports, "receiveGranted: bad input port ",
                input);
    damq_assert(pkt.outPort < ports,
                "receiveGranted: unrouted packet");
    const QueueKey key{pkt.outPort, pkt.vc};
    if (!buffers[input]->canHold(key, pkt.slotsHeld())) {
        ++switchStats.discarded;
        return false;
    }
    buffers[input]->push(pkt);
    ++switchStats.received;
    return true;
}

GrantList
SwitchModel::arbitrate(const CanSendFn &can_send)
{
    GrantList grants;
    arbitrateInto(can_send, grants);
    return grants;
}

std::vector<Packet>
SwitchModel::popGranted(const GrantList &grants)
{
    std::vector<Packet> popped;
    popped.reserve(grants.size());
    for (const Grant &g : grants) {
        damq_assert(g.input < ports && g.output < ports,
                    "grant outside switch geometry");
        popped.push_back(buffers[g.input]->pop(g.queue()));
        ++switchStats.transmitted;
    }
    return popped;
}

void
SwitchModel::popGrantedInto(const GrantList &grants,
                            std::vector<Packet> &sent)
{
    sent.clear();
    for (const Grant &g : grants) {
        damq_assert(g.input < ports && g.output < ports,
                    "grant outside switch geometry");
        sent.push_back(buffers[g.input]->pop(g.queue()));
        ++switchStats.transmitted;
    }
}

std::vector<Packet>
SwitchModel::transmit(const CanSendFn &can_send)
{
    std::vector<Packet> sent;
    transmitInto(can_send, sent);
    return sent;
}

void
SwitchModel::transmitInto(const CanSendFn &can_send,
                          std::vector<Packet> &sent)
{
    arbitrateInto(can_send, grantScratch);
    sent.clear();
    for (const Grant &g : grantScratch) {
        damq_assert(g.input < ports && g.output < ports,
                    "grant outside switch geometry");
        sent.push_back(buffers[g.input]->pop(g.queue()));
        ++switchStats.transmitted;
    }
}

std::uint32_t
SwitchModel::totalUsedSlots() const
{
    std::uint32_t total = 0;
    for (const auto &buf : buffers)
        total += buf->usedSlots();
    return total;
}

std::uint32_t
SwitchModel::totalPackets() const
{
    std::uint32_t total = 0;
    for (const auto &buf : buffers)
        total += buf->totalPackets();
    return total;
}

void
SwitchModel::reset()
{
    for (auto &buf : buffers)
        buf->clear();
    arbiter->reset();
    switchStats.reset();
}

std::vector<std::string>
SwitchModel::checkInvariants() const
{
    std::vector<std::string> violations;
    for (PortId input = 0; input < ports; ++input) {
        for (const std::string &v : buffers[input]->checkInvariants())
            violations.push_back(detail::concat("in", input, ": ", v));
    }
    return violations;
}

bool
SwitchModel::faultLeakSlot(PortId input)
{
    damq_assert(input < ports, "faultLeakSlot: bad input ", input);
    return buffers[input]->faultLeakSlot();
}

} // namespace damq
