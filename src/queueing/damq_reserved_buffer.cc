#include "queueing/damq_reserved_buffer.hh"

#include "common/logging.hh"

namespace damq {

DamqReservedBuffer::DamqReservedBuffer(QueueLayout queue_layout,
                                       std::uint32_t capacity_slots)
    : BufferModel(queue_layout, capacity_slots),
      inner(queue_layout, capacity_slots)
{
    if (capacity_slots < numQueues()) {
        if (numVcs() > 1) {
            damq_fatal("a reserved-slot DAMQ needs at least one slot "
                       "per queue (got ", capacity_slots,
                       " slots for ", numQueues(), " queues = ",
                       numOutputs(), " outputs x ", numVcs(), " VCs)");
        }
        damq_fatal("a reserved-slot DAMQ needs at least one slot "
                   "per output (got ", capacity_slots, " slots for ",
                   numOutputs(), " outputs)");
    }
}

void
DamqReservedBuffer::fillAdmissionState(QueueKey key,
                                       AdmissionState &st) const
{
    // The guarantee is one slot per *other* queue that is empty:
    // hot-spot traffic can never squeeze a destination out (the
    // same inequality shape as the escape rule — see
    // admissionFeasible() in admission_policy.hh).
    const std::uint32_t mine = layout().flatten(key);
    std::uint32_t reserved_for_others = 0;
    for (std::uint32_t q = 0; q < numQueues(); ++q) {
        if (q != mine &&
            inner.queueLength(layout().unflatten(q)) == 0)
            ++reserved_for_others;
    }
    st.poolFree = inner.freeSlotCount();
    st.guaranteeSlots = reserved_for_others;
    st.queueSlots = inner.queueSlotsIn(key);
    st.queueLength = inner.queueLength(key);
}

void
DamqReservedBuffer::clear()
{
    BufferModel::clear();
    inner.clear();
}

std::vector<std::string>
DamqReservedBuffer::checkInvariants() const
{
    std::vector<std::string> violations = inner.checkInvariants();
    for (std::string &v : auditReadyMask())
        violations.push_back(std::move(v));

    std::uint32_t empty_queues = 0;
    for (std::uint32_t q = 0; q < numQueues(); ++q) {
        if (inner.queueLength(layout().unflatten(q)) == 0)
            ++empty_queues;
    }
    if (inner.freeSlotCount() < empty_queues) {
        violations.push_back(detail::concat(
            "reserved-slot guarantee violated: ", empty_queues,
            " empty queues but only ", inner.freeSlotCount(),
            " free slots"));
    }
    return violations;
}

} // namespace damq
