#include "queueing/buffer_model.hh"

#include <algorithm>

#include "common/enum_parse.hh"
#include "common/logging.hh"

namespace damq {

namespace {

constexpr EnumName<BufferType> kBufferTypeNames[] = {
    {BufferType::Fifo, "fifo"},   {BufferType::Samq, "samq"},
    {BufferType::Safc, "safc"},   {BufferType::Damq, "damq"},
    {BufferType::DamqR, "damqr"}, {BufferType::Voq, "voq"},
};

} // namespace

const char *
bufferTypeName(BufferType type)
{
    switch (type) {
      case BufferType::Fifo: return "FIFO";
      case BufferType::Samq: return "SAMQ";
      case BufferType::Safc: return "SAFC";
      case BufferType::Damq: return "DAMQ";
      case BufferType::DamqR: return "DAMQR";
      case BufferType::Voq: return "VOQ";
    }
    damq_panic("unknown BufferType ", static_cast<int>(type));
}

std::optional<BufferType>
tryBufferTypeFromString(const std::string &name)
{
    return parseEnumName(std::string_view(name), kBufferTypeNames);
}

BufferModel::BufferModel(QueueLayout queue_layout,
                         std::uint32_t capacity_slots)
    : queues(queue_layout), capacity(capacity_slots),
      vcCensus(queue_layout.vcs, 0), readyBits(&readyInline),
      readyWords((queue_layout.numQueues() + 63) / 64)
{
    // The object is neither copyable nor movable, so pointing at
    // the inline word is safe; wide layouts spill to the heap.
    if (readyWords > 1) {
        readyHeap.assign(readyWords, 0);
        readyBits = readyHeap.data();
    }
    damq_assert(queues.outputs > 0,
                "buffer needs at least one output queue");
    damq_assert(queues.vcs > 0,
                "buffer needs at least one virtual channel");
    damq_assert(capacity_slots > 0, "buffer needs at least one slot");
    // The escape-slot rule's base case: with every VC empty a
    // shared pool owes vcs - 1 slots plus one for the arriving
    // packet, so a smaller pool could never accept anything.
    damq_assert(capacity_slots >= queues.vcs,
                "buffer needs at least one slot per virtual channel "
                "(", queues.vcs, " VCs, ", capacity_slots, " slots)");
}

AdmissionDecision
BufferModel::admit(QueueKey key, std::uint32_t len,
                   std::uint8_t cls) const
{
    damq_assert(queues.contains(key), "canAccept: bad queue ",
                key.out, ".vc", key.vc);
    AdmissionState st;
    st.capacity = capacity;
    fillAdmissionState(key, st);
    if (policy->wantsHeadAge() && admissionClock) {
        if (const Packet *head = peek(key)) {
            st.headWaitAge = *admissionClock > head->generatedAt
                                 ? *admissionClock - head->generatedAt
                                 : 0;
        }
    }
    st.classSlots = classCensus[cls];
    return policy->admit(st, AdmissionRequest{key, len, cls});
}

bool
BufferModel::canHold(QueueKey key, std::uint32_t len) const
{
    damq_assert(queues.contains(key), "canHold: bad queue ", key.out,
                ".vc", key.vc);
    AdmissionState st;
    st.capacity = capacity;
    fillAdmissionState(key, st);
    return admissionFeasible(st, len);
}

void
BufferModel::clear()
{
    std::fill(vcCensus.begin(), vcCensus.end(), 0);
    classCensus.fill(0);
    fullyArrivedCount = 0;
    std::fill(readyBits, readyBits + readyWords, 0);
    readyQueues = 0;
    if (probe)
        probe->onClear(*this);
}

std::vector<std::string>
BufferModel::auditReadyMask() const
{
    std::vector<std::string> violations;
    std::uint32_t set = 0;
    for (std::uint32_t q = 0; q < numQueues(); ++q) {
        const QueueKey key = queues.unflatten(q);
        const bool ready = queueReady(key);
        const bool head = peek(key) != nullptr;
        set += ready ? 1 : 0;
        if (ready != head)
            violations.push_back(detail::concat(
                "queue ", q, ": ready bit ", ready ? "set" : "clear",
                " but the queue ", head ? "has" : "has no", " head"));
    }
    if (set != readyQueues)
        violations.push_back(detail::concat(
            "ready-queue counter drifted (", set, " bits set, ",
            readyQueues, " counted)"));
    return violations;
}

std::vector<std::string>
BufferModel::auditClassCensus() const
{
    bool multi_class = false;
    for (std::uint32_t cls = 1; cls < kMaxTrafficClasses; ++cls)
        multi_class = multi_class || classCensus[cls] != 0;
    if (!multi_class)
        return {};
    std::array<std::uint64_t, kMaxTrafficClasses> walked{};
    for (std::uint32_t q = 0; q < numQueues(); ++q) {
        forEachInQueue(queues.unflatten(q), [&walked](const Packet &p) {
            walked[p.trafficClass] += p.slotsHeld();
        });
    }
    std::vector<std::string> violations;
    for (std::uint32_t cls = 0; cls < kMaxTrafficClasses; ++cls) {
        if (walked[cls] != classCensus[cls]) {
            violations.push_back(detail::concat(
                "class ", cls, " slot census drifted (walked ",
                walked[cls], ", counted ", classCensus[cls], ")"));
        }
    }
    return violations;
}

void
BufferModel::debugValidate() const
{
    const std::vector<std::string> violations = checkInvariants();
    if (!violations.empty())
        damq_panic(name(), " invariant violated: ", violations.front(),
                   violations.size() > 1 ? " (and more)" : "");
}

} // namespace damq
