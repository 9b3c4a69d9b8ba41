/**
 * @file
 * The common interface of the four input-buffer organizations the
 * paper compares (Section 2, Figure 1): FIFO, SAMQ, SAFC and DAMQ.
 *
 * A buffer sits at one input port of an n x n switch and holds
 * packets that have already been routed, i.e., whose local output
 * port is known.  The interface exposes exactly what the crossbar
 * arbiter of Section 4 needs:
 *
 *   - admission control (`canAccept` / `push`);
 *   - per-queue visibility (`peek` / `queueLength`) — the paper's
 *     arbitration policy transmits "from the longest queue";
 *   - the read-port constraint (`maxReadsPerCycle`) that
 *     distinguishes SAFC (fully connected, n reads) from the
 *     single-read-port FIFO/SAMQ/DAMQ organizations.
 *
 * Queues are addressed by QueueKey (output port x virtual channel;
 * see queue_key.hh).  The paper's evaluation is the single-VC
 * special case: a bare PortId converts to QueueKey{out, vc 0}, so
 * those call sites read — and behave — exactly as before.  Multi-VC
 * layouts add one rule: a shared-pool buffer keeps one free
 * *escape slot* per empty VC (escapeSlotsOwed), so no virtual
 * channel can be starved of buffer space by the others — the
 * property the dateline deadlock-freedom argument needs.
 */

#ifndef DAMQ_QUEUEING_BUFFER_MODEL_HH
#define DAMQ_QUEUEING_BUFFER_MODEL_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "queueing/admission_policy.hh"
#include "queueing/packet.hh"
#include "queueing/queue_key.hh"

namespace damq {

/** The paper's four buffer organizations plus the follow-ups. */
enum class BufferType
{
    Fifo, ///< single first-in-first-out queue, shared pool
    Samq, ///< statically allocated multi-queue, single read port
    Safc, ///< statically allocated fully connected, n read ports
    Damq, ///< dynamically allocated multi-queue (the contribution)
    /**
     * DAMQ with one reserved slot per output queue — the 1992
     * follow-up fix for the hot-spot monopolization Section 4.2.1
     * reports.
     */
    DamqR,
    /**
     * Virtual-output-queue organization: DAMQ storage with a
     * configurable number of *private* slots guaranteed to every
     * (output, VC) queue out of the shared pool — booksim's hybrid
     * private/shared VOQ buffer.  Degenerates to DAMQR at one
     * private slot per queue.
     */
    Voq
};

/** Human-readable name ("FIFO", "SAMQ", ...). */
const char *bufferTypeName(BufferType type);

/**
 * Parse a case-insensitive buffer-type name.  Returns std::nullopt
 * on an unknown name so command-line front-ends can print their own
 * usage text and exit cleanly.
 */
std::optional<BufferType> tryBufferTypeFromString(
    const std::string &name);

class BufferModel;

/**
 * Observer interface for buffer telemetry.  The obs library's
 * QueueProbe implements it; the queueing library itself depends on
 * nothing above it.  A buffer with no probe attached (the default)
 * pays exactly one predictable branch per push/pop, so telemetry is
 * zero-overhead when off.
 */
class BufferProbe
{
  public:
    virtual ~BufferProbe() = default;

    /** @p pkt was just committed into @p buffer. */
    virtual void onEnqueue(const BufferModel &buffer,
                           const Packet &pkt) = 0;

    /** @p pkt was just removed from @p buffer's queue @p key. */
    virtual void onDequeue(const BufferModel &buffer, QueueKey key,
                           const Packet &pkt) = 0;

    /** @p buffer dropped all contents (reset between runs). */
    virtual void onClear(const BufferModel &buffer) = 0;

    /**
     * A flit arrived at or left @p buffer without crossing a packet
     * boundary (flitArrived / flitSent under flit-level switching),
     * possibly changing the slot occupancy.  Default no-op so
     * packet-mode probes are unaffected; QueueProbe overrides it to
     * sample occupancy between the enqueue and dequeue edges.
     */
    virtual void onFlitProgress(const BufferModel &buffer)
    {
        (void)buffer;
    }
};

/**
 * Abstract input-port buffer.  See the file comment for the role of
 * each operation.  All sizes are measured in slots.
 *
 * push() and pop() are non-virtual entry points that delegate to
 * the pushImpl()/popImpl() of the concrete organization and then
 * notify the attached BufferProbe (if any) — the telemetry hook
 * cannot be forgotten by an implementation and costs one
 * branch-on-null when disabled.  The base also tracks the per-VC
 * packet census here, so every organization shares one definition
 * of "this VC is empty" for the escape-slot rule.
 */
class BufferModel
{
  public:
    /** @param queue_layout   queues the buffer distinguishes
     *                        (outputs x VCs; a bare output count
     *                        means one VC).
     *  @param capacity_slots total storage, in slots. */
    BufferModel(QueueLayout queue_layout, std::uint32_t capacity_slots);

    virtual ~BufferModel() = default;

    BufferModel(const BufferModel &) = delete;
    BufferModel &operator=(const BufferModel &) = delete;

    /** Number of output ports the buffer distinguishes. */
    PortId numOutputs() const { return queues.outputs; }

    /** Number of virtual channels per output (1 = the paper). */
    VcId numVcs() const { return queues.vcs; }

    /** Total number of queues (outputs x VCs). */
    std::uint32_t numQueues() const { return queues.numQueues(); }

    /** Shape of the queue space. */
    QueueLayout layout() const { return queues; }

    /** Total storage in slots. */
    std::uint32_t capacitySlots() const { return capacity; }

    /** Slots holding committed packets. */
    virtual std::uint32_t usedSlots() const = 0;

    /** Committed packets currently stored. */
    virtual std::uint32_t totalPackets() const = 0;

    /**
     * Resident packets whose every flit has arrived here.  Equal to
     * totalPackets() in packet mode, where arrivals are atomic.
     * Under flit-level switching a streaming packet is resident in
     * two buffers at once (its tail upstream, its head downstream),
     * but exactly one of those records is fully arrived at any
     * phase boundary — so end-to-end packet accounting sums this,
     * not totalPackets().  Maintained by the push/pop/flitArrived
     * wrappers; organizations need no per-type code.
     */
    std::uint32_t fullyResidentPackets() const
    {
        return fullyArrivedCount;
    }

    /** Committed packets currently stored on VC @p vc. */
    std::uint32_t vcPackets(VcId vc) const { return vcCensus[vc]; }

    /** True iff no committed packets are stored. */
    bool empty() const { return totalPackets() == 0; }

    /**
     * Ready-queue mask, the behavioral model of the DAMQ's per-queue
     * head registers: bit QueueLayout::flatten(key) is set iff
     * peek(key) is non-null (for a FIFO lane, only its head-of-line
     * packet's queue).  readyMaskWords() 64-bit words, low bit
     * first; bits past numQueues() stay clear.  Every organization
     * keeps it current in push/pop/clear (flit arrivals and sends
     * never change whether a queue has a head), so the arbiter can
     * visit just the queues that hold packets.
     */
    const std::uint64_t *readyMask() const { return readyBits; }

    /** Words in readyMask(): ceil(numQueues() / 64). */
    std::uint32_t readyMaskWords() const { return readyWords; }

    /** Whether any queue has a head, i.e. the buffer is non-empty. */
    bool anyReady() const { return readyQueues != 0; }

    /** Whether queue @p key's ready bit is set. */
    bool queueReady(QueueKey key) const
    {
        const std::uint32_t f = queues.flatten(key);
        return (readyBits[f >> 6] >> (f & 63)) & 1u;
    }

    /**
     * Whether a packet of @p len slots routed to queue @p key could
     * be accepted right now.  Non-virtual: the base snapshots the
     * organization's state via fillAdmissionState() and delegates
     * the verdict to the installed AdmissionPolicy (StaticAdmission
     * by default — byte-identical to the historical per-type rules:
     * each organization reports its guarantee toward the other
     * queues, e.g. the escape-slot debt of the shared pools).
     */
    bool canAccept(QueueKey key, std::uint32_t len) const
    {
        return admit(key, len, 0).accept;
    }

    /** canAccept() for a packet of traffic class @p cls. */
    bool canAcceptClass(QueueKey key, std::uint32_t len,
                        std::uint8_t cls) const
    {
        return admit(key, len, cls).accept;
    }

    /** The full admission verdict (see canAccept). */
    AdmissionDecision admit(QueueKey key, std::uint32_t len,
                            std::uint8_t cls) const;

    /**
     * Whether the pool physically has room for @p len slots in
     * queue @p key under the organization's *static* rule alone,
     * ignoring any installed dynamic sharing policy.  This is the
     * commit-side check for flow-controlled hops: the policy
     * verdict was taken upstream at grant time against cycle-start
     * state, and the pops that can land between grant and commit
     * only free space — feasibility is monotone under pops, while
     * a delay-driven policy verdict is not (popping an aged head
     * re-tightens the threshold mid-cycle).
     */
    bool canHold(QueueKey key, std::uint32_t len) const;

    /**
     * Install a sharing policy (shared across buffers); nullptr
     * restores the default StaticAdmission.  The caller must only
     * install non-static policies on organizations with a shared
     * pool (the factory enforces this).
     */
    void setAdmissionPolicy(
        std::shared_ptr<const AdmissionPolicy> p)
    {
        ownedPolicy = std::move(p);
        policy = ownedPolicy ? ownedPolicy.get()
                             : &StaticAdmission::instance();
    }

    /** The active admission policy (never null). */
    const AdmissionPolicy &admissionPolicy() const { return *policy; }

    /**
     * Attach the simulator's cycle counter so delay-driven policies
     * can read head-of-line wait ages; the pointee must outlive the
     * buffer (the engines point at their own member counter).
     * nullptr detaches.
     */
    void attachAdmissionClock(const Cycle *clock)
    {
        admissionClock = clock;
    }

    /** Slots held buffer-wide by traffic class @p cls. */
    std::uint32_t classSlots(std::uint8_t cls) const
    {
        return classCensus[cls];
    }

    /**
     * Store @p pkt (whose outPort, vc and lengthSlots must be set).
     * Taken by reference: the 64-byte Packet is of ABI class MEMORY,
     * so a by-value signature forces the caller to copy it into the
     * argument area right after building it field by field — a
     * second full copy plus store-forwarding stalls that measured
     * ~50% slower per push on the micro benchmark.
     * Callers must check canAccept first; violating that is a bug.
     */
    void push(const Packet &pkt)
    {
        ++vcCensus[pkt.vc];
        classCensus[pkt.trafficClass] += pkt.slotsHeld();
        if (pkt.fullyArrived())
            ++fullyArrivedCount;
        pushImpl(pkt);
        if (probe)
            probe->onEnqueue(*this, pkt);
    }

    /**
     * The packet that would be transmitted next from queue @p key,
     * or nullptr if none is visible.  For a FIFO buffer only the
     * head-of-line packet is ever visible — this is precisely the
     * head-of-line blocking the DAMQ design removes.
     */
    virtual const Packet *peek(QueueKey key) const = 0;

    /**
     * Arbitration weight for queue @p key: the length, in packets,
     * of the queue the candidate head belongs to (0 when peek(key)
     * is null).  The paper's arbiter serves the longest queue.
     */
    virtual std::uint32_t queueLength(QueueKey key) const = 0;

    /** Remove and return the head packet of @p key (must exist). */
    Packet pop(QueueKey key)
    {
        Packet pkt = popImpl(key);
        --vcCensus[pkt.vc];
        classCensus[pkt.trafficClass] -= pkt.slotsHeld();
        if (pkt.fullyArrived())
            --fullyArrivedCount;
        if (probe)
            probe->onDequeue(*this, key, pkt);
        return pkt;
    }

    /**
     * Flit-granular occupancy: one more flit of the *youngest*
     * packet in queue @p key arrived (its head was push()ed earlier
     * with flitsArrived = 1).  The packet's slot footprint grows by
     * at most one slot — see Packet::slotsHeld().  Returns true iff
     * a storage slot was actually charged; false means the arrival
     * reused the packet's already-held slot (every earlier flit was
     * forwarded before this one landed), which the credit protocol
     * answers with an immediate credit rebate so outstanding
     * credits always equal slots held downstream.
     */
    bool flitArrived(QueueKey key)
    {
        const FlitEvent ev = flitArrivedImpl(key);
        if (ev.slotChanged)
            ++classCensus[ev.pkt->trafficClass];
        if (ev.pkt->fullyArrived())
            ++fullyArrivedCount;
        if (probe)
            probe->onFlitProgress(*this);
        return ev.slotChanged;
    }

    /**
     * One flit of the *head* packet of queue @p key was forwarded
     * downstream (every flit but the tail — sending the tail is the
     * pop()).  Shrinks the packet's footprint by at most one slot;
     * returns true iff a slot was actually freed (the signal to
     * return one credit upstream).
     */
    bool flitSent(QueueKey key)
    {
        const FlitEvent ev = flitSentImpl(key);
        if (ev.slotChanged)
            --classCensus[ev.pkt->trafficClass];
        if (probe)
            probe->onFlitProgress(*this);
        return ev.slotChanged;
    }

    /**
     * Attach (or, with nullptr, detach) a telemetry probe.  The
     * probe must outlive the buffer or be detached first; the
     * buffer does not own it.
     */
    void attachProbe(BufferProbe *p) { probe = p; }

    /** The attached telemetry probe, or nullptr. */
    BufferProbe *attachedProbe() const { return probe; }

    /** Callback type for forEachInQueue. */
    using PacketVisitor = std::function<void(const Packet &)>;

    /**
     * Visit every packet in queue @p key, oldest first, without
     * copying them out of the buffer.  The periodic invariant
     * audits walk queues this way; the previous snapshot-based
     * audit path copied whole queues each tick.
     */
    virtual void forEachInQueue(QueueKey key,
                                const PacketVisitor &visit) const = 0;

    /**
     * Packets the buffer can emit in a single cycle: 1 for the
     * single-read-port organizations, numOutputs() for SAFC.
     */
    virtual std::uint32_t maxReadsPerCycle() const { return 1; }

    /** Organization implemented by this object. */
    virtual BufferType type() const = 0;

    /** Short name for tables and traces. */
    std::string name() const { return bufferTypeName(type()); }

    /** Discard all contents. */
    virtual void clear();

    /**
     * Non-fatal invariant audit: verify slot conservation, list
     * sanity, per-queue FIFO structure, and counter consistency,
     * returning one description per violation (empty when healthy).
     * The fault subsystem's InvariantAuditor calls this every K
     * cycles so deliberately corrupted state is *reported* instead
     * of aborting the simulation.
     */
    virtual std::vector<std::string> checkInvariants() const
    {
        return {};
    }

    /**
     * Verify internal invariants (slot conservation, list sanity).
     * Used by the test suite; panics on the first violation that
     * checkInvariants() reports.
     */
    void debugValidate() const;

    /**
     * Fault hook: deliberately lose one storage slot, modeling a
     * pointer register that latched garbage (DAMQ free-list slot
     * abandoned) or a stuck occupancy counter (partitioned buffers
     * gain a phantom slot).  Returns true if a slot was actually
     * leaked; checkInvariants() must detect the damage afterwards.
     * Organizations that cannot express the fault return false.
     */
    virtual bool faultLeakSlot() { return false; }

  protected:
    /** Set queue @p key's ready bit (it now has a head). */
    void markReady(QueueKey key)
    {
        const std::uint32_t f = queues.flatten(key);
        std::uint64_t &word = readyBits[f >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (f & 63);
        readyQueues += (word & bit) ? 0 : 1;
        word |= bit;
    }

    /** Clear queue @p key's ready bit (it has no head any more). */
    void markIdle(QueueKey key)
    {
        const std::uint32_t f = queues.flatten(key);
        std::uint64_t &word = readyBits[f >> 6];
        const std::uint64_t bit = std::uint64_t{1} << (f & 63);
        readyQueues -= (word & bit) ? 1 : 0;
        word &= ~bit;
    }

    /**
     * Audit the ready mask against peek() for every queue (and the
     * ready-queue counter against the mask); empty when consistent.
     * Every organization's checkInvariants() appends it.
     */
    std::vector<std::string> auditReadyMask() const;

    /**
     * Escape-slot debt of a shared pool toward VCs *other than*
     * @p vc: one slot per empty foreign VC.  This is a policy-layer
     * *input*, not a rule: shared-pool organizations report it as
     * AdmissionState::guaranteeSlots from fillAdmissionState(), and
     * the admission decision that consumes it — along with the full
     * rationale for the rule — lives once, with admissionFeasible()
     * in admission_policy.hh.  Always 0 in single-VC layouts, where
     * the check degenerates to the plain free-space rule.
     */
    std::uint32_t escapeSlotsOwed(VcId vc) const
    {
        if (queues.vcs <= 1)
            return 0;
        std::uint32_t owed = 0;
        for (VcId w = 0; w < queues.vcs; ++w)
            owed += w != vc && vcCensus[w] == 0 ? 1 : 0;
        return owed;
    }

    /**
     * Snapshot the organization's state for the admission policy
     * (see AdmissionState for the field contracts).  @p st arrives
     * with capacity pre-filled and everything else zeroed; the
     * organization must fill poolFree and guaranteeSlots, and —
     * when admissionPolicy().wantsQueueOccupancy() —
     * queueSlots/queueLength.  headWaitAge and classSlots are
     * filled by the base admit().
     */
    virtual void fillAdmissionState(QueueKey key,
                                    AdmissionState &st) const = 0;

    /**
     * Audit the per-class slot census against a walk of every
     * queue's resident packets.  Skipped (returns empty) while all
     * traffic is class 0, so single-class configurations — and the
     * corruption tests that count invariant reports word for word —
     * are unaffected; multi-class runs get the drift check.
     */
    std::vector<std::string> auditClassCensus() const;

    /** Organization-specific store; see push(). */
    virtual void pushImpl(const Packet &pkt) = 0;

    /** Organization-specific removal; see pop(). */
    virtual Packet popImpl(QueueKey key) = 0;

    /**
     * What a flit event did: the packet it touched (still resident,
     * post-update) and whether its slot footprint changed.
     */
    struct FlitEvent
    {
        const Packet *pkt;
        bool slotChanged;
    };

    /**
     * Organization-specific flit arrival; see flitArrived().  Must
     * increment flitsArrived on the youngest packet of @p key,
     * charge a storage slot iff slotsHeld() grew, and report both.
     */
    virtual FlitEvent flitArrivedImpl(QueueKey key) = 0;

    /**
     * Organization-specific flit departure; see flitSent().  Must
     * increment flitsSent on the head packet of @p key, release a
     * storage slot iff slotsHeld() shrank, and report both.
     */
    virtual FlitEvent flitSentImpl(QueueKey key) = 0;

  private:
    QueueLayout queues;
    std::uint32_t capacity;
    std::vector<std::uint32_t> vcCensus;
    /// slots held per traffic class, maintained by push/pop/flit
    std::array<std::uint32_t, kMaxTrafficClasses> classCensus{};
    std::uint32_t fullyArrivedCount = 0;
    /// ready mask: &readyInline for up to 64 queues, else readyHeap
    std::uint64_t *readyBits;
    std::uint32_t readyWords;
    std::uint32_t readyQueues = 0; ///< set bits in the ready mask
    std::uint64_t readyInline = 0;
    std::vector<std::uint64_t> readyHeap;
    BufferProbe *probe = nullptr;
    /// active admission rule (never null; StaticAdmission default)
    const AdmissionPolicy *policy = &StaticAdmission::instance();
    std::shared_ptr<const AdmissionPolicy> ownedPolicy;
    /// simulator cycle counter for head-age policies, or nullptr
    const Cycle *admissionClock = nullptr;
};

} // namespace damq

#endif // DAMQ_QUEUEING_BUFFER_MODEL_HH
