/**
 * @file
 * The admission-policy layer: one pluggable decision point for
 * "may this packet take buffer slots right now?".
 *
 * The paper's organizations differ in *where* slots live (one
 * shared pool, fixed partitions, a pool with per-queue
 * reservations), but every admission rule has the same shape: the
 * target queue's allocation domain must keep enough free slots for
 * (a) the arriving packet and (b) slots the organization
 * guarantees to *other* queues.  BufferModel therefore distills
 * its state into an AdmissionState snapshot and delegates the
 * verdict to an AdmissionPolicy:
 *
 *   - StaticAdmission is the identity policy: exactly the paper's
 *     rules, expressed once.  Every organization's historical
 *     admission arithmetic is this policy over its own state:
 *       FIFO / DAMQ / reference  — pool free vs. escape-slot debt,
 *       SAMQ / SAFC              — partition free (no debt),
 *       DAMQR                    — pool free vs. one slot per other
 *                                  empty queue,
 *       VOQ                      — pool free vs. the private-slot
 *                                  deficit of the other queues.
 *   - DynamicThresholdAdmission adds the classic alpha-scaled
 *     free-space cap (Choudhury & Hahne) on top.
 *   - DelayDrivenAdmission grows a queue's share with the wait age
 *     of its head packet (BShare-style delay-driven sharing).
 *   - ClassQosAdmission segregates capacity by traffic class
 *     (Itoh & Yoshimoto-style multi-queue QoS management).
 *
 * The dynamic policies only ever *tighten* StaticAdmission — they
 * reject some packets the static rule would accept, never the
 * reverse — so the escape-slot / reserved-slot deadlock-freedom
 * guarantees hold under every policy.
 *
 * Flit-level head admission is the same decision: the
 * FlowControlScheme's headSlotsNeeded() rule computes how many
 * slots the head flit must secure (1 for wormhole, the whole packet
 * for virtual cut-through) and that count is what reaches the
 * policy as AdmissionRequest::lengthSlots.
 */

#ifndef DAMQ_QUEUEING_ADMISSION_POLICY_HH
#define DAMQ_QUEUEING_ADMISSION_POLICY_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "common/types.hh"
#include "queueing/queue_key.hh"

namespace damq {

/** Buffer-sharing admission policies selectable at run time. */
enum class SharingPolicy
{
    Static,           ///< the organization's historical rule only
    DynamicThreshold, ///< alpha-scaled free-space cap per queue
    DelayDriven,      ///< cap grows with head-of-line wait age
    ClassQos          ///< per-traffic-class capacity segregation
};

/** Canonical spelling ("static", "dt", "delay", "qos"). */
const char *sharingPolicyName(SharingPolicy kind);

/** Parse a case-insensitive policy name; nullopt on bad input. */
std::optional<SharingPolicy> trySharingPolicyFromString(
    const std::string &name);

/** Traffic classes a packet can be stamped with (0..kMax-1). */
inline constexpr std::uint32_t kMaxTrafficClasses = 8;

/** What is asking for admission. */
struct AdmissionRequest
{
    QueueKey key;                  ///< target queue (output x VC)
    std::uint32_t lengthSlots = 1; ///< slots the admission charges
    std::uint8_t trafficClass = 0; ///< QoS class of the packet
};

/**
 * The organization's state, as the policy sees it.  Filled by
 * BufferModel::fillAdmissionState() of the concrete organization;
 * "allocation domain" means the storage the target queue draws
 * from — the whole pool for the shared organizations, the target
 * partition for SAMQ/SAFC.
 */
struct AdmissionState
{
    /** Total slots of the whole buffer. */
    std::uint32_t capacity = 0;

    /** Free slots in the target queue's allocation domain. */
    std::uint32_t poolFree = 0;

    /**
     * Slots the domain must keep free for queues other than the
     * target: the escape-slot debt of the shared pools, one slot
     * per other empty queue for DAMQR, the private-slot deficit for
     * VOQ, 0 for the partitioned organizations.
     */
    std::uint32_t guaranteeSlots = 0;

    /** Slots held by the target queue (policies that ask for it). */
    std::uint32_t queueSlots = 0;

    /** Packets in the target queue (policies that ask for it). */
    std::uint32_t queueLength = 0;

    /**
     * Cycles the target queue's head packet has waited since
     * generation; 0 when the queue is empty or no admission clock
     * is attached.  Only filled when the policy wantsHeadAge().
     */
    Cycle headWaitAge = 0;

    /** Slots held buffer-wide by the requesting traffic class. */
    std::uint32_t classSlots = 0;
};

/** The verdict. */
struct AdmissionDecision
{
    bool accept = false;
    std::uint32_t slotsCharged = 0; ///< slots the accept consumes
};

/**
 * The base feasibility rule every policy starts from: the domain
 * must keep enough free slots for the packet and the
 * organization's guarantee toward the other queues.
 *
 * This is the one canonical statement of the *escape-slot rule*
 * for shared pools in multi-VC layouts: guaranteeSlots counts one
 * free slot per empty foreign VC, keeping the invariant
 * `free >= #empty VCs` (a push onto an empty VC consumes one owed
 * slot but also removes that VC from the empty set), so a packet
 * arriving on any VC always finds a slot.  Without it, a saturated
 * shared pool could be monopolized by one VC and deadlock a
 * blocking torus despite the dateline.  DAMQR's one-reserved-slot-
 * per-queue rule and VOQ's private-slot deficit are the same
 * inequality with a stronger guarantee term.
 */
inline bool
admissionFeasible(const AdmissionState &st, std::uint32_t len)
{
    return st.poolFree >= len + st.guaranteeSlots;
}

/** One admission rule.  Implementations must be stateless across
 *  calls (a policy instance is shared by many buffers). */
class AdmissionPolicy
{
  public:
    virtual ~AdmissionPolicy() = default;

    /** Decide whether @p rq may take slots given @p st. */
    virtual AdmissionDecision admit(const AdmissionState &st,
                                    const AdmissionRequest &rq)
        const = 0;

    /** Canonical policy name for tables and traces. */
    virtual const char *name() const = 0;

    /**
     * Whether admit() reads queueSlots/queueLength.  Organizations
     * whose per-queue occupancy is not O(1) (the FIFO lanes) skip
     * computing it for policies that never look.
     */
    virtual bool wantsQueueOccupancy() const { return false; }

    /** Whether admit() reads headWaitAge (needs a clock attached). */
    virtual bool wantsHeadAge() const { return false; }
};

/**
 * The identity policy: admissionFeasible() and nothing else.
 * Installed by default in every organization; byte-identical to
 * the pre-refactor hard-coded rules.
 */
class StaticAdmission final : public AdmissionPolicy
{
  public:
    AdmissionDecision admit(const AdmissionState &st,
                            const AdmissionRequest &rq) const override
    {
        return {admissionFeasible(st, rq.lengthSlots),
                rq.lengthSlots};
    }

    const char *name() const override { return "static"; }

    /** The shared immutable instance every buffer defaults to. */
    static const StaticAdmission &instance();
};

/**
 * Classic Dynamic Threshold: a queue may grow only while its
 * occupancy stays below alpha times the *shareable* free space
 * (free net of guarantees).  Congested queues
 * self-limit as the pool drains, so no destination can monopolize
 * shared storage under incast — the modern fix for the hot-spot
 * tree saturation Section 4.2.1 of the paper reports.
 *
 * Integer arithmetic throughout: alpha is fixed-point with a
 * 1024 denominator, so decisions are exactly reproducible across
 * platforms and shard counts.
 */
class DynamicThresholdAdmission final : public AdmissionPolicy
{
  public:
    /** @param alpha threshold factor, clamped to [1/1024, 1024]. */
    explicit DynamicThresholdAdmission(double alpha);

    AdmissionDecision admit(const AdmissionState &st,
                            const AdmissionRequest &rq) const override;

    const char *name() const override { return "dt"; }
    bool wantsQueueOccupancy() const override { return true; }

    /** Fixed-point alpha (denominator 1024), for tests. */
    std::uint64_t alphaFixed() const { return alphaNum; }

  private:
    std::uint64_t alphaNum; ///< alpha * 1024, rounded
};

/**
 * BShare-style delay-driven sharing: Dynamic Threshold whose
 * effective alpha grows with the wait age of the target queue's
 * head packet.  A queue that is being served keeps the base
 * threshold; one whose head has been stuck earns a progressively
 * larger share of the free space, up to 17x at an age of
 * 16 * ageScale cycles.  Head wait age is measured against the
 * admission clock the simulator attaches (see
 * BufferModel::attachAdmissionClock); with no clock the policy
 * degenerates to plain Dynamic Threshold.
 */
class DelayDrivenAdmission final : public AdmissionPolicy
{
  public:
    /** @param alpha     base threshold factor (as DT).
     *  @param age_scale cycles per unit of threshold growth,
     *                   clamped to [1, 65536]. */
    DelayDrivenAdmission(double alpha, Cycle age_scale);

    AdmissionDecision admit(const AdmissionState &st,
                            const AdmissionRequest &rq) const override;

    const char *name() const override { return "delay"; }
    bool wantsQueueOccupancy() const override { return true; }
    bool wantsHeadAge() const override { return true; }

  private:
    std::uint64_t alphaNum; ///< alpha * 1024, rounded
    std::uint64_t ageScale;
};

/**
 * Class-segregated QoS thresholds over one shared pool: traffic
 * class c of C may hold at most (c + 1) / C of the buffer's
 * capacity, so the highest class can always displace lower-class
 * floods but never the reverse — nested caps in the style of
 * Itoh & Yoshimoto's multi-queue QoS buffer management.
 */
class ClassQosAdmission final : public AdmissionPolicy
{
  public:
    /** @param classes traffic classes sharing the buffer (>= 1,
     *                 <= kMaxTrafficClasses). */
    explicit ClassQosAdmission(std::uint32_t classes);

    AdmissionDecision admit(const AdmissionState &st,
                            const AdmissionRequest &rq) const override;

    const char *name() const override { return "qos"; }

  private:
    std::uint32_t numClasses;
};

/** Run-time selection of the sharing policy and its knobs. */
struct SharingPolicyConfig
{
    SharingPolicy kind = SharingPolicy::Static;

    /** Threshold factor for DynamicThreshold / DelayDriven. */
    double dtAlpha = 2.0;

    /** Age scale (cycles) for DelayDriven. */
    Cycle delayAgeScale = 64;

    /** Traffic classes for ClassQos. */
    std::uint32_t qosClasses = 2;

    /** Private slots per queue for the VOQ organization. */
    std::uint32_t voqPrivateSlots = 1;
};

/**
 * Build the configured policy; nullptr for Static, meaning "keep
 * the organization's default StaticAdmission instance" (no
 * allocation, no behavior change).
 */
std::shared_ptr<const AdmissionPolicy> makeSharingPolicy(
    const SharingPolicyConfig &cfg);

} // namespace damq

#endif // DAMQ_QUEUEING_ADMISSION_POLICY_HH
