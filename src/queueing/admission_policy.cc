#include "queueing/admission_policy.hh"

#include <algorithm>
#include <cmath>

#include "common/enum_parse.hh"
#include "common/logging.hh"

namespace damq {

namespace {

constexpr EnumName<SharingPolicy> kSharingPolicyNames[] = {
    {SharingPolicy::Static, "static"},
    {SharingPolicy::DynamicThreshold, "dt"},
    {SharingPolicy::DelayDriven, "delay"},
    {SharingPolicy::ClassQos, "qos"},
};

/** Clamp-and-fix alpha to 1024ths; fatal on nonsense input. */
std::uint64_t
alphaToFixed(double alpha)
{
    if (!(alpha > 0.0) || alpha > 1024.0)
        damq_fatal("sharing alpha wants a value in (0, 1024], got ",
                   alpha);
    const std::uint64_t num =
        static_cast<std::uint64_t>(std::lround(alpha * 1024.0));
    return std::max<std::uint64_t>(num, 1);
}

/**
 * Free space of the domain net of the debts the base rule already
 * charged — the pool the dynamic thresholds scale.  Only valid
 * after admissionFeasible() held, which guarantees no underflow.
 */
std::uint64_t
shareableFree(const AdmissionState &st)
{
    return static_cast<std::uint64_t>(st.poolFree) -
           st.guaranteeSlots;
}

} // namespace

const char *
sharingPolicyName(SharingPolicy kind)
{
    switch (kind) {
      case SharingPolicy::Static: return "static";
      case SharingPolicy::DynamicThreshold: return "dt";
      case SharingPolicy::DelayDriven: return "delay";
      case SharingPolicy::ClassQos: return "qos";
    }
    damq_panic("unknown SharingPolicy ", static_cast<int>(kind));
}

std::optional<SharingPolicy>
trySharingPolicyFromString(const std::string &name)
{
    return parseEnumName(std::string_view(name), kSharingPolicyNames);
}

const StaticAdmission &
StaticAdmission::instance()
{
    static const StaticAdmission policy;
    return policy;
}

DynamicThresholdAdmission::DynamicThresholdAdmission(double alpha)
    : alphaNum(alphaToFixed(alpha))
{
}

AdmissionDecision
DynamicThresholdAdmission::admit(const AdmissionState &st,
                                 const AdmissionRequest &rq) const
{
    if (!admissionFeasible(st, rq.lengthSlots))
        return {false, rq.lengthSlots};
    // Accept while the queue's post-admission occupancy stays under
    // alpha times the shareable free space (T = alpha * free, both
    // sides scaled by the 1024 fixed-point denominator).
    const std::uint64_t occupied =
        static_cast<std::uint64_t>(st.queueSlots) + rq.lengthSlots;
    const bool ok = occupied * 1024 <= alphaNum * shareableFree(st);
    return {ok, rq.lengthSlots};
}

DelayDrivenAdmission::DelayDrivenAdmission(double alpha,
                                           Cycle age_scale)
    : alphaNum(alphaToFixed(alpha)),
      ageScale(std::clamp<Cycle>(age_scale, 1, 65536))
{
}

AdmissionDecision
DelayDrivenAdmission::admit(const AdmissionState &st,
                            const AdmissionRequest &rq) const
{
    if (!admissionFeasible(st, rq.lengthSlots))
        return {false, rq.lengthSlots};
    // Dynamic Threshold whose alpha is scaled by (1 + age/ageScale),
    // clamped at 17x so a wedged head cannot overflow the math:
    //   (q + len) * 1024 * ageScale <= alpha * free * (ageScale + age)
    // All factors are bounded (alpha <= 2^20, ageScale <= 2^16,
    // age <= 16 * ageScale <= 2^20, occupancy and free <= 2^20 for
    // any realistic buffer), so the products fit in 64 bits.
    const std::uint64_t occupied =
        std::min<std::uint64_t>(static_cast<std::uint64_t>(
                                    st.queueSlots) + rq.lengthSlots,
                                1u << 20);
    const std::uint64_t free =
        std::min<std::uint64_t>(shareableFree(st), 1u << 20);
    const std::uint64_t age =
        std::min<std::uint64_t>(st.headWaitAge, 16 * ageScale);
    const bool ok = occupied * 1024 * ageScale <=
                    alphaNum * free * (ageScale + age);
    return {ok, rq.lengthSlots};
}

ClassQosAdmission::ClassQosAdmission(std::uint32_t classes)
    : numClasses(classes)
{
    if (classes < 1 || classes > kMaxTrafficClasses)
        damq_fatal("QoS admission wants 1..", kMaxTrafficClasses,
                   " traffic classes, got ", classes);
}

AdmissionDecision
ClassQosAdmission::admit(const AdmissionState &st,
                         const AdmissionRequest &rq) const
{
    if (!admissionFeasible(st, rq.lengthSlots))
        return {false, rq.lengthSlots};
    // Nested caps: class c (0-based, higher = more important) may
    // hold up to (c + 1) / numClasses of the whole buffer.
    const std::uint32_t cls =
        std::min<std::uint32_t>(rq.trafficClass, numClasses - 1);
    const std::uint64_t cap =
        static_cast<std::uint64_t>(st.capacity) * (cls + 1) /
        numClasses;
    const bool ok =
        static_cast<std::uint64_t>(st.classSlots) + rq.lengthSlots <=
        cap;
    return {ok, rq.lengthSlots};
}

std::shared_ptr<const AdmissionPolicy>
makeSharingPolicy(const SharingPolicyConfig &cfg)
{
    switch (cfg.kind) {
      case SharingPolicy::Static:
        return nullptr;
      case SharingPolicy::DynamicThreshold:
        return std::make_shared<DynamicThresholdAdmission>(
            cfg.dtAlpha);
      case SharingPolicy::DelayDriven:
        return std::make_shared<DelayDrivenAdmission>(
            cfg.dtAlpha, cfg.delayAgeScale);
      case SharingPolicy::ClassQos:
        return std::make_shared<ClassQosAdmission>(cfg.qosClasses);
    }
    damq_panic("unknown SharingPolicy ",
               static_cast<int>(cfg.kind));
}

} // namespace damq
