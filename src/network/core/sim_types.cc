#include "network/core/sim_types.hh"

#include "common/enum_parse.hh"
#include "common/logging.hh"

namespace damq {

namespace {

/** Canonical spellings first; short aliases parse but never print. */
constexpr EnumName<FlowControl> kFlowControlNames[] = {
    {FlowControl::Discarding, "discarding"},
    {FlowControl::Blocking, "blocking"},
    {FlowControl::Credit, "credit"},
    {FlowControl::OnOff, "on-off"},
    {FlowControl::Discarding, "discard"},
    {FlowControl::Blocking, "block"},
    {FlowControl::OnOff, "onoff"},
};

} // namespace

const char *
flowControlName(FlowControl protocol)
{
    if (const char *name = enumValueName(protocol, kFlowControlNames))
        return name;
    damq_panic("unknown FlowControl ", static_cast<int>(protocol));
}

std::optional<FlowControl>
tryFlowControlFromString(const std::string &name)
{
    return parseEnumName(std::string_view(name), kFlowControlNames);
}

NetworkCounters
NetworkCounters::operator-(const NetworkCounters &rhs) const
{
    NetworkCounters out;
    out.generated = generated - rhs.generated;
    out.injected = injected - rhs.injected;
    out.delivered = delivered - rhs.delivered;
    out.discardedAtEntry = discardedAtEntry - rhs.discardedAtEntry;
    out.discardedInternal = discardedInternal - rhs.discardedInternal;
    out.misrouted = misrouted - rhs.misrouted;
    out.faultDropped = faultDropped - rhs.faultDropped;
    out.deliveredFlits = deliveredFlits - rhs.deliveredFlits;
    out.headsCutThrough = headsCutThrough - rhs.headsCutThrough;
    return out;
}

} // namespace damq
