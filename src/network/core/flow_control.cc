#include "network/core/flow_control.hh"

#include "common/enum_parse.hh"
#include "common/logging.hh"

namespace damq {

namespace {

/** Canonical spellings first; aliases parse but never print. */
constexpr EnumName<Switching> kSwitchingNames[] = {
    {Switching::PacketSync, "packet-sync"},
    {Switching::StoreAndForward, "store-and-forward"},
    {Switching::Wormhole, "wormhole"},
    {Switching::VirtualCutThrough, "vct"},
    {Switching::PacketSync, "packet"},
    {Switching::VirtualCutThrough, "cut-through"},
    {Switching::VirtualCutThrough, "cutthrough"},
    {Switching::VirtualCutThrough, "virtual-cut-through"},
};

/**
 * Whole-packet reservation: packet-sync, store-and-forward and VCT
 * all admit a head only with the full packet length downstream.
 */
class WholePacketScheme final : public FlowControlScheme
{
  public:
    using FlowControlScheme::FlowControlScheme;

    std::uint32_t headSlotsNeeded(
        std::uint32_t length_slots) const override
    {
        return length_slots;
    }

    bool reservesWholePacket() const override { return true; }
};

/** Wormhole: a head flit needs one downstream slot. */
class WormholeScheme final : public FlowControlScheme
{
  public:
    using FlowControlScheme::FlowControlScheme;

    std::uint32_t headSlotsNeeded(std::uint32_t) const override
    {
        return 1;
    }

    bool reservesWholePacket() const override { return false; }
};

} // namespace

const char *
switchingName(Switching mode)
{
    if (const char *name = enumValueName(mode, kSwitchingNames))
        return name;
    damq_panic("unknown Switching ", static_cast<int>(mode));
}

std::optional<Switching>
trySwitchingFromString(const std::string &name)
{
    return parseEnumName(std::string_view(name), kSwitchingNames);
}

std::unique_ptr<FlowControlScheme>
FlowControlScheme::make(Switching mode, FlowControl fc)
{
    if (flitLevelSwitching(mode)) {
        if (fc == FlowControl::Discarding)
            damq_fatal(switchingName(mode), " switching cannot use "
                       "the discarding protocol: flits of one packet "
                       "must not be dropped independently");
        // Blocking is the packet-mode default; at flit granularity
        // "blocked" is precisely "out of credits", so upgrade.
        if (fc == FlowControl::Blocking)
            fc = FlowControl::Credit;
        if (mode == Switching::Wormhole)
            return std::unique_ptr<FlowControlScheme>(
                new WormholeScheme(mode, fc));
        return std::unique_ptr<FlowControlScheme>(
            new WholePacketScheme(mode, fc));
    }
    if (fc == FlowControl::Credit || fc == FlowControl::OnOff)
        damq_fatal("the ", flowControlName(fc), " protocol is "
                   "flit-level back-pressure; ", switchingName(mode),
                   " switching moves whole packets (use blocking or "
                   "discarding, or switch to a flit-level mode)");
    return std::unique_ptr<FlowControlScheme>(
        new WholePacketScheme(mode, fc));
}

} // namespace damq
