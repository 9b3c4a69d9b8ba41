/**
 * @file
 * Detect-and-recover tests: the CRC the link layer seals frames
 * with, the RecoveryPolicy config surface, the link-state mask, the
 * up*-down* fault router's legality guarantees, and the end-to-end
 * promises of the protocol — retransmission makes transient drops
 * and corruptions lossless, rerouting keeps a blocking torus
 * delivering around permanently dead links with the deadlock
 * watchdog armed and silent, and every run closes its packet
 * accounting exactly.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "common/crc.hh"
#include "network/core/fault_router.hh"
#include "network/core/grid_topology.hh"
#include "network/core/link_state.hh"
#include "network/core/recovery.hh"
#include "network/fabric_sim.hh"

namespace damq {
namespace {

// --------------------------------------------------- policy parsing

TEST(RecoveryPolicyParse, RoundTripsEveryCanonicalName)
{
    const RecoveryPolicy all[] = {RecoveryPolicy::None,
                                  RecoveryPolicy::Retransmit,
                                  RecoveryPolicy::RetransmitReroute};
    for (const RecoveryPolicy policy : all) {
        const std::optional<RecoveryPolicy> parsed =
            tryRecoveryPolicyFromString(recoveryPolicyName(policy));
        ASSERT_TRUE(parsed.has_value())
            << recoveryPolicyName(policy);
        EXPECT_EQ(*parsed, policy);
    }
}

TEST(RecoveryPolicyParse, RerouteShorthandAndBadInput)
{
    const std::optional<RecoveryPolicy> shorthand =
        tryRecoveryPolicyFromString("reroute");
    ASSERT_TRUE(shorthand.has_value());
    EXPECT_EQ(*shorthand, RecoveryPolicy::RetransmitReroute);

    EXPECT_FALSE(tryRecoveryPolicyFromString("").has_value());
    EXPECT_FALSE(tryRecoveryPolicyFromString("resend").has_value());
    EXPECT_FALSE(
        tryRecoveryPolicyFromString("retransmit ").has_value());
}

TEST(RecoveryConfigSurface, PolicyPredicatesMatchThePolicy)
{
    RecoveryConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    EXPECT_FALSE(cfg.reroute());
    cfg.policy = RecoveryPolicy::Retransmit;
    EXPECT_TRUE(cfg.enabled());
    EXPECT_FALSE(cfg.reroute());
    cfg.policy = RecoveryPolicy::RetransmitReroute;
    EXPECT_TRUE(cfg.enabled());
    EXPECT_TRUE(cfg.reroute());
}

// ------------------------------------------------------------ CRC-32C

TEST(Crc32c, MatchesThePublishedCheckValue)
{
    // The CRC catalog check value: CRC-32C("123456789").
    const char digits[] = "123456789";
    EXPECT_EQ(crc32c(digits, 9), 0xE3069283u);
}

TEST(Crc32c, IncrementalUpdatesMatchOneShot)
{
    const char text[] = "link-level retransmission";
    const std::size_t len = sizeof(text) - 1;
    const std::uint32_t oneshot = crc32c(text, len);

    for (std::size_t split = 0; split <= len; ++split) {
        std::uint32_t crc = crc32cInit();
        crc = crc32cUpdate(crc, text, split);
        crc = crc32cUpdate(crc, text + split, len - split);
        EXPECT_EQ(crc32cFinish(crc), oneshot) << "split " << split;
    }
}

TEST(Crc32c, ValueFoldMatchesLittleEndianByteFold)
{
    const std::uint64_t value = 0x0123456789ABCDEFull;
    unsigned char bytes[sizeof(value)];
    for (std::size_t i = 0; i < sizeof(value); ++i)
        bytes[i] = static_cast<unsigned char>(value >> (8 * i));

    const std::uint32_t by_value = crc32cFinish(
        crc32cUpdateValue(crc32cInit(), value));
    const std::uint32_t by_bytes = crc32c(bytes, sizeof(bytes));
    EXPECT_EQ(by_value, by_bytes);
}

TEST(Crc32c, EverySingleBitFlipIsDetected)
{
    unsigned char frame[16];
    for (std::size_t i = 0; i < sizeof(frame); ++i)
        frame[i] = static_cast<unsigned char>(37 * i + 11);
    const std::uint32_t sealed = crc32c(frame, sizeof(frame));

    for (std::size_t bit = 0; bit < 8 * sizeof(frame); ++bit) {
        frame[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        EXPECT_NE(crc32c(frame, sizeof(frame)), sealed)
            << "bit " << bit;
        frame[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    }
}

// ----------------------------------------------------- LinkStateMask

TEST(LinkStateMaskBasics, VersionBumpsOnlyOnStateFlips)
{
    core::LinkStateMask mask(8);
    EXPECT_EQ(mask.deadLinks(), 0u);
    EXPECT_EQ(mask.version(), 0u);
    EXPECT_TRUE(mask.linkUp(3));

    mask.setLinkDown(3);
    EXPECT_TRUE(mask.linkDown(3));
    EXPECT_EQ(mask.deadLinks(), 1u);
    EXPECT_EQ(mask.version(), 1u);

    mask.setLinkDown(3); // idempotent: no flip, no version bump
    EXPECT_EQ(mask.version(), 1u);
    mask.setLinkUp(5); // already up
    EXPECT_EQ(mask.version(), 1u);

    mask.setLinkDown(5);
    EXPECT_EQ(mask.deadLinks(), 2u);
    EXPECT_EQ(mask.version(), 2u);

    mask.setLinkUp(3);
    EXPECT_TRUE(mask.linkUp(3));
    EXPECT_EQ(mask.deadLinks(), 1u);
    EXPECT_EQ(mask.version(), 3u);
}

TEST(LinkStateMaskBasics, VisitsDeadLinksInAscendingOrder)
{
    core::LinkStateMask mask(16);
    mask.setLinkDown(9);
    mask.setLinkDown(2);
    mask.setLinkDown(14);

    std::vector<core::LinkId> seen;
    mask.forEachDeadLink(
        [&seen](core::LinkId link) { seen.push_back(link); });
    EXPECT_EQ(seen, (std::vector<core::LinkId>{2, 9, 14}));
}

// ------------------------------------------------- up*-down* routing

/** Both directions of the duplex link out of @p sw through @p out. */
void
killBothWays(const core::Topology &topo, core::LinkStateMask &mask,
             core::SwitchId sw, PortId out)
{
    const std::uint32_t ports = topo.portsPerSwitch();
    mask.setLinkDown(core::linkIdOf(sw, out, ports));
    const core::HopTarget next = topo.hop(sw, out);
    ASSERT_FALSE(next.toSink);
    for (PortId back = 0; back < ports; ++back) {
        if (!topo.hasLink(next.switchId, back))
            continue;
        const core::HopTarget rev = topo.hop(next.switchId, back);
        if (!rev.toSink && rev.switchId == sw)
            mask.setLinkDown(
                core::linkIdOf(next.switchId, back, ports));
    }
}

/**
 * Follow the router from @p from toward @p dest, asserting every
 * step is phase-legal (never down then up), crosses only live
 * links, and terminates.  Returns the hop count, or -1 when the
 * router reported the destination unroutable.
 */
int
walkTo(core::FaultRouter &router, const core::Topology &topo,
       const core::LinkStateMask &mask, core::SwitchId from,
       NodeId dest)
{
    core::SwitchId sw = from;
    bool went_down = false;
    int hops = 0;
    for (;;) {
        const core::FaultRouter::Hop hop =
            router.nextHop(sw, dest, went_down);
        if (hop.port == kInvalidPort)
            return -1;
        if (went_down) {
            // The up*-down* invariant: once descending, a packet
            // never climbs again within one link-state epoch.
            EXPECT_TRUE(hop.down)
                << "down->up turn at switch " << sw;
        }
        EXPECT_TRUE(mask.linkUp(core::linkIdOf(
            sw, hop.port, topo.portsPerSwitch())))
            << "routed onto dead link at switch " << sw;
        went_down = went_down || hop.down;
        const core::HopTarget next = topo.hop(sw, hop.port);
        ++hops;
        if (next.toSink) {
            EXPECT_EQ(next.sink, dest);
            return hops;
        }
        sw = next.switchId;
        if (hops > 64) {
            ADD_FAILURE() << "route " << from << " -> " << dest
                          << " did not terminate";
            return -2;
        }
    }
}

TEST(FaultRouterUnit, CleanMaskPassesThroughToMinimalRouting)
{
    const core::TorusTopology topo(4, 4);
    core::LinkStateMask mask(topo.numLinks());
    core::FaultRouter router(topo, mask);

    EXPECT_FALSE(router.active());
    for (core::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        for (NodeId dest = 0; dest < topo.numEndpoints(); ++dest) {
            const core::FaultRouter::Hop hop =
                router.nextHop(sw, dest, false);
            EXPECT_EQ(hop.port, topo.route(sw, dest));
            EXPECT_FALSE(hop.down);
        }
        for (PortId out = 0; out < topo.portsPerSwitch(); ++out) {
            EXPECT_FALSE(router.downHop(sw, out));
            for (PortId in = 0; in < topo.portsPerSwitch(); ++in)
                EXPECT_FALSE(router.illegalTurn(sw, in, out));
        }
    }
}

TEST(FaultRouterUnit, ReroutesEveryPairAroundDeadLinks)
{
    const core::TorusTopology topo(4, 4);
    core::LinkStateMask mask(topo.numLinks());
    core::FaultRouter router(topo, mask);

    // Three severed cables, graph still connected.
    killBothWays(topo, mask, 5, kEast);
    killBothWays(topo, mask, 10, kNorth);
    killBothWays(topo, mask, 0, kWest);
    ASSERT_TRUE(router.active());

    for (core::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        for (NodeId dest = 0; dest < topo.numEndpoints(); ++dest) {
            const int hops = walkTo(router, topo, mask, sw, dest);
            EXPECT_GT(hops, 0)
                << "no route " << sw << " -> " << dest;
        }
    }
}

TEST(FaultRouterUnit, IsolatedSwitchIsReportedUnroutable)
{
    const core::TorusTopology topo(4, 4);
    core::LinkStateMask mask(topo.numLinks());
    core::FaultRouter router(topo, mask);

    // Sever all four cables of switch 5: a partitioned fabric.
    for (const PortId out : {kEast, kWest, kNorth, kSouth})
        killBothWays(topo, mask, 5, out);

    for (core::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        if (sw == 5)
            continue;
        // Nobody can reach the island...
        EXPECT_EQ(walkTo(router, topo, mask, sw, 5), -1);
        // ...or leave it.
        EXPECT_EQ(walkTo(router, topo, mask, 5, sw), -1);
        // The island can still deliver to its own endpoint, and the
        // mainland still routes among itself.
        EXPECT_GT(walkTo(router, topo, mask, 5, 5), 0);
        EXPECT_GT(walkTo(router, topo, mask, sw, sw), 0);
    }
}

TEST(FaultRouterUnit, DuplexLinksHaveExactlyOneDownDirection)
{
    const core::TorusTopology topo(4, 4);
    core::LinkStateMask mask(topo.numLinks());
    core::FaultRouter router(topo, mask);
    killBothWays(topo, mask, 6, kSouth);

    for (core::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        for (PortId out = 0; out < topo.portsPerSwitch(); ++out) {
            const core::HopTarget next = topo.hop(sw, out);
            if (next.toSink) {
                // Delivery is terminal: always a legal down-hop.
                EXPECT_TRUE(router.downHop(sw, out));
                continue;
            }
            // Find the reverse direction of the same cable.
            PortId back = kInvalidPort;
            for (PortId p = 0; p < topo.portsPerSwitch(); ++p) {
                const core::HopTarget rev =
                    topo.hop(next.switchId, p);
                if (!rev.toSink && rev.switchId == sw) {
                    back = p;
                    break;
                }
            }
            ASSERT_NE(back, kInvalidPort);
            // The orientation is a strict total order, so one
            // direction descends and the other climbs.
            EXPECT_NE(router.downHop(sw, out),
                      router.downHop(next.switchId, back));
        }
    }
}

TEST(FaultRouterUnit, IllegalTurnIsExactlyDownBufferThenUpHop)
{
    const core::TorusTopology topo(4, 4);
    core::LinkStateMask mask(topo.numLinks());
    core::FaultRouter router(topo, mask);
    killBothWays(topo, mask, 9, kEast);

    bool found_one = false;
    for (core::SwitchId sw = 0; sw < topo.numSwitches(); ++sw) {
        for (PortId in = 0; in < topo.portsPerSwitch(); ++in) {
            for (PortId out = 0; out < topo.portsPerSwitch();
                 ++out) {
                const core::HopTarget prev = topo.hop(sw, in);
                const core::HopTarget next = topo.hop(sw, out);
                if (prev.toSink || next.toSink) {
                    // Local injection buffers and delivery hops are
                    // never part of a fabric dependency cycle.
                    EXPECT_FALSE(router.illegalTurn(sw, in, out));
                    continue;
                }
                // Find the directed link feeding input `in`.
                PortId feed = kInvalidPort;
                for (PortId p = 0; p < topo.portsPerSwitch(); ++p) {
                    const core::HopTarget fwd =
                        topo.hop(prev.switchId, p);
                    if (!fwd.toSink && fwd.switchId == sw) {
                        feed = p;
                        break;
                    }
                }
                ASSERT_NE(feed, kInvalidPort);
                const bool expected =
                    router.downHop(prev.switchId, feed) &&
                    !router.downHop(sw, out);
                EXPECT_EQ(router.illegalTurn(sw, in, out), expected)
                    << "sw " << sw << " in " << in << " out " << out;
                found_one = found_one || expected;
            }
        }
    }
    // A torus orientation always has down->up turns somewhere.
    EXPECT_TRUE(found_one);
}

// --------------------------------- retransmission makes drops lossless

/** injected == delivered + discarded + fault-dropped + in flight. */
void
expectAccountingClosed(const FabricSimulator &sim)
{
    const NetworkCounters &life = sim.lifetime();
    EXPECT_EQ(life.injected, life.delivered + life.discarded() +
                                 life.faultDropped +
                                 sim.packetsInFlight());
    EXPECT_EQ(life.misrouted, 0u);
}

FabricConfig
faultyMesh(RecoveryPolicy policy)
{
    FabricConfig cfg = FabricConfig::mesh();
    cfg.width = 4;
    cfg.height = 4;
    cfg.offeredLoad = 0.2;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 3000;
    cfg.common.faults.seed = 11;
    cfg.common.faults.packetDropRate = 0.005;
    cfg.common.faults.headerBitFlipRate = 0.005;
    cfg.common.auditEveryCycles = 100;
    cfg.common.recovery.policy = policy;
    return cfg;
}

TEST(Retransmission, MeshTransientFaultsBecomeLossless)
{
    FabricSimulator none(faultyMesh(RecoveryPolicy::None));
    none.run();
    const FaultReport detect_only = none.faultReport();
    ASSERT_GT(none.lifetime().faultDropped, 0u);
    EXPECT_FALSE(detect_only.recovery.anyActivity());

    FabricSimulator rtx(faultyMesh(RecoveryPolicy::Retransmit));
    rtx.run();
    const FaultReport recovered = rtx.faultReport();

    // The injector still fires; the protocol absorbs every hit.
    EXPECT_GT(recovered.injectedOf(FaultKind::PacketDrop), 0u);
    EXPECT_GT(recovered.injectedOf(FaultKind::HeaderBitFlip), 0u);
    EXPECT_EQ(rtx.lifetime().faultDropped, 0u);
    EXPECT_GT(recovered.recovery.packetsRecovered, 0u);
    EXPECT_GT(recovered.recovery.retransmits, 0u);
    EXPECT_EQ(recovered.recovery.packetsLostAfterRetry, 0u);
    EXPECT_EQ(recovered.recovery.deadLinksDeclared, 0u);
    EXPECT_EQ(recovered.auditViolations, 0u);
    expectAccountingClosed(rtx);
}

TEST(Retransmission, TorusWithTwoVcsIsAlsoLossless)
{
    FabricConfig cfg = FabricConfig::torus(); // blocking, two dateline VCs
    cfg.width = 4;
    cfg.height = 4;
    cfg.offeredLoad = 0.2;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 3000;
    cfg.common.faults.seed = 11;
    cfg.common.faults.packetDropRate = 0.005;
    cfg.common.faults.headerBitFlipRate = 0.005;
    cfg.common.auditEveryCycles = 100;
    cfg.common.watchdogStallCycles = 2000;
    cfg.common.recovery.policy = RecoveryPolicy::Retransmit;

    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    const FaultReport report = sim.faultReport();

    EXPECT_GT(report.totalInjected(), 0u);
    EXPECT_EQ(sim.lifetime().faultDropped, 0u);
    EXPECT_GT(report.recovery.packetsRecovered, 0u);
    EXPECT_EQ(report.recovery.packetsLostAfterRetry, 0u);
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_EQ(result.watchdogTrips, 0u);
    expectAccountingClosed(sim);
}

// -------------------------------- rerouting around permanent failures

FabricConfig
brokenTorus(double fraction, RecoveryPolicy policy)
{
    FabricConfig cfg = FabricConfig::torus(); // 8x8, blocking, two dateline VCs
    cfg.offeredLoad = 0.08;
    cfg.common.warmupCycles = 500;
    cfg.common.measureCycles = 4000;
    cfg.common.faults.seed = 1988;
    cfg.common.faults.linkDownFraction = fraction;
    cfg.common.auditEveryCycles = 250;
    cfg.common.watchdogStallCycles = 2000;
    cfg.common.recovery.policy = policy;
    return cfg;
}

TEST(Rerouting, TorusSustainsDeliveryAroundDeadLinks)
{
    FabricSimulator sim(
        brokenTorus(0.10, RecoveryPolicy::RetransmitReroute));
    const core::SyncResult result = sim.run();
    const FaultReport report = sim.faultReport();

    // The protocol burned through its retries and declared the
    // forced-down links dead, then detoured around them.
    EXPECT_GT(report.recovery.deadLinksDeclared, 0u);
    EXPECT_GT(report.recovery.packetsRerouted, 0u);

    // Delivery is sustained at the offered load...
    EXPECT_GT(result.deliveredThroughput, 0.07);
    // ...with the watchdog armed and silent, and the accounting
    // identity intact at every audit.
    EXPECT_EQ(result.watchdogTrips, 0u);
    EXPECT_FALSE(report.watchdogFired);
    EXPECT_EQ(report.auditViolations, 0u);
    expectAccountingClosed(sim);

    // Detection-only loses a large share of the same traffic.
    FabricSimulator none(brokenTorus(0.10, RecoveryPolicy::None));
    none.run();
    ASSERT_GT(none.lifetime().faultDropped, 0u);
    EXPECT_LT(sim.lifetime().faultDropped * 10,
              none.lifetime().faultDropped);
}

TEST(Rerouting, SameSeedSameOutcome)
{
    const FabricConfig cfg =
        brokenTorus(0.05, RecoveryPolicy::RetransmitReroute);

    FabricSimulator a(cfg);
    FabricSimulator b(cfg);
    const core::SyncResult ra = a.run();
    const core::SyncResult rb = b.run();

    EXPECT_EQ(a.lifetime().injected, b.lifetime().injected);
    EXPECT_EQ(a.lifetime().delivered, b.lifetime().delivered);
    EXPECT_EQ(a.lifetime().faultDropped, b.lifetime().faultDropped);
    EXPECT_EQ(ra.deliveredThroughput, rb.deliveredThroughput);
    EXPECT_EQ(ra.latencyP99, rb.latencyP99);

    const FaultReport fa = a.faultReport();
    const FaultReport fb = b.faultReport();
    EXPECT_EQ(fa.recovery.framesSent, fb.recovery.framesSent);
    EXPECT_EQ(fa.recovery.retransmits, fb.recovery.retransmits);
    EXPECT_EQ(fa.recovery.deadLinksDeclared,
              fb.recovery.deadLinksDeclared);
    EXPECT_EQ(fa.recovery.packetsRerouted,
              fb.recovery.packetsRerouted);
}

TEST(Rerouting, EpisodicLinkFaultsHealThroughRevivalProbes)
{
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 4;
    cfg.height = 4;
    cfg.offeredLoad = 0.2;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 6000;
    cfg.common.faults.seed = 5;
    cfg.common.faults.linkDownRate = 2e-4;
    cfg.common.faults.linkDownCycles = 300;
    cfg.common.auditEveryCycles = 250;
    cfg.common.watchdogStallCycles = 2000;
    cfg.common.recovery.policy = RecoveryPolicy::RetransmitReroute;
    cfg.common.recovery.reviveProbeCycles = 32;

    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    const FaultReport report = sim.faultReport();

    ASSERT_GT(report.injectedOf(FaultKind::LinkDown), 0u);
    EXPECT_GT(report.recovery.deadLinksDeclared, 0u);
    // Episodes end, probes notice, links come back.
    EXPECT_GT(report.recovery.linksRevived, 0u);
    EXPECT_EQ(result.watchdogTrips, 0u);
    EXPECT_EQ(report.auditViolations, 0u);
    expectAccountingClosed(sim);
}

// ------------------------------------------------ router-down episodes

TEST(RouterDown, FrozenSwitchEpisodesAreDetectedAndAccounted)
{
    FabricConfig cfg;
    cfg.numPorts = 16;
    cfg.radix = 4;
    cfg.offeredLoad = 0.3;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 4000;
    cfg.common.faults.seed = 21;
    cfg.common.faults.routerDownRate = 1e-4;
    cfg.common.faults.routerDownCycles = 100;
    cfg.common.auditEveryCycles = 200;

    FabricSimulator sim(cfg);
    sim.run();
    const FaultReport report = sim.faultReport();

    ASSERT_GT(report.injectedOf(FaultKind::RouterDown), 0u);
    // Frames into a frozen switch are lost — and charged.
    EXPECT_GT(sim.lifetime().faultDropped, 0u);
    EXPECT_EQ(report.auditViolations, 0u);
    expectAccountingClosed(sim);
}

} // namespace
} // namespace damq
