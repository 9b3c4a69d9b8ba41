/**
 * @file
 * Long fault soaks (ctest label `soak`): the recovery protocol run
 * an order of magnitude longer than the unit suites, under the
 * sanitizers in CI.  A wedge, a leak, or an accounting drift that
 * needs tens of thousands of cycles to surface shows up here, not
 * in the fast suites.
 */

#include <gtest/gtest.h>

#include "fault/fault_report.hh"
#include "network/fabric_sim.hh"

namespace damq {
namespace {

TEST(FaultSoak, TorusRerouteSurvivesLongRunWithDeadLinks)
{
    FabricConfig cfg = FabricConfig::torus(); // 8x8, blocking, two dateline VCs
    cfg.offeredLoad = 0.08;
    cfg.common.warmupCycles = 1000;
    cfg.common.measureCycles = 20000;
    cfg.common.faults.seed = 1988;
    cfg.common.faults.linkDownFraction = 0.10;
    cfg.common.auditEveryCycles = 500;
    cfg.common.watchdogStallCycles = 2000;
    cfg.common.recovery.policy = RecoveryPolicy::RetransmitReroute;

    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    const FaultReport report = sim.faultReport();

    EXPECT_GT(report.recovery.deadLinksDeclared, 0u);
    EXPECT_GT(report.recovery.packetsRerouted, 0u);
    EXPECT_GT(result.deliveredThroughput, 0.07);
    EXPECT_EQ(result.watchdogTrips, 0u);
    EXPECT_FALSE(report.watchdogFired);
    EXPECT_EQ(report.auditViolations, 0u);

    const NetworkCounters &life = sim.lifetime();
    EXPECT_EQ(life.injected, life.delivered + life.discarded() +
                                 life.faultDropped +
                                 sim.packetsInFlight());
    EXPECT_EQ(life.misrouted, 0u);
}

TEST(FaultSoak, TorusSurvivesLinkChurnWithRevivals)
{
    // episodes start, die, and heal, repeatedly
    FabricConfig cfg = FabricConfig::torus();
    cfg.offeredLoad = 0.08;
    cfg.common.warmupCycles = 1000;
    cfg.common.measureCycles = 20000;
    cfg.common.faults.seed = 7;
    cfg.common.faults.linkDownRate = 5e-5;
    cfg.common.faults.linkDownCycles = 400;
    cfg.common.auditEveryCycles = 500;
    cfg.common.watchdogStallCycles = 2000;
    cfg.common.recovery.policy = RecoveryPolicy::RetransmitReroute;
    cfg.common.recovery.reviveProbeCycles = 64;

    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    const FaultReport report = sim.faultReport();

    ASSERT_GT(report.injectedOf(FaultKind::LinkDown), 0u);
    EXPECT_GT(report.recovery.deadLinksDeclared, 0u);
    EXPECT_GT(report.recovery.linksRevived, 0u);
    EXPECT_EQ(result.watchdogTrips, 0u);
    EXPECT_EQ(report.auditViolations, 0u);

    const NetworkCounters &life = sim.lifetime();
    EXPECT_EQ(life.injected, life.delivered + life.discarded() +
                                 life.faultDropped +
                                 sim.packetsInFlight());
}

TEST(FaultSoak, OmegaRetransmissionStaysLosslessOverLongRun)
{
    FabricConfig cfg;
    cfg.numPorts = 64;
    cfg.radix = 4;
    cfg.offeredLoad = 0.5;
    cfg.common.warmupCycles = 1000;
    cfg.common.measureCycles = 20000;
    cfg.common.faults.seed = 1988;
    cfg.common.faults.packetDropRate = 0.005;
    cfg.common.faults.headerBitFlipRate = 0.005;
    cfg.common.auditEveryCycles = 500;
    cfg.common.recovery.policy = RecoveryPolicy::Retransmit;

    FabricSimulator sim(cfg);
    sim.run();
    const FaultReport report = sim.faultReport();

    EXPECT_GT(report.totalInjected(), 0u);
    EXPECT_EQ(sim.lifetime().faultDropped, 0u);
    EXPECT_GT(report.recovery.packetsRecovered, 0u);
    EXPECT_EQ(report.recovery.packetsLostAfterRetry, 0u);
    EXPECT_EQ(report.auditViolations, 0u);

    const NetworkCounters &life = sim.lifetime();
    EXPECT_EQ(life.injected, life.delivered + life.discarded() +
                                 life.faultDropped +
                                 sim.packetsInFlight());
    EXPECT_EQ(life.misrouted, 0u);
}

} // namespace
} // namespace damq
