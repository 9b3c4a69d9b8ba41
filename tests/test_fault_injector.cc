/**
 * @file
 * Fault-injection tests: the plan is deterministic per seed, every
 * hook is draw-free when disabled (so fault-off runs stay
 * bit-identical), corrupted headers are detected by the checksum
 * rather than silently absorbed, and the network simulators
 * survive fault-mode runs with the accounting closed.
 */

#include <gtest/gtest.h>

#include <vector>

#include "fault/fault_injector.hh"
#include "microarch/crossbar_arbiter.hh"
#include "microarch/link.hh"
#include "network/fabric_sim.hh"
#include "queueing/packet.hh"

namespace damq {
namespace {

Packet
sealedPacket(PacketId id)
{
    Packet p;
    p.id = id;
    p.source = 3;
    p.dest = 5;
    p.lengthSlots = 1;
    p.seq = static_cast<std::uint32_t>(id);
    sealHeader(p);
    return p;
}

// ------------------------------------------------------- determinism

TEST(FaultInjector, SameSeedSameFaultPlan)
{
    FaultConfig cfg;
    cfg.seed = 42;
    cfg.packetDropRate = 0.1;
    cfg.arbiterStuckRate = 0.05;

    FaultInjector a(cfg);
    FaultInjector b(cfg);
    a.addComponent("sw0");
    b.addComponent("sw0");

    std::vector<bool> plan_a, plan_b;
    for (Cycle c = 1; c <= 500; ++c) {
        Packet pa = sealedPacket(c);
        Packet pb = sealedPacket(c);
        plan_a.push_back(a.dropOnLink(0, c, pa));
        plan_a.push_back(a.arbiterStuck(0, c));
        plan_b.push_back(b.dropOnLink(0, c, pb));
        plan_b.push_back(b.arbiterStuck(0, c));
    }
    EXPECT_EQ(plan_a, plan_b);
    EXPECT_GT(a.injectedCount(FaultKind::PacketDrop), 0u);
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    FaultConfig cfg;
    cfg.packetDropRate = 0.1;

    cfg.seed = 1;
    FaultInjector a(cfg);
    cfg.seed = 2;
    FaultInjector b(cfg);
    a.addComponent("sw0");
    b.addComponent("sw0");

    std::vector<bool> plan_a, plan_b;
    for (Cycle c = 1; c <= 500; ++c) {
        Packet p = sealedPacket(c);
        plan_a.push_back(a.dropOnLink(0, c, p));
        plan_b.push_back(b.dropOnLink(0, c, p));
    }
    EXPECT_NE(plan_a, plan_b);
}

TEST(FaultInjector, DisabledHooksNeverFire)
{
    FaultInjector inj(FaultConfig{}); // all rates zero
    inj.addComponent("sw0");
    EXPECT_FALSE(inj.enabled());
    for (Cycle c = 1; c <= 100; ++c) {
        Packet p = sealedPacket(c);
        EXPECT_FALSE(inj.dropOnLink(0, c, p));
        EXPECT_FALSE(inj.corruptOnLink(0, c, p));
        EXPECT_FALSE(inj.arbiterStuck(0, c));
        EXPECT_FALSE(inj.creditDelayed(0, c));
        EXPECT_FALSE(inj.rollSlotLeak(0, c));
        EXPECT_TRUE(headerIntact(p));
    }
    EXPECT_EQ(inj.injectedCount(FaultKind::PacketDrop), 0u);
}

TEST(FaultInjector, StuckEpisodesAreMemoizedPerCycle)
{
    FaultConfig cfg;
    cfg.arbiterStuckRate = 1.0;
    cfg.arbiterStuckCycles = 3;
    FaultInjector inj(cfg);
    inj.addComponent("sw0");

    // Rate 1.0: always inside an episode, and asking twice in the
    // same cycle must give the same answer without a second roll.
    for (Cycle c = 1; c <= 10; ++c) {
        EXPECT_TRUE(inj.arbiterStuck(0, c));
        EXPECT_TRUE(inj.arbiterStuck(0, c));
    }
    // Episodes are counted once per start, not once per query.
    EXPECT_LE(inj.injectedCount(FaultKind::ArbiterStuck), 10u);
    EXPECT_GE(inj.injectedCount(FaultKind::ArbiterStuck), 3u);
}

// ------------------------------------------------ checksum detection

TEST(FaultInjector, CorruptionBreaksTheHeaderSeal)
{
    FaultConfig cfg;
    cfg.headerBitFlipRate = 1.0;
    FaultInjector inj(cfg);
    inj.addComponent("link0");

    Packet p = sealedPacket(7);
    ASSERT_TRUE(headerIntact(p));
    ASSERT_TRUE(inj.corruptOnLink(0, 1, p));
    EXPECT_FALSE(headerIntact(p));
    EXPECT_EQ(inj.injectedCount(FaultKind::HeaderBitFlip), 1u);
}

TEST(FaultInjector, EventsNameComponentAndCycle)
{
    FaultConfig cfg;
    cfg.packetDropRate = 1.0;
    FaultInjector inj(cfg);
    inj.addComponent("stage2.sw7");

    Packet p = sealedPacket(9);
    ASSERT_TRUE(inj.dropOnLink(0, 123, p));

    FaultReport report;
    inj.fillReport(report);
    ASSERT_FALSE(report.events.empty());
    EXPECT_EQ(report.events[0].component, "stage2.sw7");
    EXPECT_EQ(report.events[0].cycle, 123u);
    EXPECT_EQ(report.events[0].kind, FaultKind::PacketDrop);
}

// ------------------------------------------------------ bit-identity

TEST(FaultInjector, FaultFreeRunIsBitIdenticalWithAuditingOn)
{
    FabricConfig base;
    base.numPorts = 16;
    base.radix = 4;
    base.common.warmupCycles = 200;
    base.common.measureCycles = 1000;

    FabricConfig audited = base;
    audited.common.auditEveryCycles = 50;
    audited.common.watchdogStallCycles = 500;

    FabricSimulator plain(base);
    FabricSimulator instrumented(audited);
    const core::SyncResult r1 = plain.run();
    const core::SyncResult r2 = instrumented.run();

    EXPECT_EQ(r1.window.delivered, r2.window.delivered);
    EXPECT_EQ(r1.window.generated, r2.window.generated);
    EXPECT_EQ(r1.window.discarded(), r2.window.discarded());
    EXPECT_DOUBLE_EQ(r1.latency.mean(),
                     r2.latency.mean());

    const FaultReport report = instrumented.faultReport();
    EXPECT_EQ(report.totalInjected(), 0u);
    EXPECT_GT(report.auditsRun, 0u);
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_FALSE(report.watchdogFired);
}

// ----------------------------------------- fault-mode end-to-end runs

TEST(FaultInjector, OmegaFaultRunAccountsForEveryLoss)
{
    FabricConfig cfg;
    cfg.numPorts = 16;
    cfg.radix = 4;
    cfg.offeredLoad = 0.4;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 2000;
    cfg.common.faults.seed = 7;
    cfg.common.faults.packetDropRate = 0.002;
    cfg.common.faults.headerBitFlipRate = 0.002;
    cfg.common.auditEveryCycles = 100;

    FabricSimulator sim(cfg);
    sim.run();
    const FaultReport report = sim.faultReport();

    EXPECT_GT(report.injectedOf(FaultKind::PacketDrop), 0u);
    EXPECT_GT(report.injectedOf(FaultKind::HeaderBitFlip), 0u);
    // Every corrupted header was caught by the seal check.
    EXPECT_EQ(report.corruptionsDetected,
              report.injectedOf(FaultKind::HeaderBitFlip));
    // Every fault-removed packet is in the counters.
    EXPECT_EQ(sim.lifetime().faultDropped,
              report.injectedOf(FaultKind::PacketDrop) +
                  report.corruptionsDetected);
    // The accounting identity held at every audit.
    EXPECT_GT(report.auditsRun, 0u);
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_EQ(sim.lifetime().misrouted, 0u);
}

TEST(FaultInjector, MeshFaultRunAccountsForEveryLoss)
{
    FabricConfig cfg = FabricConfig::mesh();
    cfg.width = 4;
    cfg.height = 4;
    cfg.offeredLoad = 0.2;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 2000;
    cfg.common.faults.seed = 7;
    cfg.common.faults.packetDropRate = 0.002;
    cfg.common.faults.headerBitFlipRate = 0.002;
    cfg.common.faults.creditDelayRate = 0.01;
    cfg.common.auditEveryCycles = 100;

    FabricSimulator sim(cfg);
    sim.run();
    const FaultReport report = sim.faultReport();

    EXPECT_GT(report.totalInjected(), 0u);
    EXPECT_EQ(report.corruptionsDetected,
              report.injectedOf(FaultKind::HeaderBitFlip));
    EXPECT_EQ(sim.lifetime().faultDropped,
              report.injectedOf(FaultKind::PacketDrop) +
                  report.corruptionsDetected);
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_EQ(sim.lifetime().misrouted, 0u);
}

// ------------------------------- soft faults under VC>1 addressing

// The credit-delay and slot-leak hooks predate the QueueKey
// generalization; these runs pin down that both still behave under
// multi-VC (per-(port, vc) queue) addressing on the torus.

TEST(FaultInjector, CreditDelayUnderTwoVcsStallsWithoutLosing)
{
    // blocking, two dateline VCs per link
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 4;
    cfg.height = 4;
    cfg.offeredLoad = 0.2;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 3000;
    cfg.common.faults.seed = 13;
    cfg.common.faults.creditDelayRate = 0.02;
    cfg.common.faults.creditDelayCycles = 3;
    cfg.common.auditEveryCycles = 100;
    cfg.common.watchdogStallCycles = 2000;
    ASSERT_EQ(cfg.common.vcs, 2u);

    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    const FaultReport report = sim.faultReport();

    ASSERT_GT(report.injectedOf(FaultKind::CreditDelay), 0u);
    // Credit stalls delay transfers; they never remove packets, and
    // a stall is not a deadlock.
    EXPECT_EQ(sim.lifetime().faultDropped, 0u);
    EXPECT_EQ(result.watchdogTrips, 0u);
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_EQ(sim.lifetime().injected,
              sim.lifetime().delivered +
                  sim.lifetime().discarded() +
                  sim.packetsInFlight());
    EXPECT_EQ(sim.lifetime().misrouted, 0u);
}

TEST(FaultInjector, SlotLeakUnderTwoVcsIsCaughtByTheAudit)
{
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 4;
    cfg.height = 4;
    cfg.offeredLoad = 0.2;
    cfg.common.warmupCycles = 0;
    cfg.common.measureCycles = 1000;
    cfg.common.faults.seed = 13;
    cfg.common.faults.slotLeakRate = 0.01;
    cfg.common.auditEveryCycles = 50;
    ASSERT_EQ(cfg.common.vcs, 2u);

    FabricSimulator sim(cfg);
    sim.run();
    const FaultReport report = sim.faultReport();

    ASSERT_GT(report.injectedOf(FaultKind::SlotLeak), 0u);
    // Leaked slots break the capacity invariant, and the periodic
    // audit names the owning node even with per-VC queues.
    ASSERT_GT(report.auditViolations, 0u);
    ASSERT_FALSE(report.violationSamples.empty());
    const std::string &sample = report.violationSamples.front();
    EXPECT_NE(sample.find("node"), std::string::npos) << sample;
    EXPECT_NE(sample.find("leaked"), std::string::npos) << sample;
    // A leak loses capacity, never packets.
    EXPECT_EQ(sim.lifetime().faultDropped, 0u);
    EXPECT_EQ(sim.lifetime().misrouted, 0u);
}

// ------------------------------------------------- microarch hooks

TEST(MicroFaultHooks, LinkDataFaultFlipsWireBits)
{
    micro::Link link;
    link.driveData(0xA5);
    link.injectDataFault(0x01);
    EXPECT_EQ(link.current().data, 0xA4);
    EXPECT_TRUE(link.current().hasData);
    link.endCycle();
    EXPECT_FALSE(link.current().hasData);
}

TEST(MicroFaultHooks, ArbiterJamSuppressesGrantsUntilDeadline)
{
    micro::CrossbarArbiter arbiter(2);
    arbiter.jamUntil(10);
    EXPECT_TRUE(arbiter.jammed(0));
    EXPECT_TRUE(arbiter.jammed(9));
    EXPECT_FALSE(arbiter.jammed(10));
    EXPECT_FALSE(arbiter.jammed(11));
}

} // namespace
} // namespace damq
