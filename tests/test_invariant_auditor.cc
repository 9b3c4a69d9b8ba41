/**
 * @file
 * Invariant-audit tests: healthy buffers of every organization pass
 * their own checkInvariants(), each deliberately injected corruption
 * class is detected (slot leak, broken chain, double-owned slot, the
 * DAMQR reserved-slot guarantee), grant legality is enforced, and a
 * network-level audit names the faulty component and cycle.  The
 * deadlock watchdog fires on a wedged network with a deterministic
 * snapshot.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fault/invariant_auditor.hh"
#include "fault/watchdog.hh"
#include "network/fabric_sim.hh"
#include "queueing/buffer_factory.hh"
#include "queueing/damq_buffer.hh"
#include "queueing/damq_reserved_buffer.hh"

namespace damq {
namespace {

Packet
makePacket(PacketId id, PortId out)
{
    Packet p;
    p.id = id;
    p.source = 0;
    p.dest = 0;
    p.outPort = out;
    p.lengthSlots = 1;
    return p;
}

bool
anyContains(const std::vector<std::string> &violations,
            const std::string &needle)
{
    for (const std::string &v : violations)
        if (v.find(needle) != std::string::npos)
            return true;
    return false;
}

// ------------------------------------------------- healthy buffers

TEST(InvariantAudit, HealthyBuffersOfEveryTypePass)
{
    for (const BufferType type :
         {BufferType::Fifo, BufferType::Samq, BufferType::Safc,
          BufferType::Damq, BufferType::DamqR}) {
        auto buf = makeBuffer(type, 4, 8);
        for (PacketId id = 0; id < 4; ++id) {
            const PortId out = static_cast<PortId>(id % 4);
            if (buf->canAccept(out, 1))
                buf->push(makePacket(id, out));
        }
        if (buf->queueLength(1) > 0)
            buf->pop(1);
        EXPECT_TRUE(buf->checkInvariants().empty())
            << bufferTypeName(type) << ": "
            << buf->checkInvariants().front();
    }
}

// --------------------------------------------- corruption detection

TEST(InvariantAudit, DamqSlotLeakIsDetected)
{
    DamqBuffer buf(4, 6);
    buf.push(makePacket(1, 0));
    ASSERT_TRUE(buf.checkInvariants().empty());

    ASSERT_TRUE(buf.faultLeakSlot());
    const auto violations = buf.checkInvariants();
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(anyContains(violations, "leaked"))
        << violations.front();
}

TEST(InvariantAudit, DamqBrokenChainIsDetected)
{
    DamqBuffer buf(4, 6);
    buf.push(makePacket(1, 2));
    buf.push(makePacket(2, 2));
    buf.push(makePacket(3, 2));
    ASSERT_TRUE(buf.checkInvariants().empty());

    // Truncate output 2's chain: its head now points into the free
    // list, so one queued slot is double-owned and the chain no
    // longer reaches the tail register.
    buf.testCorruptNextPointer(0, 5);
    EXPECT_FALSE(buf.checkInvariants().empty());
}

TEST(InvariantAudit, DamqSelfLoopIsDetected)
{
    DamqBuffer buf(4, 6);
    buf.push(makePacket(1, 0));
    buf.push(makePacket(2, 0));
    buf.push(makePacket(3, 0));

    // A slot whose next pointer latched its own address: the walk
    // must terminate and report, not spin.
    buf.testCorruptNextPointer(1, 1);
    EXPECT_FALSE(buf.checkInvariants().empty());
}

TEST(InvariantAudit, DamqRReservedGuaranteeViolationIsDetected)
{
    DamqReservedBuffer buf(4, 8);
    ASSERT_TRUE(buf.checkInvariants().empty());

    // Leak slots until fewer remain free than there are empty
    // queues; the 1992 reserved-slot guarantee is now broken even
    // though the inner DAMQ structure stays consistent.
    std::uint32_t leaked = 0;
    while (buf.capacitySlots() - buf.usedSlots() >= 4 && leaked < 8) {
        ASSERT_TRUE(buf.faultLeakSlot());
        ++leaked;
    }
    const auto violations = buf.checkInvariants();
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(anyContains(violations, "reserved-slot guarantee"))
        << violations.front();
}

TEST(InvariantAudit, FifoAndPartitionedLeaksAreDetected)
{
    for (const BufferType type :
         {BufferType::Fifo, BufferType::Samq, BufferType::Safc}) {
        auto buf = makeBuffer(type, 4, 8);
        ASSERT_TRUE(buf->checkInvariants().empty());
        ASSERT_TRUE(buf->faultLeakSlot()) << bufferTypeName(type);
        EXPECT_FALSE(buf->checkInvariants().empty())
            << bufferTypeName(type);
    }
}

// ------------------------------------------------- grant legality

TEST(InvariantAudit, LegalGrantsPass)
{
    const GrantList grants = {{0, 1}, {1, 0}, {2, 3}};
    EXPECT_TRUE(auditGrantLegality(grants, 4, 4, 1).empty());
}

TEST(InvariantAudit, DoubleGrantedOutputIsIllegal)
{
    const GrantList grants = {{0, 1}, {2, 1}};
    const auto violations = auditGrantLegality(grants, 4, 4, 1);
    ASSERT_FALSE(violations.empty());
    EXPECT_TRUE(anyContains(violations, "output 1"))
        << violations.front();
}

TEST(InvariantAudit, InputOverReadBandwidthIsIllegal)
{
    const GrantList grants = {{0, 1}, {0, 2}};
    EXPECT_FALSE(auditGrantLegality(grants, 4, 4, 1).empty());
    // SAFC has one read port per partition, so the same schedule is
    // legal at read bandwidth n.
    EXPECT_TRUE(auditGrantLegality(grants, 4, 4, 4).empty());
}

TEST(InvariantAudit, OutOfRangeGrantIsIllegal)
{
    const GrantList grants = {{5, 1}};
    EXPECT_FALSE(auditGrantLegality(grants, 4, 4, 1).empty());
}

// ------------------------------------- network-level fault audits

TEST(InvariantAudit, NetworkAuditCatchesInjectedSlotLeaks)
{
    FabricConfig cfg;
    cfg.numPorts = 16;
    cfg.radix = 4;
    cfg.offeredLoad = 0.4;
    cfg.common.warmupCycles = 0;
    cfg.common.measureCycles = 500;
    cfg.common.faults.seed = 3;
    cfg.common.faults.slotLeakRate = 0.02;
    cfg.common.auditEveryCycles = 25;

    FabricSimulator sim(cfg);
    sim.run();
    const FaultReport report = sim.faultReport();

    ASSERT_GT(report.injectedOf(FaultKind::SlotLeak), 0u);
    ASSERT_GT(report.auditViolations, 0u);
    // The diagnostic names the owning component and the audit cycle.
    ASSERT_FALSE(report.violationSamples.empty());
    const std::string &sample = report.violationSamples.front();
    EXPECT_NE(sample.find("cycle "), std::string::npos) << sample;
    EXPECT_NE(sample.find("stage"), std::string::npos) << sample;
    EXPECT_NE(sample.find("leaked"), std::string::npos) << sample;
}

TEST(InvariantAudit, WatchdogCatchesStuckArbiterWedge)
{
    FabricConfig cfg;
    cfg.numPorts = 16;
    cfg.radix = 4;
    cfg.offeredLoad = 0.5;
    cfg.common.warmupCycles = 0;
    cfg.common.measureCycles = 300;
    cfg.common.faults.seed = 3;
    cfg.common.faults.arbiterStuckRate = 1.0; // every arbiter, every cycle
    cfg.common.watchdogStallCycles = 50;

    FabricSimulator sim(cfg);
    sim.run();
    const FaultReport report = sim.faultReport();

    ASSERT_GT(report.injectedOf(FaultKind::ArbiterStuck), 0u);
    ASSERT_TRUE(report.watchdogFired);
    EXPECT_GE(report.watchdogFiredAt, 50u);
    // The diagnostic names a wedged component and embeds the
    // deterministic snapshot with both seeds.
    EXPECT_NE(report.watchdogDiagnostic.find("stage0.sw0"),
              std::string::npos)
        << report.watchdogDiagnostic;
    EXPECT_NE(report.watchdogDiagnostic.find("snapshot at cycle"),
              std::string::npos);
    EXPECT_NE(report.watchdogDiagnostic.find("fault seed"),
              std::string::npos);
}

TEST(InvariantAudit, SnapshotIsDeterministic)
{
    FabricConfig cfg;
    cfg.numPorts = 16;
    cfg.radix = 4;
    cfg.offeredLoad = 0.5;

    FabricSimulator a(cfg);
    FabricSimulator b(cfg);
    for (int c = 0; c < 200; ++c) {
        a.step();
        b.step();
    }
    EXPECT_EQ(a.snapshotText(), b.snapshotText());
    EXPECT_NE(a.snapshotText().find("seed 1"), std::string::npos);
}

} // namespace
} // namespace damq
