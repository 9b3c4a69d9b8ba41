/**
 * @file
 * Tests for the virtual-channel layer: QueueKey/QueueLayout
 * addressing, the dateline VC assignment on torus rings, the
 * shared-pool escape-slot rule, per-(output, VC) FIFO order, the
 * one-grant-per-physical-output arbitration rule, and the headline
 * property — a *blocking* torus at saturation runs 50k cycles with
 * the deadlock watchdog armed and never trips it.
 */

#include <gtest/gtest.h>

#include "fault/invariant_auditor.hh"
#include "network/core/grid_topology.hh"
#include "network/core/vc_policy.hh"
#include "network/fabric_sim.hh"
#include "queueing/buffer_factory.hh"
#include "switchsim/switch_model.hh"

namespace damq {
namespace {

// ------------------------------------------------------- addressing

TEST(QueueKeyTest, ImplicitFromPortIdIsVcZero)
{
    const QueueKey key = PortId{3};
    EXPECT_EQ(key.out, 3u);
    EXPECT_EQ(key.vc, 0u);
    EXPECT_TRUE(key.valid());
    EXPECT_FALSE(kInvalidQueue.valid());
}

TEST(QueueLayoutTest, SingleVcFlatIndexIsTheOutputPort)
{
    const QueueLayout layout(5); // implicit: one VC
    EXPECT_EQ(layout.vcs, 1u);
    EXPECT_EQ(layout.numQueues(), 5u);
    for (PortId out = 0; out < 5; ++out) {
        EXPECT_EQ(layout.flatten(out), out);
        EXPECT_EQ(layout.unflatten(out), QueueKey{out});
    }
}

TEST(QueueLayoutTest, FlattenUnflattenRoundTripsOutMajor)
{
    const QueueLayout layout(5, 2);
    EXPECT_EQ(layout.numQueues(), 10u);
    std::uint32_t flat = 0;
    for (PortId out = 0; out < 5; ++out) {
        for (VcId vc = 0; vc < 2; ++vc, ++flat) {
            const QueueKey key{out, vc};
            EXPECT_TRUE(layout.contains(key));
            EXPECT_EQ(layout.flatten(key), flat);
            EXPECT_EQ(layout.unflatten(flat), key);
        }
    }
    EXPECT_FALSE(layout.contains(QueueKey{5, 0}));
    EXPECT_FALSE(layout.contains(QueueKey{0, 2}));
}

// ------------------------------------------------- dateline policy

/** A packet mid-flight for VcAllocator queries. */
Packet
inFlight(PortId in_port, VcId vc)
{
    Packet pkt;
    pkt.inPort = in_port;
    pkt.vc = vc;
    return pkt;
}

TEST(VcAllocatorTest, SingleVcAlwaysAssignsVcZero)
{
    core::TorusTopology torus(4, 4);
    const core::VcAllocator alloc(torus, VcPolicy::Dateline, 1);
    EXPECT_EQ(alloc.linkVc(inFlight(kWest, 0), 3, kEast),
              0u);
}

TEST(VcAllocatorTest, NonePolicyAssignsVcZero)
{
    core::TorusTopology torus(4, 4);
    const core::VcAllocator alloc(torus, VcPolicy::None, 2);
    // Node 3 = (3,0): east is the X wraparound, yet policy none
    // ignores the dateline.
    EXPECT_EQ(alloc.linkVc(inFlight(kWest, 0), 3, kEast),
              0u);
}

TEST(VcAllocatorTest, DatelineCrossingSwitchesToEscapeVc)
{
    core::TorusTopology torus(4, 4);
    const core::VcAllocator alloc(torus, VcPolicy::Dateline, 2);
    // Node 3 = (3,0): the eastward hop wraps around the X ring.
    EXPECT_EQ(alloc.linkVc(inFlight(kWest, 0), 3, kEast),
              1u);
    // Node 1 = (1,0): plain eastward hop, stay on VC 0.
    EXPECT_EQ(alloc.linkVc(inFlight(kWest, 0), 1, kEast),
              0u);
}

TEST(VcAllocatorTest, VcPersistsAlongRingAndResetsOnTurn)
{
    core::TorusTopology torus(4, 4);
    const core::VcAllocator alloc(torus, VcPolicy::Dateline, 2);
    // Continuing east after the wrap: still dimension 0, keep VC 1.
    EXPECT_EQ(alloc.linkVc(inFlight(kWest, 1), 0, kEast),
              1u);
    // Turning north leaves the X ring: restart at VC 0 (node 1 is
    // not on the Y dateline for a northward hop).
    EXPECT_EQ(alloc.linkVc(inFlight(kWest, 1), 1, kNorth),
              0u);
    // Fresh injection (no input port) starts at VC 0.
    EXPECT_EQ(alloc.linkVc(inFlight(kInvalidPort, 0), 1, kEast),
              0u);
}

TEST(VcAllocatorTest, MeshHasNoDateline)
{
    core::MeshTopology mesh(4, 4);
    const core::VcAllocator alloc(mesh, VcPolicy::Dateline, 2);
    // The mesh edge has no wraparound channel, so nothing crosses a
    // dateline and every assignment stays on the packet's ring VC.
    EXPECT_EQ(alloc.linkVc(inFlight(kWest, 0), 1, kEast),
              0u);
}

// ---------------------------------------------- escape-slot rule

TEST(EscapeSlotTest, SharedPoolKeepsOneSlotPerEmptyVc)
{
    // DAMQ pool of 10 slots over 5 outputs x 2 VCs.  VC 1 starts
    // empty, so VC 0 may fill at most 9 slots: the tenth is VC 1's
    // escape slot.
    const auto buffer = makeBuffer(BufferType::Damq,
                                   QueueLayout{5, 2}, 10);
    Packet pkt;
    pkt.lengthSlots = 1;
    pkt.outPort = 0;
    pkt.vc = 0;
    for (PacketId id = 0; id < 9; ++id) {
        pkt.id = id;
        ASSERT_TRUE(buffer->canAccept(QueueKey{0, 0}, 1));
        buffer->push(pkt);
    }
    EXPECT_EQ(buffer->usedSlots(), 9u);
    EXPECT_EQ(buffer->vcPackets(0), 9u);
    EXPECT_EQ(buffer->vcPackets(1), 0u);

    // VC 0 cannot take the escape slot...
    EXPECT_FALSE(buffer->canAccept(QueueKey{0, 0}, 1));
    EXPECT_FALSE(buffer->canAccept(QueueKey{3, 0}, 1));
    // ...but the empty VC 1 can, on any output.
    ASSERT_TRUE(buffer->canAccept(QueueKey{2, 1}, 1));
    pkt.id = 100;
    pkt.outPort = 2;
    pkt.vc = 1;
    buffer->push(pkt);
    EXPECT_EQ(buffer->usedSlots(), 10u);

    // Pool is now genuinely full for everyone.
    EXPECT_FALSE(buffer->canAccept(QueueKey{0, 0}, 1));
    EXPECT_FALSE(buffer->canAccept(QueueKey{2, 1}, 1));

    // Draining VC 1 re-establishes its escape slot: the freed slot
    // is *not* available to VC 0.
    buffer->pop(QueueKey{2, 1});
    EXPECT_EQ(buffer->vcPackets(1), 0u);
    EXPECT_FALSE(buffer->canAccept(QueueKey{0, 0}, 1));
    EXPECT_TRUE(buffer->canAccept(QueueKey{2, 1}, 1));
    buffer->debugValidate();
}

TEST(EscapeSlotTest, SingleVcLayoutHasNoEscapeSlots)
{
    const auto buffer = makeBuffer(BufferType::Damq,
                                   QueueLayout{5, 1}, 10);
    Packet pkt;
    pkt.lengthSlots = 1;
    pkt.outPort = 0;
    for (PacketId id = 0; id < 10; ++id) {
        pkt.id = id;
        ASSERT_TRUE(buffer->canAccept(QueueKey{0, 0}, 1));
        buffer->push(pkt);
    }
    EXPECT_EQ(buffer->usedSlots(), 10u); // the whole pool
}

TEST(EscapeSlotTest, PolicyLayerReproducesTheEscapeRule)
{
    // The escape-slot arithmetic now lives in the admission-policy
    // layer (admissionFeasible's guaranteeSlots term).  Replay the
    // SharedPoolKeepsOneSlotPerEmptyVc scenario through the raw
    // admit() surface and check the charged slots too — the policy
    // must be byte-identical to the historical rule, not merely
    // agree on this trace's accept bits by luck.
    const auto buffer = makeBuffer(BufferType::Damq,
                                   QueueLayout{5, 2}, 10);
    EXPECT_STREQ(buffer->admissionPolicy().name(), "static");
    Packet pkt;
    pkt.lengthSlots = 1;
    pkt.outPort = 0;
    pkt.vc = 0;
    for (PacketId id = 0; id < 9; ++id) {
        pkt.id = id;
        const AdmissionDecision d = buffer->admit(QueueKey{0, 0}, 1, 0);
        ASSERT_TRUE(d.accept);
        EXPECT_EQ(d.slotsCharged, 1u);
        buffer->push(pkt);
    }
    // Slot 10 is VC 1's escape slot: infeasible for VC 0 (the
    // guarantee term), feasible for the empty VC 1.
    EXPECT_FALSE(buffer->admit(QueueKey{0, 0}, 1, 0).accept);
    EXPECT_TRUE(buffer->admit(QueueKey{2, 1}, 1, 0).accept);
    // Admission never depends on the traffic class under the static
    // policy — classes ride along, they do not decide.
    EXPECT_FALSE(buffer->admit(QueueKey{0, 0}, 1, 3).accept);
    EXPECT_TRUE(buffer->admit(QueueKey{2, 1}, 1, 3).accept);
}

// --------------------------------------------- arbitration with VCs

TEST(ArbiterVcTest, OneGrantPerPhysicalOutputAcrossVcs)
{
    // Two inputs each hold a packet for output 0, on different VCs.
    // A physical output carries one packet per cycle, so exactly one
    // of the two may be granted.
    SwitchModel sw(4, BufferType::Damq, /*slots_per_buffer=*/8,
                   ArbitrationPolicy::Smart, 8, /*num_vcs=*/2);
    Packet pkt;
    pkt.lengthSlots = 1;
    pkt.outPort = 0;
    pkt.id = 1;
    pkt.vc = 0;
    ASSERT_TRUE(sw.tryReceive(0, pkt));
    pkt.id = 2;
    pkt.vc = 1;
    ASSERT_TRUE(sw.tryReceive(1, pkt));

    const auto always = [](PortId, QueueKey, const Packet &) {
        return true;
    };
    const GrantList grants = sw.arbitrate(always);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].output, 0u);
    EXPECT_TRUE(auditGrantLegality(grants, 4, 4, 1, 2).empty());
    // Both queued packets drain over two cycles.
    EXPECT_EQ(sw.popGranted(grants).size(), 1u);
    const GrantList second = sw.arbitrate(always);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_TRUE(auditGrantLegality(second, 4, 4, 1, 2).empty());
    EXPECT_EQ(sw.popGranted(second).size(), 1u);
    EXPECT_EQ(sw.totalPackets(), 0u);
}

TEST(ArbiterVcTest, GrantOnUndeclaredVcIsReportedIllegal)
{
    GrantList grants;
    Grant g;
    g.input = 0;
    g.output = 1;
    g.vc = 1;
    grants.push_back(g);
    // Legal with 2 VCs declared, illegal with 1.
    EXPECT_TRUE(auditGrantLegality(grants, 4, 4, 1, 2).empty());
    EXPECT_FALSE(auditGrantLegality(grants, 4, 4, 1, 1).empty());
}

// ------------------------------------------- blocking torus at 1.0

FabricConfig
saturatedBlockingTorus()
{
    // defaults: blocking, 2 dateline VCs
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 4;
    cfg.height = 4;
    cfg.bufferType = BufferType::Damq;
    cfg.slotsPerBuffer = 10;
    cfg.offeredLoad = 1.0;
    cfg.common.seed = 2026;
    cfg.common.warmupCycles = 0;
    cfg.common.measureCycles = 50000;
    // Arm the watchdog: a wedged ring sits motionless for 1000
    // cycles and gets reported.
    cfg.common.watchdogStallCycles = 1000;
    return cfg;
}

TEST(BlockingTorusTest, SaturatedRunNeverTripsTheWatchdog)
{
    FabricConfig cfg = saturatedBlockingTorus();
    ASSERT_EQ(cfg.protocol, FlowControl::Blocking);
    ASSERT_EQ(cfg.common.vcs, 2u);
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    EXPECT_EQ(result.watchdogTrips, 0u);
    EXPECT_FALSE(sim.faultReport().watchdogFired);
    // Saturation means real forward progress, not a quiet wedge.
    EXPECT_GT(result.window.delivered, 10000u);
    EXPECT_EQ(result.window.discarded(), 0u); // no discards
    sim.debugValidate();
}

TEST(BlockingTorusTest, FifoOrderHoldsPerQueueUnderVcs)
{
    FabricConfig cfg = saturatedBlockingTorus();
    cfg.common.measureCycles = 2000;
    FabricSimulator sim(cfg);
    for (int cycle = 0; cycle < 2000; ++cycle)
        sim.step();
    // Packets from one source inside any (output, VC) queue must
    // still appear in increasing sequence order.
    std::vector<std::string> violations;
    for (NodeId node = 0; node < sim.numNodes(); ++node) {
        sim.switchAt(node).forEachBuffer(
            [&](PortId, const BufferModel &buffer) {
                EXPECT_EQ(buffer.numVcs(), 2u);
                const auto found = auditQueueFifoOrder(buffer);
                violations.insert(violations.end(), found.begin(),
                                  found.end());
            });
    }
    EXPECT_TRUE(violations.empty())
        << "first violation: " << violations.front();
}

TEST(BlockingTorusTest, SingleVcBlockingTorusCanWedgeButIsReported)
{
    // The historical failure mode the dateline fixes: with one VC
    // the same saturated blocking torus may form a ring cycle.  We
    // don't assert that it *does* deadlock (seed-dependent) — only
    // that the run completes and the watchdog verdict is reported
    // through the result, which is what the bench tables print.
    FabricConfig cfg = saturatedBlockingTorus();
    cfg.common.vcs = 1;
    cfg.slotsPerBuffer = 5;
    cfg.common.measureCycles = 20000;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    EXPECT_EQ(result.watchdogTrips,
              sim.faultReport().watchdogFired ? 1u : 0u);
}

} // namespace
} // namespace damq
