/**
 * @file
 * Conformance suite for the flit-level switching modes
 * (store-and-forward, wormhole and virtual cut-through) of the
 * FlowControlScheme API:
 *
 *  - credit conservation: after a drained run every link's credit
 *    counter is back at its cap and the engine-wide issued/returned
 *    totals match exactly (they telescope per packet);
 *  - no VC interleaving: the per-cycle flit invariant audit (every
 *    active stream's packet is its queue's head, credits + used
 *    slots == cap, at most one partially-arrived packet per input
 *    buffer) reports zero violations under sustained load;
 *  - wormhole vs VCT occupancy: with per-buffer slots equal to the
 *    packet length, VCT admits at most one packet per input buffer
 *    while wormhole packs partial packets — the two modes produce
 *    observably different results on a 2-hop (2x2 torus) path;
 *  - shard bit-identity: a wormhole torus at 1, 2, and 8 shards is
 *    byte-for-byte identical (counters, Welford latency moments,
 *    occupancy snapshot);
 *  - the packet-synchronized path is untouched: flit state is only
 *    allocated when a flit-level mode is requested, and one-flit
 *    packets under VCT or store-and-forward reproduce it bit for
 *    bit;
 *  - timing: the unloaded floors match their closed forms for any
 *    packet length W and per-hop turn-around R, cut-through beats
 *    store-and-forward, and DAMQ cuts through more often than FIFO;
 *  - variable packet lengths: offered slot load is delivered and
 *    DAMQ keeps its lead;
 *  - construction-time rejection of every combination the flit
 *    path cannot honour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/string_util.hh"
#include "network/core/flit.hh"
#include "network/core/flow_control.hh"
#include "network/core/workload.hh"
#include "network/fabric_sim.hh"
#include "runner/sim_flags.hh"

namespace damq {
namespace {

// ------------------------------------------------- scheme factory

TEST(FlowControlSchemeTest, PacketSyncKeepsRequestedProtocol)
{
    const auto scheme = FlowControlScheme::make(
        Switching::PacketSync, FlowControl::Blocking);
    EXPECT_FALSE(scheme->flitLevel());
    EXPECT_FALSE(scheme->creditBased());
    EXPECT_EQ(scheme->protocol(), FlowControl::Blocking);
    EXPECT_EQ(scheme->headSlotsNeeded(4), 4u);
}

TEST(FlowControlSchemeTest, FlitModesUpgradeBlockingToCredit)
{
    const auto wh = FlowControlScheme::make(Switching::Wormhole,
                                            FlowControl::Blocking);
    EXPECT_TRUE(wh->flitLevel());
    EXPECT_TRUE(wh->creditBased());
    EXPECT_EQ(wh->protocol(), FlowControl::Credit);
    EXPECT_EQ(wh->headSlotsNeeded(4), 1u);
    EXPECT_FALSE(wh->reservesWholePacket());

    const auto vct = FlowControlScheme::make(
        Switching::VirtualCutThrough, FlowControl::OnOff);
    EXPECT_TRUE(vct->flitLevel());
    EXPECT_FALSE(vct->creditBased());
    EXPECT_EQ(vct->protocol(), FlowControl::OnOff);
    EXPECT_EQ(vct->headSlotsNeeded(4), 4u);
    EXPECT_TRUE(vct->reservesWholePacket());
}

TEST(FlitTypeTest, TypeOfIndexMatchesPosition)
{
    EXPECT_EQ(flitTypeOf(0, 1), FlitType::HeadTail);
    EXPECT_EQ(flitTypeOf(0, 4), FlitType::Head);
    EXPECT_EQ(flitTypeOf(1, 4), FlitType::Body);
    EXPECT_EQ(flitTypeOf(2, 4), FlitType::Body);
    EXPECT_EQ(flitTypeOf(3, 4), FlitType::Tail);
    EXPECT_TRUE(isTail(FlitType::HeadTail));
    EXPECT_TRUE(isHead(FlitType::HeadTail));
    EXPECT_FALSE(isTail(FlitType::Head));
    EXPECT_FALSE(isHead(FlitType::Body));
}

TEST(SwitchingNameTest, RoundTripsAllModes)
{
    for (Switching s :
         {Switching::PacketSync, Switching::StoreAndForward,
          Switching::Wormhole, Switching::VirtualCutThrough}) {
        const auto parsed = trySwitchingFromString(switchingName(s));
        ASSERT_TRUE(parsed.has_value()) << switchingName(s);
        EXPECT_EQ(*parsed, s);
    }
    // The retired packet-granular cut-through names mean VCT now.
    for (const char *alias : {"cut-through", "cutthrough"}) {
        const auto parsed = trySwitchingFromString(alias);
        ASSERT_TRUE(parsed.has_value()) << alias;
        EXPECT_EQ(*parsed, Switching::VirtualCutThrough);
    }
    EXPECT_FALSE(trySwitchingFromString("warp").has_value());
}

TEST(FlowControlSchemeTest, StoreAndForwardIsFlitLevelWholePacket)
{
    const auto snf = FlowControlScheme::make(
        Switching::StoreAndForward, FlowControl::Blocking);
    EXPECT_TRUE(snf->flitLevel());
    EXPECT_TRUE(snf->creditBased());
    EXPECT_EQ(snf->headSlotsNeeded(4), 4u);
    EXPECT_TRUE(snf->reservesWholePacket());
    EXPECT_TRUE(snf->headWaitsForTail());
    EXPECT_FALSE(FlowControlScheme::make(Switching::VirtualCutThrough,
                                         FlowControl::Blocking)
                     ->headWaitsForTail());
}

// --------------------------------------------------- run fixtures

/** A 4x4 flit-switched grid: the 2-VC torus, or the 1-VC mesh. */
FabricConfig
flitGrid(Switching switching,
         TopologyKind topology = TopologyKind::Torus)
{
    FabricConfig cfg = topology == TopologyKind::Mesh
                           ? FabricConfig::mesh()
                           : FabricConfig::torus();
    cfg.width = 4;
    cfg.height = 4;
    cfg.switching = switching;
    cfg.flitsPerPacket = 4;
    cfg.slotsPerBuffer = 10;
    cfg.offeredLoad = 0.3;
    cfg.common.seed = 42;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 800;
    cfg.common.auditEveryCycles = 64;
    cfg.common.watchdogStallCycles = 512;
    return cfg;
}

// --------------------------------------------- credit conservation

void
expectCreditsClosed(Switching switching,
                    TopologyKind topology = TopologyKind::Torus)
{
    FabricSimulator sim(flitGrid(switching, topology));
    const core::SyncResult result = sim.run();
    ASSERT_GT(result.window.delivered, 0u);
    EXPECT_TRUE(sim.drain(20000));
    sim.debugValidate();

    // Every credit consumed on a link must have come back: the
    // counters are at their caps and the lifetime totals telescope.
    EXPECT_TRUE(sim.syncEngine().flitCreditsAtRest());
    const FaultReport report = sim.faultReport();
    EXPECT_GT(report.creditsIssued, 0u);
    EXPECT_EQ(report.creditsIssued, report.creditsReturned);
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_FALSE(report.watchdogFired);
}

TEST(FlitCreditTest, WormholeCreditsConservePerLink)
{
    expectCreditsClosed(Switching::Wormhole);
}

TEST(FlitCreditTest, VctCreditsConservePerLink)
{
    expectCreditsClosed(Switching::VirtualCutThrough);
}

TEST(FlitCreditTest, StoreAndForwardCreditsConservePerLink)
{
    expectCreditsClosed(Switching::StoreAndForward);
}

TEST(FlitCreditTest, MeshCreditsConservePerLink)
{
    // XY routing on the open mesh needs no dateline VCs; every
    // flit-level mode must close its credits there too.
    for (const Switching switching :
         {Switching::Wormhole, Switching::VirtualCutThrough,
          Switching::StoreAndForward}) {
        SCOPED_TRACE(switchingName(switching));
        expectCreditsClosed(switching, TopologyKind::Mesh);
    }
}

TEST(FlitCreditTest, OnOffModeRunsWithoutCreditCounters)
{
    FabricConfig cfg = flitGrid(Switching::Wormhole);
    cfg.protocol = FlowControl::OnOff;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    ASSERT_GT(result.window.delivered, 0u);
    EXPECT_TRUE(sim.drain(20000));
    // On/off backpressure keeps no counters — nothing issued.
    const FaultReport report = sim.faultReport();
    EXPECT_EQ(report.creditsIssued, 0u);
    EXPECT_EQ(report.creditsReturned, 0u);
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_FALSE(report.watchdogFired);
}

// --------------------------------------------- no VC interleaving

TEST(FlitVcTest, SaturatedWormholeTorusNeverInterleavesVcs)
{
    // Saturation load with a per-cycle audit: the flit invariant
    // check asserts every active stream's packet is still its
    // queue's head (a second packet's flits on the same VC would
    // break that) and that the tail always freed the VC.
    FabricConfig cfg = flitGrid(Switching::Wormhole);
    cfg.offeredLoad = 0.9;
    cfg.common.auditEveryCycles = 1;
    cfg.common.measureCycles = 2000;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    ASSERT_GT(result.window.delivered, 0u);
    const FaultReport report = sim.faultReport();
    EXPECT_EQ(report.auditViolations, 0u);
    EXPECT_FALSE(report.watchdogFired);
    EXPECT_EQ(result.watchdogTrips, 0u);
}

TEST(FlitVcTest, SaturatedVctTorusAuditsClean)
{
    FabricConfig cfg = flitGrid(Switching::VirtualCutThrough);
    cfg.offeredLoad = 0.9;
    cfg.common.auditEveryCycles = 1;
    cfg.common.measureCycles = 2000;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    ASSERT_GT(result.window.delivered, 0u);
    EXPECT_EQ(sim.faultReport().auditViolations, 0u);
    EXPECT_FALSE(sim.faultReport().watchdogFired);
}

// ------------------------------- wormhole vs VCT occupancy (2 hops)

TEST(FlitOccupancyTest, WormholeAndVctDivergeOnTwoHopPaths)
{
    // 2x2 torus: every route is at most one hop per dimension, so
    // all paths are <= 2 hops.  With per-buffer capacity of two
    // packets' worth (the VCT minimum at two VCs), VCT's
    // whole-packet reservation admits at most one packet per
    // (buffer, VC) while wormhole packs partial packets behind a
    // blocked head — the occupancy behavior (and with it
    // throughput/latency) must diverge under load.
    FabricConfig base = FabricConfig::torus();
    base.width = 2;
    base.height = 2;
    base.flitsPerPacket = 4;
    base.slotsPerBuffer = 8;
    base.offeredLoad = 0.8;
    base.common.seed = 7;
    base.common.warmupCycles = 200;
    base.common.measureCycles = 2000;
    base.common.auditEveryCycles = 16;

    FabricConfig wormhole = base;
    wormhole.switching = Switching::Wormhole;
    FabricSimulator whSim(wormhole);
    const core::SyncResult wh = whSim.run();

    FabricConfig vct = base;
    vct.switching = Switching::VirtualCutThrough;
    FabricSimulator vctSim(vct);
    const core::SyncResult vc = vctSim.run();

    ASSERT_GT(wh.window.delivered, 0u);
    ASSERT_GT(vc.window.delivered, 0u);
    EXPECT_EQ(whSim.faultReport().auditViolations, 0u);
    EXPECT_EQ(vctSim.faultReport().auditViolations, 0u);

    // Same seed, same traffic, same buffers — only the switching
    // mode differs.  If the flit layer ignored the scheme the two
    // runs would be bit-identical.
    EXPECT_NE(whSim.snapshotText(), vctSim.snapshotText());
    const bool diverged =
        wh.window.delivered != vc.window.delivered ||
        wh.latency.mean() != vc.latency.mean();
    EXPECT_TRUE(diverged);

    // Wormhole's 1-slot head condition is strictly weaker than
    // VCT's whole-packet reservation, so at saturation it keeps the
    // wires at least as busy.
    EXPECT_GE(wh.window.delivered, vc.window.delivered);
}

// ------------------------------------------------ shard identity

struct Observed
{
    std::uint64_t delivered = 0;
    std::uint64_t injected = 0;
    std::uint64_t creditsIssued = 0;
    std::uint64_t creditsReturned = 0;
    double latencyMean = 0.0;
    double latencyStddev = 0.0;
    double latencyP99 = 0.0;
    std::string snapshot;
};

/** Uniform 1-4 flit packets. */
const core::LengthDistribution kOneToFour{{1.0, 1.0, 1.0, 1.0}};

Observed
runSharded(Switching switching, std::uint32_t shards,
           bool variable_lengths = false,
           TopologyKind topology = TopologyKind::Torus)
{
    FabricConfig cfg = flitGrid(switching, topology);
    cfg.width = 8;
    cfg.height = 8;
    cfg.offeredLoad = 0.5;
    cfg.common.shards = shards;
    if (variable_lengths) {
        cfg.common.workload.lengths = kOneToFour;
        cfg.offeredLoad = 0.5 / kOneToFour.mean(); // same flit load
    }
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    Observed obs;
    obs.delivered = sim.lifetime().delivered;
    obs.injected = sim.lifetime().injected;
    obs.creditsIssued = sim.faultReport().creditsIssued;
    obs.creditsReturned = sim.faultReport().creditsReturned;
    obs.latencyMean = result.latency.mean();
    obs.latencyStddev = result.latency.stddev();
    obs.latencyP99 = result.latencyP99;
    obs.snapshot = sim.snapshotText();
    return obs;
}

void
expectIdentical(const Observed &a, const Observed &b,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.creditsIssued, b.creditsIssued);
    EXPECT_EQ(a.creditsReturned, b.creditsReturned);
    // Exact double equality on the Welford moments: a reordering
    // of the delivery stream would show up here even if the
    // multiset of samples were preserved.
    EXPECT_EQ(a.latencyMean, b.latencyMean);
    EXPECT_EQ(a.latencyStddev, b.latencyStddev);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.snapshot, b.snapshot);
}

TEST(FlitShardTest, WormholeTorusIsBitIdenticalAcrossShardCounts)
{
    const Observed one = runSharded(Switching::Wormhole, 1);
    const Observed two = runSharded(Switching::Wormhole, 2);
    const Observed eight = runSharded(Switching::Wormhole, 8);
    ASSERT_GT(one.delivered, 0u);
    expectIdentical(one, two, "wormhole: 1 vs 2 shards");
    expectIdentical(one, eight, "wormhole: 1 vs 8 shards");
}

TEST(FlitShardTest, VctTorusIsBitIdenticalAcrossShardCounts)
{
    const Observed one =
        runSharded(Switching::VirtualCutThrough, 1);
    const Observed eight =
        runSharded(Switching::VirtualCutThrough, 8);
    ASSERT_GT(one.delivered, 0u);
    expectIdentical(one, eight, "vct: 1 vs 8 shards");
}

TEST(FlitShardTest, VctMeshIsBitIdenticalAcrossShardCounts)
{
    const auto mesh = [](std::uint32_t shards) {
        return runSharded(Switching::VirtualCutThrough, shards, false,
                          TopologyKind::Mesh);
    };
    const Observed one = mesh(1);
    const Observed two = mesh(2);
    const Observed eight = mesh(8);
    ASSERT_GT(one.delivered, 0u);
    expectIdentical(one, two, "vct mesh: 1 vs 2 shards");
    expectIdentical(one, eight, "vct mesh: 1 vs 8 shards");
}

TEST(FlitShardTest, VariableLengthsAreBitIdenticalAcrossShardCounts)
{
    // The per-packet length draw happens on the coordinator in I1,
    // so drawn lengths must not depend on the shard count either.
    for (const Switching switching :
         {Switching::StoreAndForward, Switching::VirtualCutThrough}) {
        SCOPED_TRACE(switchingName(switching));
        const Observed one = runSharded(switching, 1, true);
        const Observed two = runSharded(switching, 2, true);
        const Observed eight = runSharded(switching, 8, true);
        ASSERT_GT(one.delivered, 0u);
        expectIdentical(one, two, "1-4 flits: 1 vs 2 shards");
        expectIdentical(one, eight, "1-4 flits: 1 vs 8 shards");
    }
}

// --------------------------------------------------- omega network

TEST(FlitOmegaTest, WormholeOmegaDrainsWithCreditsClosed)
{
    FabricConfig cfg;
    cfg.numPorts = 16;
    cfg.radix = 4;
    cfg.slotsPerBuffer = 8;
    cfg.switching = Switching::Wormhole;
    cfg.flitsPerPacket = 4;
    cfg.offeredLoad = 0.4;
    cfg.common.seed = 11;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 800;
    cfg.common.auditEveryCycles = 32;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    ASSERT_GT(result.window.delivered, 0u);
    EXPECT_TRUE(sim.drain(20000));
    sim.debugValidate();
    EXPECT_TRUE(sim.syncEngine().flitCreditsAtRest());
    const FaultReport report = sim.faultReport();
    EXPECT_EQ(report.creditsIssued, report.creditsReturned);
    EXPECT_EQ(report.auditViolations, 0u);
}

// -------------------------------------- packet path is zero-cost

TEST(FlitOffTest, PacketSyncAllocatesNoFlitState)
{
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 4;
    cfg.height = 4;
    cfg.common.warmupCycles = 100;
    cfg.common.measureCycles = 200;
    FabricSimulator sim(cfg);
    EXPECT_FALSE(sim.syncEngine().flitMode());
    sim.run();
    const FaultReport report = sim.faultReport();
    EXPECT_EQ(report.creditsIssued, 0u);
    EXPECT_EQ(report.creditsReturned, 0u);
}

// ----------------------------- admission policies at flit level

TEST(FlitAdmissionTest, DynamicThresholdWormholeStaysConformant)
{
    // Head admission feeds headSlotsNeeded through the admission
    // policy layer; with dynamic threshold installed the credit
    // invariants and the per-cycle flit audit must still close.
    FabricConfig cfg = flitGrid(Switching::Wormhole);
    cfg.sharing.kind = SharingPolicy::DynamicThreshold;
    cfg.sharing.dtAlpha = 1.0;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    ASSERT_GT(result.window.delivered, 0u);
    EXPECT_TRUE(sim.drain(20000));
    sim.debugValidate();
    EXPECT_TRUE(sim.syncEngine().flitCreditsAtRest());
    const FaultReport report = sim.faultReport();
    EXPECT_EQ(report.creditsIssued, report.creditsReturned);
    EXPECT_EQ(report.auditViolations, 0u);
}

TEST(FlitAdmissionTest, VoqRunsUnderVirtualCutThrough)
{
    // VCT pre-charges the whole packet at head admission, which is
    // exactly the accounting the VOQ private-slot guarantee needs.
    FabricConfig cfg = flitGrid(Switching::VirtualCutThrough);
    cfg.bufferType = BufferType::Voq;
    // One whole 4-flit packet per queue on top of each queue's
    // private slot: a VCT head charges flitsPerPacket slots, and
    // the guarantee reserves a slot for every other empty queue,
    // so 10 queues need 10 * flits slots for admission to clear.
    cfg.slotsPerBuffer = 10 * cfg.flitsPerPacket;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    ASSERT_GT(result.window.delivered, 0u);
    EXPECT_TRUE(sim.drain(20000));
    sim.debugValidate();
    const FaultReport report = sim.faultReport();
    EXPECT_EQ(report.auditViolations, 0u);
}

TEST(FlitAdmissionDeathTest, VoqRejectsWormhole)
{
    // Wormhole body flits land without an admission check, so they
    // could eat another queue's private slots — the combination is
    // rejected up front.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FabricConfig cfg = flitGrid(Switching::Wormhole);
    cfg.bufferType = BufferType::Voq;
    cfg.slotsPerBuffer = 12;
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1), "private-slot");
}

// ----------------------- one timing model: packet vs flit identity

/** The 64-port, radix-4 Omega network (3 stages) at @p load. */
FabricConfig
omega64(Switching switching, std::uint32_t flits, double load)
{
    FabricConfig cfg;
    cfg.switching = switching;
    cfg.flitsPerPacket = flits;
    cfg.offeredLoad = load;
    cfg.common.seed = 2024;
    cfg.common.warmupCycles = 500;
    cfg.common.measureCycles = 3000;
    return cfg;
}

void
expectSameCounters(const NetworkCounters &a, const NetworkCounters &b)
{
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.discardedAtEntry, b.discardedAtEntry);
    EXPECT_EQ(a.discardedInternal, b.discardedInternal);
    EXPECT_EQ(a.misrouted, b.misrouted);
    EXPECT_EQ(a.faultDropped, b.faultDropped);
    EXPECT_EQ(a.deliveredFlits, b.deliveredFlits);
    EXPECT_EQ(a.headsCutThrough, b.headsCutThrough);
}

TEST(FlitIdentityTest, OneFlitPacketsReproducePacketSync)
{
    // At one flit per packet and R = 1 a head is its own tail and
    // leaves the cycle after it arrives, so VCT and store-and-
    // forward must be the packet-synchronized engine bit for bit:
    // counters, exact Welford moments and the occupancy snapshot.
    for (const double load : {0.3, 0.9}) {
        FabricSimulator ref(omega64(Switching::PacketSync, 1, load));
        const core::SyncResult want = ref.run();
        ASSERT_GT(want.window.delivered, 0u);
        for (const Switching switching :
             {Switching::VirtualCutThrough,
              Switching::StoreAndForward}) {
            SCOPED_TRACE(detail::concat(switchingName(switching),
                                        " at load ", load));
            FabricSimulator sim(omega64(switching, 1, load));
            ASSERT_TRUE(sim.syncEngine().flitMode());
            const core::SyncResult got = sim.run();
            expectSameCounters(got.window, want.window);
            expectSameCounters(sim.lifetime(), ref.lifetime());
            EXPECT_EQ(got.latency.count(),
                      want.latency.count());
            EXPECT_EQ(got.latency.mean(),
                      want.latency.mean());
            EXPECT_EQ(got.latency.stddev(),
                      want.latency.stddev());
            EXPECT_EQ(got.latency.min(),
                      want.latency.min());
            EXPECT_EQ(got.latency.max(),
                      want.latency.max());
            EXPECT_EQ(got.avgSourceQueueLen, want.avgSourceQueueLen);
            EXPECT_EQ(sim.snapshotText(), ref.snapshotText());
        }
    }
}

TEST(FlitIdentityTest, EverySwitchingNameBuildsItsOwnModel)
{
    // Store-and-forward and VCT once parsed but silently ran
    // packet-sync.  At eight flits per packet each must differ from
    // packet-sync — and from each other.
    const double load = 0.3 / 8; // 0.3 of link capacity
    FabricSimulator ref(omega64(Switching::PacketSync, 8, load));
    const core::SyncResult sync = ref.run();
    std::string snapshots[2];
    int i = 0;
    for (const Switching switching :
         {Switching::VirtualCutThrough, Switching::StoreAndForward}) {
        SCOPED_TRACE(switchingName(switching));
        FabricConfig cfg = omega64(switching, 8, load);
        cfg.slotsPerBuffer = 32;
        FabricSimulator sim(cfg);
        const core::SyncResult got = sim.run();
        ASSERT_GT(got.window.delivered, 0u);
        EXPECT_NE(got.latency.mean(),
                  sync.latency.mean());
        EXPECT_NE(got.window.deliveredFlits,
                  sync.window.deliveredFlits);
        snapshots[i++] = sim.snapshotText();
        EXPECT_NE(snapshots[i - 1], ref.snapshotText());
    }
    EXPECT_NE(snapshots[0], snapshots[1]);
}

// ------------------- cut-through timing (ported clock-level tests)

/**
 * The 64-port Omega with W-flit packets, R-cycle turn-around and
 * four packets' worth of flit slots per buffer; @p load is a
 * fraction of link capacity (one flit per cycle).
 */
FabricConfig
cutThroughConfig(Switching switching, std::uint32_t wire,
                 std::uint32_t route, double load)
{
    FabricConfig cfg;
    cfg.bufferType = BufferType::Damq;
    cfg.switching = switching;
    cfg.flitsPerPacket = wire;
    cfg.routeCycles = route;
    cfg.slotsPerBuffer = 4 * wire;
    cfg.offeredLoad = load / wire;
    cfg.common.seed = 5150;
    cfg.common.warmupCycles = 3000;
    cfg.common.measureCycles = 15000;
    return cfg;
}

/** Min latency in cycles of an almost empty network. */
double
unloadedFloor(Switching switching, std::uint32_t wire,
              std::uint32_t route)
{
    FabricConfig cfg = cutThroughConfig(switching, wire, route, 0.005);
    cfg.common.measureCycles = 30000;
    const core::SyncResult r = FabricSimulator(cfg).run();
    EXPECT_GT(r.latency.count(), 100u);
    return r.latency.min() / kClocksPerNetworkCycle;
}

/** Heads sent before their tail arrived, per head send. */
double
cutThroughFraction(const core::SyncResult &r)
{
    return static_cast<double>(r.window.headsCutThrough) /
           static_cast<double>(3 * r.window.delivered);
}

TEST(CutThroughSim, UnloadedVctFloorIsSRPlusWMinusOne)
{
    // S = 3 stages x R = 4 turn-around + W = 8 flits - 1: the tail
    // lands W - 1 cycles after the head reaches the sink.
    EXPECT_DOUBLE_EQ(
        unloadedFloor(Switching::VirtualCutThrough, 8, 4), 19.0);
    FabricConfig cfg =
        cutThroughConfig(Switching::VirtualCutThrough, 8, 4, 0.005);
    const core::SyncResult r = FabricSimulator(cfg).run();
    // Almost every hop past the first switch cuts through; the
    // first switch receives whole packets from its source.
    EXPECT_NEAR(cutThroughFraction(r), 2.0 / 3.0, 0.02);
}

TEST(CutThroughSim, UnloadedStoreAndForwardFloor)
{
    // R + (S-1) * max(W, R) + W - 1 = 4 + 2 * 8 + 7.
    EXPECT_DOUBLE_EQ(unloadedFloor(Switching::StoreAndForward, 8, 4),
                     27.0);
    FabricConfig cfg =
        cutThroughConfig(Switching::StoreAndForward, 8, 4, 0.3);
    EXPECT_EQ(FabricSimulator(cfg).run().window.headsCutThrough, 0u);
}

TEST(CutThroughSim, CustomTimingParameters)
{
    // W = 12, R = 2: VCT 3 * 2 + 11; store-and-forward 2 + 2 * 12
    // + 11.
    EXPECT_DOUBLE_EQ(
        unloadedFloor(Switching::VirtualCutThrough, 12, 2), 17.0);
    EXPECT_DOUBLE_EQ(unloadedFloor(Switching::StoreAndForward, 12, 2),
                     37.0);
}

TEST(CutThroughSim, RouteCyclesOneKeepsTheVctFloor)
{
    // The default R = 1 is the flit engine's historical timing:
    // 3 + 8 - 1 = 10 cycles, 120 clocks at 12 clocks per cycle.
    EXPECT_DOUBLE_EQ(
        unloadedFloor(Switching::VirtualCutThrough, 8, 1), 10.0);
    FabricConfig cfg;
    cfg.switching = Switching::VirtualCutThrough;
    cfg.flitsPerPacket = 8;
    cfg.slotsPerBuffer = 32;
    cfg.offeredLoad = 0.05;
    cfg.common.measureCycles = 5000;
    EXPECT_DOUBLE_EQ(FabricSimulator(cfg).run().latency.min(),
                     120.0);
}

TEST(CutThroughSim, CutThroughBeatsStoreAndForwardAtModerateLoad)
{
    const double vct =
        FabricSimulator(
            cutThroughConfig(Switching::VirtualCutThrough, 8, 4, 0.3))
            .run()
            .latency.mean();
    const double snf =
        FabricSimulator(
            cutThroughConfig(Switching::StoreAndForward, 8, 4, 0.3))
            .run()
            .latency.mean();
    EXPECT_LT(vct, snf);
}

TEST(CutThroughSim, DamqCutsThroughMoreThanFifo)
{
    FabricConfig cfg =
        cutThroughConfig(Switching::VirtualCutThrough, 8, 4, 0.35);
    const double damq =
        cutThroughFraction(FabricSimulator(cfg).run());
    cfg.bufferType = BufferType::Fifo;
    const double fifo =
        cutThroughFraction(FabricSimulator(cfg).run());
    // A FIFO head waits for every packet ahead of it in the buffer;
    // a DAMQ head only for its own output's queue.
    EXPECT_GT(damq, fifo);
}

TEST(CutThroughSim, BlockingNeverDiscards)
{
    FabricConfig cfg =
        cutThroughConfig(Switching::VirtualCutThrough, 8, 4, 0.95);
    FabricSimulator sim(cfg);
    for (int i = 0; i < 10000; ++i)
        sim.step();
    EXPECT_EQ(sim.lifetime().discarded(), 0u);
    EXPECT_EQ(sim.syncEngine().flowScheme().protocol(),
              FlowControl::Credit);
}

TEST(CutThroughSim, Deterministic)
{
    FabricConfig cfg =
        cutThroughConfig(Switching::VirtualCutThrough, 8, 4, 0.3);
    cfg.common.measureCycles = 8000;
    const core::SyncResult a = FabricSimulator(cfg).run();
    const core::SyncResult b = FabricSimulator(cfg).run();
    EXPECT_EQ(a.window.delivered, b.window.delivered);
    EXPECT_EQ(a.window.headsCutThrough, b.window.headsCutThrough);
    EXPECT_EQ(a.latency.mean(), b.latency.mean());
}

TEST(CutThroughSim, DeliversOfferedLoadBelowSaturation)
{
    FabricConfig cfg =
        cutThroughConfig(Switching::VirtualCutThrough, 8, 4, 0.25);
    cfg.common.measureCycles = 40000;
    const core::SyncResult r = FabricSimulator(cfg).run();
    EXPECT_NEAR(static_cast<double>(r.window.deliveredFlits) /
                    (64.0 * static_cast<double>(r.measuredCycles)),
                0.25, 0.02);
}

class CutThroughConservation
    : public ::testing::TestWithParam<std::tuple<BufferType, Switching>>
{
};

TEST_P(CutThroughConservation, NothingCreatedOrLost)
{
    FabricConfig cfg = cutThroughConfig(std::get<1>(GetParam()), 8, 4,
                                         0.6);
    cfg.bufferType = std::get<0>(GetParam());
    cfg.common.auditEveryCycles = 97;
    FabricSimulator sim(cfg);
    for (int i = 0; i < 8000; ++i)
        sim.step();
    sim.debugValidate();
    ASSERT_TRUE(sim.drain(200000));
    const NetworkCounters &c = sim.lifetime();
    EXPECT_EQ(c.generated, c.delivered);
    EXPECT_EQ(c.deliveredFlits, 8 * c.delivered);
    EXPECT_TRUE(sim.syncEngine().flitCreditsAtRest());
    EXPECT_EQ(sim.faultReport().auditViolations, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CutThroughConservation,
    ::testing::Combine(
        ::testing::Values(BufferType::Fifo, BufferType::Damq,
                          BufferType::Samq, BufferType::Safc),
        ::testing::Values(Switching::VirtualCutThrough,
                          Switching::StoreAndForward)),
    [](const ::testing::TestParamInfo<std::tuple<BufferType, Switching>>
           &info) {
        return std::string(bufferTypeName(std::get<0>(info.param))) +
               "_blocking_" +
               (std::get<1>(info.param) == Switching::VirtualCutThrough
                    ? "vct"
                    : "snf");
    });

// ----------------------- variable-length packets (ported slot tests)

/** 64-port Omega, store-and-forward, 1-4 flit packets, 8 slots;
 *  @p slot_load in flits per endpoint per cycle. */
FabricConfig
varLenConfig(double slot_load)
{
    FabricConfig cfg;
    cfg.bufferType = BufferType::Damq;
    cfg.slotsPerBuffer = 8;
    cfg.switching = Switching::StoreAndForward;
    cfg.common.workload.lengths = kOneToFour;
    cfg.offeredLoad = std::min(1.0, slot_load / kOneToFour.mean());
    cfg.common.seed = 77;
    cfg.common.warmupCycles = 300;
    cfg.common.measureCycles = 1500;
    return cfg;
}

double
slotThroughput(const core::SyncResult &r)
{
    return static_cast<double>(r.window.deliveredFlits) /
           (64.0 * static_cast<double>(r.measuredCycles));
}

TEST(VarLenSim, ConservesPackets)
{
    FabricConfig cfg = varLenConfig(0.6);
    cfg.common.auditEveryCycles = 50;
    FabricSimulator sim(cfg);
    for (int i = 0; i < 800; ++i)
        sim.step();
    sim.debugValidate();
    ASSERT_TRUE(sim.drain(100000));
    EXPECT_EQ(sim.lifetime().generated, sim.lifetime().delivered);
    EXPECT_TRUE(sim.syncEngine().flitCreditsAtRest());
    EXPECT_EQ(sim.faultReport().auditViolations, 0u);
}

TEST(VarLenSim, DeliversApproximatelyOfferedSlotLoad)
{
    FabricConfig cfg = varLenConfig(0.25);
    cfg.common.measureCycles = 4000;
    const core::SyncResult r = FabricSimulator(cfg).run();
    EXPECT_NEAR(slotThroughput(r), 0.25, 0.03);
    // Lengths really vary: 2.5 flits per packet on average.
    EXPECT_NEAR(static_cast<double>(r.window.deliveredFlits) /
                    static_cast<double>(r.window.delivered),
                2.5, 0.1);
}

TEST(VarLenSim, FixedLengthDegeneratesToBasicBehavior)
{
    FabricConfig cfg = varLenConfig(0.2);
    cfg.common.workload.lengths = core::LengthDistribution{{1.0}};
    cfg.flitsPerPacket = 1;
    cfg.offeredLoad = 0.2;
    const core::SyncResult r = FabricSimulator(cfg).run();
    ASSERT_GT(r.window.delivered, 0u);
    // One flit takes one cycle per hop, 3 hops, 12 clocks a cycle.
    EXPECT_DOUBLE_EQ(r.latency.min(), 36.0);
}

TEST(VarLenSim, DamqBeatsFifoWithVariableLengths)
{
    // Section 5's conjecture, at saturation (full offered load).
    FabricConfig cfg = varLenConfig(1.0);
    cfg.common.warmupCycles = 500;
    cfg.common.measureCycles = 2500;
    cfg.bufferType = BufferType::Fifo;
    const double fifo = slotThroughput(FabricSimulator(cfg).run());
    cfg.bufferType = BufferType::Damq;
    const double damq = slotThroughput(FabricSimulator(cfg).run());
    EXPECT_GT(damq, fifo * 1.15);
}

TEST(VarLenSim, Deterministic)
{
    const FabricConfig cfg = varLenConfig(0.3);
    const core::SyncResult a = FabricSimulator(cfg).run();
    const core::SyncResult b = FabricSimulator(cfg).run();
    EXPECT_EQ(a.window.delivered, b.window.delivered);
    EXPECT_EQ(a.window.deliveredFlits, b.window.deliveredFlits);
}

TEST(VarLenSim, SamqPartitionsAlsoRun)
{
    FabricConfig cfg = varLenConfig(0.3);
    cfg.bufferType = BufferType::Samq;
    cfg.slotsPerBuffer = 16; // 4 per partition, fits a max packet
    cfg.common.auditEveryCycles = 50;
    FabricSimulator sim(cfg);
    const core::SyncResult r = sim.run();
    EXPECT_GT(r.window.delivered, 0u);
    sim.debugValidate();
    EXPECT_EQ(sim.faultReport().auditViolations, 0u);
}

// ------------------------------------ construction-time rejections

class FlitConfigDeathTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    }
};

TEST_F(FlitConfigDeathTest, DiscardingIsRejected)
{
    for (const Switching switching :
         {Switching::StoreAndForward, Switching::Wormhole,
          Switching::VirtualCutThrough}) {
        FabricConfig cfg = omega64(switching, 4, 0.1);
        cfg.protocol = FlowControl::Discarding;
        EXPECT_EXIT({ FabricSimulator sim(cfg); },
                    ::testing::ExitedWithCode(1),
                    "cannot use the discarding protocol");
    }
}

TEST_F(FlitConfigDeathTest, LossyFaultClassesAreRejected)
{
    FabricConfig cfg = omega64(Switching::VirtualCutThrough, 4, 0.1);
    cfg.common.faults.packetDropRate = 0.002;
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1),
                "supports only the arbiter-stuck and credit-delay");
    cfg = omega64(Switching::StoreAndForward, 4, 0.1);
    cfg.common.faults.headerBitFlipRate = 0.002;
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1),
                "supports only the arbiter-stuck and credit-delay");
}

TEST_F(FlitConfigDeathTest, RouteCyclesNeedFlitSwitching)
{
    FabricConfig cfg = omega64(Switching::PacketSync, 1, 0.1);
    cfg.routeCycles = 4;
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1),
                "routeCycles 4 needs flit-level switching");
    cfg = omega64(Switching::VirtualCutThrough, 4, 0.1);
    cfg.routeCycles = 0;
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1),
                "routeCycles must be at least 1");
}

TEST_F(FlitConfigDeathTest, VariableLengthsNeedFlitSwitching)
{
    FabricConfig cfg = omega64(Switching::PacketSync, 1, 0.1);
    cfg.common.workload.lengths = kOneToFour;
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1),
                "variable packet lengths need flit-level switching");
    // A one-length distribution would never be drawn from.
    cfg = omega64(Switching::VirtualCutThrough, 4, 0.1);
    cfg.common.workload.lengths =
        core::LengthDistribution{{0.0, 0.0, 1.0}};
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1),
                "set a single length through flitsPerPacket");
}

TEST_F(FlitConfigDeathTest, VariableLengthsRejectTraceReplay)
{
    FabricConfig cfg = omega64(Switching::VirtualCutThrough, 4, 0.1);
    const std::string path = ::testing::TempDir() + "varlen.trace";
    core::writeWorkloadTrace(path, {{1, 0, 5}, {2, 3, 9}});
    cfg.common.workload.kind = core::WorkloadKind::Trace;
    cfg.common.workload.traceFile = path;
    cfg.common.workload.lengths = kOneToFour;
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1),
                "trace workload cannot replay variable packet lengths");
}

// ------------------------------------------- unified CLI surface

/** Parse @p extra through @p args as if typed on a command line. */
void
parseArgs(ArgParser &args, std::vector<std::string> extra)
{
    std::vector<char *> argv;
    static char prog[] = "test_flit";
    argv.push_back(prog);
    for (std::string &s : extra)
        argv.push_back(s.data());
    args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(SwitchingFlagsTest, DefaultsLeaveBenchConfigUntouched)
{
    ArgParser args("t", "t");
    addSwitchingFlags(args, "packet-sync", "blocking");
    parseArgs(args, {});
    FabricConfig cfg;
    cfg.switching = Switching::StoreAndForward;
    cfg.protocol = FlowControl::Discarding;
    cfg.flitsPerPacket = 7;
    applySwitchingFlags(args, cfg);
    EXPECT_EQ(cfg.switching, Switching::StoreAndForward);
    EXPECT_EQ(cfg.protocol, FlowControl::Discarding);
    EXPECT_EQ(cfg.flitsPerPacket, 7u);
}

TEST(SwitchingFlagsTest, CanonicalFlagsSetEveryField)
{
    ArgParser args("t", "t");
    addSwitchingFlags(args, "packet-sync", "blocking");
    parseArgs(args, {"--switching", "vct", "--flow-control",
                     "on-off", "--flits-per-packet", "6"});
    FabricConfig cfg;
    applySwitchingFlags(args, cfg);
    EXPECT_EQ(cfg.switching, Switching::VirtualCutThrough);
    EXPECT_EQ(cfg.protocol, FlowControl::OnOff);
    EXPECT_EQ(cfg.flitsPerPacket, 6u);
}

TEST(SwitchingFlagsDeathTest, RemovedModeAliasIsRejected)
{
    // The --mode / --protocol aliases are gone: the parser treats
    // them like any other unknown option and exits with usage.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ArgParser args("t", "t");
            addSwitchingFlags(args, "packet-sync", "blocking");
            parseArgs(args, {"--mode", "wormhole"});
        },
        testing::ExitedWithCode(1), "unknown option '--mode'");
    EXPECT_EXIT(
        {
            ArgParser args("t", "t");
            addSwitchingFlags(args, "packet-sync", "blocking");
            parseArgs(args, {"--protocol", "credit"});
        },
        testing::ExitedWithCode(1), "unknown option '--protocol'");
}

TEST(SwitchingFlagsDeathTest, BadSwitchingValueExitsWithUsage)
{
    ArgParser args("t", "t");
    addSwitchingFlags(args, "packet-sync", "blocking");
    parseArgs(args, {"--switching", "warp"});
    FabricConfig cfg;
    EXPECT_EXIT(applySwitchingFlags(args, cfg),
                testing::ExitedWithCode(1), "unknown switching mode");
}

TEST(SwitchingFlagsDeathTest, FlitCountUnderPacketSyncIsRejected)
{
    // Packet-sync packets are one slot long; a flit count would be
    // silently ignored, so the flag set is refused instead —
    // whether packet-sync comes from the bench default or from an
    // explicit --switching.
    ArgParser args("t", "t");
    addSwitchingFlags(args, "packet-sync", "blocking");
    parseArgs(args, {"--flits-per-packet", "8"});
    FabricConfig cfg;
    EXPECT_EXIT(applySwitchingFlags(args, cfg),
                testing::ExitedWithCode(1),
                "--flits-per-packet 8 needs a flit-level --switching");

    ArgParser spelled("t", "t");
    addSwitchingFlags(spelled, "vct", "blocking");
    parseArgs(spelled, {"--switching", "packet-sync",
                        "--flits-per-packet", "8"});
    FabricConfig vct;
    vct.switching = Switching::VirtualCutThrough;
    EXPECT_EXIT(applySwitchingFlags(spelled, vct),
                testing::ExitedWithCode(1), "--switching");

    // 0 keeps the bench default and is accepted under packet-sync.
    ArgParser keep("t", "t");
    addSwitchingFlags(keep, "packet-sync", "blocking");
    parseArgs(keep, {"--flits-per-packet", "0"});
    FabricConfig plain;
    applySwitchingFlags(keep, plain);
    EXPECT_EQ(plain.switching, Switching::PacketSync);
}

TEST(SwitchingFlagsDeathTest, RouteCyclesUnderPacketSyncIsRejected)
{
    // Packet-sync moves one hop per cycle, so R > 1 would be
    // silently meaningless there; the flag set is refused instead.
    ArgParser args("t", "t");
    addSwitchingFlags(args, "packet-sync", "blocking");
    parseArgs(args, {"--route-cycles", "4"});
    FabricConfig cfg;
    EXPECT_EXIT(applySwitchingFlags(args, cfg),
                testing::ExitedWithCode(1),
                "--route-cycles 4 needs a flit-level --switching");

    ArgParser negative("t", "t");
    addSwitchingFlags(negative, "vct", "blocking");
    parseArgs(negative, {"--route-cycles", "-2"});
    FabricConfig vct;
    vct.switching = Switching::VirtualCutThrough;
    EXPECT_EXIT(applySwitchingFlags(negative, vct),
                testing::ExitedWithCode(1), "--route-cycles wants");

    // Under a flit-level mode the value lands in the config.
    ArgParser flit("t", "t");
    addSwitchingFlags(flit, "packet-sync", "blocking");
    parseArgs(flit, {"--switching", "vct", "--route-cycles", "4"});
    FabricConfig routed;
    applySwitchingFlags(flit, routed);
    EXPECT_EQ(routed.switching, Switching::VirtualCutThrough);
    EXPECT_EQ(routed.routeCycles, 4u);
}

} // namespace
} // namespace damq
