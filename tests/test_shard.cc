/**
 * @file
 * Bit-identity tests for the sharded synchronized engine: the same
 * configuration run at 1, 2, and 8 shards must produce byte-for-byte
 * identical results — every counter, every Welford latency moment,
 * every histogram quantile, and the diagnostic occupancy snapshot.
 *
 * Three configurations cover the three advance paths:
 *   - a clean blocking 2-VC torus (the fully sharded receive path),
 *   - the same torus with link faults and retransmit+reroute
 *     recovery (the coordinator-replayed move loop),
 *   - a blocking Omega network (stage-major switch ids, the
 *     topology the paper's tables run on).
 * A sparse 16x16 torus, clean and with recovery, covers the idle
 * switch skip, which almost every switch takes there.
 *
 * Plus the guard rails: an explicit crosscheck that a one-shard run
 * equals a default-config run of the unsharded engine, and the clean
 * CLI-level failure when shards exceed the switch count.
 */

#include <gtest/gtest.h>

#include <string>

#include "network/fabric_sim.hh"

namespace damq {
namespace {

/** Everything a run can externally observe, for exact comparison. */
struct Observed
{
    NetworkCounters window;
    NetworkCounters lifetime;
    double deliveredThroughput;
    double discardFraction;
    std::uint64_t latencyCount;
    double latencyMean;
    double latencyStddev;
    double latencyMin;
    double latencyMax;
    double latencyP50;
    double latencyP99;
    std::string snapshot;
};

void
expectIdentical(const Observed &a, const Observed &b,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.window.generated, b.window.generated);
    EXPECT_EQ(a.window.injected, b.window.injected);
    EXPECT_EQ(a.window.delivered, b.window.delivered);
    EXPECT_EQ(a.window.discardedAtEntry, b.window.discardedAtEntry);
    EXPECT_EQ(a.window.discardedInternal,
              b.window.discardedInternal);
    EXPECT_EQ(a.window.faultDropped, b.window.faultDropped);
    EXPECT_EQ(a.lifetime.generated, b.lifetime.generated);
    EXPECT_EQ(a.lifetime.injected, b.lifetime.injected);
    EXPECT_EQ(a.lifetime.delivered, b.lifetime.delivered);
    EXPECT_EQ(a.lifetime.discardedAtEntry,
              b.lifetime.discardedAtEntry);
    EXPECT_EQ(a.lifetime.discardedInternal,
              b.lifetime.discardedInternal);
    EXPECT_EQ(a.lifetime.faultDropped, b.lifetime.faultDropped);
    // Exact double equality is the point: the latency stream is
    // Welford-accumulated in delivery order, so even a reordering
    // that preserves the multiset of samples would show up here.
    EXPECT_EQ(a.deliveredThroughput, b.deliveredThroughput);
    EXPECT_EQ(a.discardFraction, b.discardFraction);
    EXPECT_EQ(a.latencyCount, b.latencyCount);
    EXPECT_EQ(a.latencyMean, b.latencyMean);
    EXPECT_EQ(a.latencyStddev, b.latencyStddev);
    EXPECT_EQ(a.latencyMin, b.latencyMin);
    EXPECT_EQ(a.latencyMax, b.latencyMax);
    EXPECT_EQ(a.latencyP50, b.latencyP50);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.snapshot, b.snapshot);
}

// ------------------------------------------------------------ torus

FabricConfig
torusBase()
{
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 8;
    cfg.height = 8;
    cfg.offeredLoad = 0.6;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 400;
    return cfg;
}

Observed
runTorus(FabricConfig cfg, std::uint32_t shards,
         std::uint64_t *retransmits = nullptr)
{
    cfg.common.shards = shards;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    if (retransmits)
        *retransmits = sim.faultReport().recovery.retransmits;
    Observed obs;
    obs.window = result.window;
    obs.lifetime = sim.lifetime();
    obs.deliveredThroughput = result.deliveredThroughput;
    obs.discardFraction = result.discardFraction;
    obs.latencyCount = result.latency.count();
    obs.latencyMean = result.latency.mean();
    obs.latencyStddev = result.latency.stddev();
    obs.latencyMin = result.latency.min();
    obs.latencyMax = result.latency.max();
    obs.latencyP50 = result.latencyP50;
    obs.latencyP99 = result.latencyP99;
    obs.snapshot = sim.snapshotText();
    return obs;
}

TEST(ShardIdentity, BlockingTorusIsBitIdenticalAcrossShardCounts)
{
    // Clean run: no faults, no recovery — the receive phase itself
    // runs sharded (the coordinator only replays sink deliveries).
    const Observed one = runTorus(torusBase(), 1);
    const Observed two = runTorus(torusBase(), 2);
    const Observed eight = runTorus(torusBase(), 8);
    ASSERT_GT(one.lifetime.delivered, 0u);
    expectIdentical(one, two, "torus: 1 vs 2 shards");
    expectIdentical(one, eight, "torus: 1 vs 8 shards");
}

TEST(ShardIdentity, RecoveringFaultyTorusIsBitIdentical)
{
    // Link faults plus retransmit+reroute recovery: per-packet
    // fault draws and link-layer state force the move loop back
    // onto the coordinator, but arbitration, pops, and injection
    // still run sharded — and the fault-plan PRNG must see exactly
    // the same draw sequence at any shard count.
    FabricConfig cfg = torusBase();
    cfg.common.faults.seed = 7;
    cfg.common.faults.packetDropRate = 0.01;
    cfg.common.faults.linkDownFraction = 0.05;
    cfg.common.recovery.policy = RecoveryPolicy::RetransmitReroute;
    std::uint64_t retransmits1 = 0;
    std::uint64_t retransmits8 = 0;
    const Observed one = runTorus(cfg, 1, &retransmits1);
    const Observed two = runTorus(cfg, 2);
    const Observed eight = runTorus(cfg, 8, &retransmits8);
    ASSERT_GT(one.lifetime.delivered, 0u);
    // The protocol must actually have fired (otherwise this run
    // would not exercise the recovery path at all), and equally
    // often at both shard counts.
    EXPECT_GT(retransmits1, 0u);
    EXPECT_EQ(retransmits1, retransmits8);
    expectIdentical(one, two, "faulty torus: 1 vs 2 shards");
    expectIdentical(one, eight, "faulty torus: 1 vs 8 shards");
}

TEST(ShardIdentity, SoftFaultTorusIsBitIdentical)
{
    // The memoized per-switch fault hooks (stuck arbiters, delayed
    // credits) are queried concurrently from the sharded
    // arbitration phase; the pre-roll in phaseFaults must keep the
    // draw order identical at any shard count.
    FabricConfig cfg = torusBase();
    cfg.common.faults.seed = 11;
    cfg.common.faults.arbiterStuckRate = 0.002;
    cfg.common.faults.creditDelayRate = 0.002;
    const Observed one = runTorus(cfg, 1);
    const Observed eight = runTorus(cfg, 8);
    ASSERT_GT(one.lifetime.delivered, 0u);
    expectIdentical(one, eight, "soft-fault torus: 1 vs 8 shards");
}

FabricConfig
sparseTorus()
{
    // Load 0.01 on a 16x16 blocking 2-VC torus: almost every
    // switch-cycle takes the idle-switch skip, the regime where a
    // skip that drifted from full arbitration would show first.
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 16;
    cfg.height = 16;
    cfg.offeredLoad = 0.01;
    cfg.common.seed = 23;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 800;
    cfg.common.auditEveryCycles = 100;
    cfg.common.watchdogStallCycles = 500;
    return cfg;
}

TEST(ShardIdentity, SparseTorusIsBitIdenticalAcrossShardCounts)
{
    const Observed one = runTorus(sparseTorus(), 1);
    const Observed two = runTorus(sparseTorus(), 2);
    const Observed eight = runTorus(sparseTorus(), 8);
    ASSERT_GT(one.lifetime.delivered, 0u);
    expectIdentical(one, two, "sparse torus: 1 vs 2 shards");
    expectIdentical(one, eight, "sparse torus: 1 vs 8 shards");
}

TEST(ShardIdentity, SparseRecoveringTorusIsBitIdentical)
{
    // Dead links re-home the packets queued behind them: queues
    // empty outside arbitration, leaving stale counts for the idle
    // skip to clear exactly as a full pass would.
    FabricConfig cfg = sparseTorus();
    cfg.common.faults.seed = 3;
    cfg.common.faults.linkDownFraction = 0.1;
    cfg.common.recovery.policy = RecoveryPolicy::RetransmitReroute;
    const Observed one = runTorus(cfg, 1);
    const Observed two = runTorus(cfg, 2);
    const Observed eight = runTorus(cfg, 8);
    ASSERT_GT(one.lifetime.delivered, 0u);
    FabricSimulator rerouted(cfg);
    rerouted.run();
    EXPECT_GT(rerouted.faultReport().recovery.packetsRerouted, 0u);
    expectIdentical(one, two, "sparse faulty torus: 1 vs 2 shards");
    expectIdentical(one, eight, "sparse faulty torus: 1 vs 8 shards");
}

// ------------------------------------------------------------ omega

Observed
runOmega(std::uint32_t shards)
{
    FabricConfig cfg;
    cfg.numPorts = 64;
    cfg.radix = 4;
    cfg.offeredLoad = 0.7;
    cfg.common.seed = 5;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 400;
    cfg.common.shards = shards;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    Observed obs;
    obs.window = result.window;
    obs.lifetime = sim.lifetime();
    obs.deliveredThroughput = result.deliveredThroughput;
    obs.discardFraction = result.discardFraction;
    obs.latencyCount = result.latency.count();
    obs.latencyMean = result.latency.mean();
    obs.latencyStddev = result.latency.stddev();
    obs.latencyMin = result.latency.min();
    obs.latencyMax = result.latency.max();
    obs.latencyP50 = result.latencyFairness;
    obs.latencyP99 = result.worstSourceLatency;
    obs.snapshot = sim.snapshotText();
    return obs;
}

TEST(ShardIdentity, OmegaIsBitIdenticalAcrossShardCounts)
{
    const Observed one = runOmega(1);
    const Observed two = runOmega(2);
    const Observed eight = runOmega(8);
    ASSERT_GT(one.lifetime.delivered, 0u);
    expectIdentical(one, two, "omega: 1 vs 2 shards");
    expectIdentical(one, eight, "omega: 1 vs 8 shards");
}

// ------------------------------------------------------ guard rails

TEST(ShardIdentity, DefaultConfigMatchesExplicitOneShard)
{
    // The unsharded default (shards field untouched) and an
    // explicit --shards 1 must be the same engine: no thread pool,
    // same results.
    const Observed implicit = runTorus(torusBase(), 0 + 1);
    FabricConfig cfg = torusBase(); // leaves cfg.common.shards == 1
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    EXPECT_EQ(result.window.delivered, implicit.window.delivered);
    EXPECT_EQ(result.latency.mean(), implicit.latencyMean);
    EXPECT_EQ(sim.snapshotText(), implicit.snapshot);
}

TEST(ShardDeathTest, MoreShardsThanSwitchesFailsCleanly)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FabricConfig cfg = torusBase(); // 64 switches
    cfg.common.shards = 65;
    // damq_fatal: clean diagnostic + exit(1), not a crash — the
    // validation runs before any worker thread spawns.
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1), "exceeds");
}

} // namespace
} // namespace damq
