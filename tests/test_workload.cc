/**
 * @file
 * The Workload / InjectionProcess API suite:
 *
 *  - shard bit-identity (1/2/8 shards) for every new injection
 *    process — onoff, mmpp, reqreply, batch — under the DESIGN §16
 *    draw-order contract, e2e tail percentiles included;
 *  - trace round-trip: a recorded geometric run replays through the
 *    trace workload byte-for-byte (no RNG draws), and the trace
 *    file itself survives write -> parse unchanged;
 *  - closed-loop conservation: after a full drain every request was
 *    answered and every reply came home;
 *  - batch semantics: drain-and-measure delivers exactly the quota;
 *  - construction-time validation (peak rates, the per-class error
 *    text, closed loop x discarding) and the CLI surface;
 *  - the packet-length distribution behind variable-length runs.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/arg_parser.hh"
#include "common/random.hh"
#include "network/core/workload.hh"
#include "network/fabric_sim.hh"
#include "runner/sim_flags.hh"

namespace damq {
namespace {

// ----------------------------------------------- shard identity

/** Everything a run can externally observe, for exact comparison. */
struct Observed
{
    NetworkCounters window;
    NetworkCounters lifetime;
    double deliveredThroughput;
    std::uint64_t latencyCount;
    double latencyMean;
    double latencyP50;
    double latencyP99;
    double e2eP50;
    double e2eP99;
    double e2eP999;
    std::uint64_t e2eSamples;
    core::WorkloadStats workloadStats;
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
    EXPECT_EQ(a.lifetime.generated, b.lifetime.generated);
    EXPECT_EQ(a.lifetime.delivered, b.lifetime.delivered);
    // Exact double equality is the point: a reordering that
    // preserved the multiset of samples would still show up in the
    // delivery-ordered Welford moments and the histogram tails.
    EXPECT_EQ(a.deliveredThroughput, b.deliveredThroughput);
    EXPECT_EQ(a.latencyCount, b.latencyCount);
    EXPECT_EQ(a.latencyMean, b.latencyMean);
    EXPECT_EQ(a.latencyP50, b.latencyP50);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.e2eP50, b.e2eP50);
    EXPECT_EQ(a.e2eP99, b.e2eP99);
    EXPECT_EQ(a.e2eP999, b.e2eP999);
    EXPECT_EQ(a.e2eSamples, b.e2eSamples);
    EXPECT_EQ(a.workloadStats.requestsSent,
              b.workloadStats.requestsSent);
    EXPECT_EQ(a.workloadStats.requestsDelivered,
              b.workloadStats.requestsDelivered);
    EXPECT_EQ(a.workloadStats.repliesSent,
              b.workloadStats.repliesSent);
    EXPECT_EQ(a.workloadStats.repliesDelivered,
              b.workloadStats.repliesDelivered);
    EXPECT_EQ(a.workloadStats.batchRemaining,
              b.workloadStats.batchRemaining);
    EXPECT_EQ(a.snapshot, b.snapshot);
}

FabricConfig
torusBase(double load)
{
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 8;
    cfg.height = 8;
    cfg.offeredLoad = load;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 400;
    return cfg;
}

Observed
runTorus(FabricConfig cfg, std::uint32_t shards)
{
    cfg.common.shards = shards;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    Observed obs;
    obs.window = result.window;
    obs.lifetime = sim.lifetime();
    obs.deliveredThroughput = result.deliveredThroughput;
    obs.latencyCount = result.latency.count();
    obs.latencyMean = result.latency.mean();
    obs.latencyP50 = result.latencyP50;
    obs.latencyP99 = result.latencyP99;
    obs.e2eP50 = result.e2eLatencyP50;
    obs.e2eP99 = result.e2eLatencyP99;
    obs.e2eP999 = result.e2eLatencyP999;
    obs.e2eSamples = result.e2eSamples;
    obs.workloadStats = sim.syncEngine().injection().stats();
    obs.snapshot = sim.snapshotText();
    return obs;
}

void
expectShardIdentity(const FabricConfig &cfg, const char *what)
{
    const Observed one = runTorus(cfg, 1);
    const Observed two = runTorus(cfg, 2);
    const Observed eight = runTorus(cfg, 8);
    ASSERT_GT(one.lifetime.delivered, 0u);
    {
        SCOPED_TRACE(what);
        expectIdentical(one, two, "1 vs 2 shards");
        expectIdentical(one, eight, "1 vs 8 shards");
    }
}

TEST(WorkloadShardIdentity, OnOffIsBitIdenticalAcrossShardCounts)
{
    FabricConfig cfg = torusBase(0.4);
    cfg.common.workload.kind = core::WorkloadKind::OnOff;
    cfg.common.workload.burstiness = 2.0;
    cfg.common.workload.meanBurstCycles = 8;
    expectShardIdentity(cfg, "onoff");
}

TEST(WorkloadShardIdentity, MmppIsBitIdenticalAcrossShardCounts)
{
    FabricConfig cfg = torusBase(0.3);
    cfg.common.workload.kind = core::WorkloadKind::Mmpp;
    cfg.common.workload.burstiness = 3.0;
    cfg.common.workload.meanBurstCycles = 8;
    expectShardIdentity(cfg, "mmpp");
}

TEST(WorkloadShardIdentity, ReqReplyIsBitIdenticalAcrossShardCounts)
{
    // Closed-loop state mutates in onDelivered(), which the sharded
    // engine replays on the coordinator in global move order — the
    // contract this test pins down.
    FabricConfig cfg = torusBase(0.6);
    cfg.common.workload.kind = core::WorkloadKind::ReqReply;
    cfg.common.workload.replyWindow = 4;
    expectShardIdentity(cfg, "reqreply");
}

TEST(WorkloadShardIdentity, BatchIsBitIdenticalAcrossShardCounts)
{
    // Batch runs the drain-and-measure schedule; the actual window
    // length (batchCycles) feeds measuredCycles and throughput, so
    // identity here also pins the termination cycle.
    FabricConfig cfg = torusBase(0.6);
    cfg.common.workload.kind = core::WorkloadKind::Batch;
    cfg.common.workload.batchPackets = 32;
    expectShardIdentity(cfg, "batch");
}

// ------------------------------------------------- trace replay

TEST(WorkloadTrace, RecordedRunReplaysBitIdentically)
{
    // Record every injection of a plain geometric run...
    FabricConfig cfg = torusBase(0.5);
    std::vector<core::WorkloadTraceEntry> record;
    FabricSimulator sim(cfg);
    sim.syncEngine().recordInjectionsTo(&record);
    const core::SyncResult original = sim.run();
    ASSERT_GT(record.size(), 0u);

    // ...write it out and parse it back unchanged...
    const std::string path =
        ::testing::TempDir() + "damq_workload_trace.txt";
    core::writeWorkloadTrace(path, record);
    const std::vector<core::WorkloadTraceEntry> parsed =
        core::parseWorkloadTrace(path, 64);
    ASSERT_EQ(parsed.size(), record.size());
    for (std::size_t i = 0; i < record.size(); ++i) {
        EXPECT_EQ(parsed[i].cycle, record[i].cycle);
        EXPECT_EQ(parsed[i].source, record[i].source);
        EXPECT_EQ(parsed[i].dest, record[i].dest);
    }

    // ...and replay it through the trace workload.  The engine's
    // PRNG feeds nothing but traffic draws, and the trace process
    // makes none, so the replayed network evolves byte-for-byte
    // like the original.
    FabricConfig replay = torusBase(0.5);
    replay.common.workload.kind = core::WorkloadKind::Trace;
    replay.common.workload.traceFile = path;
    FabricSimulator sim2(replay);
    const core::SyncResult replayed = sim2.run();
    EXPECT_EQ(original.window.generated, replayed.window.generated);
    EXPECT_EQ(original.window.injected, replayed.window.injected);
    EXPECT_EQ(original.window.delivered, replayed.window.delivered);
    EXPECT_EQ(original.latency.count(),
              replayed.latency.count());
    EXPECT_EQ(original.latency.mean(),
              replayed.latency.mean());
    EXPECT_EQ(original.e2eLatencyP50, replayed.e2eLatencyP50);
    EXPECT_EQ(original.e2eLatencyP99, replayed.e2eLatencyP99);
    EXPECT_EQ(original.e2eLatencyP999, replayed.e2eLatencyP999);
    EXPECT_EQ(sim.snapshotText(), sim2.snapshotText());
}

TEST(WorkloadTraceDeathTest, MalformedTracesFailWithLineNumbers)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::string dir = ::testing::TempDir();

    const std::string bad_fields = dir + "damq_trace_fields.txt";
    core::writeWorkloadTrace(bad_fields, {});
    {
        std::vector<core::WorkloadTraceEntry> one = {{5, 1, 2}};
        core::writeWorkloadTrace(bad_fields, one);
    }
    EXPECT_EXIT(core::parseWorkloadTrace(bad_fields, 2),
                ::testing::ExitedWithCode(1),
                "endpoint out of range");

    const std::string bad_order = dir + "damq_trace_order.txt";
    {
        std::vector<core::WorkloadTraceEntry> entries = {{5, 1, 2},
                                                         {3, 1, 2}};
        core::writeWorkloadTrace(bad_order, entries);
    }
    EXPECT_EXIT(core::parseWorkloadTrace(bad_order, 64),
                ::testing::ExitedWithCode(1),
                "non-decreasing per source");
}

// ----------------------------------- closed-loop / batch semantics

TEST(WorkloadClosedLoop, ConservationClosesAfterDrain)
{
    FabricConfig cfg = torusBase(0.6);
    cfg.common.workload.kind = core::WorkloadKind::ReqReply;
    cfg.common.workload.replyWindow = 4;
    FabricSimulator sim(cfg);
    sim.run();
    ASSERT_TRUE(sim.drain(100000));
    const core::InjectionProcess &process =
        sim.syncEngine().injection();
    EXPECT_TRUE(process.closedLoop());
    EXPECT_EQ(process.pendingOffers(), 0u);
    const core::WorkloadStats &ws = process.stats();
    ASSERT_GT(ws.requestsSent, 0u);
    // Blocking protocol, fully drained: every request reached its
    // destination, every delivered request scheduled exactly one
    // reply, and every reply came home.
    EXPECT_EQ(ws.requestsSent, ws.requestsDelivered);
    EXPECT_EQ(ws.requestsDelivered, ws.repliesSent);
    EXPECT_EQ(ws.repliesSent, ws.repliesDelivered);
}

TEST(WorkloadBatch, DrainAndMeasureDeliversExactlyTheQuota)
{
    FabricConfig cfg = torusBase(0.6);
    cfg.common.workload.kind = core::WorkloadKind::Batch;
    cfg.common.workload.batchPackets = 32;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    const core::InjectionProcess &process =
        sim.syncEngine().injection();
    EXPECT_TRUE(process.exhausted());
    EXPECT_EQ(process.stats().batchRemaining, 0u);
    // The batch schedule measures from cycle 0 until the last
    // packet drains, so the window holds the entire batch.
    EXPECT_EQ(result.window.delivered, 64u * 32u);
    EXPECT_GT(result.measuredCycles, 0u);
    EXPECT_GT(result.e2eSamples, 0u);
}

// ----------------------------------------- construction validation

TEST(WorkloadValidationDeathTest, OverloadedPeakRatesAreFatal)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::WorkloadConfig geometric;
    EXPECT_EXIT(core::makeInjectionProcess(geometric, 64, 1.5),
                ::testing::ExitedWithCode(1),
                "not a probability");

    core::WorkloadConfig onoff;
    onoff.kind = core::WorkloadKind::OnOff;
    onoff.burstiness = 3.0;
    EXPECT_EXIT(core::makeInjectionProcess(onoff, 64, 0.5),
                ::testing::ExitedWithCode(1),
                "exceeds 1 packet/source/cycle");
}

TEST(WorkloadValidationDeathTest, PerClassErrorTextNamesTheClasses)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::WorkloadConfig mmpp;
    mmpp.kind = core::WorkloadKind::Mmpp;
    mmpp.burstiness = 4.0;
    EXPECT_EXIT(core::makeInjectionProcess(mmpp, 64, 0.5, 4),
                ::testing::ExitedWithCode(1),
                "each QoS class is overcommitted individually");
}

TEST(WorkloadValidationDeathTest, UnmodulatedOnOffIsFatal)
{
    // B = 1 would mean a zero-length off state (division by zero in
    // the transition probability); the factory rejects it with a
    // pointer at the geometric process instead.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    core::WorkloadConfig onoff;
    onoff.kind = core::WorkloadKind::OnOff;
    onoff.burstiness = 1.0;
    EXPECT_EXIT(core::makeInjectionProcess(onoff, 64, 0.3),
                ::testing::ExitedWithCode(1),
                "needs burstiness > 1");
}

TEST(WorkloadValidationDeathTest, ClosedLoopRejectsDiscarding)
{
    // A dropped request would strand its reply forever; the engine
    // rejects the combination at construction.
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    FabricConfig cfg = torusBase(0.3);
    cfg.protocol = FlowControl::Discarding;
    cfg.common.workload.kind = core::WorkloadKind::ReqReply;
    EXPECT_EXIT({ FabricSimulator sim(cfg); },
                ::testing::ExitedWithCode(1),
                "needs a lossless protocol");
}

// --------------------------------------------------- CLI surface

/** Parse @p extra through @p args as if typed on a command line. */
void
parseArgs(ArgParser &args, std::vector<std::string> extra)
{
    std::vector<char *> argv;
    static char prog[] = "test_workload";
    argv.push_back(prog);
    for (std::string &s : extra)
        argv.push_back(s.data());
    args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(WorkloadFlags, DefaultsLeaveTheWorkloadUntouched)
{
    ArgParser args("t", "t");
    addCommonSimFlags(args);
    parseArgs(args, {});
    SimCommonConfig common;
    applyCommonSimFlags(args, common, "t");
    EXPECT_EQ(common.workload.kind, core::WorkloadKind::Geometric);
    EXPECT_EQ(common.workload.burstiness, 1.0);
    EXPECT_EQ(common.workload.batchPackets, 64u);
    EXPECT_EQ(common.workload.replyWindow, 4u);
    EXPECT_TRUE(common.workload.traceFile.empty());
}

TEST(WorkloadFlags, EveryWorkloadOptionApplies)
{
    ArgParser args("t", "t");
    addCommonSimFlags(args);
    parseArgs(args, {"--workload", "mmpp", "--workload-burstiness",
                     "2.5", "--workload-burst-cycles", "16",
                     "--batch", "128", "--reply-window", "8",
                     "--trace-file", "replay.txt"});
    SimCommonConfig common;
    applyCommonSimFlags(args, common, "t");
    EXPECT_EQ(common.workload.kind, core::WorkloadKind::Mmpp);
    EXPECT_EQ(common.workload.burstiness, 2.5);
    EXPECT_EQ(common.workload.meanBurstCycles, 16u);
    EXPECT_EQ(common.workload.batchPackets, 128u);
    EXPECT_EQ(common.workload.replyWindow, 8u);
    EXPECT_EQ(common.workload.traceFile, "replay.txt");
}

TEST(WorkloadFlagsDeathTest, UnknownWorkloadNameExitsWithChoices)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            ArgParser args("t", "t");
            addCommonSimFlags(args);
            parseArgs(args, {"--workload", "fractal"});
            SimCommonConfig common;
            applyCommonSimFlags(args, common, "t");
        },
        ::testing::ExitedWithCode(1), "geometric");
}

// ------------------------------------------- packet lengths

using core::LengthDistribution;

TEST(LengthDistribution, MeanOfUniform14)
{
    LengthDistribution dist{{1.0, 1.0, 1.0, 1.0}};
    EXPECT_DOUBLE_EQ(dist.mean(), 2.5);
    EXPECT_TRUE(dist.variable());
    EXPECT_EQ(dist.maxLength(), 4u);
}

TEST(LengthDistribution, SamplesStayInRangeAndMatchMean)
{
    LengthDistribution dist{{1.0, 1.0, 1.0, 1.0}};
    Random rng(7);
    double total = 0.0;
    const int n = 40000;
    for (int i = 0; i < n; ++i) {
        const auto len = dist.sample(rng);
        ASSERT_GE(len, 1u);
        ASSERT_LE(len, 4u);
        total += len;
    }
    EXPECT_NEAR(total / n, 2.5, 0.05);
}

TEST(LengthDistribution, DegenerateSingleLength)
{
    LengthDistribution dist{{1.0}};
    Random rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(dist.sample(rng), 1u);
    EXPECT_DOUBLE_EQ(dist.mean(), 1.0);
    EXPECT_FALSE(dist.variable());
    EXPECT_EQ(dist.maxLength(), 1u);
}

TEST(LengthDistribution, SkewedWeights)
{
    LengthDistribution dist{{0.0, 0.0, 0.0, 1.0}};
    Random rng(3);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(dist.sample(rng), 4u);
    // One length with weight: nothing to draw.
    EXPECT_FALSE(dist.variable());
    EXPECT_EQ(dist.maxLength(), 4u);
}

} // namespace
} // namespace damq
