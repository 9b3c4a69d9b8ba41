/**
 * @file
 * Perf smoke test (`ctest -L perf`): one scaled-down Table 4 sweep
 * on two worker threads, asserting it finishes quickly and that the
 * runner's throughput counters report plausible numbers.  This is a
 * canary for gross hot-path regressions, not a benchmark — the
 * real numbers live in bench/micro_buffers and the PERF_*.json
 * sidecars.
 *
 * Also home to the steady-state allocation check: once a
 * synchronized engine has warmed up, stepping it must perform zero
 * heap allocations — every per-cycle structure (grant lists, move
 * lists, pop scratch, injection staging, source-queue rings) is
 * sized at construction and reused.  The check counts global
 * operator new calls around a measured step loop, so any hidden
 * per-cycle allocation that sneaks into the hot path fails here
 * rather than showing up as a profile regression months later.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "network/fabric_sim.hh"
#include "runner/sweep_runner.hh"
#include "runner/table_benches.hh"

// Global allocation counter.  Defining operator new/delete in a
// test binary is the standard-sanctioned way to observe allocation
// behavior; the counter is atomic because gtest itself may touch
// the heap from other threads, and the engine's shard workers all
// route through here too.
namespace {
std::atomic<std::uint64_t> gAllocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace damq {
namespace {

TEST(PerfSmoke, SmallSweepFinishesFastWithSaneCounters)
{
    Table4Options options;
    options.base.numPorts = 16;
    options.base.common.warmupCycles = 200;
    options.base.common.measureCycles = 2000;
    options.loads = {0.25, 0.50};
    options.types = {BufferType::Fifo, BufferType::Damq};

    SweepRunner runner(2);
    const Table4Data data = runTable4(runner, options);
    ASSERT_EQ(data.rows.size(), 2u);

    // 6 simulations of 2200 cycles on a 16-port network: seconds at
    // worst, even on a loaded shared machine.
    EXPECT_LT(runner.wallSeconds(), 10.0);

    ASSERT_EQ(runner.taskPerf().size(), data.taskLabels.size());
    for (const TaskPerf &perf : runner.taskPerf()) {
        EXPECT_EQ(perf.simCycles, 2000u);
        EXPECT_GT(perf.cyclesPerSecond, 0.0);
    }
}

/** Allocations during @p cycles steps of @p sim. */
std::uint64_t
allocationsDuring(FabricSimulator &sim, Cycle cycles)
{
    const std::uint64_t before =
        gAllocations.load(std::memory_order_relaxed);
    for (Cycle c = 0; c < cycles; ++c)
        sim.step();
    return gAllocations.load(std::memory_order_relaxed) - before;
}

TEST(PerfSmoke, SteadyStateStepMakesNoHeapAllocations)
{
    // Blocking 2-VC torus at moderate load, no telemetry, no
    // faults, no audits: the pure hot loop.  A long pre-roll lets
    // the source-queue rings and per-shard move lists reach their
    // high-water marks (growth during warmup is expected and
    // amortized).
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 8;
    cfg.height = 8;
    cfg.offeredLoad = 0.5;
    cfg.common.seed = 42;
    FabricSimulator sim(cfg);
    for (Cycle c = 0; c < 2000; ++c)
        sim.step();

    EXPECT_EQ(allocationsDuring(sim, 500), 0u)
        << "the synchronized engine's steady-state cycle must not "
           "touch the heap — some per-cycle structure is no longer "
           "preallocated";
}

TEST(PerfSmoke, ShardedSteadyStateStepMakesNoHeapAllocations)
{
    // Same fabric at 4 shards: the barrier dispatch (std::function
    // phase bodies included) and the per-shard mailboxes must be
    // allocation-free too.
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 8;
    cfg.height = 8;
    cfg.offeredLoad = 0.5;
    cfg.common.seed = 42;
    cfg.common.shards = 4;
    FabricSimulator sim(cfg);
    for (Cycle c = 0; c < 2000; ++c)
        sim.step();

    EXPECT_EQ(allocationsDuring(sim, 500), 0u)
        << "the sharded phase dispatch allocates in steady state";
}

} // namespace
} // namespace damq
