/**
 * @file
 * Tests for the sweep-execution subsystem: SweepRunner ordering and
 * error handling, deriveTaskSeed, the JSON/CSV result sinks, and —
 * the load-bearing guarantee — that a Table 4 style sweep produces
 * byte-identical JSON and text at 1, 2, and 8 worker threads, and
 * that those results match direct sequential simulator calls.
 */

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "network/saturation.hh"
#include "common/csv_writer.hh"
#include "common/json_writer.hh"
#include "runner/network_sweep.hh"
#include "runner/sweep_runner.hh"
#include "runner/table_benches.hh"

namespace damq {
namespace {

// ---------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------

TEST(SweepRunner, ResultsComeBackInTaskOrder)
{
    for (const unsigned threads : {1u, 2u, 8u}) {
        SweepRunner runner(threads);
        const std::vector<int> out = runner.map(
            100, [](std::size_t i) { return static_cast<int>(i * i); });
        ASSERT_EQ(out.size(), 100u);
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], static_cast<int>(i * i));
    }
}

TEST(SweepRunner, EveryIndexRunsExactlyOnce)
{
    SweepRunner runner(8);
    std::atomic<int> calls{0};
    const std::vector<std::size_t> out =
        runner.map(64, [&calls](std::size_t i) {
            calls.fetch_add(1);
            return i;
        });
    EXPECT_EQ(calls.load(), 64);
    std::set<std::size_t> seen(out.begin(), out.end());
    EXPECT_EQ(seen.size(), 64u);
}

TEST(SweepRunner, ZeroAndOneTaskCountsWork)
{
    SweepRunner runner(4);
    EXPECT_TRUE(
        runner.map(0, [](std::size_t) { return 1; }).empty());
    const auto one = runner.map(1, [](std::size_t) { return 7; });
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 7);
}

TEST(SweepRunner, ZeroThreadsClampsToOne)
{
    SweepRunner runner(0);
    EXPECT_EQ(runner.threads(), 1u);
}

TEST(SweepRunner, TaskExceptionIsRethrownAfterTheSweep)
{
    for (const unsigned threads : {1u, 4u}) {
        SweepRunner runner(threads);
        EXPECT_THROW(
            runner.map(16,
                       [](std::size_t i) {
                           if (i == 7)
                               throw std::runtime_error("task 7");
                           return i;
                       }),
            std::runtime_error);
    }
}

TEST(SweepRunner, PerfCountersCoverEveryTask)
{
    SweepRunner runner(2);
    const auto cycles_of = +[](const std::uint64_t &r) { return r; };
    const auto out = runner.map(
        10, [](std::size_t i) { return std::uint64_t(1000 + i); },
        cycles_of);
    ASSERT_EQ(out.size(), 10u);
    ASSERT_EQ(runner.taskPerf().size(), 10u);
    for (std::size_t i = 0; i < 10; ++i) {
        EXPECT_GE(runner.taskPerf()[i].wallSeconds, 0.0);
        EXPECT_EQ(runner.taskPerf()[i].simCycles, 1000 + i);
    }
    EXPECT_GE(runner.wallSeconds(), 0.0);
}

// ---------------------------------------------------------------
// SweepRunner::mapGuarded
// ---------------------------------------------------------------

TEST(MapGuarded, CleanSweepMatchesMapWithOkOutcomes)
{
    SweepRunner runner(4);
    GuardPolicy policy;
    const auto out = runner.mapGuarded(
        20, [](std::size_t i) { return static_cast<int>(i + 1); },
        policy);
    ASSERT_EQ(out.size(), 20u);
    ASSERT_EQ(runner.taskOutcomes().size(), 20u);
    for (std::size_t i = 0; i < out.size(); ++i) {
        ASSERT_TRUE(out[i].has_value());
        EXPECT_EQ(*out[i], static_cast<int>(i + 1));
        EXPECT_TRUE(runner.taskOutcomes()[i].ok());
        EXPECT_EQ(runner.taskOutcomes()[i].attempts, 1u);
    }
}

TEST(MapGuarded, FailingTaskIsRetriedThenReportedWithoutPoisoning)
{
    for (const unsigned threads : {1u, 4u}) {
        SweepRunner runner(threads);
        GuardPolicy policy;
        policy.maxAttempts = 3;
        std::atomic<int> calls_to_seven{0};
        const auto out = runner.mapGuarded(
            16,
            [&calls_to_seven](std::size_t i) {
                if (i == 7) {
                    calls_to_seven.fetch_add(1);
                    throw std::runtime_error("task 7 is cursed");
                }
                return i;
            },
            policy);

        // The casualty leaves an empty slot with its diagnosis...
        EXPECT_FALSE(out[7].has_value());
        const TaskOutcome &cursed = runner.taskOutcomes()[7];
        EXPECT_EQ(cursed.status, TaskStatus::Failed);
        EXPECT_EQ(cursed.attempts, 3u);
        EXPECT_EQ(calls_to_seven.load(), 3);
        EXPECT_NE(cursed.error.find("cursed"), std::string::npos);

        // ...and every other task's result survives.
        for (std::size_t i = 0; i < 16; ++i) {
            if (i == 7)
                continue;
            ASSERT_TRUE(out[i].has_value()) << i;
            EXPECT_EQ(*out[i], i);
            EXPECT_TRUE(runner.taskOutcomes()[i].ok());
        }
    }
}

TEST(MapGuarded, HungTaskTimesOutAndTheSweepMovesOn)
{
    SweepRunner runner(2);
    GuardPolicy policy;
    policy.taskTimeoutSeconds = 0.05;
    policy.maxAttempts = 2; // timeouts must NOT be retried

    // The hung attempt keeps running detached; everything it
    // touches must outlive the sweep, hence static state.
    static std::atomic<bool> release{false};
    static std::atomic<int> hung_calls{0};
    const auto out = runner.mapGuarded(
        8,
        [](std::size_t i) {
            if (i == 3) {
                hung_calls.fetch_add(1);
                while (!release.load())
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1));
            }
            return static_cast<int>(i);
        },
        policy);

    EXPECT_FALSE(out[3].has_value());
    EXPECT_EQ(runner.taskOutcomes()[3].status, TaskStatus::TimedOut);
    EXPECT_EQ(hung_calls.load(), 1);
    for (std::size_t i = 0; i < 8; ++i) {
        if (i == 3)
            continue;
        ASSERT_TRUE(out[i].has_value()) << i;
        EXPECT_EQ(runner.taskOutcomes()[i].status, TaskStatus::Ok);
    }
    release.store(true); // let the detached attempt finish
}

// ---------------------------------------------------------------
// deriveTaskSeed
// ---------------------------------------------------------------

TEST(DeriveTaskSeed, DeterministicAndDistinctPerIndex)
{
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        const std::uint64_t seed = deriveTaskSeed(88, i);
        EXPECT_EQ(seed, deriveTaskSeed(88, i));
        seen.insert(seed);
    }
    EXPECT_EQ(seen.size(), 1000u);
    EXPECT_NE(deriveTaskSeed(88, 0), deriveTaskSeed(89, 0));
}

// ---------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------

TEST(JsonWriter, NestedDocumentWithStableFormatting)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.field("name", "sweep");
    json.field("count", 3);
    json.field("ok", true);
    json.key("values");
    json.beginArray();
    json.value(1.5);
    json.null();
    json.endArray();
    json.endObject();

    EXPECT_EQ(out.str(), "{\n"
                         "  \"name\": \"sweep\",\n"
                         "  \"count\": 3,\n"
                         "  \"ok\": true,\n"
                         "  \"values\": [\n"
                         "    1.5,\n"
                         "    null\n"
                         "  ]\n"
                         "}\n");
}

TEST(JsonWriter, EscapesStringsAndMapsNonFiniteToNull)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.field("text", "a\"b\\c\nd");
    json.field("nan", std::nan(""));
    json.endObject();

    EXPECT_NE(out.str().find("\"a\\\"b\\\\c\\nd\""), std::string::npos);
    EXPECT_NE(out.str().find("\"nan\": null"), std::string::npos);
}

TEST(JsonWriter, DoublesRoundTripAtFullPrecision)
{
    const double value = 41.0 / 3.0;
    EXPECT_EQ(std::stod(formatJsonNumber(value)), value);
    EXPECT_EQ(formatJsonNumber(std::nan("")), "null");
}

// ---------------------------------------------------------------
// CsvWriter
// ---------------------------------------------------------------

TEST(CsvWriter, QuotesOnlyWhenNeeded)
{
    std::ostringstream out;
    CsvWriter csv(out);
    csv.header({"a", "b", "c"});
    csv.row({"plain", "with,comma", "with\"quote"});

    EXPECT_EQ(out.str(), "a,b,c\n"
                         "plain,\"with,comma\",\"with\"\"quote\"\n");
}

// ---------------------------------------------------------------
// Sweeps: parallel == sequential, bit for bit
// ---------------------------------------------------------------

/** A Table 4 shrunk to run in well under a second. */
Table4Options
smallTable4()
{
    Table4Options options;
    options.base.numPorts = 16;
    options.base.common.warmupCycles = 200;
    options.base.common.measureCycles = 1000;
    options.loads = {0.25, 0.50};
    options.types = {BufferType::Fifo, BufferType::Damq};
    return options;
}

std::string
table4JsonText(const Table4Data &data)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    writeTable4Json(json, data);
    json.endObject();
    return out.str();
}

TEST(NetworkSweep, Table4IsByteIdenticalAcrossThreadCounts)
{
    SweepRunner sequential(1);
    const Table4Data base = runTable4(sequential, smallTable4());
    const std::string base_json = table4JsonText(base);
    const std::string base_text = renderTable4Text(base);
    EXPECT_FALSE(base_json.empty());

    for (const unsigned threads : {2u, 8u}) {
        SweepRunner runner(threads);
        const Table4Data data = runTable4(runner, smallTable4());
        EXPECT_EQ(table4JsonText(data), base_json)
            << "JSON diverged at " << threads << " threads";
        EXPECT_EQ(renderTable4Text(data), base_text)
            << "text diverged at " << threads << " threads";
    }
}

TEST(NetworkSweep, Table4MatchesDirectSequentialCalls)
{
    const Table4Options options = smallTable4();
    SweepRunner runner(8);
    const Table4Data data = runTable4(runner, options);

    ASSERT_EQ(data.rows.size(), options.types.size());
    for (std::size_t t = 0; t < options.types.size(); ++t) {
        FabricConfig cfg = options.base;
        cfg.bufferType = options.types[t];
        const Table4Row &row = data.rows[t];
        ASSERT_EQ(row.latencyClocks.size(), options.loads.size());
        for (std::size_t l = 0; l < options.loads.size(); ++l) {
            EXPECT_EQ(row.latencyClocks[l],
                      latencyAtLoad(cfg, options.loads[l]));
        }
        const SaturationSummary sat = measureSaturation(cfg);
        EXPECT_EQ(row.saturatedLatencyClocks,
                  sat.saturatedLatencyClocks);
        EXPECT_EQ(row.saturationThroughput,
                  sat.saturationThroughput);
    }
}

TEST(NetworkSweep, MeshSweepMatchesDirectRun)
{
    FabricConfig cfg = FabricConfig::mesh();
    cfg.width = 4;
    cfg.height = 4;
    cfg.bufferType = BufferType::Damq;
    cfg.slotsPerBuffer = 5;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 100;
    cfg.common.measureCycles = 500;

    SweepRunner runner(2);
    const std::vector<FabricTask> tasks = {
        {"damq@0.2", atLoad(cfg, 0.2)},
        {"damq@0.4", atLoad(cfg, 0.4)},
    };
    const std::vector<core::SyncResult> swept =
        runSimSweep(runner, tasks);
    ASSERT_EQ(swept.size(), 2u);

    for (std::size_t i = 0; i < tasks.size(); ++i) {
        const core::SyncResult direct =
            FabricSimulator(tasks[i].config).run();
        EXPECT_EQ(swept[i].latency.mean(),
                  direct.latency.mean());
        EXPECT_EQ(swept[i].deliveredThroughput,
                  direct.deliveredThroughput);
    }
    EXPECT_EQ(taskLabels(tasks),
              (std::vector<std::string>{"damq@0.2", "damq@0.4"}));
}

} // namespace
} // namespace damq
