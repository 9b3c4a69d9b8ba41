/**
 * @file
 * The Scale workload: intra-simulation sharding on fabrics three
 * orders of magnitude bigger than the paper's — a 64x64 torus
 * (4,096 nodes) and a 4,096-endpoint radix-4 Omega network (6
 * stages x 1,024 switches) — at sub-saturation and saturation
 * load, advanced at 1, 2, 4, and 8 shards.
 *
 * Two things are measured, and one is enforced:
 *
 *  - enforced: every (workload, load) point must be bit-identical
 *    across all shard counts — counters and Welford latency moments
 *    compared exactly; any mismatch is fatal, so CI fails loudly if
 *    the determinism contract ever breaks at scale;
 *  - measured: per-point wall-clock, delivered packet-hops per
 *    second, and the parallel speedup of each shard count over the
 *    one-shard run of the same point.
 *
 * Unlike every other bench, BENCH_scale.json therefore contains
 * wall-clock-derived numbers (the speedup block) next to the
 * deterministic simulation outputs: sharding is a pure performance
 * feature, so its headline result *is* timing.  The deterministic
 * fields are still identical run to run; the speedup block is
 * expected to vary with the host, whose hardwareConcurrency is
 * recorded alongside (speedups are only meaningful when the host
 * has at least as many cores as shards).  The full per-task timing
 * breakdown is mirrored in the PERF_scale.json sidecar as usual.
 *
 * The sweep runner is told to use one thread by default: the
 * shards provide the parallelism here, and letting sweep tasks run
 * concurrently would make the per-task timings meaningless.  Both
 * workloads run the discarding protocol so the saturation points
 * hold steady state (blocking at load 1.0 grows source queues
 * without bound).
 */

#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/json_writer.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "network/fabric_sim.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"

namespace {

using namespace damq;
using namespace damq::bench;

const double kLoads[] = {0.40, 1.00};

/** Everything compared bitwise across shard counts. */
struct Fingerprint
{
    std::uint64_t generated;
    std::uint64_t delivered;
    std::uint64_t discarded;
    std::uint64_t latencyCount;
    double latencyMean;
    double latencyStddev;

    bool operator==(const Fingerprint &rhs) const
    {
        return generated == rhs.generated &&
               delivered == rhs.delivered &&
               discarded == rhs.discarded &&
               latencyCount == rhs.latencyCount &&
               latencyMean == rhs.latencyMean &&
               latencyStddev == rhs.latencyStddev;
    }
};

/** One (workload, load, shards) measurement, ready to render. */
struct Point
{
    std::string workload;
    double load;
    std::uint32_t shards;
    Fingerprint fp;
    double wallSeconds;
    double packetHops; ///< delivered x mean hops in the window
};

FabricConfig
torusConfig(double load)
{
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 64;
    cfg.height = 64;
    // Single-VC discarding: bounded memory at saturation, and the
    // whole advance (receives included) runs on the shards.
    cfg.protocol = FlowControl::Discarding;
    cfg.common.vcs = 1;
    cfg.slotsPerBuffer = 5;
    cfg.offeredLoad = load;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 100;
    cfg.common.measureCycles = 300;
    return cfg;
}

FabricConfig
omegaConfig(double load)
{
    FabricConfig cfg;
    cfg.numPorts = 4096; // 6 stages x 1024 radix-4 switches
    cfg.radix = 4;
    cfg.protocol = FlowControl::Discarding;
    cfg.slotsPerBuffer = 4;
    cfg.offeredLoad = load;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 100;
    cfg.common.measureCycles = 300;
    return cfg;
}

/** Fail the bench if two shard counts ever disagree. */
void
checkIdentical(const std::vector<Point> &points)
{
    for (const Point &p : points) {
        const Point &base = points.front();
        if (!(p.fp == base.fp)) {
            damq_fatal("shard determinism broken: ", p.workload,
                       " at load ", p.load, " differs between ",
                       base.shards, " and ", p.shards,
                       " shards (delivered ", base.fp.delivered,
                       " vs ", p.fp.delivered, ", latency mean ",
                       base.fp.latencyMean, " vs ",
                       p.fp.latencyMean, ")");
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("scale",
                   "Sharded-engine scaling on 4096-node fabrics");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    // One sweep thread unless the user insists: the shards are the
    // parallelism under test, and concurrent sweep tasks would
    // corrupt the per-task wall-clock numbers.
    SweepRunner runner(args.wasSet("threads") ? simThreads(args)
                                              : 1);

    // Sweep 1/2/4/8 shards, or just the explicit --shards value.
    std::vector<std::uint32_t> shard_counts = {1, 2, 4, 8};
    if (args.wasSet("shards") && args.getInt("shards") != 0) {
        shard_counts = {
            static_cast<std::uint32_t>(args.getInt("shards"))};
    }

    banner("Scale - sharded engine on 4096-node fabrics",
           "64x64 torus and 4096-endpoint Omega, discarding "
           "protocol; bit-identity enforced across shard counts");

    const unsigned cores = std::thread::hardware_concurrency();
    std::cout << "\nhost reports " << cores
              << " hardware threads; speedups above min(shards, "
              << "cores) are not expected\n";

    std::vector<Point> points;

    // --- torus ------------------------------------------------------
    {
        std::vector<FabricTask> tasks;
        for (const double load : kLoads) {
            for (const std::uint32_t shards : shard_counts) {
                FabricConfig cfg = torusConfig(load);
                applyCommonSimFlags(args, cfg.common, "scale");
                cfg.common.shards = shards;
                tasks.push_back(
                    {detail::concat("torus64/", formatFixed(load, 2),
                                    "/s", shards),
                     cfg});
            }
        }
        const std::vector<core::SyncResult> results =
            runSimSweep(runner, tasks);
        const std::vector<TaskPerf> &perf = runner.taskPerf();
        for (std::size_t i = 0; i < results.size(); ++i) {
            const core::SyncResult &r = results[i];
            Point p;
            p.workload = "torus64";
            p.load = tasks[i].config.offeredLoad;
            p.shards = tasks[i].config.common.shards;
            p.fp = {r.window.generated, r.window.delivered,
                    r.window.discarded(), r.latency.count(),
                    r.latency.mean(), r.latency.stddev()};
            p.wallSeconds = perf[i].wallSeconds;
            p.packetHops = static_cast<double>(r.window.delivered) *
                           r.hops.mean();
            points.push_back(p);
        }
    }

    // --- omega ------------------------------------------------------
    {
        std::vector<FabricTask> tasks;
        for (const double load : kLoads) {
            for (const std::uint32_t shards : shard_counts) {
                FabricConfig cfg = omegaConfig(load);
                applyCommonSimFlags(args, cfg.common, "scale");
                cfg.common.shards = shards;
                tasks.push_back(
                    {detail::concat("omega4096/",
                                    formatFixed(load, 2), "/s",
                                    shards),
                     cfg});
            }
        }
        const std::vector<core::SyncResult> results =
            runSimSweep(runner, tasks);
        const std::vector<TaskPerf> &perf = runner.taskPerf();
        // Every delivered packet crosses all 6 stages of the
        // 4096-endpoint radix-4 Omega — hops are exact, not a mean.
        const double stages = 6.0;
        for (std::size_t i = 0; i < results.size(); ++i) {
            const core::SyncResult &r = results[i];
            Point p;
            p.workload = "omega4096";
            p.load = tasks[i].config.offeredLoad;
            p.shards = tasks[i].config.common.shards;
            p.fp = {r.window.generated, r.window.delivered,
                    r.window.discarded(), r.latency.count(),
                    r.latency.mean(), r.latency.stddev()};
            p.wallSeconds = perf[i].wallSeconds;
            p.packetHops =
                static_cast<double>(r.window.delivered) * stages;
            points.push_back(p);
        }
    }

    // --- identity + rendering --------------------------------------
    const std::size_t per_group = shard_counts.size();
    for (std::size_t g = 0; g + per_group <= points.size();
         g += per_group) {
        checkIdentical(std::vector<Point>(
            points.begin() + g, points.begin() + g + per_group));
    }

    TextTable table;
    table.setHeader({"Workload", "load", "shards", "delivered",
                     "wall s", "Mhops/s", "speedup"});
    for (std::size_t g = 0; g < points.size(); g += per_group) {
        const double base_wall = points[g].wallSeconds;
        for (std::size_t i = g; i < g + per_group; ++i) {
            const Point &p = points[i];
            table.startRow();
            table.addCell(p.workload);
            table.addCell(formatFixed(p.load, 2));
            table.addCell(detail::concat(p.shards));
            table.addCell(detail::concat(p.fp.delivered));
            table.addCell(formatFixed(p.wallSeconds, 3));
            table.addCell(formatFixed(
                p.packetHops / p.wallSeconds / 1e6, 2));
            table.addCell(
                formatFixed(base_wall / p.wallSeconds, 2));
        }
    }
    std::cout << "\n" << table.render()
              << "\nbit-identity held across all shard counts "
                 "(checked exactly; a mismatch is fatal)\n";

    {
        BenchJsonFile out("scale");
        JsonWriter &json = out.json();
        json.key("config");
        json.beginObject();
        json.field("torusSide", std::uint64_t{64});
        json.field("omegaEndpoints", std::uint64_t{4096});
        json.field("omegaRadix", std::uint64_t{4});
        json.field("protocol", "discarding");
        json.field("seed", std::uint64_t{99});
        json.field("warmupCycles", std::uint64_t{100});
        json.field("measureCycles", std::uint64_t{300});
        json.field("hardwareConcurrency",
                   static_cast<std::uint64_t>(cores));
        json.endObject();
        // Echo the workload the sweep actually ran (CLI overrides
        // applied), not the compiled-in default.
        SimCommonConfig desc_common;
        applyCommonSimFlags(args, desc_common, "scale");
        writeWorkloadJson(json, desc_common.workload);
        json.field("identityHeld", true);
        // Wall-clock block: the one BENCH file allowed to carry
        // timing (see file docs) — these numbers vary by host.
        json.key("rows");
        json.beginArray();
        for (std::size_t g = 0; g < points.size();
             g += per_group) {
            const double base_wall = points[g].wallSeconds;
            for (std::size_t i = g; i < g + per_group; ++i) {
                const Point &p = points[i];
                json.beginObject();
                json.field("workload", p.workload);
                json.field("load", p.load);
                json.field("shards",
                           static_cast<std::uint64_t>(p.shards));
                json.field("delivered", p.fp.delivered);
                json.field("latencyMean", p.fp.latencyMean);
                json.field("wallSeconds", p.wallSeconds);
                json.field("packetHopsPerSecond",
                           p.packetHops / p.wallSeconds);
                json.field("speedupOverOneShard",
                           base_wall / p.wallSeconds);
                json.endObject();
            }
        }
        json.endArray();
    }

    // The PERF sidecar, written by hand because the points span
    // two sweep-runner maps (the torus and Omega config types).
    {
        const std::string path = "PERF_scale.json";
        std::ofstream file(path);
        if (!file)
            damq_fatal("cannot open ", path, " for writing");
        JsonWriter json(file);
        json.beginObject();
        json.field("schema", "damq-perf-v1");
        json.field("bench", "scale");
        json.field("threads",
                   static_cast<std::uint64_t>(runner.threads()));
        json.field("hardwareConcurrency",
                   static_cast<std::uint64_t>(cores));
        json.key("tasks");
        json.beginArray();
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point &p = points[i];
            json.beginObject();
            json.field("index", static_cast<std::uint64_t>(i));
            json.field("label",
                       detail::concat(p.workload, "/",
                                      formatFixed(p.load, 2), "/s",
                                      p.shards));
            json.field("wallSeconds", p.wallSeconds);
            json.field("packetHopsPerSecond",
                       p.packetHops / p.wallSeconds);
            json.endObject();
        }
        json.endArray();
        json.endObject();
        std::cerr << "wrote " << path << "\n";
    }
    return 0;
}
