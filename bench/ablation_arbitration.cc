/**
 * @file
 * Ablation: dumb vs smart crossbar arbitration across buffer types
 * and loads (blocking protocol).  Section 4.2 reports that the two
 * barely differ below saturation; this bench quantifies that and
 * also probes the region near saturation where fairness could
 * matter most.
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_ablation_arbitration.json and
 * a PERF_ablation_arbitration.json timing sidecar.
 */

#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"
#include "switchsim/arbiter.hh"

int
main(int argc, char **argv)
{
    using namespace damq;
    using namespace damq::bench;

    ArgParser args("ablation_arbitration",
                   "Compare dumb and smart arbitration across "
                   "buffer organizations");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Ablation - dumb vs smart arbitration",
           "64x64 Omega, blocking, uniform traffic, 4 slots");

    const ArbitrationPolicy kPolicies[] = {ArbitrationPolicy::Dumb,
                                           ArbitrationPolicy::Smart};

    std::vector<FabricTask> tasks;
    for (const BufferType type : kAllBufferTypes) {
        for (const ArbitrationPolicy policy : kPolicies) {
            FabricConfig cfg = paperNetworkConfig();
            cfg.bufferType = type;
            cfg.arbitration = policy;
            cfg.common.measureCycles = 8000;
            const std::string stem = detail::concat(
                bufferTypeName(type), "/",
                arbitrationPolicyName(policy));
            tasks.push_back(
                {detail::concat(stem, "@0.30"), atLoad(cfg, 0.30)});
            tasks.push_back(
                {detail::concat(stem, "@0.45"), atLoad(cfg, 0.45)});
            tasks.push_back({detail::concat(stem, "@saturation"),
                             atLoad(cfg, 1.0)});
        }
    }
    for (FabricTask &task : tasks)
        applyCommonSimFlags(args, task.config.common,
                            "ablation_arbitration");
    const std::vector<core::SyncResult> results =
        runSimSweep(runner, tasks);

    TextTable table;
    table.setHeader({"Buffer", "policy", "lat@0.30", "lat@0.45",
                     "fairness@0.45", "worst-src@0.45", "saturated",
                     "sat. throughput"});

    std::size_t next = 0;
    for (const BufferType type : kAllBufferTypes) {
        for (const ArbitrationPolicy policy : kPolicies) {
            const core::SyncResult &at30 = results[next++];
            const core::SyncResult &at45 = results[next++];
            const core::SyncResult &sat = results[next++];

            table.startRow();
            table.addCell(bufferTypeName(type));
            table.addCell(arbitrationPolicyName(policy));
            table.addCell(formatFixed(at30.latency.mean(), 1));
            table.addCell(formatFixed(at45.latency.mean(), 1));
            table.addCell(formatFixed(at45.latencyFairness, 3));
            table.addCell(
                formatFixed(at45.worstSourceLatency, 1));
            table.addCell(formatFixed(sat.latency.mean(), 1));
            table.addCell(
                formatFixed(sat.deliveredThroughput, 3));
        }
    }
    std::cout << table.render()
              << "\nExpected shape (paper Section 4.2): dumb and "
                 "smart arbitration perform nearly\nidentically "
                 "below saturation for every buffer type; the "
                 "smart policy's stale counts\nand held priority "
                 "show up (mildly) in the fairness columns, not in "
                 "throughput.\n";

    {
        BenchJsonFile out("ablation_arbitration");
        JsonWriter &json = out.json();
        writeNetworkConfigJson(json, tasks.front().config);
        json.key("rows");
        json.beginArray();
        std::size_t at = 0;
        for (const BufferType type : kAllBufferTypes) {
            for (const ArbitrationPolicy policy : kPolicies) {
                const core::SyncResult &at30 = results[at++];
                const core::SyncResult &at45 = results[at++];
                const core::SyncResult &sat = results[at++];
                json.beginObject();
                json.field("buffer", bufferTypeName(type));
                json.field("arbitration",
                           arbitrationPolicyName(policy));
                json.field("latency30", at30.latency.mean());
                json.field("latency45", at45.latency.mean());
                json.field("fairness45", at45.latencyFairness);
                json.field("worstSourceLatency45",
                           at45.worstSourceLatency);
                json.field("saturatedLatencyClocks", sat.latency.mean());
                json.field("saturationThroughput",
                           sat.deliveredThroughput);
                json.key("e2eLatency");
                json.beginArray();
                const core::SyncResult *points[] = {&at30, &at45,
                                                 &sat};
                const double loads[] = {0.30, 0.45, 1.0};
                for (std::size_t p = 0; p < 3; ++p) {
                    json.beginObject();
                    json.field("offeredLoad", loads[p]);
                    writeE2eLatencyJson(json, *points[p]);
                    json.endObject();
                }
                json.endArray();
                json.endObject();
            }
        }
        json.endArray();
    }
    writePerfSidecar("ablation_arbitration", runner,
                     taskLabels(tasks));
    return 0;
}
