/**
 * @file
 * Graceful-degradation curves: the robustness companion to the
 * paper's Tables 3-6, in two parts.
 *
 * Part A (transient link faults, Omega): per-link drop and
 * header-corruption probability swept together, each point run
 * twice — detection-only (recovery none, the historical numbers)
 * and with link-level retransmission — so the table shows exactly
 * how much delivered throughput the CRC/ack/retry protocol buys
 * back.  At rate 0 with recovery off the numbers are bit-identical
 * to the fault-free simulator.
 *
 * Part B (persistent link failures, torus): a fraction of the
 * 8x8 torus links is forced down permanently and the blocking
 * 2-VC network runs with and without retransmit+reroute, with the
 * deadlock watchdog armed.  Delivered throughput and p99 latency
 * versus failed-link fraction is the graceful-degradation curve
 * the recovery subsystem exists for.
 *
 * Both sweeps run through SweepRunner::mapGuarded, so a wedged or
 * crashing point is reported (and retried once) instead of sinking
 * the whole bench; task dispositions land in the BENCH JSON.
 * Emits BENCH_degradation.json and a PERF_degradation.json timing
 * sidecar.
 */

#include <functional>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "network/fabric_sim.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"

namespace {

using namespace damq;
using namespace damq::bench;

const double kRates[] = {0.0, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2};
const BufferType kTypes[] = {BufferType::Fifo, BufferType::Damq,
                             BufferType::DamqR};
const double kFractions[] = {0.0, 0.02, 0.05, 0.10, 0.15};
const RecoveryPolicy kTorusPolicies[] = {
    RecoveryPolicy::None, RecoveryPolicy::RetransmitReroute};

/** Everything one sweep point (Omega or torus) reports. */
struct RunOut
{
    core::SyncResult result;
    std::uint64_t faultDropped = 0;
    FaultReport report;
};

/** Keep a finished run's result and fault record. */
RunOut
observe(const FabricTask &, FabricSimulator &sim,
        const core::SyncResult &result)
{
    RunOut run;
    run.result = result;
    run.faultDropped = sim.lifetime().faultDropped;
    run.report = sim.faultReport();
    return run;
}

FabricConfig
omegaPoint(BufferType type, double rate, RecoveryPolicy policy)
{
    FabricConfig cfg = paperNetworkConfig();
    cfg.bufferType = type;
    cfg.offeredLoad = 0.5;
    cfg.common.faults.packetDropRate = rate;
    cfg.common.faults.headerBitFlipRate = rate;
    cfg.common.faults.seed = 1988;
    cfg.common.auditEveryCycles = 500;
    cfg.common.recovery.policy = policy;
    return cfg;
}

FabricConfig
torusPoint(double fraction, RecoveryPolicy policy)
{
    // 8x8, DAMQ, blocking, two dateline VCs.  The offered load sits
    // below the rerouted fabric's capacity: up*-down* concentrates
    // detour traffic near its root, so a load that minimal DOR
    // carries easily would saturate every faulty point and flatten
    // the curve into "saturation capacity" instead of degradation.
    FabricConfig cfg = FabricConfig::torus();
    cfg.offeredLoad = 0.08;
    cfg.common.faults.seed = 1988;
    cfg.common.faults.linkDownFraction = fraction;
    cfg.common.auditEveryCycles = 500;
    cfg.common.watchdogStallCycles = 2000;
    cfg.common.recovery.policy = policy;
    return cfg;
}

std::uint64_t
runOutCycles(const RunOut &run)
{
    return run.result.measuredCycles;
}

const char *
taskStatusName(TaskStatus status)
{
    switch (status) {
    case TaskStatus::Ok:
        return "ok";
    case TaskStatus::Failed:
        return "failed";
    case TaskStatus::TimedOut:
        return "timed-out";
    }
    return "?";
}

std::string
cell(const std::optional<RunOut> &run,
     const std::function<std::string(const RunOut &)> &fmt)
{
    return run.has_value() ? fmt(*run) : std::string("-");
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("degradation_faults",
                   "Throughput/latency degradation under transient "
                   "link faults and persistent link failures, with "
                   "and without detect-and-recover");
    addCommonSimFlags(args);
    args.addOption("task-timeout", "600",
                   "per-point wall-clock budget in seconds "
                   "(0 = unlimited)");
    args.addOption("task-retries", "2",
                   "attempts per point before it is reported failed");
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    GuardPolicy guard;
    guard.taskTimeoutSeconds = args.getDouble("task-timeout");
    guard.maxAttempts =
        static_cast<std::uint32_t>(args.getInt("task-retries"));
    if (guard.maxAttempts == 0)
        guard.maxAttempts = 1;

    banner("Degradation under link faults",
           "Part A: 64x64 Omega, blocking, 0.5 load, transient "
           "drop+corrupt rate swept, recovery none vs retransmit.  "
           "Part B: 8x8 torus, blocking, 2 VCs, 0.08 load, permanent "
           "failed-link fraction swept, none vs retransmit+reroute.");

    // ---- Task list: Omega points first, then torus points. ------
    std::vector<FabricTask> tasks;

    const RecoveryPolicy omega_policies[] = {
        RecoveryPolicy::None, RecoveryPolicy::Retransmit};
    for (const BufferType type : kTypes) {
        for (const double rate : kRates) {
            for (const RecoveryPolicy policy : omega_policies) {
                FabricConfig cfg = omegaPoint(type, rate, policy);
                applyCommonSimFlags(args, cfg.common,
                                    "degradation");
                tasks.push_back({detail::concat(
                                     "omega:", bufferTypeName(type),
                                     "@rate=", formatFixed(rate, 4),
                                     "/", recoveryPolicyName(policy)),
                                 cfg});
            }
        }
    }

    for (const double fraction : kFractions) {
        for (const RecoveryPolicy policy : kTorusPolicies) {
            FabricConfig cfg = torusPoint(fraction, policy);
            applyCommonSimFlags(args, cfg.common, "degradation");
            tasks.push_back({detail::concat(
                                 "torus:down=", formatFixed(fraction, 2),
                                 "/", recoveryPolicyName(policy)),
                             cfg});
        }
    }

    const std::vector<std::optional<RunOut>> runs = runner.mapGuarded(
        tasks.size(),
        [&tasks](std::size_t i) {
            return runFabricTask(tasks[i], observe);
        },
        guard, &runOutCycles);
    const std::vector<TaskOutcome> &outcomes = runner.taskOutcomes();

    // ---- Part A tables: one per buffer type. ---------------------
    std::size_t next = 0;
    for (const BufferType type : kTypes) {
        TextTable table;
        table.setHeader({"fault rate", "thr none", "thr rtx",
                         "dropped none", "dropped rtx",
                         "recovered rtx", "violations"});
        for (const double rate : kRates) {
            const std::optional<RunOut> &none = runs[next++];
            const std::optional<RunOut> &rtx = runs[next++];
            table.startRow();
            table.addCell(formatFixed(rate, 4));
            table.addCell(cell(none, [](const RunOut &r) {
                return formatFixed(r.result.deliveredThroughput, 3);
            }));
            table.addCell(cell(rtx, [](const RunOut &r) {
                return formatFixed(r.result.deliveredThroughput, 3);
            }));
            table.addCell(cell(none, [](const RunOut &r) {
                return std::to_string(r.faultDropped);
            }));
            table.addCell(cell(rtx, [](const RunOut &r) {
                return std::to_string(r.faultDropped);
            }));
            table.addCell(cell(rtx, [](const RunOut &r) {
                return std::to_string(
                    r.report.recovery.packetsRecovered);
            }));
            table.addCell(cell(none, [](const RunOut &r) {
                return std::to_string(r.report.auditViolations);
            }));
        }
        std::cout << "\n" << bufferTypeName(type)
                  << " buffers (Omega, transient faults):\n"
                  << table.render();
    }

    std::cout
        << "\nWith retransmission on, every dropped or corrupted "
           "frame is nacked and resent: the 'dropped rtx' column "
           "stays at zero while 'recovered rtx' counts the packets "
           "the protocol saved.\n";

    // ---- Part B table: torus failed-link fraction. ---------------
    {
        TextTable table;
        table.setHeader({"down fraction", "recovery", "throughput",
                         "p99 latency", "dropped", "dead links",
                         "rerouted", "watchdog trips"});
        for (const double fraction : kFractions) {
            for (const RecoveryPolicy policy : kTorusPolicies) {
                const std::optional<RunOut> &run = runs[next++];
                table.startRow();
                table.addCell(formatFixed(fraction, 2));
                table.addCell(recoveryPolicyName(policy));
                table.addCell(cell(run, [](const RunOut &r) {
                    return formatFixed(r.result.deliveredThroughput, 3);
                }));
                table.addCell(cell(run, [](const RunOut &r) {
                    return formatFixed(r.result.latencyP99, 1);
                }));
                table.addCell(cell(run, [](const RunOut &r) {
                    return std::to_string(r.faultDropped);
                }));
                table.addCell(cell(run, [](const RunOut &r) {
                    return std::to_string(
                        r.report.recovery.deadLinksDeclared);
                }));
                table.addCell(cell(run, [](const RunOut &r) {
                    return std::to_string(
                        r.report.recovery.packetsRerouted);
                }));
                table.addCell(cell(run, [](const RunOut &r) {
                    return std::to_string(r.result.watchdogTrips);
                }));
            }
        }
        std::cout << "\nTorus with permanently failed links "
                     "(blocking, 2 VCs, watchdog armed):\n"
                  << table.render();
    }

    std::size_t casualties = 0;
    for (const TaskOutcome &outcome : outcomes)
        if (!outcome.ok())
            ++casualties;
    if (casualties != 0) {
        std::cout << "\n" << casualties
                  << " point(s) failed or timed out; their rows "
                     "show '-' and their dispositions are in the "
                     "BENCH JSON.\n";
    }

    // ---- Machine-readable output. --------------------------------
    {
        BenchJsonFile out("degradation");
        JsonWriter &json = out.json();
        // Echo the sweep's base config with the CLI overrides
        // (--workload included) applied, telemetry cleared — the
        // per-task configs own any telemetry files.
        FabricConfig json_cfg =
            omegaPoint(BufferType::Fifo, 0.0, RecoveryPolicy::None);
        applyCommonSimFlags(args, json_cfg.common, "degradation");
        json_cfg.common.telemetry = obs::TelemetryConfig{};
        writeNetworkConfigJson(json, json_cfg);
        json.key("faultRates");
        json.beginArray();
        for (const double rate : kRates)
            json.value(rate);
        json.endArray();
        json.key("linkDownFractions");
        json.beginArray();
        for (const double fraction : kFractions)
            json.value(fraction);
        json.endArray();

        std::size_t at = 0;
        json.key("omegaRows");
        json.beginArray();
        for (const BufferType type : kTypes) {
            for (const double rate : kRates) {
                for (const RecoveryPolicy policy : omega_policies) {
                    const std::optional<RunOut> &run = runs[at++];
                    if (!run.has_value())
                        continue;
                    json.beginObject();
                    json.field("buffer", bufferTypeName(type));
                    json.field("faultRate", rate);
                    json.field("recovery",
                               recoveryPolicyName(policy));
                    json.field("deliveredThroughput",
                               run->result.deliveredThroughput);
                    json.field("meanLatencyClocks", run->result.latency.mean());
                    writeE2eLatencyJson(json, run->result);
                    json.field("faultDropped", run->faultDropped);
                    json.field("corruptionsDetected",
                               run->report.corruptionsDetected);
                    json.field("framesSent",
                               run->report.recovery.framesSent);
                    json.field("retransmits",
                               run->report.recovery.retransmits);
                    json.field(
                        "packetsRecovered",
                        run->report.recovery.packetsRecovered);
                    json.field("auditsRun", run->report.auditsRun);
                    json.field("auditViolations",
                               run->report.auditViolations);
                    json.endObject();
                }
            }
        }
        json.endArray();

        json.key("torusRows");
        json.beginArray();
        for (const double fraction : kFractions) {
            for (const RecoveryPolicy policy : kTorusPolicies) {
                const std::optional<RunOut> &run = runs[at++];
                if (!run.has_value())
                    continue;
                json.beginObject();
                json.field("linkDownFraction", fraction);
                json.field("recovery", recoveryPolicyName(policy));
                json.field("deliveredThroughput",
                           run->result.deliveredThroughput);
                json.field("meanLatencyCycles", run->result.latency.mean());
                json.field("latencyP99", run->result.latencyP99);
                writeE2eLatencyJson(json, run->result);
                json.field("faultDropped", run->faultDropped);
                json.field("deadLinksDeclared",
                           run->report.recovery.deadLinksDeclared);
                json.field("linksRevived",
                           run->report.recovery.linksRevived);
                json.field("packetsRerouted",
                           run->report.recovery.packetsRerouted);
                json.field("watchdogTrips", run->result.watchdogTrips);
                json.field("auditsRun", run->report.auditsRun);
                json.field("auditViolations",
                           run->report.auditViolations);
                json.endObject();
            }
        }
        json.endArray();

        json.key("tasks");
        json.beginArray();
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            json.beginObject();
            json.field("label", tasks[i].label);
            json.field("status",
                       taskStatusName(outcomes[i].status));
            json.field("attempts",
                       static_cast<std::uint64_t>(
                           outcomes[i].attempts));
            if (!outcomes[i].error.empty())
                json.field("error", outcomes[i].error);
            json.endObject();
        }
        json.endArray();
    }
    writePerfSidecar("degradation", runner, taskLabels(tasks));
    return 0;
}
