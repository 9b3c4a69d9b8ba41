/**
 * @file
 * The Workloads bench: the injection-process API under the two
 * workloads the open-loop benches cannot express — the request-reply
 * closed loop and the Markov-modulated (MMPP) burst process — with
 * end-to-end tail latency as the headline metric.
 *
 * An 8x8 blocking torus with two dateline VCs under mild incast
 * (5% of traffic at node 0, so the policies see real buffer
 * pressure) runs the grid {damq, voq} x {static, dt, delay} at two
 * offered loads under each workload:
 *
 *  - reqreply  delivery of a request schedules a reply from its
 *              destination; at most 4 requests outstanding per
 *              source.  The loop self-throttles, so the interesting
 *              output is the end-to-end tail, not saturation.
 *  - mmpp      2-state modulated Bernoulli (peak 3x the mean, mean
 *              burst 8 cycles) with two traffic classes, so every
 *              row also reports per-class tails.
 *
 * Every row runs with the invariant audit and deadlock watchdog
 * armed and must fully drain afterwards.  The bench is fatal if a
 * watchdog trips, an audit fails, a row fails to drain, the
 * end-to-end percentiles are not ordered (p50 <= p99 <= p999), a
 * per-class tail is missing on the two-class rows, or — the
 * closed-loop conservation law — any reqreply row drains with
 * requests != replies != deliveries.
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_workloads.json (rows carry
 * e2e p50/p99/p999 and the per-class tails) and a
 * PERF_workloads.json timing sidecar.
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/json_writer.hh"
#include "common/logging.hh"
#include "common/string_util.hh"
#include "network/fabric_sim.hh"
#include "queueing/admission_policy.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"

namespace {

using namespace damq;
using namespace damq::bench;

const double kLoads[] = {0.15, 0.30};

/** Cycles a drained run may take to empty after measurement. */
constexpr Cycle kDrainBudget = 200000;

/** One buffer-organization x sharing-policy combination. */
struct Combo
{
    const char *label;
    BufferType buffer;
    SharingPolicy policy;
};

const Combo kCombos[] = {
    {"damq/static", BufferType::Damq, SharingPolicy::Static},
    {"damq/dt", BufferType::Damq, SharingPolicy::DynamicThreshold},
    {"damq/delay", BufferType::Damq, SharingPolicy::DelayDriven},
    {"voq/static", BufferType::Voq, SharingPolicy::Static},
    {"voq/dt", BufferType::Voq, SharingPolicy::DynamicThreshold},
    {"voq/delay", BufferType::Voq, SharingPolicy::DelayDriven},
};

/** One workload under test. */
struct Workload
{
    const char *label;
    core::WorkloadConfig config;
    std::uint32_t trafficClasses;
};

std::vector<Workload>
workloads()
{
    Workload reqreply;
    reqreply.label = "reqreply";
    reqreply.config.kind = core::WorkloadKind::ReqReply;
    reqreply.config.replyWindow = 4;
    reqreply.trafficClasses = 1;

    Workload mmpp;
    mmpp.label = "mmpp";
    mmpp.config.kind = core::WorkloadKind::Mmpp;
    mmpp.config.burstiness = 3.0;
    mmpp.config.meanBurstCycles = 8;
    mmpp.trafficClasses = 2; // exercises the per-class tails

    return {reqreply, mmpp};
}

/** One (workload, combo, load) measurement. */
struct Row
{
    std::string workload;
    std::string combo;
    double load = 0.0;
    double throughput = 0.0;
    double e2eP50 = 0.0;
    double e2eP99 = 0.0;
    double e2eP999 = 0.0;
    std::uint64_t e2eSamples = 0;
    std::vector<core::SyncResult::ClassTail> classLatency;
    std::uint64_t delivered = 0;
    std::uint64_t requestsSent = 0;
    std::uint64_t requestsDelivered = 0;
    std::uint64_t repliesSent = 0;
    std::uint64_t repliesDelivered = 0;
    std::uint64_t watchdogTrips = 0;
    std::uint64_t auditsRun = 0;
    std::uint64_t auditViolations = 0;
    std::uint32_t expectedClasses = 1;
    bool closedLoop = false;
    bool drained = false;
};

FabricConfig
workloadConfig(const Workload &workload, const Combo &combo,
               double load)
{
    // blocking + two dateline VCs by default
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 8;
    cfg.height = 8;
    cfg.bufferType = combo.buffer;
    cfg.sharing.kind = combo.policy;
    cfg.sharing.dtAlpha = 2.0;
    cfg.sharing.delayAgeScale = 64;
    // 5 ports x 2 VCs = 10 queues, two slots per queue — the same
    // contended pool the Sharing bench fights over.
    cfg.slotsPerBuffer = 20;
    // Mild incast (5% of traffic at node 0) so the buffer policies
    // actually see pressure; uniform traffic at these loads never
    // fills a 20-slot pool and every combo ties exactly.
    cfg.traffic = "hotspot";
    cfg.hotSpotFraction = 0.05;
    cfg.offeredLoad = load;
    cfg.trafficClasses = workload.trafficClasses;
    cfg.common.workload = workload.config;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 500;
    cfg.common.measureCycles = 2000;
    cfg.common.auditEveryCycles = 256;
    cfg.common.watchdogStallCycles = 2000;
    return cfg;
}

/** Fold one finished run into a Row (drain + audit verdicts). */
Row
observe(FabricSimulator &sim, const core::SyncResult &r,
        const Workload &workload, const Combo &combo, double load)
{
    Row row;
    row.workload = workload.label;
    row.combo = combo.label;
    row.load = load;
    row.throughput = r.deliveredThroughput;
    row.e2eP50 = r.e2eLatencyP50;
    row.e2eP99 = r.e2eLatencyP99;
    row.e2eP999 = r.e2eLatencyP999;
    row.e2eSamples = r.e2eSamples;
    row.classLatency = r.classLatency;
    row.delivered = r.window.delivered;
    row.expectedClasses = workload.trafficClasses;
    row.drained = sim.drain(kDrainBudget);
    const core::WorkloadStats &ws =
        sim.syncEngine().injection().stats();
    row.closedLoop = sim.syncEngine().injection().closedLoop();
    row.requestsSent = ws.requestsSent;
    row.requestsDelivered = ws.requestsDelivered;
    row.repliesSent = ws.repliesSent;
    row.repliesDelivered = ws.repliesDelivered;
    const FaultReport report = sim.faultReport();
    row.watchdogTrips = report.watchdogFired ? 1 : 0;
    row.auditsRun = report.auditsRun;
    row.auditViolations = report.auditViolations;
    return row;
}

/** Per-row laws (drain, audits, tails, conservation); fatal if broken. */
void
enforceRow(const Row &row)
{
    const std::string where =
        detail::concat(row.workload, "/", row.combo, "@",
                       formatFixed(row.load, 2));
    if (row.watchdogTrips != 0)
        damq_fatal(where, ": deadlock watchdog tripped");
    if (row.auditViolations != 0)
        damq_fatal(where, ": ", row.auditViolations,
                   " invariant audit violations");
    if (row.auditsRun == 0)
        damq_fatal(where, ": the invariant audit never ran");
    if (!row.drained)
        damq_fatal(where, ": network failed to drain within ",
                   kDrainBudget, " cycles");
    if (row.delivered == 0)
        damq_fatal(where, ": no packets delivered");
    if (row.e2eSamples == 0)
        damq_fatal(where, ": no end-to-end latency samples");
    if (row.e2eP50 > row.e2eP99 || row.e2eP99 > row.e2eP999)
        damq_fatal(where, ": end-to-end percentiles out of order (",
                   row.e2eP50, " / ", row.e2eP99, " / ",
                   row.e2eP999, ")");
    if (row.expectedClasses > 1) {
        if (row.classLatency.size() != row.expectedClasses)
            damq_fatal(where, ": expected ", row.expectedClasses,
                       " per-class tails, got ",
                       row.classLatency.size());
        for (const core::SyncResult::ClassTail &tail :
             row.classLatency)
            if (tail.samples == 0)
                damq_fatal(where, ": class ", tail.trafficClass,
                           " collected no latency samples");
    }
    if (row.closedLoop) {
        // After a full drain every request was answered and every
        // reply came home — the loop's conservation law.
        if (row.requestsSent != row.requestsDelivered)
            damq_fatal(where, ": ", row.requestsSent,
                       " requests sent but ", row.requestsDelivered,
                       " delivered");
        if (row.repliesSent != row.repliesDelivered)
            damq_fatal(where, ": ", row.repliesSent,
                       " replies sent but ", row.repliesDelivered,
                       " delivered");
        if (row.requestsDelivered != row.repliesSent)
            damq_fatal(where, ": ", row.requestsDelivered,
                       " delivered requests scheduled ",
                       row.repliesSent, " replies");
        if (row.requestsSent == 0)
            damq_fatal(where, ": closed loop sent no requests");
    }
}

/** Find the unique row for (workload, combo, load). */
const Row &
rowFor(const std::vector<Row> &rows, const std::string &workload,
       const std::string &combo, double load)
{
    for (const Row &row : rows)
        if (row.workload == workload && row.combo == combo &&
            row.load == load)
            return row;
    damq_fatal("missing row ", workload, "/", combo, "@", load);
}

void
renderTables(const std::vector<Row> &rows,
             const std::vector<Workload> &kinds)
{
    for (const Workload &workload : kinds) {
        TextTable table;
        std::vector<std::string> header = {"Combo"};
        for (const double load : kLoads)
            header.push_back(
                detail::concat("thr@", formatFixed(load, 2)));
        for (const double load : kLoads)
            header.push_back(
                detail::concat("e2e p99@", formatFixed(load, 2)));
        header.push_back(detail::concat(
            "e2e p999@", formatFixed(kLoads[1], 2)));
        table.setHeader(header);
        for (const Combo &combo : kCombos) {
            table.startRow();
            table.addCell(combo.label);
            for (const double load : kLoads)
                table.addCell(formatFixed(
                    rowFor(rows, workload.label, combo.label, load)
                        .throughput,
                    3));
            for (const double load : kLoads)
                table.addCell(formatFixed(
                    rowFor(rows, workload.label, combo.label, load)
                        .e2eP99,
                    1));
            table.addCell(formatFixed(
                rowFor(rows, workload.label, combo.label, kLoads[1])
                    .e2eP999,
                1));
        }
        std::cout << "\n" << workload.label << ":\n"
                  << table.render();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("workloads",
                   "Closed-loop request-reply and MMPP injection "
                   "processes with end-to-end tail latency");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Workloads - closed-loop and modulated injection "
           "processes",
           "8x8 blocking 2-VC torus, mild incast (5% at node 0); "
           "reqreply (window 4) and mmpp (3x peak, 2 classes) "
           "across {damq, voq} x {static, dt, delay}; invariant "
           "audit + deadlock watchdog armed on every row, full "
           "drain and closed-loop conservation required");

    const std::vector<Workload> kinds = workloads();

    struct Task
    {
        std::string label;
        const Workload *workload;
        const Combo *combo;
        double load;
    };
    std::vector<Task> tasks;
    for (const Workload &workload : kinds) {
        for (const Combo &combo : kCombos) {
            for (const double load : kLoads) {
                tasks.push_back({detail::concat(workload.label, "/",
                                                combo.label, "@",
                                                formatFixed(load, 2)),
                                 &workload, &combo, load});
            }
        }
    }

    // Like runSimSweep: per-task telemetry files get the task's
    // label appended so concurrent tasks never share a file.
    const auto taskPrefix = [&](SimCommonConfig &common,
                                const std::string &label) {
        if (common.telemetry.enabled() &&
            !common.telemetry.outputPrefix.empty()) {
            common.telemetry.outputPrefix +=
                "." + sanitizeFileToken(label);
        }
    };

    const std::vector<Row> rows = runner.map(
        tasks.size(), [&](std::size_t i) {
            const Task &task = tasks[i];
            FabricConfig cfg = workloadConfig(*task.workload,
                                             *task.combo, task.load);
            applyCommonSimFlags(args, cfg.common, "workloads");
            taskPrefix(cfg.common, task.label);
            cfg.common.vcs = 2; // dateline geometry is fixed
            cfg.common.workload = task.workload->config;
            FabricSimulator sim(cfg);
            const core::SyncResult r = sim.run();
            return observe(sim, r, *task.workload, *task.combo,
                           task.load);
        });

    renderTables(rows, kinds);

    for (const Row &row : rows)
        enforceRow(row);

    std::uint64_t audits = 0;
    std::uint64_t requests = 0;
    for (const Row &row : rows) {
        audits += row.auditsRun;
        requests += row.requestsDelivered;
    }
    std::cout << "\nall " << rows.size()
              << " rows drained; watchdog armed on every row, zero "
                 "trips; "
              << audits << " invariant audits, zero violations; "
              << "closed-loop conservation closed on every reqreply "
                 "row ("
              << requests << " requests answered)\n"
              << "\nExpected shape: the closed loop self-throttles "
                 "— the outstanding window caps\nhow far any queue "
                 "can grow, so throughput tracks the offered rate "
                 "(plus\nreplies) and the end-to-end tail stays "
                 "within a few round-trips at every\npolicy.  The "
                 "open-loop mmpp process has no such brake: at the "
                 "higher load\nits 3x bursts pile onto the hot "
                 "node and the e2e tail balloons by two\norders of "
                 "magnitude — the contrast the closed loop exists "
                 "to show.  Both\ntraffic classes see similar "
                 "tails since stamping is source-striped, not\n"
                 "prioritized.\n";

    {
        BenchJsonFile out("workloads");
        JsonWriter &json = out.json();
        json.key("config");
        json.beginObject();
        json.field("torusSide", std::uint64_t{8});
        json.field("torusVcs", std::uint64_t{2});
        json.field("slotsPerBuffer", std::uint64_t{20});
        json.field("dtAlpha", 2.0);
        json.field("delayAgeScale", std::uint64_t{64});
        json.field("hotSpotFraction", 0.05);
        json.field("seed", std::uint64_t{99});
        json.field("warmupCycles", std::uint64_t{500});
        json.field("measureCycles", std::uint64_t{2000});
        json.field("auditEveryCycles", std::uint64_t{256});
        json.field("watchdogStallCycles", std::uint64_t{2000});
        json.endObject();
        json.key("workloads");
        json.beginArray();
        for (const Workload &workload : kinds) {
            json.beginObject();
            json.field("label", workload.label);
            writeWorkloadJson(json, workload.config,
                              workload.trafficClasses);
            json.endObject();
        }
        json.endArray();
        json.field("watchdogTrips", std::uint64_t{0});
        json.field("closedLoopConservation", true);
        json.key("rows");
        json.beginArray();
        for (const Row &row : rows) {
            json.beginObject();
            json.field("workload", row.workload);
            json.field("combo", row.combo);
            json.field("load", row.load);
            json.field("throughput", row.throughput);
            json.field("e2eLatencyP50", row.e2eP50);
            json.field("e2eLatencyP99", row.e2eP99);
            json.field("e2eLatencyP999", row.e2eP999);
            json.field("e2eSamples", row.e2eSamples);
            if (!row.classLatency.empty()) {
                json.key("classLatency");
                json.beginArray();
                for (const core::SyncResult::ClassTail &tail :
                     row.classLatency) {
                    json.beginObject();
                    json.field("class",
                               static_cast<std::uint64_t>(
                                   tail.trafficClass));
                    json.field("samples", tail.samples);
                    json.field("p50", tail.p50);
                    json.field("p99", tail.p99);
                    json.field("p999", tail.p999);
                    json.endObject();
                }
                json.endArray();
            }
            json.field("delivered", row.delivered);
            if (row.closedLoop) {
                json.field("requestsSent", row.requestsSent);
                json.field("requestsDelivered",
                           row.requestsDelivered);
                json.field("repliesSent", row.repliesSent);
                json.field("repliesDelivered", row.repliesDelivered);
            }
            json.field("auditsRun", row.auditsRun);
            json.endObject();
        }
        json.endArray();
    }
    writePerfSidecar("workloads", runner, [&] {
        std::vector<std::string> labels;
        for (const Task &task : tasks)
            labels.push_back(task.label);
        return labels;
    }());
    return 0;
}
