/**
 * @file
 * The Sharing workload: buffer-sharing (admission) policies under
 * incast on an 8x8 blocking torus with two dateline VCs.
 *
 * Hot-spot traffic steers a fraction of every source's packets at
 * node 0, so the columns feeding the hot node congest while the
 * rest of the fabric idles — the scenario dynamic buffer sharing
 * exists for.  The grid crosses buffer organizations with sharing
 * policies:
 *
 *  - samq/static   — per-queue static partition (the floor);
 *  - damq/static   — full pool sharing, escape slots only;
 *  - damq/dt       — Dynamic Threshold (alpha-scaled free-pool cap);
 *  - damq/delay    — delay-driven sharing (head age loosens the cap);
 *  - voq/static    — DAMQ pool with a private slot per queue;
 *  - voq/dt        — the private guarantee plus the DT cap.
 *
 * Sources are bursty (3x on/off clumping), so a 2-slot static
 * partition overflows on every burst while the shared pool absorbs
 * it.  Two incast intensities (5% and 15% of traffic at the hot
 * node) run at three offered loads.  Every row runs with the
 * invariant audit and the deadlock watchdog armed and must drain
 * afterwards; the bench is fatal if the watchdog trips, an audit
 * fails, or — the claim dynamic sharing exists for — the dynamic
 * policies fail to beat the static partition's p99 latency on the
 * bursty mild-incast rows.  (Under heavy incast full isolation is
 * legitimately the best tree-saturation containment; those rows
 * are reported, not gated.)
 *
 * Runs on the SweepRunner (`--threads=N`); results are identical
 * at any thread count.  Emits BENCH_sharing.json and a
 * PERF_sharing.json timing sidecar.
 */

#include <iostream>
#include <string>
#include <tuple>
#include <utility>
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

const double kLoads[] = {0.15, 0.25, 0.33};

/** Incast intensity: fraction of traffic aimed at node 0. */
const double kIncastFractions[] = {0.05, 0.15};

/** On/off burstiness: sources clump arrivals at 3x the offered
 *  load, so a 2-slot static partition overflows on every burst
 *  while the shared pool absorbs it (requires load * B <= 1). */
constexpr double kBurstiness = 3.0;

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
    {"samq/static", BufferType::Samq, SharingPolicy::Static},
    {"damq/static", BufferType::Damq, SharingPolicy::Static},
    {"damq/dt", BufferType::Damq, SharingPolicy::DynamicThreshold},
    {"damq/delay", BufferType::Damq, SharingPolicy::DelayDriven},
    {"voq/static", BufferType::Voq, SharingPolicy::Static},
    {"voq/dt", BufferType::Voq, SharingPolicy::DynamicThreshold},
};

/** One (incast, combo, load) measurement. */
struct Row
{
    std::string workload;
    std::string combo;
    double load = 0.0;
    core::SyncResult result;
    std::uint64_t watchdogTrips = 0;
    std::uint64_t auditsRun = 0;
    std::uint64_t auditViolations = 0;
    bool drained = false;
};

FabricConfig
sharingConfig(const Combo &combo, double incast, double load)
{
    FabricConfig cfg = FabricConfig::torus(); // blocking, 2 VCs
    cfg.width = 8;
    cfg.height = 8;
    cfg.bufferType = combo.buffer;
    cfg.sharing.kind = combo.policy;
    cfg.sharing.dtAlpha = 2.0;
    cfg.sharing.delayAgeScale = 64;
    // 5 ports x 2 VCs = 10 queues.  Two slots per queue keeps the
    // SAMQ divisibility constraint and gives the shared
    // organizations a pool worth fighting over.
    cfg.slotsPerBuffer = 20;
    cfg.traffic = "hotspot";
    cfg.hotSpotFraction = incast;
    cfg.offeredLoad = load;
    cfg.common.workload.kind = core::WorkloadKind::OnOff;
    cfg.common.workload.burstiness = kBurstiness;
    cfg.common.workload.meanBurstCycles = 8;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 500;
    cfg.common.measureCycles = 2000;
    cfg.common.auditEveryCycles = 256;
    cfg.common.watchdogStallCycles = 2000;
    return cfg;
}

/** Drain a finished run and fold the audit verdicts into a Row
 *  (the caller names its workload and combo). */
Row
observe(const FabricTask &task, FabricSimulator &sim,
        const core::SyncResult &result)
{
    Row row;
    row.load = task.config.offeredLoad;
    row.result = result;
    row.drained = sim.drain(kDrainBudget);
    const FaultReport report = sim.faultReport();
    row.watchdogTrips = report.watchdogFired ? 1 : 0;
    row.auditsRun = report.auditsRun;
    row.auditViolations = report.auditViolations;
    return row;
}

/** Per-row conservation laws; fatal if broken. */
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
    if (row.result.window.delivered == 0)
        damq_fatal(where, ": no packets delivered");
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

/**
 * The claim the bench exists to check: on the bursty mild-incast
 * rows — partitions overflowing on every burst, hot tree not yet
 * collapsed — Dynamic Threshold and delay-driven sharing must beat
 * the static partition's p99 latency.  Fatal otherwise, so CI
 * fails loudly if a regression makes dynamic sharing pointless.
 * (Under heavy incast the comparison legitimately inverts: full
 * isolation is the best tree-saturation containment, which is why
 * the heavy rows are reported but not gated.)
 */
void
enforceSharingBeatsPartitioning(const std::vector<Row> &rows,
                                const std::string &workload)
{
    const double load = kLoads[1];
    const Row &samq = rowFor(rows, workload, "samq/static", load);
    for (const char *dynamic : {"damq/dt", "damq/delay"}) {
        const Row &row = rowFor(rows, workload, dynamic, load);
        const double p99 = row.result.latencyP99;
        if (p99 >= samq.result.latencyP99)
            damq_fatal(workload, "@", formatFixed(load, 2), ": ",
                       dynamic, " p99 (", formatFixed(p99, 1),
                       ") does not beat samq/static p99 (",
                       formatFixed(samq.result.latencyP99, 1), ")");
    }
}

void
renderTables(const std::vector<Row> &rows)
{
    for (const double incast : kIncastFractions) {
        const std::string workload =
            detail::concat("incast", formatFixed(incast * 100, 0));
        TextTable table;
        std::vector<std::string> header = {"Combo"};
        for (const double load : kLoads)
            header.push_back(
                detail::concat("thr@", formatFixed(load, 2)));
        for (const double load : kLoads)
            header.push_back(
                detail::concat("p99@", formatFixed(load, 2)));
        table.setHeader(header);
        for (const Combo &combo : kCombos) {
            table.startRow();
            table.addCell(combo.label);
            for (const double load : kLoads)
                table.addCell(formatFixed(
                    rowFor(rows, workload, combo.label, load)
                        .result.deliveredThroughput,
                    3));
            for (const double load : kLoads)
                table.addCell(formatFixed(
                    rowFor(rows, workload, combo.label, load)
                        .result.latencyP99,
                    1));
        }
        std::cout << "\n" << workload
                  << " (fraction of traffic at node 0: "
                  << formatFixed(incast, 2) << "):\n"
                  << table.render();
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args("sharing",
                   "Buffer-sharing policies (static, dynamic "
                   "threshold, delay-driven, VOQ) under incast");
    addCommonSimFlags(args);
    args.parse(argc, argv);
    SweepRunner runner(simThreads(args));

    banner("Sharing - admission policies under bursty incast "
           "hot-spot load",
           "8x8 blocking 2-VC torus, node 0 hot, 3x bursty "
           "sources; invariant audit + deadlock watchdog armed on "
           "every row, full drain required; dynamic sharing must "
           "beat the static partition's p99 on the bursty "
           "mild-incast rows");

    std::vector<FabricTask> tasks;
    std::vector<std::pair<std::string, std::string>> names;
    for (const double incast : kIncastFractions) {
        const std::string workload =
            detail::concat("incast", formatFixed(incast * 100, 0));
        for (const Combo &combo : kCombos) {
            for (const double load : kLoads) {
                FabricConfig cfg = sharingConfig(combo, incast, load);
                applyCommonSimFlags(args, cfg.common, "sharing");
                cfg.common.vcs = 2; // dateline geometry is fixed
                tasks.push_back({detail::concat(workload, "/",
                                                combo.label, "@",
                                                formatFixed(load, 2)),
                                 cfg});
                names.emplace_back(workload, combo.label);
            }
        }
    }

    std::vector<Row> rows = runSimSweep(runner, tasks, observe);
    for (std::size_t i = 0; i < rows.size(); ++i)
        std::tie(rows[i].workload, rows[i].combo) = names[i];

    renderTables(rows);

    for (const Row &row : rows)
        enforceRow(row);
    enforceSharingBeatsPartitioning(rows, "incast5");

    std::uint64_t audits = 0;
    for (const Row &row : rows)
        audits += row.auditsRun;
    std::cout << "\nall " << rows.size()
              << " rows drained; watchdog armed on every row, zero "
                 "trips; "
              << audits << " invariant audits, zero violations\n"
              << "\nExpected shape: under mild incast the static "
                 "partition (samq/static) rejects\nevery burst that "
                 "overflows its 2-slot queues, while the shared "
                 "pool absorbs\nthem — dynamic threshold and "
                 "delay-driven sharing beat it on p99 and\n"
                 "throughput.  Under heavy incast the comparison "
                 "honestly inverts: full\nisolation is the best "
                 "tree-saturation containment, and the dynamic\n"
                 "policies close most of naive sharing's gap "
                 "toward it.\n";

    {
        BenchJsonFile out("sharing");
        JsonWriter &json = out.json();
        json.key("config");
        json.beginObject();
        json.field("torusSide", std::uint64_t{8});
        json.field("torusVcs", std::uint64_t{2});
        json.field("slotsPerBuffer", std::uint64_t{20});
        json.field("dtAlpha", 2.0);
        json.field("delayAgeScale", std::uint64_t{64});
        json.field("burstiness", kBurstiness);
        json.field("meanBurstCycles", std::uint64_t{8});
        json.field("seed", std::uint64_t{99});
        json.field("warmupCycles", std::uint64_t{500});
        json.field("measureCycles", std::uint64_t{2000});
        json.field("auditEveryCycles", std::uint64_t{256});
        json.field("watchdogStallCycles", std::uint64_t{2000});
        json.endObject();
        // Echo the workload the sweep actually ran: the base config
        // with the CLI overrides (--workload included) applied.
        FabricConfig desc_cfg =
            sharingConfig(kCombos[0], kIncastFractions[0], kLoads[0]);
        applyCommonSimFlags(args, desc_cfg.common, "sharing");
        writeWorkloadJson(json, desc_cfg.common.workload,
                          desc_cfg.trafficClasses);
        json.field("watchdogTrips", std::uint64_t{0});
        json.field("dynamicBeatsStaticPartitionP99", true);
        json.key("rows");
        json.beginArray();
        for (const Row &row : rows) {
            json.beginObject();
            json.field("workload", row.workload);
            json.field("combo", row.combo);
            json.field("load", row.load);
            json.field("throughput", row.result.deliveredThroughput);
            json.field("latencyMean", row.result.latency.mean());
            json.field("latencyP99", row.result.latencyP99);
            writeE2eLatencyJson(json, row.result);
            json.field("delivered", row.result.window.delivered);
            json.field("auditsRun", row.auditsRun);
            json.endObject();
        }
        json.endArray();
    }
    writePerfSidecar("sharing", runner, taskLabels(tasks));
    return 0;
}
