#include "runner/table_benches.hh"

#include "common/logging.hh"
#include "common/string_util.hh"
#include "queueing/buffer_model.hh"
#include "runner/bench_output.hh"
#include "runner/network_sweep.hh"
#include "stats/text_table.hh"
#include "switchsim/arbiter.hh"

namespace damq {

FabricConfig
paperOmegaConfig()
{
    FabricConfig cfg;
    cfg.numPorts = 64;
    cfg.radix = 4;
    cfg.slotsPerBuffer = 4;
    cfg.protocol = FlowControl::Blocking;
    cfg.arbitration = ArbitrationPolicy::Smart;
    cfg.traffic = "uniform";
    cfg.common.seed = 88;
    cfg.common.warmupCycles = 2000;
    cfg.common.measureCycles = 12000;
    return cfg;
}

double
Table4Data::saturationOf(BufferType type) const
{
    for (const Table4Row &row : rows) {
        if (row.type == type)
            return row.saturationThroughput;
    }
    return 0.0;
}

Table4Data
runTable4(SweepRunner &runner, const Table4Options &options)
{
    Table4Data data;
    data.options = options;

    // Enumerate type-major, saturation last — the exact order the
    // sequential bench ran its simulations in.  Each task carries a
    // complete config, so execution order never affects results.
    std::vector<FabricTask> tasks;
    for (const BufferType type : options.types) {
        FabricConfig cfg = options.base;
        cfg.bufferType = type;
        for (const double load : options.loads) {
            tasks.push_back({detail::concat(bufferTypeName(type), "@",
                                            formatFixed(load, 2)),
                             atLoad(cfg, load)});
        }
        tasks.push_back(
            {detail::concat(bufferTypeName(type), "@saturation"),
             atLoad(cfg, 1.0)});
    }

    data.results = runSimSweep(runner, tasks);
    const std::vector<core::SyncResult> &results = data.results;

    std::size_t next = 0;
    for (const BufferType type : options.types) {
        Table4Row row;
        row.type = type;
        for (std::size_t l = 0; l < options.loads.size(); ++l)
            row.latencyClocks.push_back(
                results[next++].latency.mean());
        const core::SyncResult &sat = results[next++];
        row.saturatedLatencyClocks = sat.latency.mean();
        row.saturationThroughput = sat.deliveredThroughput;
        data.rows.push_back(std::move(row));
    }

    data.taskLabels.reserve(tasks.size());
    for (const FabricTask &task : tasks)
        data.taskLabels.push_back(task.label);
    return data;
}

std::string
renderTable4Text(const Table4Data &data)
{
    TextTable table;
    std::vector<std::string> header = {"Buffer"};
    for (const double load : data.options.loads)
        header.push_back(formatFixed(load, 2));
    header.push_back("saturated");
    header.push_back("sat. throughput");
    table.setHeader(std::move(header));

    for (const Table4Row &row : data.rows) {
        table.startRow();
        table.addCell(bufferTypeName(row.type));
        for (const double latency : row.latencyClocks)
            table.addCell(formatFixed(latency, 2));
        table.addCell(formatFixed(row.saturatedLatencyClocks, 2));
        table.addCell(formatFixed(row.saturationThroughput, 2));
    }
    return table.render();
}

void
writeNetworkConfigJson(JsonWriter &json, const FabricConfig &config)
{
    json.key("config");
    json.beginObject();
    json.field("numPorts",
               static_cast<std::uint64_t>(config.numPorts));
    json.field("radix", static_cast<std::uint64_t>(config.radix));
    json.field("slotsPerBuffer",
               static_cast<std::uint64_t>(config.slotsPerBuffer));
    json.field("protocol", flowControlName(config.protocol));
    json.field("arbitration",
               arbitrationPolicyName(config.arbitration));
    json.field("traffic", config.traffic);
    json.field("seed", config.common.seed);
    json.field("warmupCycles",
               static_cast<std::uint64_t>(config.common.warmupCycles));
    json.field("measureCycles",
               static_cast<std::uint64_t>(config.common.measureCycles));
    json.endObject();
    writeWorkloadJson(json, config.common.workload,
                      config.trafficClasses);
}

void
writeTable4Json(JsonWriter &json, const Table4Data &data)
{
    writeNetworkConfigJson(json, data.options.base);

    json.key("loads");
    json.beginArray();
    for (const double load : data.options.loads)
        json.value(load);
    json.endArray();

    json.key("rows");
    json.beginArray();
    std::size_t at = 0;
    for (const Table4Row &row : data.rows) {
        json.beginObject();
        json.field("buffer", bufferTypeName(row.type));
        json.key("latencyClocks");
        json.beginArray();
        for (const double latency : row.latencyClocks)
            json.value(latency);
        json.endArray();
        json.field("saturatedLatencyClocks",
                   row.saturatedLatencyClocks);
        json.field("saturationThroughput", row.saturationThroughput);
        // End-to-end tail per measured point, in row order:
        // one entry per load, then the saturation point.
        json.key("e2eLatency");
        json.beginArray();
        for (std::size_t l = 0; l <= data.options.loads.size();
             ++l) {
            const core::SyncResult &r = data.results[at++];
            json.beginObject();
            json.field("offeredLoad",
                       l < data.options.loads.size()
                           ? data.options.loads[l]
                           : 1.0);
            writeE2eLatencyJson(json, r);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
}

} // namespace damq
