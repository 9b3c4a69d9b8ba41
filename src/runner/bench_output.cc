#include "runner/bench_output.hh"

#include <cstdlib>
#include <iostream>
#include <string_view>

#include "common/logging.hh"

namespace damq {

BenchJsonFile::BenchJsonFile(const std::string &bench)
    : path("BENCH_" + bench + ".json"), file(path), writer(file)
{
    if (!file)
        damq_fatal("cannot open ", path, " for writing");
    writer.beginObject();
    writer.field("schema", "damq-bench-v1");
    writer.field("bench", bench);
}

BenchJsonFile::~BenchJsonFile()
{
    writer.endObject();
    file.close();
    // Stderr, so saved stdout golden files stay byte-identical.
    std::cerr << "wrote " << path << "\n";
}

void
writeWorkloadJson(JsonWriter &json,
                  const core::WorkloadConfig &workload,
                  std::uint32_t traffic_classes)
{
    using core::WorkloadKind;

    json.key("workload");
    json.beginObject();
    json.field("kind", core::workloadKindName(workload.kind));
    json.field("trafficClasses",
               static_cast<std::uint64_t>(traffic_classes));
    switch (workload.kind) {
    case WorkloadKind::OnOff:
    case WorkloadKind::Mmpp:
        json.field("burstiness", workload.burstiness);
        json.field("meanBurstCycles",
                   static_cast<std::uint64_t>(
                       workload.meanBurstCycles));
        break;
    case WorkloadKind::Batch:
        json.field("batchPackets",
                   static_cast<std::uint64_t>(
                       workload.batchPackets));
        break;
    case WorkloadKind::ReqReply:
        json.field("replyWindow",
                   static_cast<std::uint64_t>(
                       workload.replyWindow));
        break;
    case WorkloadKind::Trace:
        json.field("traceFile", workload.traceFile);
        break;
    case WorkloadKind::Geometric:
        break;
    }
    json.endObject();
}

void
writeE2eLatencyJson(JsonWriter &json, const core::SyncResult &r)
{
    json.field("e2eLatencyP50", r.e2eLatencyP50);
    json.field("e2eLatencyP99", r.e2eLatencyP99);
    json.field("e2eLatencyP999", r.e2eLatencyP999);
    json.field("e2eSamples", r.e2eSamples);
}

void
writePerfSidecar(const std::string &bench, const SweepRunner &runner,
                 const std::vector<std::string> &labels)
{
    const std::vector<TaskPerf> &perf = runner.taskPerf();
    damq_assert(labels.size() == perf.size(),
                "perf sidecar: ", labels.size(), " labels for ",
                perf.size(), " tasks");

    const std::string path = "PERF_" + bench + ".json";
    std::ofstream file(path);
    if (!file)
        damq_fatal("cannot open ", path, " for writing");

    JsonWriter json(file);
    json.beginObject();
    json.field("schema", "damq-perf-v1");
    json.field("bench", bench);
    json.field("threads", static_cast<std::uint64_t>(runner.threads()));
    json.field("wallSeconds", runner.wallSeconds());
    json.key("tasks");
    json.beginArray();
    for (std::size_t i = 0; i < perf.size(); ++i) {
        json.beginObject();
        json.field("index", static_cast<std::uint64_t>(i));
        json.field("label", labels[i]);
        json.field("wallSeconds", perf[i].wallSeconds);
        json.field("simCycles", perf[i].simCycles);
        json.field("simCyclesPerSecond", perf[i].cyclesPerSecond);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::cerr << "wrote " << path << "\n";
}

} // namespace damq
