/**
 * @file
 * Shared plumbing for the bench executables' machine-readable
 * output: the BENCH_<name>.json result files and the
 * PERF_<name>.json timing sidecars.  (The shared command-line
 * options, --threads included, live in runner/sim_flags.hh.)
 *
 * Two invariants the benches rely on:
 *
 *  - stdout carries exactly the text tables it always carried, so
 *    saved golden outputs keep matching byte for byte; everything
 *    this header adds (file-written notices) goes to stderr.
 *  - BENCH_<name>.json holds only simulation outputs — fully
 *    deterministic, identical at any --threads value.  Wall-clock
 *    data lives in the PERF_<name>.json sidecar, which is expected
 *    to differ run to run.
 */

#ifndef DAMQ_RUNNER_BENCH_OUTPUT_HH
#define DAMQ_RUNNER_BENCH_OUTPUT_HH

#include <fstream>
#include <string>
#include <vector>

#include "common/json_writer.hh"
#include "network/core/sync_engine.hh"
#include "network/core/workload.hh"
#include "runner/sweep_runner.hh"

namespace damq {

/**
 * One BENCH_<name>.json document being written.  Opens
 * `BENCH_<bench>.json` in the working directory, emits the shared
 * preamble (`schema`, `bench`), and leaves the root object open
 * for the bench's own fields; the destructor closes the root
 * object and prints a notice on stderr.
 */
class BenchJsonFile
{
  public:
    /** Start BENCH_<bench>.json; fatal if the file can't open. */
    explicit BenchJsonFile(const std::string &bench);

    /** Close the root object and the file (destructor calls it). */
    ~BenchJsonFile();

    /** The writer, positioned inside the root object. */
    JsonWriter &json() { return writer; }

  private:
    std::string path;
    std::ofstream file;
    JsonWriter writer;
};

/**
 * Emit the shared "workload" descriptor object on @p json (which
 * must be positioned inside an open object): the injection-process
 * kind plus its kind-specific parameters, so every BENCH_*.json
 * names the traffic process that produced it.
 */
void writeWorkloadJson(JsonWriter &json,
                       const core::WorkloadConfig &workload,
                       std::uint32_t traffic_classes = 1);

/**
 * Emit the shared end-to-end latency-tail fields of one simulation
 * result into the currently open row object: e2eLatencyP50 / P99 /
 * P999 (generation-to-delivery, measured-window packets only) and
 * the e2eSamples count they summarize.
 */
void writeE2eLatencyJson(JsonWriter &json, const core::SyncResult &r);

/**
 * Write PERF_<bench>.json from @p runner's counters for its last
 * sweep: thread count, sweep wall seconds, and per-task wall
 * seconds / simulated cycles / cycles-per-second, labelled by
 * @p labels (same order as the tasks).
 */
void writePerfSidecar(const std::string &bench,
                      const SweepRunner &runner,
                      const std::vector<std::string> &labels);

} // namespace damq

#endif // DAMQ_RUNNER_BENCH_OUTPUT_HH
