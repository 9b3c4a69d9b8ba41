/**
 * @file
 * The Table 4 sweep as a library (plus the shared Section 4.2
 * experiment configuration).
 *
 * Table 4 — average latency vs throughput at four slots per buffer
 * — is the repo's flagship experiment, so its sweep lives here
 * rather than in the bench executable: the bench renders it, and
 * the runner tests re-run it at several thread counts (on a scaled
 *-down configuration) to prove the parallel results and their JSON
 * serialization are bit-identical to the sequential ones.
 */

#ifndef DAMQ_RUNNER_TABLE_BENCHES_HH
#define DAMQ_RUNNER_TABLE_BENCHES_HH

#include <string>
#include <vector>

#include "common/json_writer.hh"
#include "network/fabric_sim.hh"
#include "runner/sweep_runner.hh"

namespace damq {

/**
 * The Omega-network settings shared by the Section 4.2 benches
 * (64x64 network of 4x4 switches, blocking protocol, smart
 * arbitration, uniform traffic, seed 88).
 */
FabricConfig paperOmegaConfig();

/** What to sweep for a Table 4 style experiment. */
struct Table4Options
{
    /** Base configuration; offeredLoad is set per task. */
    FabricConfig base = paperOmegaConfig();

    /** Loads for the per-load latency columns. */
    std::vector<double> loads = {0.25, 0.30, 0.40, 0.50};

    /** Row order of the table. */
    std::vector<BufferType> types = {BufferType::Fifo,
                                     BufferType::Damq,
                                     BufferType::Samq,
                                     BufferType::Safc};
};

/** One rendered row of Table 4. */
struct Table4Row
{
    BufferType type = BufferType::Fifo;
    std::vector<double> latencyClocks; ///< mean latency per load
    double saturatedLatencyClocks = 0.0;
    double saturationThroughput = 0.0;
};

/** Everything the Table 4 sweep produced. */
struct Table4Data
{
    Table4Options options;
    std::vector<Table4Row> rows;

    /** Raw sweep results, in task order (|loads|+1 per type) — the
     *  JSON writer reads the end-to-end tails from them. */
    std::vector<core::SyncResult> results;

    /** Task labels, in sweep order (for the perf sidecar). */
    std::vector<std::string> taskLabels;

    /** Saturation throughput of @p type (0 when absent). */
    double saturationOf(BufferType type) const;
};

/**
 * Run the Table 4 sweep on @p runner: |types| x (|loads| + 1)
 * independent simulations, enumerated type-major with the
 * full-load saturation point last — the same order the sequential
 * bench used.
 */
Table4Data runTable4(SweepRunner &runner, const Table4Options &options);

/** Render the sweep as the bench's text table (TextTable format). */
std::string renderTable4Text(const Table4Data &data);

/**
 * Serialize the sweep into @p json, which must be positioned
 * inside an open object (fields: config, loads, rows).
 */
void writeTable4Json(JsonWriter &json, const Table4Data &data);

/**
 * Echo the simulation-relevant fields of @p config as a "config"
 * object field (shared by every BENCH_*.json that sweeps the
 * Omega network).
 */
void writeNetworkConfigJson(JsonWriter &json,
                            const FabricConfig &config);

} // namespace damq

#endif // DAMQ_RUNNER_TABLE_BENCHES_HH
