/**
 * @file
 * Run-harness knobs shared by every fabric.
 *
 * The fabrics (Omega, 2D mesh, torus) differ in topology but share
 * the same experimental harness: a seeded PRNG, a warmup/measure
 * schedule, an optional fault plan with periodic invariant audits
 * and a deadlock watchdog, and optional telemetry.  Those knobs
 * live here, embedded by value as `common` in the engine config
 * (core::SyncConfig, and so FabricConfig), so a flag like --seed
 * or --trace means exactly the same thing to every bench.
 */

#ifndef DAMQ_NETWORK_SIM_COMMON_HH
#define DAMQ_NETWORK_SIM_COMMON_HH

#include <cstdint>

#include "common/types.hh"
#include "fault/fault_injector.hh"
#include "network/core/recovery.hh"
#include "network/core/vc_policy.hh"
#include "network/core/workload.hh"
#include "obs/telemetry.hh"

namespace damq {

/** Harness configuration embedded in every simulator config. */
struct SimCommonConfig
{
    /** Master PRNG seed (traffic; the fault plan seeds separately). */
    std::uint64_t seed = 1;

    /** Cycles before measuring. */
    Cycle warmupCycles = 1000;

    /** Cycles measured. */
    Cycle measureCycles = 10000;

    /**
     * Fault plan (all rates default to zero).  The injector owns a
     * PRNG separate from the traffic generator's, so a run with all
     * rates zero is bit-identical to one without the fault
     * subsystem.
     */
    FaultConfig faults;

    /** Run the invariant audit every this many cycles (0 = off). */
    Cycle auditEveryCycles = 0;

    /** Watchdog threshold: cycles of buffered-but-motionless
     *  traffic before it fires (0 = off). */
    Cycle watchdogStallCycles = 0;

    /**
     * Virtual channels per link (>= 1).  One VC reproduces the
     * historical single-queue-per-output behaviour bit for bit;
     * more than one requires input buffering (the per-VC queues
     * live in the input buffers) and is honoured only by the
     * synchronized engines.
     */
    VcId vcs = 1;

    /**
     * How packets are assigned to VCs when vcs > 1.  Dateline (the
     * default) is what makes blocking flow control deadlock-free on
     * torus rings; it degenerates to VC 0 on ring-free topologies.
     */
    VcPolicy vcPolicy = VcPolicy::Dateline;

    /**
     * Link-fault recovery (defaults to RecoveryPolicy::None).  With
     * retransmission on, dropped/corrupted frames are recovered at
     * the link level; with reroute on, declared-dead links are
     * detoured around.  Honoured by the synchronized engines only
     * (and reroute needs input buffering); policy none allocates no
     * protocol state, keeping baselines byte-identical.
     */
    RecoveryConfig recovery;

    /**
     * Intra-simulation shards (>= 1).  The synchronized engine
     * partitions the topology's switches into this many contiguous
     * ranges and advances them on parallel threads between
     * deterministic phase barriers; results are bit-identical at any
     * shard count.  Only input-buffered placement shards; central/
     * output placement rejects shards > 1, and enabling telemetry
     * degrades to one shard (with a warning) because probe hooks sit
     * inside the buffer hot path.  Orthogonal to the sweep runner's
     * --threads: that parallelizes across simulations, this
     * parallelizes within one.
     */
    std::uint32_t shards = 1;

    /**
     * Workload selection and parameters (--workload / --batch /
     * --reply-window / --trace-file / --workload-burstiness;
     * defaults to the open-loop geometric process).  Bursty sources
     * are the OnOff kind with burstiness > 1.
     */
    core::WorkloadConfig workload;

    /**
     * Telemetry plan (defaults to everything off).  When disabled
     * the simulators allocate no Telemetry object at all, so the
     * hot path pays only null-pointer branches and results stay
     * byte-identical to pre-telemetry builds.
     */
    obs::TelemetryConfig telemetry;
};

} // namespace damq

#endif // DAMQ_NETWORK_SIM_COMMON_HH
