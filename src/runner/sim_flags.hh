/**
 * @file
 * The shared command-line surface of the simulator front-ends.
 *
 * Every bench and example that drives a SimCommonConfig-bearing
 * simulator accepts the same harness options — the sweep thread
 * count, the PRNG seed, the warmup/measure schedule, and the
 * telemetry plan (`--metrics-every`, `--trace`).  Declaring them
 * through addCommonSimFlags() and applying them through
 * applyCommonSimFlags() keeps the flags' names, defaults, and help
 * text identical across all ~15 front-ends.
 *
 * applyCommonSimFlags() only overrides the fields whose options the
 * user actually typed (ArgParser::wasSet), so each bench's
 * experiment-specific defaults — say Table 6's longer warmup —
 * survive a bare invocation and the printed tables stay
 * byte-identical to the historical outputs.
 */

#ifndef DAMQ_RUNNER_SIM_FLAGS_HH
#define DAMQ_RUNNER_SIM_FLAGS_HH

#include <cstdint>
#include <string>

#include "common/arg_parser.hh"
#include "network/core/flow_control.hh"
#include "network/fabric_sim.hh"
#include "network/sim_common.hh"
#include "queueing/buffer_model.hh"
#include "switchsim/arbiter.hh"
#include "switchsim/switch_unit.hh"

namespace damq {

/**
 * Declare the shared harness options on @p args:
 *
 *   --threads N        sweep worker threads (default 1) — across
 *                      sweep points
 *   --shards N         threads within one synchronized simulation
 *                      (0 = bench default; composes with --threads)
 *   --seed N           master PRNG seed
 *   --warmup N         warmup cycles
 *   --measure N        measured cycles
 *   --vcs N            virtual channels per link (needs input buffers)
 *   --vc-policy P      VC assignment when vcs > 1 (dateline | none)
 *   --metrics-every N  sample the metric time series every N cycles
 *   --trace            record per-packet Chrome-trace events
 *   --trace-events N   trace event cap (default one million)
 *   --telemetry-out P  output file prefix for telemetry files
 *
 * the workload surface (--workload geometric|onoff|mmpp|batch|
 * reqreply|trace, --batch, --reply-window, --trace-file,
 * --workload-burstiness, --workload-burst-cycles — see
 * network/core/workload.hh),
 *
 * plus the fault plan (--fault-seed, --packet-drop-rate,
 * --bit-flip-rate, --link-down-rate, --link-down-cycles,
 * --link-down-fraction, --router-down-rate, --router-down-cycles,
 * --arbiter-stuck-rate, --slot-leak-rate, --credit-delay-rate), the
 * fault detectors (--audit-every, --watchdog) and the recovery
 * protocol (--recovery, --max-retries, --retry-backoff,
 * --retry-backoff-cap, --revive-probe).
 */
void addCommonSimFlags(ArgParser &args);

/**
 * Thread count for a SweepRunner, from the --threads option
 * declared by addCommonSimFlags(); fatal outside [1, 4096].
 */
unsigned simThreads(const ArgParser &args);

/**
 * Copy the options the user explicitly set from @p args into
 * @p common; options left at their defaults change nothing.  When
 * telemetry is requested without --telemetry-out, files are
 * prefixed with @p default_prefix (typically the bench name).
 */
void applyCommonSimFlags(const ArgParser &args,
                         SimCommonConfig &common,
                         const std::string &default_prefix);

/**
 * Declare the unified switching surface on @p args:
 *
 *   --switching M        transfer granularity (packet-sync |
 *                        store-and-forward | wormhole | vct;
 *                        cut-through parses as vct)
 *   --flow-control P     back-pressure protocol (blocking |
 *                        discarding | credit | on-off)
 *   --flits-per-packet N packet length in flits for the flit-level
 *                        modes (0 = keep the bench default; an
 *                        error when the run stays packet-sync)
 *   --route-cycles R     per-hop head turn-around for the flit-level
 *                        modes (0 = keep the bench default; an
 *                        error above 1 when the run stays
 *                        packet-sync)
 *
 * The once-deprecated `--mode` / `--protocol` aliases were removed
 * after two releases of warnings; the parser now rejects them like
 * any unknown option.
 *
 * @p switching_default and @p flow_control_default are the bench's
 * own defaults, echoed in `--help`.
 */
void addSwitchingFlags(ArgParser &args,
                       const std::string &switching_default,
                       const std::string &flow_control_default);

/**
 * Copy the switching surface the user explicitly set from @p args
 * into @p config (switching, protocol, flitsPerPacket,
 * routeCycles); options left unset change nothing.  Fatal when a
 * non-zero --flits-per-packet, or a --route-cycles above 1, would
 * be ignored because the resulting switching is packet-sync.
 */
void applySwitchingFlags(const ArgParser &args, FabricConfig &config);

/**
 * Declare the buffer-sharing (admission-policy) surface on @p args:
 *
 *   --buffer-policy P    sharing policy applied to every input
 *                        buffer (static | dt | delay | qos)
 *   --dt-alpha A         threshold factor for dt / delay
 *   --delay-age-scale N  cycles per unit of threshold growth (delay)
 *   --voq                shorthand for --buffer-type voq
 *   --voq-private N      private slots per queue for VOQ
 *   --classes N          traffic classes stamped onto packets
 *                        (source % N; also the qos class count)
 */
void addBufferPolicyFlags(ArgParser &args);

/**
 * Copy the sharing surface the user explicitly set from @p args
 * into @p config (bufferType, sharing, trafficClasses); options
 * left unset change nothing, so the defaults stay byte-identical
 * to the historical static rules.
 */
void applyBufferPolicyFlags(const ArgParser &args, FabricConfig &config);

/**
 * @p label reduced to characters safe in a filename: alphanumerics
 * and `.-_@` pass through, everything else becomes `_`.  Used to
 * derive per-task telemetry prefixes from sweep-task labels.
 */
std::string sanitizeFileToken(const std::string &label);

/**
 * Canonical choice lists for the enum-valued options, so every
 * front-end's `--help` names the same accepted spellings as the
 * try*FromString parsers.
 */
extern const char kBufferTypeChoices[];    ///< fifo|samq|safc|damq|damqr|voq
extern const char kSharingPolicyChoices[]; ///< static|dt|delay|qos
extern const char kPlacementChoices[];     ///< input|central|output
extern const char kFlowControlChoices[];   ///< blocking|discarding|credit|on-off
extern const char kArbitrationChoices[];   ///< smart|dumb
extern const char kSwitchingChoices[];     ///< packet-sync|...|wormhole|vct
extern const char kVcPolicyChoices[];      ///< dateline|none
extern const char kRecoveryPolicyChoices[]; ///< none|retransmit|retransmit+reroute
extern const char kWorkloadChoices[];      ///< geometric|onoff|mmpp|batch|reqreply|trace

/**
 * Parse option @p name as a buffer type via
 * tryBufferTypeFromString(); on bad input, print the accepted
 * choices and the usage text to stderr and exit(1).  The other
 * *Option() helpers below do the same for their enums.
 */
BufferType bufferTypeOption(const ArgParser &args,
                            const std::string &name);

/** Parse option @p name as a buffer placement (or exit(1)). */
BufferPlacement placementOption(const ArgParser &args,
                                const std::string &name);

/** Parse option @p name as a flow-control protocol (or exit(1)). */
FlowControl flowControlOption(const ArgParser &args,
                              const std::string &name);

/** Parse option @p name as an arbitration policy (or exit(1)). */
ArbitrationPolicy arbitrationOption(const ArgParser &args,
                                    const std::string &name);

/**
 * Parse option @p name as a transfer granularity across all four
 * Switching values (or exit(1)).
 */
Switching switchingOption(const ArgParser &args,
                          const std::string &name);

/** Parse option @p name as a VC policy (or exit(1)). */
VcPolicy vcPolicyOption(const ArgParser &args,
                        const std::string &name);

/** Parse option @p name as a recovery policy (or exit(1)). */
RecoveryPolicy recoveryPolicyOption(const ArgParser &args,
                                    const std::string &name);

/** Parse option @p name as a workload kind (or exit(1)). */
core::WorkloadKind workloadOption(const ArgParser &args,
                                  const std::string &name);

} // namespace damq

#endif // DAMQ_RUNNER_SIM_FLAGS_HH
