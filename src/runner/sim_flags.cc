#include "runner/sim_flags.hh"

#include <cstdlib>
#include <iostream>

#include "common/logging.hh"

namespace damq {

const char kBufferTypeChoices[] =
    "fifo | samq | safc | damq | damqr | voq";
const char kSharingPolicyChoices[] = "static | dt | delay | qos";
const char kPlacementChoices[] = "input | central | output";
const char kFlowControlChoices[] =
    "blocking | discarding | credit | on-off";
const char kArbitrationChoices[] = "smart | dumb";
const char kSwitchingChoices[] =
    "packet-sync | store-and-forward | wormhole | vct "
    "(or: cut-through)";
const char kVcPolicyChoices[] = "dateline | none";
const char kRecoveryPolicyChoices[] =
    "none | retransmit | retransmit+reroute (or: reroute)";
const char kWorkloadChoices[] =
    "geometric | onoff | mmpp | batch | reqreply | trace";

namespace {

/** Reject `--<name> <value>`: print choices + usage, exit(1). */
[[noreturn]] void
badEnumValue(const ArgParser &args, const std::string &name,
             const std::string &value, const char *what,
             const char *choices)
{
    std::cerr << "error: unknown " << what << " '" << value
              << "' for --" << name << " (expected " << choices
              << ")\n\n"
              << args.usage();
    std::exit(1);
}

/**
 * Parse option @p name through one of the tryXFromString parsers;
 * on bad input, print the accepted @p choices and the usage text to
 * stderr and exit(1).  Every enum-valued option goes through here,
 * so they all reject input with the same message shape.
 */
template <typename TryParse>
auto
enumOption(const ArgParser &args, const std::string &name,
           TryParse &&try_parse, const char *what,
           const char *choices)
{
    const std::string value = args.getString(name);
    if (const auto parsed = try_parse(value))
        return *parsed;
    badEnumValue(args, name, value, what, choices);
}

} // namespace

BufferType
bufferTypeOption(const ArgParser &args, const std::string &name)
{
    return enumOption(args, name, tryBufferTypeFromString,
                      "buffer type", kBufferTypeChoices);
}

BufferPlacement
placementOption(const ArgParser &args, const std::string &name)
{
    return enumOption(args, name, tryBufferPlacementFromString,
                      "buffer placement", kPlacementChoices);
}

FlowControl
flowControlOption(const ArgParser &args, const std::string &name)
{
    return enumOption(args, name, tryFlowControlFromString,
                      "flow control", kFlowControlChoices);
}

ArbitrationPolicy
arbitrationOption(const ArgParser &args, const std::string &name)
{
    return enumOption(args, name, tryArbitrationPolicyFromString,
                      "arbitration policy", kArbitrationChoices);
}

Switching
switchingOption(const ArgParser &args, const std::string &name)
{
    return enumOption(args, name, trySwitchingFromString,
                      "switching mode", kSwitchingChoices);
}

VcPolicy
vcPolicyOption(const ArgParser &args, const std::string &name)
{
    return enumOption(args, name, tryVcPolicyFromString,
                      "VC policy", kVcPolicyChoices);
}

RecoveryPolicy
recoveryPolicyOption(const ArgParser &args, const std::string &name)
{
    return enumOption(args, name, tryRecoveryPolicyFromString,
                      "recovery policy", kRecoveryPolicyChoices);
}

core::WorkloadKind
workloadOption(const ArgParser &args, const std::string &name)
{
    return enumOption(args, name, core::tryWorkloadKindFromString,
                      "workload", kWorkloadChoices);
}

namespace {

/** Parse option @p name as a sharing policy (or exit(1)). */
SharingPolicy
sharingPolicyOption(const ArgParser &args, const std::string &name)
{
    return enumOption(args, name, trySharingPolicyFromString,
                      "sharing policy", kSharingPolicyChoices);
}

} // namespace

void
addCommonSimFlags(ArgParser &args)
{
    args.addOption("threads", "1",
                   "worker threads for the sweep — parallelism "
                   "ACROSS sweep points (results are identical at "
                   "any value; see --shards for parallelism within "
                   "one simulation)");
    args.addOption("shards", "0",
                   "threads WITHIN each synchronized simulation: "
                   "the topology is split into this many contiguous "
                   "switch shards advanced between deterministic "
                   "phase barriers (bit-identical at any value; "
                   "input-buffered placement only; 0 = keep the "
                   "bench default).  Composes with --threads — "
                   "total threads ~ threads x shards, so pick "
                   "threads x shards <= cores");
    args.addOption("seed", "1", "master PRNG seed");
    args.addOption("warmup", "0", "override warmup cycles");
    args.addOption("measure", "0", "override measured cycles");
    args.addOption("vcs", "0",
                   "override virtual channels per link (>1 needs "
                   "input buffering; 0 = keep the bench default)");
    args.addOption("vc-policy", "dateline",
                   "VC assignment policy when vcs > 1 (dateline | "
                   "none)");
    args.addOption("metrics-every", "0",
                   "sample the metric time series every N cycles "
                   "(0 = off)");
    args.addFlag("trace",
                 "record per-packet lifecycle events to a Chrome "
                 "trace (view in Perfetto)");
    args.addOption("trace-events", "1000000",
                   "cap on recorded trace events");
    args.addOption("telemetry-out", "",
                   "output prefix for <prefix>.metrics.json/.csv "
                   "and <prefix>.trace.json (default: the bench "
                   "name)");

    // Workload / injection process.
    args.addOption("workload", "", kWorkloadChoices);
    args.addOption("batch", "0",
                   "packets each source owes under --workload batch "
                   "(0 = keep the default, 64)");
    args.addOption("reply-window", "0",
                   "outstanding requests per source under "
                   "--workload reqreply (0 = keep the default, 4)");
    args.addOption("trace-file", "",
                   "trace to replay under --workload trace (one "
                   "'cycle src dest' triple per line)");
    args.addOption("workload-burstiness", "0",
                   "peak/average factor B for the onoff / mmpp "
                   "workloads (0 = keep the default)");
    args.addOption("workload-burst-cycles", "0",
                   "mean high-state duration for the onoff / mmpp "
                   "workloads (0 = keep the default, 8)");

    // Fault plan and recovery (all default to off / bench default).
    args.addOption("fault-seed", "0",
                   "fault-plan PRNG seed (0 = keep the bench "
                   "default)");
    args.addOption("packet-drop-rate", "-1",
                   "per-link-crossing packet-drop probability");
    args.addOption("bit-flip-rate", "-1",
                   "per-link-crossing header-bit-flip probability");
    args.addOption("link-down-rate", "-1",
                   "per-link-cycle probability of a link-down "
                   "episode");
    args.addOption("link-down-cycles", "-1",
                   "length of a link-down episode (0 = permanent)");
    args.addOption("link-down-fraction", "-1",
                   "fraction of eligible links forced down "
                   "permanently from cycle 0");
    args.addOption("router-down-rate", "-1",
                   "per-switch-cycle probability of a router-down "
                   "episode");
    args.addOption("router-down-cycles", "-1",
                   "length of a router-down episode (0 = "
                   "permanent)");
    args.addOption("arbiter-stuck-rate", "-1",
                   "per-switch-cycle probability that the arbiter "
                   "issues no grants");
    args.addOption("slot-leak-rate", "-1",
                   "per-switch-cycle probability of leaking a "
                   "buffer slot");
    args.addOption("credit-delay-rate", "-1",
                   "per-switch-cycle probability of a delayed "
                   "credit (downstream reports full)");
    args.addOption("audit-every", "0",
                   "invariant-audit period in cycles (0 = off)");
    args.addOption("watchdog", "0",
                   "deadlock-watchdog stall threshold in cycles "
                   "(0 = off)");
    args.addOption("recovery", "",
                   "link-fault recovery policy (none | retransmit "
                   "| retransmit+reroute)");
    args.addOption("max-retries", "0",
                   "consecutive link failures before a link is "
                   "declared dead (0 = keep default)");
    args.addOption("retry-backoff", "0",
                   "exponential-backoff base, in cycles (0 = keep "
                   "default)");
    args.addOption("retry-backoff-cap", "0",
                   "exponential-backoff cap, in cycles (0 = keep "
                   "default)");
    args.addOption("revive-probe", "-1",
                   "probe dead links for revival every N cycles "
                   "(0 = never; -1 = keep default)");
}

unsigned
simThreads(const ArgParser &args)
{
    const std::int64_t threads = args.getInt("threads");
    if (threads < 1 || threads > 4096)
        damq_fatal("--threads wants an integer in [1, 4096], got ",
                   threads);
    return static_cast<unsigned>(threads);
}

void
applyCommonSimFlags(const ArgParser &args, SimCommonConfig &common,
                    const std::string &default_prefix)
{
    if (args.wasSet("seed"))
        common.seed = static_cast<std::uint64_t>(args.getInt("seed"));
    if (args.wasSet("warmup")) {
        common.warmupCycles =
            static_cast<Cycle>(args.getInt("warmup"));
    }
    if (args.wasSet("measure")) {
        common.measureCycles =
            static_cast<Cycle>(args.getInt("measure"));
    }
    if (args.wasSet("vcs")) {
        const std::int64_t vcs = args.getInt("vcs");
        if (vcs < 1 || vcs > 64)
            damq_fatal("--vcs wants an integer in [1, 64], got ",
                       vcs);
        common.vcs = static_cast<VcId>(vcs);
    }
    if (args.wasSet("vc-policy"))
        common.vcPolicy = vcPolicyOption(args, "vc-policy");
    if (args.wasSet("shards")) {
        const std::int64_t shards = args.getInt("shards");
        if (shards != 0 && (shards < 1 || shards > 4096))
            damq_fatal("--shards wants an integer in [1, 4096] (or "
                       "0 to keep the bench default), got ", shards);
        if (shards != 0)
            common.shards = static_cast<std::uint32_t>(shards);
    }

    if (args.wasSet("metrics-every")) {
        common.telemetry.metricsEvery =
            static_cast<Cycle>(args.getInt("metrics-every"));
    }
    if (args.getFlag("trace"))
        common.telemetry.tracePackets = true;
    if (args.wasSet("trace-events")) {
        common.telemetry.maxTraceEvents =
            static_cast<std::uint64_t>(args.getInt("trace-events"));
    }
    if (common.telemetry.enabled()) {
        const std::string prefix = args.getString("telemetry-out");
        common.telemetry.outputPrefix =
            prefix.empty() ? default_prefix : prefix;
    }

    // Workload selection.  Parameter validation (peak rates, batch
    // size, reply window, trace wellformedness) happens once, in
    // makeInjectionProcess, when the simulator is built.
    if (args.wasSet("workload"))
        common.workload.kind = workloadOption(args, "workload");
    if (args.wasSet("batch")) {
        const std::int64_t batch = args.getInt("batch");
        if (batch < 0)
            damq_fatal("--batch wants a positive packet count (or 0 "
                       "to keep the default), got ", batch);
        if (batch != 0) {
            common.workload.batchPackets =
                static_cast<std::uint64_t>(batch);
        }
    }
    if (args.wasSet("reply-window")) {
        const std::int64_t window = args.getInt("reply-window");
        if (window < 0 || window > 1 << 20)
            damq_fatal("--reply-window wants an integer in [1, 2^20] "
                       "(or 0 to keep the default), got ", window);
        if (window != 0) {
            common.workload.replyWindow =
                static_cast<std::uint32_t>(window);
        }
    }
    if (args.wasSet("trace-file"))
        common.workload.traceFile = args.getString("trace-file");
    if (args.wasSet("workload-burstiness")) {
        const double b = args.getDouble("workload-burstiness");
        if (b != 0.0)
            common.workload.burstiness = b;
    }
    if (args.wasSet("workload-burst-cycles")) {
        const std::int64_t cycles =
            args.getInt("workload-burst-cycles");
        if (cycles < 0)
            damq_fatal("--workload-burst-cycles wants a positive "
                       "cycle count (or 0 to keep the default), "
                       "got ", cycles);
        if (cycles != 0)
            common.workload.meanBurstCycles =
                static_cast<Cycle>(cycles);
    }

    // Fault plan.  Rates use -1 as "keep the bench default" so an
    // explicit 0 can switch a bench's default faults off.
    if (args.getInt("fault-seed") != 0) {
        common.faults.seed =
            static_cast<std::uint64_t>(args.getInt("fault-seed"));
    }
    const auto rate = [&](const char *name, double &field) {
        const double value = args.getDouble(name);
        if (value < 0.0)
            return;
        if (value > 1.0)
            damq_fatal("--", name, " wants a probability in "
                       "[0, 1], got ", value);
        field = value;
    };
    rate("packet-drop-rate", common.faults.packetDropRate);
    rate("bit-flip-rate", common.faults.headerBitFlipRate);
    rate("link-down-rate", common.faults.linkDownRate);
    rate("link-down-fraction", common.faults.linkDownFraction);
    rate("router-down-rate", common.faults.routerDownRate);
    rate("arbiter-stuck-rate", common.faults.arbiterStuckRate);
    rate("slot-leak-rate", common.faults.slotLeakRate);
    rate("credit-delay-rate", common.faults.creditDelayRate);
    if (args.getInt("link-down-cycles") >= 0) {
        common.faults.linkDownCycles =
            static_cast<Cycle>(args.getInt("link-down-cycles"));
    }
    if (args.getInt("router-down-cycles") >= 0) {
        common.faults.routerDownCycles =
            static_cast<Cycle>(args.getInt("router-down-cycles"));
    }
    if (args.wasSet("audit-every")) {
        common.auditEveryCycles =
            static_cast<Cycle>(args.getInt("audit-every"));
    }
    if (args.wasSet("watchdog")) {
        common.watchdogStallCycles =
            static_cast<Cycle>(args.getInt("watchdog"));
    }

    // Recovery protocol.
    if (args.wasSet("recovery"))
        common.recovery.policy = recoveryPolicyOption(args, "recovery");
    if (args.getInt("max-retries") > 0) {
        common.recovery.maxRetries =
            static_cast<std::uint32_t>(args.getInt("max-retries"));
    }
    if (args.getInt("retry-backoff") > 0) {
        common.recovery.retryBackoffBase =
            static_cast<Cycle>(args.getInt("retry-backoff"));
    }
    if (args.getInt("retry-backoff-cap") > 0) {
        common.recovery.retryBackoffCap =
            static_cast<Cycle>(args.getInt("retry-backoff-cap"));
    }
    if (args.getInt("revive-probe") >= 0) {
        common.recovery.reviveProbeCycles =
            static_cast<Cycle>(args.getInt("revive-probe"));
    }
}

void
addSwitchingFlags(ArgParser &args,
                  const std::string &switching_default,
                  const std::string &flow_control_default)
{
    args.addOption("switching", switching_default,
                   kSwitchingChoices);
    args.addOption("flow-control", flow_control_default,
                   kFlowControlChoices);
    args.addOption("flits-per-packet", "0",
                   "packet length in flits under flit-level "
                   "switching (0 = keep the bench default)");
    args.addOption("route-cycles", "0",
                   "per-hop head turn-around R in cycles under "
                   "flit-level switching (0 = keep the bench "
                   "default)");
}

void
applySwitchingFlags(const ArgParser &args, FabricConfig &config)
{
    if (args.wasSet("switching"))
        config.switching = switchingOption(args, "switching");
    if (args.wasSet("flow-control"))
        config.protocol = flowControlOption(args, "flow-control");
    if (args.wasSet("flits-per-packet")) {
        const std::int64_t flits = args.getInt("flits-per-packet");
        if (flits < 0 || flits > 4096)
            damq_fatal("--flits-per-packet wants an integer in "
                       "[1, 4096] (or 0 to keep the bench default), "
                       "got ", flits);
        if (flits != 0 && config.switching == Switching::PacketSync)
            damq_fatal("--flits-per-packet ", flits, " needs a "
                       "flit-level --switching mode "
                       "(store-and-forward | wormhole | vct); "
                       "packet-sync moves whole one-slot packets");
        if (flits != 0)
            config.flitsPerPacket = static_cast<std::uint32_t>(flits);
    }
    if (args.wasSet("route-cycles")) {
        const std::int64_t route = args.getInt("route-cycles");
        if (route < 0 || route > 4096)
            damq_fatal("--route-cycles wants an integer in [1, 4096] "
                       "(or 0 to keep the bench default), got ",
                       route);
        // Packet-sync fixes the per-hop time at one cycle.
        if (route > 1 && config.switching == Switching::PacketSync)
            damq_fatal("--route-cycles ", route, " needs a "
                       "flit-level --switching mode "
                       "(store-and-forward | wormhole | vct); "
                       "packet-sync moves one hop per cycle");
        if (route != 0)
            config.routeCycles = static_cast<std::uint32_t>(route);
    }
}

void
addBufferPolicyFlags(ArgParser &args)
{
    args.addOption("buffer-policy", "static", kSharingPolicyChoices);
    args.addOption("dt-alpha", "0",
                   "threshold factor alpha for the dt / delay "
                   "policies (0 = keep the default, 2.0)");
    args.addOption("delay-age-scale", "0",
                   "cycles per unit of threshold growth for the "
                   "delay policy (0 = keep the default, 64)");
    args.addFlag("voq",
                 "use the virtual-output-queue buffer organization "
                 "(shorthand overriding the buffer-type option)");
    args.addOption("voq-private", "0",
                   "private slots per queue for the voq "
                   "organization (0 = keep the default, 1)");
    args.addOption("classes", "0",
                   "traffic classes stamped onto packets as "
                   "source % N; also the qos policy's class count "
                   "(0 = keep the default, 1)");
}

void
applyBufferPolicyFlags(const ArgParser &args, FabricConfig &config)
{
    SharingPolicyConfig &sharing = config.sharing;
    if (args.getFlag("voq"))
        config.bufferType = BufferType::Voq;
    if (args.wasSet("buffer-policy"))
        sharing.kind = sharingPolicyOption(args, "buffer-policy");
    if (args.wasSet("dt-alpha")) {
        const double alpha = args.getDouble("dt-alpha");
        if (alpha != 0.0 && (alpha < 1.0 / 1024.0 || alpha > 1024.0))
            damq_fatal("--dt-alpha wants a factor in [1/1024, 1024] "
                       "(or 0 to keep the default), got ", alpha);
        if (alpha != 0.0)
            sharing.dtAlpha = alpha;
    }
    if (args.wasSet("delay-age-scale")) {
        const std::int64_t scale = args.getInt("delay-age-scale");
        if (scale < 0 || scale > 65536)
            damq_fatal("--delay-age-scale wants an integer in "
                       "[1, 65536] (or 0 to keep the default), got ",
                       scale);
        if (scale != 0)
            sharing.delayAgeScale = static_cast<Cycle>(scale);
    }
    if (args.wasSet("voq-private")) {
        const std::int64_t priv = args.getInt("voq-private");
        if (priv < 0 || priv > 4096)
            damq_fatal("--voq-private wants an integer in [1, 4096] "
                       "(or 0 to keep the default), got ", priv);
        if (priv != 0)
            sharing.voqPrivateSlots =
                static_cast<std::uint32_t>(priv);
    }
    if (args.wasSet("classes")) {
        const std::int64_t classes = args.getInt("classes");
        if (classes < 0 ||
            classes > static_cast<std::int64_t>(kMaxTrafficClasses))
            damq_fatal("--classes wants an integer in [1, ",
                       kMaxTrafficClasses,
                       "] (or 0 to keep the default), got ", classes);
        if (classes != 0) {
            config.trafficClasses =
                static_cast<std::uint32_t>(classes);
            sharing.qosClasses =
                static_cast<std::uint32_t>(classes);
        }
    }
}

std::string
sanitizeFileToken(const std::string &label)
{
    std::string token = label;
    for (char &c : token) {
        const bool safe =
            (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
            (c >= '0' && c <= '9') || c == '.' || c == '-' ||
            c == '_' || c == '@';
        if (!safe)
            c = '_';
    }
    return token;
}

} // namespace damq
