/**
 * @file
 * The Workload / InjectionProcess API: first-class traffic
 * generation processes for the simulation core, in the style of
 * booksim's trafficmanager.
 *
 * An InjectionProcess decides, per source per cycle, whether a
 * packet is offered to the network, and optionally pins its
 * destination and role (data / request / reply).  Six processes are
 * provided:
 *
 *  - geometric  open-loop Bernoulli at the offered load (the
 *               paper's baseline; one draw per source per cycle).
 *  - onoff      the historical two-state burst source: on a
 *               fraction 1/B of the time, generating at rate
 *               load * B while on (two draws per source per cycle).
 *  - mmpp       2-state Markov-modulated Bernoulli: both states
 *               generate (at load * B and load / B), so unlike
 *               onoff the low state still trickles.  Mean rate is
 *               exactly the offered load; two draws per source per
 *               cycle.
 *  - batch      every source owes a fixed quota of packets; the
 *               engine runs drain-and-measure (run until the batch
 *               is delivered, report the actual cycle count).
 *  - reqreply   closed loop: delivery of a request schedules a
 *               reply from its destination, and a per-source
 *               outstanding-request window gates new injection.
 *  - trace      replay a line-based "cycle src dest" trace; no RNG
 *               draws at all.
 *
 * RNG draw-order contract (DESIGN.md §16): every draw an
 * InjectionProcess makes happens inside shouldGenerate() /
 * destination resolution, which the sharded engine calls only on
 * the coordinator thread, in ascending source order, during phase
 * I1.  Closed-loop state mutates only in onDelivered(), which runs
 * on the coordinator in global move order.  Any process honoring
 * this contract is automatically bit-identical at every shard
 * count.
 */

#ifndef DAMQ_NETWORK_CORE_WORKLOAD_HH
#define DAMQ_NETWORK_CORE_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "queueing/packet.hh"

namespace damq {
namespace core {

/** Which injection process drives the sources. */
enum class WorkloadKind
{
    Geometric, ///< open-loop Bernoulli at the offered load
    OnOff,     ///< two-state burst source (silent between bursts)
    Mmpp,      ///< Markov-modulated Bernoulli (low state trickles)
    Batch,     ///< fixed per-source quota, drain-and-measure
    ReqReply,  ///< closed-loop request-reply with outstanding window
    Trace,     ///< replay a recorded "cycle src dest" trace
};

/** Human-readable workload-kind name. */
const char *workloadKindName(WorkloadKind kind);

/** Parse a case-insensitive workload name; nullopt on bad input. */
std::optional<WorkloadKind> tryWorkloadKindFromString(
    const std::string &name);

/**
 * Discrete packet-length distribution in flits (length -> relative
 * weight).  The DAMQ buffer was designed for variable-length packets
 * (1-32 bytes in 8-byte slots); the paper evaluates only fixed ones.
 */
struct LengthDistribution
{
    /** weights[i] is the relative probability of length i+1. */
    std::vector<double> weights{1.0};

    /** Draw a length using @p rng. */
    std::uint32_t sample(Random &rng) const;

    /** Expected length. */
    double mean() const;

    /** Longest length with non-zero weight. */
    std::uint32_t maxLength() const;

    /** Whether more than one length has non-zero weight. */
    bool variable() const;
};

/**
 * Workload selection and parameters, carried in SimCommonConfig so
 * every simulator front-end exposes the same `--workload` surface.
 * The offered load itself stays a per-simulator config (it
 * parameterizes sweeps); everything workload-shaped lives here.
 */
struct WorkloadConfig
{
    WorkloadKind kind = WorkloadKind::Geometric;

    /**
     * Peak/average factor B for the modulated processes (onoff
     * needs B > 1; mmpp needs B > 1; ignored by the others).
     */
    double burstiness = 1.0;

    /** Mean high-state duration in cycles for onoff / mmpp. */
    Cycle meanBurstCycles = 8;

    /** Packets each source owes under the batch workload (>= 1). */
    std::uint64_t batchPackets = 64;

    /**
     * Maximum outstanding (unanswered) requests per source under
     * the request-reply closed loop (>= 1).
     */
    std::uint32_t replyWindow = 4;

    /** Trace file to replay under the trace workload. */
    std::string traceFile;

    /**
     * Packet lengths in flits.  Only a distribution with more than
     * one length is drawn from — one draw per generated packet, on
     * the coordinator in phase I1, after the destination draw — and
     * it needs flit-level switching.  The single-length default
     * makes no draw; packets then carry the simulator's
     * flitsPerPacket.
     */
    LengthDistribution lengths;
};

/** One injection event of a recorded (or hand-written) trace. */
struct WorkloadTraceEntry
{
    Cycle cycle = 0;
    NodeId source = kInvalidNode;
    NodeId dest = kInvalidNode;
};

/** Closed-loop / batch bookkeeping exposed for tests and benches. */
struct WorkloadStats
{
    std::uint64_t requestsSent = 0;      ///< request packets offered
    std::uint64_t requestsDelivered = 0; ///< requests that reached a sink
    std::uint64_t repliesSent = 0;       ///< reply packets offered
    std::uint64_t repliesDelivered = 0;  ///< replies that reached home
    std::uint64_t batchRemaining = 0;    ///< batch packets still owed
};

/**
 * A per-source packet generation process.  The engine drives it
 * from the coordinator thread only:
 *
 *  - shouldGenerate(src, now, rng) once per source per cycle in
 *    ascending source order while traffic is being offered.  A true
 *    return stages one packet; the process may pin its destination
 *    and kind via stagedDestination() / stagedKind(), which the
 *    engine reads immediately after (before the next source's
 *    call).
 *  - drainPending(src, now) replaces shouldGenerate while the
 *    engine drains: no new work may start and no RNG draws are
 *    allowed, but closed-loop processes still get to flush replies
 *    they already owe so conservation can close.
 *  - onDelivered(pkt, now) for every delivered packet, in global
 *    delivery order.
 */
class InjectionProcess
{
  public:
    virtual ~InjectionProcess() = default;

    /** Process name for logs and the BENCH workload descriptor. */
    virtual const char *name() const = 0;

    /** Offer decision for @p src this cycle (may draw from @p rng). */
    virtual bool shouldGenerate(NodeId src, Cycle now, Random &rng) = 0;

    /**
     * Offer decision while draining: only work the process already
     * owes (pending replies); never a new request, never an RNG
     * draw.  Default: nothing pending.
     */
    virtual bool drainPending(NodeId src, Cycle now)
    {
        (void)src;
        (void)now;
        return false;
    }

    /**
     * Destination pinned by the last accepted offer, or kInvalidNode
     * to let the configured TrafficPattern draw one.  Only valid
     * immediately after shouldGenerate()/drainPending() returned
     * true for a source.
     */
    virtual NodeId stagedDestination() const { return kInvalidNode; }

    /** Role of the packet staged by the last accepted offer. */
    virtual PacketKind stagedKind() const { return PacketKind::Data; }

    /** Delivery callback (closed-loop state transitions live here). */
    virtual void onDelivered(const Packet &pkt, Cycle now)
    {
        (void)pkt;
        (void)now;
    }

    /**
     * Whether the process will never offer another packet (batch
     * quota spent, trace exhausted).  Open-loop rate processes
     * always return false.
     */
    virtual bool exhausted() const { return false; }

    /**
     * Offers the process already owes (queued replies) that no
     * packet in the network represents yet — the engine's drain
     * loop must not declare the run finished while these exist.
     */
    virtual std::uint64_t pendingOffers() const { return 0; }

    /** True for processes whose injection reacts to deliveries. */
    virtual bool closedLoop() const { return false; }

    /** Closed-loop / batch counters (zeroes for open-loop kinds). */
    const WorkloadStats &stats() const { return stats_; }

  protected:
    WorkloadStats stats_;
};

/**
 * Build the injection process selected by @p workload, for
 * @p num_sources sources at mean offered load @p offered_load.
 *
 * All workload parameter validation lives here (the single
 * construction path): the offered load must be a probability, and
 * the *peak* rate — load * B for the modulated processes — must not
 * exceed one packet per source per cycle.  @p traffic_classes only
 * sharpens the error text: with QoS stamping, class c receives the
 * full per-source peak from every source stamped c, so an
 * overcommitted peak overloads each class individually, not just
 * the aggregate.  Fatal (with a clear message) on any violation.
 */
std::unique_ptr<InjectionProcess> makeInjectionProcess(
    const WorkloadConfig &workload, std::uint32_t num_sources,
    double offered_load, std::uint32_t traffic_classes = 1);

/**
 * Parse a workload trace: one "cycle src dest" triple per line,
 * '#' comments and blank lines skipped, cycles non-decreasing per
 * source.  Fatal (with the offending line number) on malformed
 * input or out-of-range endpoints.
 */
std::vector<WorkloadTraceEntry> parseWorkloadTrace(
    const std::string &path, std::uint32_t num_nodes);

/** Write @p entries as a trace file parseWorkloadTrace() accepts. */
void writeWorkloadTrace(const std::string &path,
                        const std::vector<WorkloadTraceEntry> &entries);

} // namespace core
} // namespace damq

#endif // DAMQ_NETWORK_CORE_WORKLOAD_HH
