/**
 * @file
 * SyncEngine: the synchronized-cycle simulation engine shared by
 * the Omega, mesh, and torus simulators.
 *
 * One engine, one cycle loop: switches arbitrate against a
 * consistent start-of-cycle snapshot, granted packets pop, packets
 * arrive at the next switch (re-routed there) or at their sink, and
 * sources generate/inject — with the fault hooks (stuck arbiters,
 * delayed credits, link drops/corruption, slot leaks), the periodic
 * invariant audit, the deadlock watchdog, and the telemetry probes
 * implemented exactly once.  Everything topology-specific goes
 * through the core::Topology interface; everything policy-specific
 * (buffer organization, placement, flow control, arbitration,
 * traffic) is a SyncConfig field.
 *
 * With input-buffered placement the cycle's advance runs as three
 * phases over shard-local state — arbitrate (read-only against the
 * snapshot), pop (shard-owned buffers only), apply moves — so the
 * topology's switches can be partitioned across threads
 * (SimCommonConfig::shards) with a barrier between phases.  Results
 * are bit-identical at any shard count: phase outputs are kept in
 * per-shard lists whose concatenation in shard order reproduces the
 * sequential ascending-SwitchId order, every PRNG draw stays on the
 * coordinator in a fixed order, and order-sensitive floating-point
 * accumulation (latency statistics) replays on the coordinator in
 * global move order.  See DESIGN.md section 13.
 *
 * The per-switch state itself lives in structure-of-arrays form:
 * one contiguous vector of SwitchModel values (no per-node heap
 * objects) plus flat per-link channel tables (hop target, dateline
 * bit, ring dimension) indexed by LinkId, so the hot capacity check
 * runs on array loads instead of virtual topology calls.
 */

#ifndef DAMQ_NETWORK_CORE_SYNC_ENGINE_HH
#define DAMQ_NETWORK_CORE_SYNC_ENGINE_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ring_queue.hh"
#include "common/types.hh"
#include "network/core/fault_router.hh"
#include "network/core/flit.hh"
#include "network/core/flow_control.hh"
#include "network/core/link_layer.hh"
#include "network/core/shard.hh"
#include "network/core/sim_engine.hh"
#include "network/core/sim_types.hh"
#include "network/core/topology.hh"
#include "network/core/traffic_source.hh"
#include "network/core/vc_policy.hh"
#include "network/core/workload.hh"
#include "stats/histogram.hh"
#include "stats/running_stats.hh"
#include "stats/tail_histogram.hh"
#include "switchsim/switch_model.hh"
#include "switchsim/switch_unit.hh"

namespace damq {
namespace core {

/**
 * The shard-phase contract of one synchronized advance.  PR 7's
 * barrier machinery ran three informal phases hard-coded for
 * whole-packet transfers; this interface names them so the packet
 * and flit engines share one sequencer (runAdvancePhases) — and one
 * bit-identity argument — instead of duplicating the barrier
 * protocol:
 *
 *  - **arbitrate** (A1, every shard): decide this cycle's sends
 *    against the start-of-cycle snapshot.  May only *read* buffer
 *    state (own queues, downstream capacity, pre-rolled fault
 *    hooks); the sole mutation allowed is shard-owned scratch and
 *    per-switch arbiter fairness state.
 *  - **auditGrants** (coordinator, only when an audit is due):
 *    check the decided schedules before they are consumed,
 *    ascending switch id.
 *  - **pop** (A2, every shard): execute the decided sends on
 *    shard-*owned* state only (pop/flit-forward own buffers,
 *    consume own links' credits) into per-shard move lists.
 *    Between A1's capacity checks and A3's receives only removals
 *    happen, so a start-of-cycle "accepts" verdict cannot sour.
 *  - **exchange** (A3): apply the moves.  Either on the
 *    coordinator in global move order (coordinatorExchange() true:
 *    order-sensitive per-packet fault draws or link-layer protocol
 *    state), or sharded — each shard applies the moves landing on
 *    switches it owns, sound because every input buffer is fed by
 *    exactly one link — followed by **finishExchange** on the
 *    coordinator for sink deliveries and counter sums in global
 *    move order (Welford latency accumulation is order-sensitive
 *    floating point).
 *
 * The sequencer inserts a barrier between consecutive sharded
 * phases; concatenating per-shard outputs in shard order reproduces
 * the sequential ascending-SwitchId order, which is what keeps
 * results bit-identical at any shard count (DESIGN.md §13).
 */
class AdvancePhase
{
  public:
    virtual ~AdvancePhase() = default;

    /** A1: decide sends for @p shard (snapshot reads only). */
    virtual void arbitrate(unsigned shard) = 0;

    /** Coordinator: audit the decided schedules (audit cycles). */
    virtual void auditGrants() = 0;

    /** A2: execute @p shard's sends on shard-owned state. */
    virtual void pop(unsigned shard) = 0;

    /** Whether A3 must run serially on the coordinator. */
    virtual bool coordinatorExchange() const = 0;

    /** A3, serial form: apply all moves in global order. */
    virtual void exchangeSerial() = 0;

    /** A3, sharded form: apply moves landing on @p shard. */
    virtual void exchange(unsigned shard) = 0;

    /** A3b: coordinator tail of the sharded exchange. */
    virtual void finishExchange() = 0;
};

/** Policy knobs of a synchronized run (topology passed separately). */
struct SyncConfig
{
    BufferPlacement placement = BufferPlacement::Input;
    BufferType bufferType = BufferType::Damq; ///< input placement only
    std::uint32_t slotsPerBuffer = 4; ///< per input port's worth
    FlowControl protocol = FlowControl::Blocking;
    ArbitrationPolicy arbitration = ArbitrationPolicy::Smart;
    std::uint32_t staleThreshold = 8;

    /**
     * Switching granularity.  PacketSync (the default) is the
     * paper's synchronized whole-packet transfer and leaves every
     * historical result byte-identical.  StoreAndForward, Wormhole
     * and VirtualCutThrough move one flit per link per cycle under
     * credit (or on-off) flow control; all three require
     * input-buffered placement and are validated by
     * FlowControlScheme::make.
     *
     * Unloaded latency at flit granularity, for a packet of W flits
     * crossing S links (S = stages on the Omega network) with R =
     * routeCycles, counted from whole-packet injection to tail
     * delivery:
     *   - VCT and wormhole: S*R + W - 1 cycles;
     *   - store-and-forward: R + (S-1)*max(W, R) + W - 1 cycles
     *     (the first switch holds the whole packet from injection).
     */
    Switching switching = Switching::PacketSync;

    /**
     * Per-hop head turn-around R (>= 1) at flit granularity: a head
     * flit may leave a switch only R cycles after it arrived there
     * (the ComCoBB chip routes a header in 4 clocks, PAPER.md
     * Table 1).  1, the default, lets a head leave the cycle after
     * it arrives.  Packet-sync switching fixes the per-hop time at
     * one cycle and rejects any other value.
     */
    std::uint32_t routeCycles = 1;

    /**
     * Buffer-sharing (admission) policy applied to every input
     * buffer, plus the VOQ private-slot count.  The default static
     * configuration reproduces the historical rules bit-exactly.
     */
    SharingPolicyConfig sharing;

    /**
     * Traffic classes stamped onto generated packets (source id
     * modulo this count; 1 = everything class 0, the historical
     * behaviour).  Only the ClassQos sharing policy reads the
     * class, so class counts never perturb other configurations.
     */
    std::uint32_t trafficClasses = 1;

    /** Flits per packet at flit granularity (= Packet::lengthSlots;
     *  packet-sync packets stay one slot, and a length drawn per
     *  packet by common.workload.lengths overrides it). */
    std::uint32_t flitsPerPacket = 4;
    std::string traffic = "uniform"; ///< pattern name (see makeTraffic)
    double hotSpotFraction = 0.05;   ///< used when traffic == "hotspot"
    double offeredLoad = 0.5; ///< packets/cycle/source

    /** Seed, schedule, shards, workload, faults, telemetry. */
    SimCommonConfig common;
};

/** Results of one measured synchronized run. */
struct SyncResult
{
    NetworkCounters window; ///< counters within the window
    Cycle measuredCycles = 0;

    /** Delivered packets per endpoint per cycle. */
    double deliveredThroughput = 0.0;

    /** Offered packets per endpoint per cycle (echo). */
    double offeredLoad = 0.0;

    /** Fraction of generated packets discarded (both kinds). */
    double discardFraction = 0.0;

    /** In-network latency statistics, in the topology's latency
     *  unit (Topology::latencyUnitScale). */
    RunningStats latency;

    /** Switch-to-switch hops per delivered packet. */
    RunningStats hops;

    /** Mean source-queue length sampled each cycle (blocking). */
    double avgSourceQueueLen = 0.0;

    /** Mean buffered packets per switch sampled each cycle. */
    double avgSwitchOccupancy = 0.0;

    /** Jain fairness index over per-source mean latencies. */
    double latencyFairness = 1.0;

    /** Largest per-source mean latency. */
    double worstSourceLatency = 0.0;

    /** Median in-network latency (histogram estimate). */
    double latencyP50 = 0.0;

    /** 99th-percentile in-network latency (histogram estimate). */
    double latencyP99 = 0.0;

    /**
     * End-to-end latency tail (generation to sink, source-queue
     * wait included), in the topology's latency unit, from the
     * log-bucketed TailHistogram.  In-network latency above starts
     * at injection; under back-pressure the difference is exactly
     * the queueing delay the tail percentiles exist to expose.
     */
    double e2eLatencyP50 = 0.0;
    double e2eLatencyP99 = 0.0;
    double e2eLatencyP999 = 0.0;

    /** Delivered packets the e2e percentiles summarize. */
    std::uint64_t e2eSamples = 0;

    /** Per-class end-to-end tail (populated when trafficClasses > 1). */
    struct ClassTail
    {
        std::uint32_t trafficClass = 0;
        std::uint64_t samples = 0;
        double p50 = 0.0;
        double p99 = 0.0;
        double p999 = 0.0;
    };
    std::vector<ClassTail> classLatency;

    /** Deadlock-watchdog firings during the run (0 or 1 — the
     *  watchdog reports each wedge once). */
    std::uint64_t watchdogTrips = 0;
};

/**
 * The synchronized engine.  Construct over a topology (which must
 * outlive the engine), then run() a complete warmup+measure
 * experiment or drive step() manually (tests).
 */
class SyncEngine final : public SimEngine
{
  public:
    SyncEngine(const Topology &topology, const SyncConfig &config);

    /** Warm up, measure, and summarize. */
    SyncResult run();

    /** Topology in use. */
    const Topology &topology() const { return topo; }

    /** Policy configuration in use. */
    const SyncConfig &config() const { return cfg; }

    /** Shards actually in use (after validation/degradation). */
    unsigned shards() const { return shardPool->shards(); }

    /** Switch @p sw (test access). */
    SwitchUnit &switchUnit(SwitchId sw) { return *switches[sw]; }
    const SwitchUnit &switchUnit(SwitchId sw) const
    {
        return *switches[sw];
    }

    /** Lifetime counters since construction. */
    const NetworkCounters &lifetime() const { return counters; }

    /** Packets currently buffered inside switches. */
    std::uint64_t packetsInFlight() const;

    /** Packets currently waiting in source queues. */
    std::uint64_t packetsAtSources() const;

    /** Validate every buffer's invariants (tests). */
    void debugValidate() const;

    /**
     * Stop generating and step until the network and source queues
     * are empty, or @p max_cycles pass.  Returns true when fully
     * drained.
     */
    bool drain(Cycle max_cycles);

    /**
     * Deterministic diagnostic snapshot: per-switch occupancy and
     * head-of-line destinations in SwitchId order, with both seeds
     * echoed.
     */
    std::string snapshotText() const;

    /** The injection process driving the sources (stats access). */
    const InjectionProcess &injection() const
    {
        return traffic.process();
    }

    /**
     * Record every staged injection as a (cycle, src, dest) trace
     * entry into @p out (nullptr stops recording).  Feeding the
     * recorded entries back through the trace workload reproduces
     * the run's injections exactly (tests).
     */
    void recordInjectionsTo(std::vector<WorkloadTraceEntry> *out)
    {
        injectionRecord = out;
    }

    /** Adds the link layer's recovery counters (when enabled). */
    FaultReport faultReport() const override;

    /** The link layer, or nullptr when recovery is off (tests). */
    const LinkLayer *linkLayerOrNull() const { return linkLayer.get(); }

    /** The flow-control scheme governing this run. */
    const FlowControlScheme &flowScheme() const { return *scheme; }

    /** Whether this engine advances flit by flit. */
    bool flitMode() const { return flit != nullptr; }

    /** Lifetime credits consumed by flit sends (0 in packet mode). */
    std::uint64_t creditsIssued() const
    {
        return flit ? flit->creditsIssued : 0;
    }

    /** Lifetime credits handed back by downstream buffers. */
    std::uint64_t creditsReturned() const
    {
        return flit ? flit->creditsReturned : 0;
    }

    /**
     * Whether every link's credit counters are back at their caps —
     * true exactly when no packet occupies any link-fed buffer
     * (credit conservation; trivially true in packet mode).
     */
    bool flitCreditsAtRest() const;

  protected:
    void phaseFaults() override;   ///< pre-rolls + structural leaks
    void phaseAdvance() override;  ///< arbitrate, pop, deliver
    void phaseInject() override;   ///< generate + inject at sources
    void phaseAudit() override;    ///< periodic invariant audit
    void phaseWatchdog() override; ///< per-cycle watchdog bookkeeping
    void onMeasuredCycle() override;
    void beginMeasurement() override;
    void configureTelemetry(obs::Telemetry &t) override;

  private:
    /**
     * Build the traffic source: the pattern plus the injection
     * process, whose factory validates all workload parameters.
     */
    static TrafficSource makeSource(const Topology &topology,
                                    const SyncConfig &config);

    /**
     * Drain-and-measure schedule for the batch workload: measure
     * from cycle 0 until every batch packet is delivered (or the
     * warmup+measure cycle budget runs out); the measured window is
     * the actual cycle count, recorded in batchCycles.
     */
    void runBatchSchedule();

    /**
     * Shard count after validation: fatal when it exceeds the
     * switch count or placement is not input-buffered; degrades to
     * 1 (with a warning) when telemetry is enabled, because the
     * queue probes sit inside the buffer push/pop hot path.
     */
    static unsigned effectiveShards(const Topology &topology,
                                    const SyncConfig &config);

    /** Fill the flat per-link channel tables (SoA hot-path data). */
    void buildChannelTables();

    /** Trace a packet lost in flight: close its flow, mark @p why. */
    void traceLoss(const Packet &pkt, const char *why);

    // --- the sharded advance (input-buffered placement) ---

    /** One in-flight hop: the packet and the switch it left. */
    struct Move
    {
        SwitchId sw;
        Packet packet; ///< outPort = local output it left through
    };

    /** Per-shard working state; padded so shards never share lines. */
    struct alignas(64) ShardScratch
    {
        /** Moves popped by this shard's switches, ascending id —
         *  the boundary-exchange mailbox read by every shard (and
         *  the coordinator) in phase A3. */
        std::vector<Move> moves;

        /** Per-switch pop scratch, reused each cycle. */
        std::vector<Packet> sent;

        // Per-cycle counter deltas, summed by the coordinator at
        // the phase barrier (integer sums are order-independent).
        std::uint64_t discardedInternal = 0;
        std::uint64_t injected = 0;
        std::uint64_t discardedAtEntry = 0;
        std::uint64_t faultDropped = 0;
    };

    /** Advance for input-buffered placement: A1/A2/A3 phases. */
    void phaseAdvanceInput();

    /** Advance for central/output placement (single shard only). */
    void phaseAdvanceShared();

    /** A1: arbitrate this shard's switches (snapshot, read-only). */
    void advanceArbitrate(unsigned shard);

    /** A2: pop granted packets into this shard's move list. */
    void advancePop(unsigned shard);

    /** A3 (parallel form): apply every shard's moves that land on
     *  a switch this shard owns; sinks are left to the coordinator. */
    void advanceReceive(unsigned shard);

    /** Drive one advance through the AdvancePhase sequence:
     *  arbitrate ∥ → audit → pop ∥ → exchange (serial or ∥ +
     *  finish).  The barriers between sharded phases live here. */
    void runAdvancePhases(AdvancePhase &phase);

    /** Coordinator grant-legality audit over all switches (the
     *  auditGrants step shared by packet and flit advances). */
    void auditGrantsNow();

    /** Serial A3 of the whole-packet advance: the global move list
     *  crosses wires under faults / link-layer recovery. */
    void exchangeMovesSerial();

    /** A3b of the whole-packet advance: sink deliveries and counter
     *  sums in global move order. */
    void finishMovesExchange();

    /** The whole-packet AdvancePhase — PR 7's synchronized advance
     *  expressed on the shared sequencer, bit-identical to it. */
    class PacketAdvance final : public AdvancePhase
    {
      public:
        explicit PacketAdvance(SyncEngine &e) : eng(e) {}

        void arbitrate(unsigned shard) override
        {
            eng.advanceArbitrate(shard);
        }
        void auditGrants() override { eng.auditGrantsNow(); }
        void pop(unsigned shard) override { eng.advancePop(shard); }
        bool coordinatorExchange() const override
        {
            // Per-packet fault draws and link-layer protocol state
            // are global and order-sensitive.
            return eng.linkLayer != nullptr || eng.injector.enabled();
        }
        void exchangeSerial() override { eng.exchangeMovesSerial(); }
        void exchange(unsigned shard) override
        {
            eng.advanceReceive(shard);
        }
        void finishExchange() override { eng.finishMovesExchange(); }

      private:
        SyncEngine &eng;
    };

    // --- flit-level switching (wormhole / virtual cut-through) ---

    /** No feeding link: the buffer is filled by injection only. */
    static constexpr LinkId kNoFeedLink = ~LinkId(0);

    /**
     * Per-link stream state: the packet that owns the wire (and its
     * downstream VC) from its head-flit grant until its tail flit
     * crosses.  While a stream is active no other packet may place
     * a flit on the link — VC non-interleaving is structural.
     */
    struct FlitStream
    {
        PacketId packet = 0;
        bool active = false;
        PortId input = kInvalidPort; ///< upstream input buffer
        QueueKey srcKey{};           ///< upstream queue it drains
        QueueKey dstKey{};           ///< downstream queue (set at
                                     ///< head arrival, phase A3)
        VcId linkVc = 0;             ///< VC occupied on the wire
    };

    /** One flit crossing a link this cycle.  @c pkt carries the
     *  full record for Head (pushed downstream) and Tail/HeadTail
     *  (sink delivery); Body flits need only the link. */
    struct FlitMove
    {
        LinkId link;
        VcId vc; ///< virtual channel the flit crossed on
        FlitType type;
        Packet pkt;
    };

    /** A credit hand-back deferred to the end-of-cycle barrier, so
     *  senders always read start-of-cycle counter values. */
    struct CreditReturn
    {
        LinkId link;
        VcId vc;
    };

    /** Per-shard flit scratch; padded like ShardScratch. */
    struct alignas(64) FlitShard
    {
        std::vector<FlitMove> moves;
        std::vector<CreditReturn> returns;
        GrantList tailGrants;              ///< per-switch pop batch
        std::vector<VcId> tailVcs;         ///< wire VC per tail grant
        std::vector<std::uint32_t> reads;  ///< per-input read budget
        std::uint64_t issued = 0; ///< credits consumed this cycle
        std::uint64_t cutThrough = 0; ///< heads sent before their tail
                                      ///< arrived, this cycle
    };

    /** All flit-mode state; null in PacketSync mode, so the packet
     *  engine pays nothing for the flit layer's existence. */
    struct FlitState
    {
        std::vector<FlitStream> streams; ///< link * numVcs + vc
        /** A1's wire verdict, by link: 0 = idle, else 1 + the VC of
         *  the continuation that owns the wire this cycle.  Virtual
         *  channels flit-multiplex the physical link — a stalled
         *  packet holds only its VC stream, never the wire. */
        std::vector<std::uint8_t> sendFlit;
        /** Signed: an in-place send (the arriving flit lands in a
         *  slot its packet already holds) is allowed at zero
         *  credits — the counter dips to -1 within the cycle and
         *  the barrier-applied rebate restores it before any A1
         *  decision can observe it. */
        std::vector<std::int32_t> linkCredits; ///< by LinkId
        std::vector<std::int32_t> linkCreditCap;
        std::vector<std::int32_t> vcCredits; ///< link * numVcs + vc
        std::vector<std::int32_t> vcCreditCap; ///< by LinkId
        std::vector<LinkId> feedLink; ///< sw*ports+in -> feeder link
        std::vector<FlitShard> shard;
        std::vector<std::uint64_t> sends; ///< per-switch flit motion
        /** All ones under store-and-forward, else zero: a head waits
         *  while arrivedFlits() < (lengthSlots & tailGate). */
        std::uint32_t tailGate = 0;
        std::uint64_t creditsIssued = 0;
        std::uint64_t creditsReturned = 0;
    };

    /** Validate the flit gating rules and build FlitState. */
    void setupFlitState();

    /** A1: decide this cycle's flit sends for @p shard's switches —
     *  stream continuations first (claiming wires and read ports in
     *  link order), then new head grants through the arbiter. */
    void flitArbitrate(unsigned shard);

    /** Head-admission check bound into the arbiter's CanSendFn. */
    bool flitCanSendHead(SwitchId sw, QueueKey out_key,
                         const Packet &pkt);

    /** Whether active stream @p st may send its next flit. */
    bool flitCanContinue(LinkId link, const FlitStream &st,
                         const Packet &head);

    /** Flits already committed to @p link's downstream buffer but
     *  not yet arrived (active streams' unsent remainders) — VCT
     *  head admission must leave room for them. */
    std::uint32_t flitCommitted(LinkId link);

    /** A2: execute @p shard's decided sends — advance flit cursors,
     *  pop tails, consume own links' credits, defer hand-backs. */
    void flitPop(unsigned shard);

    /** A3 (sharded): apply flit arrivals landing on @p shard. */
    void flitExchange(unsigned shard);

    /** A3b: sink deliveries in global move order, then apply the
     *  deferred credit returns (visible next cycle). */
    void flitFinishExchange();

    /** Consume one credit for a flit sent over @p link. */
    void flitConsumeCredit(FlitShard &fs, LinkId link, VcId vc);

    /** Defer a credit return to the link feeding (sw, input). */
    void flitDeferReturn(FlitShard &fs, SwitchId sw, PortId input,
                         VcId vc);

    /** Flit-layer invariants for the periodic audit: stream/queue
     *  consistency (a tail always frees its wire and VC), credit
     *  caps, and one partial packet per link-fed buffer. */
    std::vector<std::string> flitCheckInvariants() const;

    /** The flit-granular AdvancePhase.  Its exchange is always
     *  sharded: the fault classes whose per-packet draws would
     *  force a serial exchange are rejected at construction. */
    class FlitAdvance final : public AdvancePhase
    {
      public:
        explicit FlitAdvance(SyncEngine &e) : eng(e) {}

        void arbitrate(unsigned shard) override
        {
            eng.flitArbitrate(shard);
        }
        void auditGrants() override { eng.auditGrantsNow(); }
        void pop(unsigned shard) override { eng.flitPop(shard); }
        bool coordinatorExchange() const override { return false; }
        void exchangeSerial() override; ///< unreachable; panics
        void exchange(unsigned shard) override
        {
            eng.flitExchange(shard);
        }
        void finishExchange() override { eng.flitFinishExchange(); }

      private:
        SyncEngine &eng;
    };

    /** The blocking back-pressure / discard capacity check for a
     *  departure from switch @p sw, on flat channel tables. */
    bool canSendFrom(SwitchId sw, QueueKey out_key,
                     const Packet &pkt);

    /** VcAllocator::linkVc on the flat channel tables. */
    VcId linkVcFlat(const Packet &pkt, LinkId link, PortId out) const
    {
        if (numVcs <= 1 || vcPolicyNone)
            return 0;
        const std::int32_t dim = portDim[out];
        if (dim < 0)
            return 0;
        VcId vc = 0;
        if (pkt.inPort != kInvalidPort && portDim[pkt.inPort] == dim)
            vc = pkt.vc;
        if (chanDateline[link])
            vc = static_cast<VcId>(numVcs - 1);
        return vc;
    }

    /** I2: inject staged packets at this shard's sources. */
    void injectShard(unsigned shard);

    /** Offer @p pkt to its injection point; true if accepted.
     *  Counter deltas go to @p sc (summed at the barrier). */
    bool tryInject(NodeId src, Packet pkt, ShardScratch &sc);

    /** Record a packet leaving the fabric at @p sink. */
    void deliver(const Packet &pkt, NodeId sink);

    // --- recovery-layer helpers (all no-ops when recovery is off) ---

    /** Routing decision for @p pkt at @p sw (up*-down* tables when
     *  rerouting, the topology's minimal route otherwise). */
    PortId routeFor(SwitchId sw, const Packet &pkt);

    /**
     * Lookahead of the routing decision @p pkt will face at
     * @p next_sw after crossing (sw, out) — the capacity checks
     * need it one hop early, phase bit included.
     */
    PortId routeAfterHop(SwitchId sw, PortId out, SwitchId next_sw,
                         const Packet &pkt);

    /** Whether a hard fault loses frames on (sw, out) this cycle. */
    bool hardFaultLoss(SwitchId sw, PortId out);

    /**
     * Carry one frame across its link under the recovery protocol:
     * roll the hard-fault and transient-fault hooks, verify the
     * frame CRC at the receiver, and ack (forward/deliver) or fail
     * (hold + schedule retry / declare the link dead).  Returns
     * true when the frame crossed and was consumed.
     */
    bool wireCross(SwitchId sw, const Packet &pristine,
                   std::uint32_t seq, bool is_retry);

    /** Failure path of wireCross (hold, backoff, dead-link). */
    void frameFailed(SwitchId sw, LinkId link, const Packet &pristine,
                     std::uint32_t seq, bool is_retry, bool nacked);

    /** Link @p link exhausted its retries: kill or re-home it. */
    void handleDeadLink(SwitchId sw, LinkId link);

    /** Apply the dead-link declarations collected last cycle.
     *  Deferring them to this pre-pass keeps the routing function
     *  fixed between a cycle's capacity checks and its moves. */
    void applyDeadLinks();

    /** Move everything queued onto dead output @p out at @p sw into
     *  the re-home queue (reroute policy only). */
    void rehomeQueuedPackets(SwitchId sw, PortId out);

    /**
     * Link-state epoch change: re-key every queued packet in the
     * network against the new routing function.  Queue keys were
     * assigned under the previous orientation; a single stale key
     * is a channel dependency the up*-down* ordering does not
     * cover, and one such edge can close a dependency cycle that
     * wedges the whole fabric (reroute policy only).
     */
    void rekeyQueuedPackets();

    /** Retry due retransmissions, oldest links first. */
    void processRetries();

    /** Re-inject re-homed packets whose detour has room. */
    void processRehomes();

    /** Revive dead links whose fault episode has ended. */
    void probeDeadLinks();

    const Topology &topo;
    SyncConfig cfg;
    VcAllocator vcAlloc; ///< per-hop VC assignment (common.vcs VCs)
    TrafficSource traffic;

    /**
     * Switch storage.  Input placement keeps the concrete
     * SwitchModel values in one contiguous vector (cache-friendly,
     * devirtualized where the engine names the type); the shared
     * placements keep heap units behind the SwitchUnit interface.
     * `switches` is the uniform non-owning view in flat SwitchId
     * order that generic code (audits, watchdog, telemetry,
     * snapshots) walks.
     */
    std::vector<SwitchModel> switchStore;
    std::vector<std::unique_ptr<SwitchUnit>> switchHeap;
    std::vector<SwitchUnit *> switches;

    /** Per-source backlog (used by the blocking protocol only). */
    std::vector<RingQueue<Packet>> sourceQueues;

    /**
     * Link-level retransmission state; nullptr unless the recovery
     * policy enables it, so baselines allocate nothing.
     */
    std::unique_ptr<LinkLayer> linkLayer;

    /** Dead-link detour routing; nullptr unless reroute is on. */
    std::unique_ptr<FaultRouter> faultRouter;

    /** Packet displaced off a dead link, waiting to re-enter. */
    struct Rehome
    {
        SwitchId sw;
        Packet pkt;
    };

    /** Displaced packets awaiting re-injection on their detour. */
    std::deque<Rehome> rehomeQueue;

    /** A retry budget exhausted this cycle; declared next cycle. */
    struct DeadLink
    {
        SwitchId sw;
        LinkId link;
    };

    /** Declarations deferred to the next cycle's pre-pass. */
    std::vector<DeadLink> deadPending;

    std::vector<std::uint64_t> prevTransmitted; ///< per component
    std::vector<std::uint32_t> nextSeq;         ///< per source

    PacketId nextPacketId = 0;
    NetworkCounters counters;
    NetworkCounters windowStart; ///< counters at measurement start

    // --- flat channel tables (LinkId = sw * ports + out) ---
    // One array load replaces a virtual Topology::hop()/geometry
    // call in the capacity check and the move loop.
    std::vector<std::uint8_t> chanToSink;
    std::vector<NodeId> chanSink;
    std::vector<SwitchId> chanNextSwitch;
    std::vector<PortId> chanNextInput;
    std::vector<std::uint8_t> chanDateline;
    std::vector<std::int32_t> portDim; ///< per local port
    std::uint32_t portCount = 0; ///< topo.portsPerSwitch(), cached
    VcId numVcs = 1;
    bool vcPolicyNone = false;

    // --- sharding ---
    std::unique_ptr<ShardRuntime> shardPool;
    ShardPlan plan;
    std::vector<ShardScratch> shardScratch;
    PacketAdvance packetAdvance{*this};
    FlitAdvance flitAdvance{*this};

    /** Flow-control scheme (validates the switching × protocol
     *  combination at construction); never null after the ctor. */
    std::unique_ptr<FlowControlScheme> scheme;

    /** Flit-mode state; null in PacketSync mode (zero cost). */
    std::unique_ptr<FlitState> flit;

    /** Per-switch grant store written in A1, read in A2 (and by
     *  the grant-legality audit); reused every cycle. */
    std::vector<GrantList> grantStore;

    /** Per-source staging written by the coordinator's generation
     *  pass (I1), consumed by the owning shard in I2. */
    std::vector<std::uint8_t> stagedHas;
    std::vector<Packet> stagedPkt;

    // Per-cycle scratch for the shared-placement advance, reused
    // every cycle (reserved at construction).
    std::vector<Move> moveScratch;
    std::vector<Packet> sentScratch;
    std::unordered_map<std::uint64_t, std::uint32_t> pendingScratch;

    /**
     * Links a successful retransmission already used this cycle
     * (recovery only): a link carries at most one frame per cycle,
     * so arbitration must not grant a fresh frame onto it.  Dense
     * flag array plus the list of set entries, cleared per cycle.
     */
    std::vector<std::uint8_t> linkUsed;
    std::vector<LinkId> linksUsedScratch;

    /** Topology::latencyUnitScale, read once: the per-delivery
     *  path multiplies by a member, not through a virtual call. */
    double latencyScale;

    RunningStats latencyStats;
    Histogram latencyHist; ///< for the p50/p99 estimates

    /** End-to-end (generation to sink) latency tail histogram. */
    TailHistogram e2eHist;

    /** Per-class e2e histograms; empty unless trafficClasses > 1. */
    std::vector<TailHistogram> e2eClassHist;

    /** Injection-trace recording sink (tests); nullptr when off. */
    std::vector<WorkloadTraceEntry> *injectionRecord = nullptr;

    /** Cycles the batch drain-and-measure schedule actually ran. */
    Cycle batchCycles = 0;

    /** Whether I1 draws each packet's length (variable lengths). */
    bool drawLengths = false;

    RunningStats hopStats;
    RunningStats sourceQueueSamples;
    RunningStats switchOccupancySamples;
    std::vector<RunningStats> perSourceLatency;
};

} // namespace core
} // namespace damq

#endif // DAMQ_NETWORK_CORE_SYNC_ENGINE_HH
