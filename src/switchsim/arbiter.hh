/**
 * @file
 * Crossbar arbitration policies from Section 4.2 of the paper.
 *
 * Both policies examine the input buffers one at a time in a
 * priority order and let the current buffer transmit from its
 * longest queue that is not blocked (output already claimed this
 * cycle, or downstream back-pressure).  They differ in how the
 * priority order evolves:
 *
 *  - **Dumb**: plain round-robin — the starting buffer advances
 *    every cycle no matter what.
 *  - **Smart**: the starting position advances only when the
 *    priority buffer actually transmitted, i.e., fruitless turns
 *    are not "counted" against a buffer.  In addition a per-queue
 *    *stale count* tracks how long a non-empty queue has gone
 *    without transmitting; queues whose stale count crosses a
 *    threshold take precedence over longer queues, keeping traffic
 *    inside a buffer fair.
 *
 * With virtual channels the candidate set per buffer is every
 * (output, VC) queue, but a physical output port still carries at
 * most one packet per cycle — VCs multiplex the link across cycles,
 * they do not widen it.
 *
 * Cost is proportional to the queues that hold packets: candidates
 * come from each buffer's ready mask (BufferModel::readyMask), and
 * a switch whose buffers are all empty skips arbitration through
 * idleCycle(), which has exactly the effect of a pass over empty
 * buffers (DESIGN.md §13).
 */

#ifndef DAMQ_SWITCHSIM_ARBITER_HH
#define DAMQ_SWITCHSIM_ARBITER_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/function_ref.hh"
#include "common/types.hh"
#include "queueing/buffer_model.hh"
#include "switchsim/grant.hh"

namespace damq {

/** Which arbitration policy a switch uses. */
enum class ArbitrationPolicy
{
    Dumb, ///< plain round-robin priority rotation
    Smart ///< rotation on service only, plus stale counts
};

/** Human-readable policy name. */
const char *arbitrationPolicyName(ArbitrationPolicy policy);

/** Parse a case-insensitive policy name; nullopt on bad input. */
std::optional<ArbitrationPolicy> tryArbitrationPolicyFromString(
    const std::string &name);

/**
 * Per-candidate back-pressure test supplied by the network layer:
 * may input @p input transmit packet @p pkt from queue @p key this
 * cycle?  (Blocking protocol: is there downstream space; discarding
 * protocol: always true.)  Non-owning: the callable must outlive
 * the call it is passed to (captureless lambdas are always safe).
 */
using CanSendFn =
    FunctionRef<bool(PortId input, QueueKey key, const Packet &pkt)>;

/**
 * Lifetime arbitration counters, exposed for telemetry.  Cheap to
 * maintain (one add per schedule), so they are always on; reset()
 * leaves them alone — they describe the arbiter's whole life.
 */
struct ArbiterStats
{
    std::uint64_t arbitrations = 0;   ///< schedules computed
    std::uint64_t grantsIssued = 0;   ///< grants across all schedules

    /** Smart only: a stale queue outranked a longer one. */
    std::uint64_t staleOverrides = 0;
};

/**
 * Stateful per-switch arbiter.  Produces a conflict-free grant set:
 * at most one grant per output port and at most
 * `maxReadsPerCycle()` grants per input buffer.
 */
class Arbiter
{
  public:
    /** @param num_inputs / @param num_outputs  switch geometry.
     *  @param num_vcs  virtual channels per output (1 = the paper). */
    Arbiter(PortId num_inputs, PortId num_outputs, VcId num_vcs = 1);

    virtual ~Arbiter() = default;

    Arbiter(const Arbiter &) = delete;
    Arbiter &operator=(const Arbiter &) = delete;

    /**
     * Compute this cycle's crossbar schedule into @p grants
     * (replacing its contents).  Taking the caller's list lets the
     * switch hand the same vector back every cycle, so arbitration
     * allocates nothing in steady state.
     *
     * @param buffers   the switch's input buffers (size numInputs).
     * @param can_send  back-pressure test (see CanSendFn).
     * @param grants    receives the conflict-free grant list.
     */
    virtual void arbitrateInto(
        const std::vector<BufferModel *> &buffers,
        const CanSendFn &can_send, GrantList &grants) = 0;

    /** Convenience wrapper: arbitrateInto a fresh list. */
    GrantList arbitrate(const std::vector<BufferModel *> &buffers,
                        const CanSendFn &can_send)
    {
        GrantList grants;
        arbitrateInto(buffers, can_send, grants);
        return grants;
    }

    /**
     * Account a cycle in which every buffer is empty, without
     * looking at them: exactly the effect arbitrateInto() has on
     * empty buffers (no grants; one more arbitration; Dumb rotates
     * its priority; Smart clears any stale count a removal outside
     * arbitration left behind).  SwitchModel calls it instead of
     * arbitrateInto() when no input has a ready queue.
     */
    virtual void idleCycle() = 0;

    /** Policy implemented by this arbiter. */
    virtual ArbitrationPolicy policy() const = 0;

    /** Lifetime grant/override counters. */
    const ArbiterStats &stats() const { return arbStats; }

    /** Forget all fairness state. */
    virtual void reset() = 0;

    PortId numInputs() const { return inputs; }
    PortId numOutputs() const { return outputs; }
    VcId numVcs() const { return vcs; }

  protected:
    /** 64-bit words in one buffer's ready mask. */
    std::uint32_t maskWords() const { return words; }

    /**
     * Shared core: serve buffers in the order start, start+1, ...
     * (mod numInputs), granting each buffer its best eligible
     * queue(s) into @p grants (replacing its contents).  A queue is
     * eligible when its ready bit is set, its output is unclaimed
     * this cycle and @p can_send clears its head.  @p select sees
     * the eligible queues one by one (begin, offer..., pick) and
     * picks the one to serve, or kInvalidQueue to skip the buffer.
     * Queues are offered in ascending flat index, i.e. output-major
     * (out 0 vc 0, out 0 vc 1, ...) — with one VC the pre-VC
     * output order — so ties break as in a full scan.
     */
    template <typename Selector>
    void serveRoundRobin(const std::vector<BufferModel *> &buffers,
                         const CanSendFn &can_send, PortId start,
                         Selector &select, GrantList &grants);

  private:
    PortId inputs;
    PortId outputs;
    VcId vcs;
    std::uint32_t words;

  protected:
    /** Lifetime counters; serveRoundRobin maintains the first two. */
    ArbiterStats arbStats;

    /** Scratch: queues whose output was claimed this cycle, in the
     *  ready-mask layout. */
    std::vector<std::uint64_t> takenMask;
};

/** Round-robin arbiter that rotates unconditionally. */
class DumbArbiter final : public Arbiter
{
  public:
    /** See Arbiter::Arbiter. */
    DumbArbiter(PortId num_inputs, PortId num_outputs,
                VcId num_vcs = 1);

    void arbitrateInto(const std::vector<BufferModel *> &buffers,
                       const CanSendFn &can_send,
                       GrantList &grants) override;

    void idleCycle() override;

    ArbitrationPolicy policy() const override
    {
        return ArbitrationPolicy::Dumb;
    }

    void reset() override { rrStart = 0; }

  private:
    PortId rrStart = 0;
};

/**
 * Round-robin arbiter that only advances priority past a buffer
 * that transmitted, with per-queue stale counts for intra-buffer
 * fairness.
 */
class SmartArbiter final : public Arbiter
{
  public:
    /**
     * @param stale_threshold  cycles a waiting queue tolerates
     *        before it preempts longer queues.
     */
    SmartArbiter(PortId num_inputs, PortId num_outputs,
                 std::uint32_t stale_threshold = 8, VcId num_vcs = 1);

    void arbitrateInto(const std::vector<BufferModel *> &buffers,
                       const CanSendFn &can_send,
                       GrantList &grants) override;

    void idleCycle() override;

    ArbitrationPolicy policy() const override
    {
        return ArbitrationPolicy::Smart;
    }

    void reset() override;

    /** Stale count of queue (@p input, @p key) — test visibility. */
    std::uint32_t staleCount(PortId input, QueueKey key) const
    {
        return staleCounts[queueIndex(input, key)];
    }

  private:
    /** Flat index of (@p input, @p key) into staleCounts. */
    std::size_t queueIndex(PortId input, QueueKey key) const
    {
        return (static_cast<std::size_t>(input) * numOutputs() +
                key.out) * numVcs() + key.vc;
    }

    /**
     * Age the stale counts against @p buffers' ready masks, before
     * served queues reset; nullptr means every buffer is empty (the
     * whole update of an idle cycle).  staleMask is set for every
     * non-zero count afterwards.
     */
    void ageStaleCounts(const std::vector<BufferModel *> *buffers);

    PortId rrStart = 0;
    std::uint32_t staleThreshold;
    std::vector<std::uint32_t> staleCounts;
    /// per input, ready-mask layout: set for every non-zero count
    std::vector<std::uint64_t> staleMask;
};

/** Construct an arbiter implementing @p policy. */
std::unique_ptr<Arbiter> makeArbiter(ArbitrationPolicy policy,
                                     PortId num_inputs,
                                     PortId num_outputs,
                                     std::uint32_t stale_threshold = 8,
                                     VcId num_vcs = 1);

} // namespace damq

#endif // DAMQ_SWITCHSIM_ARBITER_HH
