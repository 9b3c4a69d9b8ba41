#include "switchsim/arbiter.hh"

#include <algorithm>
#include <bit>

#include "common/enum_parse.hh"
#include "common/logging.hh"

namespace damq {

namespace {

constexpr EnumName<ArbitrationPolicy> kArbitrationPolicyNames[] = {
    {ArbitrationPolicy::Dumb, "dumb"},
    {ArbitrationPolicy::Smart, "smart"},
};

} // namespace

const char *
arbitrationPolicyName(ArbitrationPolicy policy)
{
    switch (policy) {
      case ArbitrationPolicy::Dumb: return "dumb";
      case ArbitrationPolicy::Smart: return "smart";
    }
    damq_panic("unknown ArbitrationPolicy ", static_cast<int>(policy));
}

std::optional<ArbitrationPolicy>
tryArbitrationPolicyFromString(const std::string &name)
{
    return parseEnumName(std::string_view(name),
                         kArbitrationPolicyNames);
}

Arbiter::Arbiter(PortId num_inputs, PortId num_outputs, VcId num_vcs)
    : inputs(num_inputs), outputs(num_outputs), vcs(num_vcs),
      words((QueueLayout{num_outputs, num_vcs}.numQueues() + 63) / 64),
      takenMask(words, 0)
{
    damq_assert(num_inputs > 0 && num_outputs > 0,
                "arbiter needs ports");
    damq_assert(num_vcs > 0, "arbiter needs at least one VC");
}

namespace {

/** Call @p fn(flat) for every set bit of @p bits in word @p w. */
template <typename Fn>
void
forEachBit(std::uint64_t bits, std::uint32_t w, Fn &&fn)
{
    while (bits != 0) {
        fn(w * 64 + static_cast<std::uint32_t>(std::countr_zero(bits)));
        bits &= bits - 1;
    }
}

/** The paper's selector: serve the longest eligible queue (the
 *  first one offered among equals). */
struct LongestQueue
{
    QueueKey best = kInvalidQueue;
    std::uint32_t bestLength = 0;

    void begin(PortId) { best = kInvalidQueue; }

    void offer(QueueKey key, std::uint32_t, const BufferModel &buffer)
    {
        const std::uint32_t length = buffer.queueLength(key);
        if (!best.valid() || length > bestLength) {
            best = key;
            bestLength = length;
        }
    }

    QueueKey pick() const { return best; }
};

/** Smart selector: the stalest queue at or above the threshold
 *  (the last one offered among equals), else the longest. */
struct StalestOrLongest : LongestQueue
{
    const std::uint32_t *counts;     ///< stale counts of all inputs
    std::uint32_t queuesPerInput;
    std::uint32_t threshold;
    std::uint64_t &overrides;
    const std::uint32_t *inputCounts = nullptr;
    QueueKey stalest = kInvalidQueue;
    std::uint32_t bestStale = 0;

    void begin(PortId input)
    {
        LongestQueue::begin(input);
        inputCounts = counts + std::size_t{input} * queuesPerInput;
        stalest = kInvalidQueue;
        bestStale = 0;
    }

    void offer(QueueKey key, std::uint32_t flat,
               const BufferModel &buffer)
    {
        LongestQueue::offer(key, flat, buffer);
        const std::uint32_t stale = inputCounts[flat];
        if (stale >= threshold && stale >= bestStale) {
            stalest = key;
            bestStale = stale;
        }
    }

    QueueKey pick()
    {
        if (!stalest.valid())
            return best;
        ++overrides;
        return stalest;
    }
};

} // namespace

template <typename Selector>
void
Arbiter::serveRoundRobin(const std::vector<BufferModel *> &buffers,
                         const CanSendFn &can_send, PortId start,
                         Selector &select, GrantList &grants)
{
    damq_assert(buffers.size() == inputs,
                "arbiter geometry mismatch: ", buffers.size(),
                " buffers for ", inputs, " inputs");

    std::fill(takenMask.begin(), takenMask.end(), 0);
    grants.clear();
    const QueueLayout layout{outputs, vcs};

    for (PortId step = 0; step < inputs; ++step) {
        const PortId input = (start + step) % inputs;
        BufferModel &buffer = *buffers[input];
        if (!buffer.anyReady())
            continue;
        damq_assert(buffer.readyMaskWords() == words,
                    "arbiter geometry mismatch at input ", input);
        const std::uint64_t *ready = buffer.readyMask();
        std::uint32_t reads_left = buffer.maxReadsPerCycle();

        // A fully connected (SAFC) buffer keeps transmitting from
        // this input while it has read bandwidth; the others stop
        // after one grant.
        while (reads_left > 0) {
            select.begin(input);
            for (std::uint32_t w = 0; w < words; ++w) {
                forEachBit(ready[w] & ~takenMask[w], w,
                           [&](std::uint32_t flat) {
                               const QueueKey key =
                                   layout.unflatten(flat);
                               if (can_send(input, key,
                                            *buffer.peek(key)))
                                   select.offer(key, flat, buffer);
                           });
            }
            const QueueKey chosen = select.pick();
            if (!chosen.valid())
                break;

            // Claim the physical output: every VC queue behind it.
            const std::uint32_t first = layout.flatten({chosen.out, 0});
            for (std::uint32_t f = first; f < first + vcs; ++f)
                takenMask[f >> 6] |= std::uint64_t{1} << (f & 63);
            grants.push_back(Grant{input, chosen.out, chosen.vc});
            --reads_left;
        }
    }

    ++arbStats.arbitrations;
    arbStats.grantsIssued += grants.size();
}

DumbArbiter::DumbArbiter(PortId num_inputs, PortId num_outputs,
                         VcId num_vcs)
    : Arbiter(num_inputs, num_outputs, num_vcs)
{
}

void
DumbArbiter::arbitrateInto(const std::vector<BufferModel *> &buffers,
                           const CanSendFn &can_send, GrantList &grants)
{
    LongestQueue longest;
    serveRoundRobin(buffers, can_send, rrStart, longest, grants);

    // Dumb policy: the priority position advances every cycle,
    // whether or not the buffer holding it transmitted.
    rrStart = (rrStart + 1) % numInputs();
}

void
DumbArbiter::idleCycle()
{
    ++arbStats.arbitrations;
    rrStart = (rrStart + 1) % numInputs();
}

SmartArbiter::SmartArbiter(PortId num_inputs, PortId num_outputs,
                           std::uint32_t stale_threshold, VcId num_vcs)
    : Arbiter(num_inputs, num_outputs, num_vcs),
      staleThreshold(stale_threshold),
      staleCounts(static_cast<std::size_t>(num_inputs) * num_outputs *
                      num_vcs,
                  0),
      staleMask(static_cast<std::size_t>(num_inputs) * maskWords(), 0)
{
}

void
SmartArbiter::arbitrateInto(const std::vector<BufferModel *> &buffers,
                            const CanSendFn &can_send, GrantList &grants)
{
    // Stale queues get precedence over long ones: pick the stalest
    // queue at or above the threshold, falling back to the longest
    // queue otherwise.
    StalestOrLongest select{{},
                            staleCounts.data(),
                            numOutputs() * numVcs(),
                            staleThreshold,
                            arbStats.staleOverrides};
    serveRoundRobin(buffers, can_send, rrStart, select, grants);

    ageStaleCounts(&buffers);
    bool start_transmitted = false;
    for (const Grant &g : grants) {
        // A served queue resets.
        staleCounts[queueIndex(g.input, g.queue())] = 0;
        const std::uint32_t f = g.output * numVcs() + g.vc;
        staleMask[std::size_t{g.input} * maskWords() + (f >> 6)] &=
            ~(std::uint64_t{1} << (f & 63));
        start_transmitted = start_transmitted || g.input == rrStart;
    }

    // Smart policy: only advance priority past a buffer whose turn
    // was actually useful.
    if (start_transmitted)
        rrStart = (rrStart + 1) % numInputs();
}

void
SmartArbiter::idleCycle()
{
    ++arbStats.arbitrations;
    ageStaleCounts(nullptr);
}

void
SmartArbiter::ageStaleCounts(const std::vector<BufferModel *> *buffers)
{
    // A non-empty (ready) queue ages by one and an empty one resets;
    // only ready queues and those staleMask marks as non-zero can
    // change, so the rest are never touched.
    const std::uint32_t queues = numOutputs() * numVcs();
    for (PortId input = 0; input < numInputs(); ++input) {
        const std::uint64_t *ready =
            buffers ? (*buffers)[input]->readyMask() : nullptr;
        std::uint64_t *marked =
            staleMask.data() + std::size_t{input} * maskWords();
        std::uint32_t *counts =
            staleCounts.data() + std::size_t{input} * queues;
        for (std::uint32_t w = 0; w < maskWords(); ++w) {
            const std::uint64_t bits = ready ? ready[w] : 0;
            forEachBit(marked[w] & ~bits, w,
                       [counts](std::uint32_t f) { counts[f] = 0; });
            forEachBit(bits, w,
                       [counts](std::uint32_t f) { ++counts[f]; });
            marked[w] = bits;
        }
    }
}

void
SmartArbiter::reset()
{
    rrStart = 0;
    std::fill(staleCounts.begin(), staleCounts.end(), 0);
    std::fill(staleMask.begin(), staleMask.end(), 0);
}

std::unique_ptr<Arbiter>
makeArbiter(ArbitrationPolicy policy, PortId num_inputs,
            PortId num_outputs, std::uint32_t stale_threshold,
            VcId num_vcs)
{
    switch (policy) {
      case ArbitrationPolicy::Dumb:
        return std::make_unique<DumbArbiter>(num_inputs, num_outputs,
                                             num_vcs);
      case ArbitrationPolicy::Smart:
        return std::make_unique<SmartArbiter>(num_inputs, num_outputs,
                                              stale_threshold, num_vcs);
    }
    damq_panic("unknown ArbitrationPolicy ", static_cast<int>(policy));
}

} // namespace damq
