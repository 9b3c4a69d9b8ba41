/**
 * @file
 * Unit tests for the crossbar arbiters: schedule validity (one
 * grant per output, read-port limits), longest-queue selection,
 * dumb vs smart rotation, stale-count fairness, back-pressure
 * filtering, and the exactness of the idle-switch skip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.hh"
#include "queueing/buffer_factory.hh"
#include "switchsim/arbiter.hh"
#include "switchsim/switch_model.hh"

namespace damq {
namespace {

Packet
makePacket(PacketId id, PortId out)
{
    Packet p;
    p.id = id;
    p.outPort = out;
    p.lengthSlots = 1;
    return p;
}

/** Test fixture holding four buffers of a chosen type. */
class ArbiterFixture
{
  public:
    ArbiterFixture(BufferType type, std::uint32_t slots = 8)
    {
        for (int i = 0; i < 4; ++i) {
            owned.push_back(makeBuffer(type, 4, slots));
            buffers.push_back(owned.back().get());
        }
    }

    BufferModel &buf(PortId i) { return *buffers[i]; }

    static bool alwaysSend(PortId, QueueKey, const Packet &)
    {
        return true;
    }

    std::vector<std::unique_ptr<BufferModel>> owned;
    std::vector<BufferModel *> buffers;
};

void
expectValidSchedule(const GrantList &grants,
                    const std::vector<BufferModel *> &buffers)
{
    std::vector<int> per_output(4, 0);
    std::vector<int> per_input(4, 0);
    for (const Grant &g : grants) {
        ++per_output[g.output];
        ++per_input[g.input];
    }
    for (int c : per_output)
        EXPECT_LE(c, 1);
    for (PortId i = 0; i < 4; ++i)
        EXPECT_LE(per_input[i],
                  static_cast<int>(buffers[i]->maxReadsPerCycle()));
}

TEST(DumbArbiter, EmptyBuffersYieldNoGrants)
{
    ArbiterFixture fx(BufferType::Damq);
    DumbArbiter arb(4, 4);
    EXPECT_TRUE(arb.arbitrate(fx.buffers,
                              ArbiterFixture::alwaysSend).empty());
}

TEST(DumbArbiter, GrantsAreConflictFree)
{
    ArbiterFixture fx(BufferType::Damq);
    // Everybody wants output 2.
    for (PortId i = 0; i < 4; ++i)
        fx.buf(i).push(makePacket(i, 2));
    DumbArbiter arb(4, 4);
    const GrantList grants =
        arb.arbitrate(fx.buffers, ArbiterFixture::alwaysSend);
    expectValidSchedule(grants, fx.buffers);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].output, 2u);
}

TEST(DumbArbiter, FullDemandSaturatesAllOutputs)
{
    ArbiterFixture fx(BufferType::Damq);
    for (PortId i = 0; i < 4; ++i)
        for (PortId o = 0; o < 4; ++o)
            fx.buf(i).push(makePacket(i * 4 + o, o));
    DumbArbiter arb(4, 4);
    const GrantList grants =
        arb.arbitrate(fx.buffers, ArbiterFixture::alwaysSend);
    expectValidSchedule(grants, fx.buffers);
    EXPECT_EQ(grants.size(), 4u);
}

TEST(DumbArbiter, PicksLongestQueue)
{
    ArbiterFixture fx(BufferType::Damq);
    fx.buf(0).push(makePacket(1, 1));
    fx.buf(0).push(makePacket(2, 3));
    fx.buf(0).push(makePacket(3, 3));
    DumbArbiter arb(4, 4);
    const GrantList grants =
        arb.arbitrate(fx.buffers, ArbiterFixture::alwaysSend);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].output, 3u); // queue 3 is longer
}

TEST(DumbArbiter, RotatesPriorityEveryCycle)
{
    ArbiterFixture fx(BufferType::Damq);
    DumbArbiter arb(4, 4);
    // All four inputs always compete for output 0; with dumb
    // rotation each must win exactly a quarter of the turns.
    std::vector<int> wins(4, 0);
    for (int cycle = 0; cycle < 100; ++cycle) {
        for (PortId i = 0; i < 4; ++i) {
            fx.buf(i).clear();
            fx.buf(i).push(makePacket(i, 0));
        }
        const GrantList grants =
            arb.arbitrate(fx.buffers, ArbiterFixture::alwaysSend);
        ASSERT_EQ(grants.size(), 1u);
        ++wins[grants[0].input];
    }
    for (const int w : wins)
        EXPECT_EQ(w, 25);
}

TEST(DumbArbiter, RespectsBackPressure)
{
    ArbiterFixture fx(BufferType::Damq);
    fx.buf(0).push(makePacket(1, 1));
    fx.buf(0).push(makePacket(2, 2));
    DumbArbiter arb(4, 4);
    auto blocked1 = [](PortId, QueueKey out, const Packet &) {
        return out.out != 1;
    };
    const GrantList grants = arb.arbitrate(fx.buffers, blocked1);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].output, 2u);
}

TEST(SafcArbitration, OneBufferCanFeedAllOutputs)
{
    ArbiterFixture fx(BufferType::Safc);
    for (PortId o = 0; o < 4; ++o)
        fx.buf(0).push(makePacket(o, o));
    DumbArbiter arb(4, 4);
    const GrantList grants =
        arb.arbitrate(fx.buffers, ArbiterFixture::alwaysSend);
    expectValidSchedule(grants, fx.buffers);
    EXPECT_EQ(grants.size(), 4u);
    for (const Grant &g : grants)
        EXPECT_EQ(g.input, 0u);
}

TEST(SingleReadPort, DamqEmitsAtMostOnePerCycle)
{
    ArbiterFixture fx(BufferType::Damq);
    for (PortId o = 0; o < 4; ++o)
        fx.buf(0).push(makePacket(o, o));
    DumbArbiter arb(4, 4);
    const GrantList grants =
        arb.arbitrate(fx.buffers, ArbiterFixture::alwaysSend);
    EXPECT_EQ(grants.size(), 1u);
}

TEST(SmartArbiter, HoldsPriorityThroughFruitlessTurns)
{
    ArbiterFixture fx(BufferType::Damq);
    SmartArbiter arb(4, 4);

    // Cycle 1: input 0 (priority holder) has nothing; input 1
    // transmits.  Priority must stay at input 0.
    fx.buf(1).push(makePacket(1, 0));
    GrantList grants =
        arb.arbitrate(fx.buffers, ArbiterFixture::alwaysSend);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].input, 1u);

    // Cycle 2: both 0 and 1 compete; 0 should win because its
    // fruitless turn was not counted.
    fx.buf(0).push(makePacket(2, 0));
    fx.buf(1).push(makePacket(3, 0));
    grants = arb.arbitrate(fx.buffers, ArbiterFixture::alwaysSend);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0].input, 0u);
}

TEST(SmartArbiter, StaleQueuePreemptsLongerQueue)
{
    ArbiterFixture fx(BufferType::Damq, 16);
    SmartArbiter arb(4, 4, /*stale_threshold=*/3);

    // Queue 1 of buffer 0 holds one old packet; queue 2 is longer.
    fx.buf(0).push(makePacket(1, 1));
    for (int i = 0; i < 5; ++i)
        fx.buf(0).push(makePacket(10 + i, 2));

    // Block output 1 for a few cycles so its queue goes stale.
    auto blocked1 = [](PortId, QueueKey out, const Packet &) {
        return out.out != 1;
    };
    for (int cycle = 0; cycle < 4; ++cycle) {
        const GrantList grants = arb.arbitrate(fx.buffers, blocked1);
        for (const Grant &g : grants)
            fx.buf(g.input).pop(g.output);
        // Top queue 2 back up so it stays longer.
        fx.buf(0).push(makePacket(100 + cycle, 2));
    }
    EXPECT_GE(arb.staleCount(0, 1), 3u);

    // Output 1 unblocks: the stale queue must win over the longer
    // queue 2.
    const GrantList grants =
        arb.arbitrate(fx.buffers, ArbiterFixture::alwaysSend);
    ASSERT_FALSE(grants.empty());
    EXPECT_EQ(grants[0].input, 0u);
    EXPECT_EQ(grants[0].output, 1u);
    EXPECT_EQ(arb.staleCount(0, 1), 0u); // reset after service
}

TEST(SmartArbiter, StaleCountClearsWhenQueueEmpties)
{
    ArbiterFixture fx(BufferType::Damq);
    SmartArbiter arb(4, 4, 2);
    fx.buf(0).push(makePacket(1, 1));
    auto blocked = [](PortId, QueueKey, const Packet &) {
        return false;
    };
    arb.arbitrate(fx.buffers, blocked);
    EXPECT_EQ(arb.staleCount(0, 1), 1u);
    fx.buf(0).pop(1); // queue drains by other means
    arb.arbitrate(fx.buffers, blocked);
    EXPECT_EQ(arb.staleCount(0, 1), 0u);
}

/**
 * Idle-skip exactness: one arbiter takes idleCycle() whenever every
 * buffer is empty (the SwitchModel rule), a twin always runs the
 * full arbitration, and a SwitchModel runs the production path —
 * all over the same random busy/idle cycle sequence.  Busy stretches
 * push random packets under random back-pressure; a queue is now
 * and then emptied outside arbitration (the re-homing case), and
 * idle stretches begin by draining every buffer that way, so stale
 * counts are non-zero when the switch goes idle.  The first cycle
 * after an idle stretch makes every input contend for output 0, so
 * the winner shows the priority position the idle cycles left.
 */
using SkipParam = std::tuple<ArbitrationPolicy, VcId, BufferType>;

class IdleSkipExactness : public ::testing::TestWithParam<SkipParam>
{
};

TEST_P(IdleSkipExactness, MatchesFullArbitration)
{
    const auto [policy, vcs, type] = GetParam();
    constexpr PortId kPorts = 4;
    const std::uint32_t slots = 4 * kPorts * vcs;
    const QueueLayout layout{kPorts, vcs};

    std::vector<std::unique_ptr<BufferModel>> owned_skip, owned_full;
    std::vector<BufferModel *> skip_bufs, full_bufs;
    for (PortId i = 0; i < kPorts; ++i) {
        owned_skip.push_back(makeBuffer(type, layout, slots));
        owned_full.push_back(makeBuffer(type, layout, slots));
        skip_bufs.push_back(owned_skip.back().get());
        full_bufs.push_back(owned_full.back().get());
    }
    const auto skip_arb = makeArbiter(policy, kPorts, kPorts, 3, vcs);
    const auto full_arb = makeArbiter(policy, kPorts, kPorts, 3, vcs);
    SwitchModel sw(kPorts, type, slots, policy, 3, vcs);

    // Apply one buffer operation to all three twins.
    const auto push_all = [&](PortId in, const Packet &p) {
        if (!full_bufs[in]->canAccept({p.outPort, p.vc}, 1))
            return;
        skip_bufs[in]->push(p);
        full_bufs[in]->push(p);
        ASSERT_TRUE(sw.tryReceive(in, p));
    };
    const auto pop_all = [&](PortId in, QueueKey key) {
        const PacketId id = full_bufs[in]->pop(key).id;
        ASSERT_EQ(skip_bufs[in]->pop(key).id, id);
        ASSERT_EQ(sw.buffer(in).pop(key).id, id);
    };

    Random rng(17 + vcs * 5 + static_cast<int>(type));
    std::vector<bool> blocked(kPorts, false);
    const auto can_send = [&blocked](PortId, QueueKey key,
                                     const Packet &) {
        return !blocked[key.out];
    };

    PacketId next_id = 0;
    bool idle_stretch = false;
    bool probe_next = false;
    int idle_cycles = 0;
    GrantList skip_grants, full_grants, sw_grants;
    for (int cycle = 0; cycle < 3000; ++cycle) {
        if (rng.bernoulli(0.08)) {
            idle_stretch = !idle_stretch;
            if (idle_stretch) {
                // Drain outside arbitration: unserved queues keep
                // their stale counts into the idle stretch.
                for (PortId in = 0; in < kPorts; ++in) {
                    for (std::uint32_t q = 0; q < layout.numQueues();
                         ++q) {
                        while (full_bufs[in]->peek(layout.unflatten(q)))
                            pop_all(in, layout.unflatten(q));
                    }
                }
            } else {
                probe_next = true;
            }
        }
        if (probe_next) {
            for (PortId in = 0; in < kPorts; ++in) {
                Packet p = makePacket(next_id++, 0);
                push_all(in, p);
            }
        } else if (!idle_stretch) {
            const int arrivals = static_cast<int>(rng.below(4));
            for (int a = 0; a < arrivals; ++a) {
                Packet p = makePacket(
                    next_id++, static_cast<PortId>(rng.below(kPorts)));
                p.vc = static_cast<VcId>(rng.below(vcs));
                push_all(static_cast<PortId>(rng.below(kPorts)), p);
            }
            if (rng.bernoulli(0.1)) {
                // A queue emptied outside arbitration.
                const PortId in = static_cast<PortId>(rng.below(kPorts));
                const QueueKey key = layout.unflatten(
                    static_cast<std::uint32_t>(
                        rng.below(layout.numQueues())));
                while (full_bufs[in]->peek(key))
                    pop_all(in, key);
            }
        }
        for (PortId out = 0; out < kPorts; ++out)
            blocked[out] = !probe_next && rng.bernoulli(0.3);

        const bool any_ready = std::any_of(
            skip_bufs.begin(), skip_bufs.end(),
            [](const BufferModel *b) { return b->anyReady(); });
        if (any_ready) {
            skip_arb->arbitrateInto(skip_bufs, can_send, skip_grants);
        } else {
            skip_grants.clear();
            skip_arb->idleCycle();
            ++idle_cycles;
        }
        full_arb->arbitrateInto(full_bufs, can_send, full_grants);
        sw.arbitrateInto(can_send, sw_grants);

        ASSERT_EQ(skip_grants.size(), full_grants.size())
            << "cycle " << cycle;
        ASSERT_EQ(sw_grants.size(), full_grants.size())
            << "cycle " << cycle;
        for (std::size_t g = 0; g < full_grants.size(); ++g) {
            for (const GrantList *other : {&skip_grants, &sw_grants}) {
                ASSERT_EQ((*other)[g].input, full_grants[g].input)
                    << "cycle " << cycle;
                ASSERT_EQ((*other)[g].queue(), full_grants[g].queue())
                    << "cycle " << cycle;
            }
        }
        if (probe_next) {
            ASSERT_FALSE(full_grants.empty());
            probe_next = false;
        }
        if (policy == ArbitrationPolicy::Smart) {
            const auto &a = static_cast<const SmartArbiter &>(*skip_arb);
            const auto &b = static_cast<const SmartArbiter &>(*full_arb);
            for (PortId in = 0; in < kPorts; ++in) {
                for (std::uint32_t q = 0; q < layout.numQueues(); ++q) {
                    const QueueKey key = layout.unflatten(q);
                    ASSERT_EQ(a.staleCount(in, key),
                              b.staleCount(in, key))
                        << "cycle " << cycle << " in " << in
                        << " queue " << q;
                }
            }
        }
        for (const ArbiterStats *st :
             {&skip_arb->stats(), &sw.arbiterStats()}) {
            ASSERT_EQ(st->arbitrations, full_arb->stats().arbitrations);
            ASSERT_EQ(st->grantsIssued, full_arb->stats().grantsIssued);
            ASSERT_EQ(st->staleOverrides,
                      full_arb->stats().staleOverrides);
        }
        for (const Grant &g : full_grants)
            pop_all(g.input, g.queue());
    }
    // The sequence must actually exercise both paths.
    EXPECT_GT(idle_cycles, 100);
    EXPECT_GT(full_arb->stats().grantsIssued, 500u);
    if (policy == ArbitrationPolicy::Smart) {
        EXPECT_GT(full_arb->stats().staleOverrides, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesVcsOrganizations, IdleSkipExactness,
    ::testing::Combine(::testing::Values(ArbitrationPolicy::Dumb,
                                         ArbitrationPolicy::Smart),
                       ::testing::Values(VcId{1}, VcId{2}),
                       ::testing::Values(BufferType::Damq,
                                         BufferType::Safc)),
    [](const ::testing::TestParamInfo<SkipParam> &info) {
        return std::string(
                   arbitrationPolicyName(std::get<0>(info.param))) +
               "_vc" + std::to_string(std::get<1>(info.param)) + "_" +
               bufferTypeName(std::get<2>(info.param));
    });

TEST(SmartArbiter, IdleCycleClearsStaleCountsLeftByRemoval)
{
    ArbiterFixture fx(BufferType::Damq);
    SmartArbiter arb(4, 4, 2);
    fx.buf(0).push(makePacket(1, 1));
    auto blocked = [](PortId, QueueKey, const Packet &) {
        return false;
    };
    arb.arbitrate(fx.buffers, blocked);
    arb.arbitrate(fx.buffers, blocked);
    EXPECT_EQ(arb.staleCount(0, 1), 2u);
    fx.buf(0).pop(1); // re-homed: emptied outside arbitration
    arb.idleCycle();
    EXPECT_EQ(arb.staleCount(0, 1), 0u);
    EXPECT_EQ(arb.stats().arbitrations, 3u);
    EXPECT_EQ(arb.stats().grantsIssued, 0u);
}

TEST(ArbiterFactory, ProducesRequestedPolicies)
{
    EXPECT_EQ(makeArbiter(ArbitrationPolicy::Dumb, 4, 4)->policy(),
              ArbitrationPolicy::Dumb);
    EXPECT_EQ(makeArbiter(ArbitrationPolicy::Smart, 4, 4)->policy(),
              ArbitrationPolicy::Smart);
    EXPECT_EQ(tryArbitrationPolicyFromString("smart"),
              ArbitrationPolicy::Smart);
    EXPECT_EQ(tryArbitrationPolicyFromString("DUMB"),
              ArbitrationPolicy::Dumb);
}

TEST(ArbiterReset, ClearsFairnessState)
{
    ArbiterFixture fx(BufferType::Damq);
    SmartArbiter arb(4, 4, 2);
    fx.buf(0).push(makePacket(1, 1));
    auto blocked = [](PortId, QueueKey, const Packet &) {
        return false;
    };
    arb.arbitrate(fx.buffers, blocked);
    EXPECT_GT(arb.staleCount(0, 1), 0u);
    arb.reset();
    EXPECT_EQ(arb.staleCount(0, 1), 0u);
}

} // namespace
} // namespace damq
