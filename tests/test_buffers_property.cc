/**
 * @file
 * Property tests: the linked-list DamqBuffer must be operation-for-
 * operation equivalent to the simple ReferenceMultiQueue oracle
 * under long random operation streams, while its hardware-style
 * invariants (slot conservation, list integrity) hold continuously.
 * Every organization's ready-queue mask must equal
 * `peek() != nullptr` after each random push/pop/flit step.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>

#include "common/random.hh"
#include "queueing/buffer_factory.hh"
#include "queueing/damq_buffer.hh"
#include "queueing/reference_multi_queue.hh"

namespace damq {
namespace {

struct Config
{
    std::uint64_t seed;
    PortId outputs;
    std::uint32_t slots;
    std::uint32_t maxLen;
};

class DamqVsOracle : public ::testing::TestWithParam<Config>
{
};

TEST_P(DamqVsOracle, EquivalentUnderRandomOperations)
{
    const Config cfg = GetParam();
    DamqBuffer damq(cfg.outputs, cfg.slots);
    ReferenceMultiQueue oracle(cfg.outputs, cfg.slots);
    Random rng(cfg.seed);

    PacketId next_id = 0;
    for (int step = 0; step < 5000; ++step) {
        const int op = static_cast<int>(rng.below(100));
        if (op < 55) {
            // Push a random packet.
            Packet p;
            p.id = next_id++;
            p.outPort = static_cast<PortId>(rng.below(cfg.outputs));
            p.lengthSlots =
                1 + static_cast<std::uint32_t>(rng.below(cfg.maxLen));
            const bool damq_ok = damq.canAccept(p.outPort,
                                                p.lengthSlots);
            const bool oracle_ok = oracle.canAccept(p.outPort,
                                                    p.lengthSlots);
            ASSERT_EQ(damq_ok, oracle_ok)
                << "admission disagreement at step " << step;
            if (damq_ok) {
                damq.push(p);
                oracle.push(p);
            }
        } else if (op < 95) {
            // Pop from a random non-empty queue.
            const PortId out =
                static_cast<PortId>(rng.below(cfg.outputs));
            const Packet *dh = damq.peek(out);
            const Packet *oh = oracle.peek(out);
            ASSERT_EQ(dh == nullptr, oh == nullptr)
                << "visibility disagreement at step " << step;
            if (dh) {
                ASSERT_EQ(dh->id, oh->id);
                const Packet dp = damq.pop(out);
                const Packet op2 = oracle.pop(out);
                ASSERT_EQ(dp.id, op2.id);
                ASSERT_EQ(dp.lengthSlots, op2.lengthSlots);
            }
        } else {
            // Occasionally clear both.
            damq.clear();
            oracle.clear();
        }

        // Continuous structural checks.
        damq.debugValidate();
        ASSERT_EQ(damq.totalPackets(), oracle.totalPackets());
        ASSERT_EQ(damq.usedSlots(), oracle.usedSlots());
        for (PortId out = 0; out < cfg.outputs; ++out) {
            ASSERT_EQ(damq.queueLength(out), oracle.queueLength(out));
            const Packet *dh = damq.peek(out);
            const Packet *oh = oracle.peek(out);
            ASSERT_EQ(dh == nullptr, oh == nullptr);
            if (dh) {
                ASSERT_EQ(dh->id, oh->id);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DamqVsOracle,
    ::testing::Values(Config{1, 4, 4, 1},   // the paper's geometry
                      Config{2, 4, 4, 1},
                      Config{3, 4, 8, 1},
                      Config{4, 2, 3, 1},   // odd capacity
                      Config{5, 4, 12, 4},  // ComCoBB: 12 slots, 4-slot pkts
                      Config{6, 8, 16, 2},  // wide switch
                      Config{7, 3, 5, 3},
                      Config{8, 5, 20, 4},
                      Config{9, 2, 2, 1},   // minimal
                      Config{10, 6, 24, 4}),
    [](const ::testing::TestParamInfo<Config> &info) {
        const Config &c = info.param;
        return "seed" + std::to_string(c.seed) + "_q" +
               std::to_string(c.outputs) + "_s" +
               std::to_string(c.slots) + "_l" +
               std::to_string(c.maxLen);
    });

/** Assert @p buf's ready mask matches peek() queue by queue. */
void
expectMaskMatchesPeek(const BufferModel &buf, int step)
{
    std::uint32_t ready = 0;
    for (std::uint32_t q = 0; q < buf.numQueues(); ++q) {
        const QueueKey key = buf.layout().unflatten(q);
        const bool head = buf.peek(key) != nullptr;
        ASSERT_EQ(buf.queueReady(key), head)
            << buf.name() << " queue " << q << " at step " << step;
        // The Smart arbiter ages exactly the ready queues, so the
        // length weight must agree with readiness too.
        ASSERT_EQ(buf.queueLength(key) > 0, head)
            << buf.name() << " queue " << q << " at step " << step;
        ready += head ? 1 : 0;
    }
    ASSERT_EQ(buf.anyReady(), ready > 0) << "step " << step;
    ASSERT_EQ(buf.anyReady(), !buf.empty()) << "step " << step;
    // Bits past the last queue stay clear.
    const std::uint32_t tail = buf.numQueues() % 64;
    if (tail != 0) {
        ASSERT_EQ(buf.readyMask()[buf.readyMaskWords() - 1] >> tail,
                  0u);
    }
}

/** Organization x VCs x outputs (80 queues span two mask words). */
using MaskParam = std::tuple<BufferType, VcId, PortId>;

class ReadyMaskProperty : public ::testing::TestWithParam<MaskParam>
{
};

TEST_P(ReadyMaskProperty, MatchesPeekUnderPushPopFlitSteps)
{
    const auto [type, vcs, outputs] = GetParam();
    const QueueLayout layout{outputs, vcs};
    const std::uint32_t slots = 3 * layout.numQueues();
    std::unique_ptr<BufferModel> buf =
        type == BufferType::Damq && outputs == 5
            ? std::make_unique<ReferenceMultiQueue>(layout, slots)
            : makeBuffer(type, layout, slots);
    Random rng(31 + static_cast<int>(type) * 7 + vcs + outputs);

    // One feeding link: at most one packet is mid-arrival, and it is
    // the youngest of its queue (and of its FIFO lane).
    QueueKey streaming = kInvalidQueue;
    PacketId next_id = 0;
    for (int step = 0; step < 4000; ++step) {
        const QueueKey key = layout.unflatten(
            static_cast<std::uint32_t>(rng.below(layout.numQueues())));
        const int op = static_cast<int>(rng.below(100));
        if (op < 40) {
            if (streaming.valid()) {
                // The credit loop only sends a flit with room for it.
                if (!buf->canHold(streaming, 1))
                    continue;
                buf->flitArrived(streaming);
                const Packet *young = nullptr;
                buf->forEachInQueue(streaming, [&young](const Packet &p) {
                    young = &p;
                });
                if (young->fullyArrived())
                    streaming = kInvalidQueue;
            } else {
                Packet p;
                p.id = next_id++;
                p.outPort = key.out;
                p.vc = key.vc;
                p.lengthSlots = 1 + static_cast<std::uint32_t>(
                                        rng.below(3));
                // Half the packets arrive flit by flit.
                if (p.lengthSlots > 1 && rng.bernoulli(0.5))
                    p.flitsArrived = 1;
                if (buf->canAccept(key, p.slotsHeld())) {
                    buf->push(p);
                    if (!p.fullyArrived())
                        streaming = key;
                }
            }
        } else if (op < 60) {
            const Packet *head = buf->peek(key);
            if (head && head->flitsSent < head->arrivedFlits() &&
                head->flitsSent + 1 < head->lengthSlots)
                buf->flitSent(key);
        } else if (op < 98) {
            const Packet *head = buf->peek(key);
            if (head && head->fullyArrived())
                buf->pop(key);
        } else {
            buf->clear();
            streaming = kInvalidQueue;
        }
        expectMaskMatchesPeek(*buf, step);
        if (HasFatalFailure())
            return;
        if (step % 97 == 0)
            buf->debugValidate();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrganizations, ReadyMaskProperty,
    ::testing::Combine(
        ::testing::Values(BufferType::Fifo, BufferType::Samq,
                          BufferType::Safc, BufferType::Damq,
                          BufferType::DamqR, BufferType::Voq),
        ::testing::Values(VcId{1}, VcId{2}),
        ::testing::Values(PortId{4}, PortId{5}, PortId{40})),
    [](const ::testing::TestParamInfo<MaskParam> &info) {
        const BufferType type = std::get<0>(info.param);
        const PortId outputs = std::get<2>(info.param);
        // At five outputs the DAMQ slot runs the oracle instead.
        const std::string name =
            type == BufferType::Damq && outputs == 5
                ? "Reference"
                : bufferTypeName(type);
        return name + "_vc" + std::to_string(std::get<1>(info.param)) +
               "_q" + std::to_string(outputs);
    });

TEST(DamqFreeListOrder, SlotsRecycleFifo)
{
    // The free list is a queue (slots return to its tail), so a
    // buffer cycling one packet forever must rotate through all
    // slots rather than hammering one — matching the hardware and
    // keeping wear uniform.  Observe via snapshot stability.
    DamqBuffer buf(2, 4);
    Packet p;
    p.id = 1;
    p.outPort = 0;
    p.lengthSlots = 1;
    for (int i = 0; i < 16; ++i) {
        buf.push(p);
        buf.pop(0);
        buf.debugValidate();
    }
    EXPECT_EQ(buf.freeSlotCount(), 4u);
}

TEST(DamqStress, FullDrainCyclesAtEveryCapacity)
{
    for (std::uint32_t slots = 1; slots <= 24; ++slots) {
        DamqBuffer buf(4, slots);
        // Fill completely with 1-slot packets round-robin.
        PacketId id = 0;
        while (buf.canAccept(id % 4, 1)) {
            Packet p;
            p.id = id;
            p.outPort = static_cast<PortId>(id % 4);
            buf.push(p);
            ++id;
        }
        EXPECT_EQ(buf.usedSlots(), slots);
        buf.debugValidate();
        // Drain everything.
        for (PortId out = 0; out < 4; ++out) {
            while (buf.peek(out))
                buf.pop(out);
        }
        EXPECT_TRUE(buf.empty());
        EXPECT_EQ(buf.freeSlotCount(), slots);
        buf.debugValidate();
    }
}

} // namespace
} // namespace damq
