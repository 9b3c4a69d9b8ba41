/**
 * @file
 * Unit tests for the four buffer organizations: FIFO semantics and
 * head-of-line blocking, SAMQ/SAFC static partitioning, DAMQ
 * dynamic sharing and linked-list bookkeeping.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "queueing/buffer_factory.hh"
#include "queueing/damq_buffer.hh"
#include "queueing/fifo_buffer.hh"
#include "queueing/partitioned_buffer.hh"

namespace damq {
namespace {

Packet
makePacket(PacketId id, PortId out, std::uint32_t len = 1)
{
    Packet p;
    p.id = id;
    p.source = 0;
    p.dest = 0;
    p.outPort = out;
    p.lengthSlots = len;
    return p;
}

TEST(BufferType, NamesRoundTrip)
{
    EXPECT_EQ(tryBufferTypeFromString("fifo"), BufferType::Fifo);
    EXPECT_EQ(tryBufferTypeFromString("DAMQ"), BufferType::Damq);
    EXPECT_EQ(tryBufferTypeFromString("Samq"), BufferType::Samq);
    EXPECT_EQ(tryBufferTypeFromString("safc"), BufferType::Safc);
    EXPECT_STREQ(bufferTypeName(BufferType::Damq), "DAMQ");
}

TEST(Factory, ProducesRightTypes)
{
    EXPECT_EQ(makeBuffer(BufferType::Fifo, 4, 4)->type(),
              BufferType::Fifo);
    EXPECT_EQ(makeBuffer(BufferType::Samq, 4, 4)->type(),
              BufferType::Samq);
    EXPECT_EQ(makeBuffer(BufferType::Safc, 4, 4)->type(),
              BufferType::Safc);
    EXPECT_EQ(makeBuffer(BufferType::Damq, 4, 4)->type(),
              BufferType::Damq);
}

// ---------------------------------------------------------------- FIFO

TEST(FifoBuffer, OnlyHeadOfLineIsVisible)
{
    FifoBuffer buf(4, 4);
    buf.push(makePacket(1, 2));
    buf.push(makePacket(2, 3));

    EXPECT_NE(buf.peek(2), nullptr);
    EXPECT_EQ(buf.peek(2)->id, 1u);
    // Packet 2 for output 3 is hidden behind the head of line.
    EXPECT_EQ(buf.peek(3), nullptr);
    EXPECT_EQ(buf.queueLength(3), 0u);
    EXPECT_EQ(buf.queueLength(2), 2u);
}

TEST(FifoBuffer, PopRestoresVisibility)
{
    FifoBuffer buf(4, 4);
    buf.push(makePacket(1, 2));
    buf.push(makePacket(2, 3));
    EXPECT_EQ(buf.pop(2).id, 1u);
    ASSERT_NE(buf.peek(3), nullptr);
    EXPECT_EQ(buf.peek(3)->id, 2u);
}

TEST(FifoBuffer, SharedPoolAcceptsAnyMix)
{
    FifoBuffer buf(4, 4);
    for (PortId out = 0; out < 4; ++out) {
        EXPECT_TRUE(buf.canAccept(out, 1));
        buf.push(makePacket(out, out));
    }
    EXPECT_EQ(buf.usedSlots(), 4u);
    for (PortId out = 0; out < 4; ++out)
        EXPECT_FALSE(buf.canAccept(out, 1));
}

TEST(FifoBuffer, MultiSlotPacketsCountSlots)
{
    FifoBuffer buf(4, 4);
    buf.push(makePacket(1, 0, 3));
    EXPECT_EQ(buf.usedSlots(), 3u);
    EXPECT_TRUE(buf.canAccept(1, 1));
    EXPECT_FALSE(buf.canAccept(1, 2));
}

TEST(FifoBuffer, ClearEmpties)
{
    FifoBuffer buf(4, 4);
    buf.push(makePacket(1, 0));
    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.usedSlots(), 0u);
    EXPECT_TRUE(buf.canAccept(0, 4));
}

TEST(FifoBuffer, SingleReadPort)
{
    FifoBuffer buf(4, 4);
    EXPECT_EQ(buf.maxReadsPerCycle(), 1u);
}

// ------------------------------------------------------------ SAMQ/SAFC

TEST(SamqBuffer, PartitionsAreStatic)
{
    SamqBuffer buf(4, 8); // 2 slots per output
    EXPECT_EQ(buf.partitionSlots(), 2u);
    buf.push(makePacket(1, 0));
    buf.push(makePacket(2, 0));
    // Partition 0 is full even though 6 slots are empty elsewhere.
    EXPECT_FALSE(buf.canAccept(0, 1));
    EXPECT_TRUE(buf.canAccept(1, 1));
    EXPECT_EQ(buf.usedSlots(), 2u);
}

TEST(SamqBuffer, QueuesAreIndependentFifos)
{
    SamqBuffer buf(2, 4);
    buf.push(makePacket(1, 0));
    buf.push(makePacket(2, 1));
    buf.push(makePacket(3, 0));
    EXPECT_EQ(buf.queueLength(0), 2u);
    EXPECT_EQ(buf.queueLength(1), 1u);
    EXPECT_EQ(buf.pop(0).id, 1u);
    EXPECT_EQ(buf.pop(0).id, 3u);
    EXPECT_EQ(buf.pop(1).id, 2u);
    EXPECT_TRUE(buf.empty());
}

TEST(SamqBuffer, SingleReadPort)
{
    SamqBuffer buf(4, 4);
    EXPECT_EQ(buf.maxReadsPerCycle(), 1u);
}

TEST(SafcBuffer, FullyConnectedReadPorts)
{
    SafcBuffer buf(4, 4);
    EXPECT_EQ(buf.maxReadsPerCycle(), 4u);
    EXPECT_EQ(buf.type(), BufferType::Safc);
}

TEST(SafcBuffer, SharesPartitionRulesWithSamq)
{
    SafcBuffer buf(4, 8);
    buf.push(makePacket(1, 2));
    buf.push(makePacket(2, 2));
    EXPECT_FALSE(buf.canAccept(2, 1));
    EXPECT_TRUE(buf.canAccept(3, 1));
}

// ---------------------------------------------------------------- DAMQ

TEST(DamqBuffer, SharesPoolAcrossQueues)
{
    DamqBuffer buf(4, 4);
    // All four slots can serve a single output...
    for (int i = 0; i < 4; ++i)
        buf.push(makePacket(i, 1));
    EXPECT_EQ(buf.queueLength(1), 4u);
    EXPECT_FALSE(buf.canAccept(0, 1));
    buf.debugValidate();
}

TEST(DamqBuffer, PerOutputFifoOrder)
{
    DamqBuffer buf(4, 6);
    buf.push(makePacket(1, 0));
    buf.push(makePacket(2, 1));
    buf.push(makePacket(3, 0));
    buf.push(makePacket(4, 1));

    EXPECT_EQ(buf.pop(0).id, 1u);
    EXPECT_EQ(buf.pop(1).id, 2u);
    EXPECT_EQ(buf.pop(0).id, 3u);
    EXPECT_EQ(buf.pop(1).id, 4u);
    buf.debugValidate();
}

TEST(DamqBuffer, NoHeadOfLineBlockingAcrossQueues)
{
    DamqBuffer buf(4, 4);
    buf.push(makePacket(1, 0));
    buf.push(makePacket(2, 3));
    // Unlike FIFO, both are simultaneously visible.
    ASSERT_NE(buf.peek(0), nullptr);
    ASSERT_NE(buf.peek(3), nullptr);
    EXPECT_EQ(buf.peek(0)->id, 1u);
    EXPECT_EQ(buf.peek(3)->id, 2u);
}

TEST(DamqBuffer, SlotsRecycleThroughFreeList)
{
    DamqBuffer buf(2, 3);
    for (int round = 0; round < 50; ++round) {
        buf.push(makePacket(round, round % 2));
        EXPECT_EQ(buf.freeSlotCount(), 2u);
        buf.pop(round % 2);
        EXPECT_EQ(buf.freeSlotCount(), 3u);
        buf.debugValidate();
    }
}

TEST(DamqBuffer, MultiSlotPacketsChainCorrectly)
{
    DamqBuffer buf(2, 8);
    buf.push(makePacket(1, 0, 4));
    buf.push(makePacket(2, 0, 2));
    buf.push(makePacket(3, 1, 2));
    EXPECT_EQ(buf.usedSlots(), 8u);
    EXPECT_FALSE(buf.canAccept(0, 1));
    buf.debugValidate();

    EXPECT_EQ(buf.pop(0).id, 1u);
    EXPECT_EQ(buf.freeSlotCount(), 4u);
    buf.debugValidate();
    EXPECT_EQ(buf.pop(0).id, 2u);
    EXPECT_EQ(buf.pop(1).id, 3u);
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.freeSlotCount(), 8u);
    buf.debugValidate();
}

TEST(DamqBuffer, SnapshotMatchesPushOrder)
{
    DamqBuffer buf(3, 6);
    buf.push(makePacket(10, 2));
    buf.push(makePacket(11, 2));
    buf.push(makePacket(12, 0));
    const auto snap = buf.snapshotQueue(2);
    ASSERT_EQ(snap.size(), 2u);
    EXPECT_EQ(snap[0].id, 10u);
    EXPECT_EQ(snap[1].id, 11u);
}

TEST(DamqBuffer, ClearRestoresFreeList)
{
    DamqBuffer buf(4, 4);
    buf.push(makePacket(1, 0, 2));
    buf.push(makePacket(2, 1, 2));
    buf.clear();
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.freeSlotCount(), 4u);
    buf.debugValidate();
    // Usable again after clear.
    buf.push(makePacket(3, 2, 4));
    EXPECT_EQ(buf.queueLength(2), 1u);
    buf.debugValidate();
}

// A parameterized sweep of basic push/pop conservation.
class ConservationTest
    : public ::testing::TestWithParam<std::tuple<BufferType, int>>
{
};

TEST_P(ConservationTest, PushPopConservesEverything)
{
    const auto [type, slots] = GetParam();
    auto buf = makeBuffer(type, 4, slots);
    std::uint64_t pushed = 0;
    std::uint64_t popped = 0;
    for (int round = 0; round < 200; ++round) {
        const PortId out = round % 4;
        if (buf->canAccept(out, 1)) {
            buf->push(makePacket(round, out));
            ++pushed;
        }
        const PortId drain = (round * 7) % 4;
        if (buf->peek(drain)) {
            buf->pop(drain);
            ++popped;
        }
        buf->debugValidate();
        EXPECT_EQ(buf->totalPackets(), pushed - popped);
    }
}

INSTANTIATE_TEST_SUITE_P(
    TypesAndSizes, ConservationTest,
    ::testing::Combine(::testing::Values(BufferType::Fifo,
                                         BufferType::Samq,
                                         BufferType::Safc,
                                         BufferType::Damq),
                       ::testing::Values(4, 8, 16)),
    [](const ::testing::TestParamInfo<std::tuple<BufferType, int>>
           &info) {
        return std::string(bufferTypeName(std::get<0>(info.param))) +
               "_" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace damq
