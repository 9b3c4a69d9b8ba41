/**
 * @file
 * The admission-policy layer: equivalence of the extracted
 * StaticAdmission policy with the organizations' historical
 * admission rules (restated here as independent oracles), the
 * dynamic sharing policies (dynamic threshold, delay-driven, class
 * QoS), the VOQ organization, and the sharded bit-identity of every
 * policy through the synchronized torus engine.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/arg_parser.hh"
#include "network/fabric_sim.hh"
#include "queueing/buffer_factory.hh"
#include "queueing/voq_buffer.hh"
#include "runner/sim_flags.hh"

namespace damq {
namespace {

Packet
makePacket(PacketId id, PortId out, VcId vc = 0,
           std::uint32_t len = 1, std::uint8_t cls = 0)
{
    Packet p;
    p.id = id;
    p.source = 0;
    p.dest = 0;
    p.outPort = out;
    p.vc = vc;
    p.lengthSlots = len;
    p.trafficClass = cls;
    return p;
}

// ------------------------------------- old-rule equivalence oracles

/**
 * The pre-refactor admission rules, restated from first principles
 * against the buffer's public accessors (all packets here are one
 * slot, so queueLength() counts slots).  Any divergence between
 * these and the policy-layer canAccept() is a behavior change.
 */
bool
oldRuleAccepts(const BufferModel &buf, QueueKey key,
               std::uint32_t len, std::uint32_t voq_private)
{
    const std::uint32_t free =
        buf.capacitySlots() - buf.usedSlots();
    switch (buf.type()) {
      case BufferType::Fifo:
      case BufferType::Damq: {
        // Shared pool minus the escape-slot debt: one free slot per
        // *empty foreign VC* keeps the dateline escape VC enterable.
        std::uint32_t owed = 0;
        for (VcId vc = 0; vc < buf.numVcs(); ++vc)
            if (vc != key.vc && buf.vcPackets(vc) == 0)
                ++owed;
        return free >= len + owed;
      }
      case BufferType::Samq:
      case BufferType::Safc: {
        // Static partition: only the target queue's share counts.
        const std::uint32_t per_queue =
            buf.capacitySlots() / buf.numQueues();
        return buf.queueLength(key) + len <= per_queue;
      }
      case BufferType::DamqR: {
        // One slot stays reserved for every *other* empty queue.
        std::uint32_t others_empty = 0;
        for (PortId out = 0; out < buf.numOutputs(); ++out)
            for (VcId vc = 0; vc < buf.numVcs(); ++vc) {
                const QueueKey q{out, vc};
                if (!(q == key) && buf.queueLength(q) == 0)
                    ++others_empty;
            }
        return free >= len + others_empty;
      }
      case BufferType::Voq: {
        // Every other queue keeps a claim on the remainder of its
        // private allocation.
        std::uint32_t deficit = 0;
        for (PortId out = 0; out < buf.numOutputs(); ++out)
            for (VcId vc = 0; vc < buf.numVcs(); ++vc) {
                const QueueKey q{out, vc};
                if (q == key)
                    continue;
                const std::uint32_t held = buf.queueLength(q);
                if (held < voq_private)
                    deficit += voq_private - held;
            }
        return free >= len + deficit;
      }
    }
    ADD_FAILURE() << "unknown buffer type";
    return false;
}

/** Deterministic xorshift32 so the op script never changes. */
std::uint32_t
nextRand(std::uint32_t &state)
{
    state ^= state << 13;
    state ^= state >> 17;
    state ^= state << 5;
    return state;
}

/**
 * Drive one buffer through a deterministic push/pop script and
 * check, before every operation, that canAccept() over *every*
 * queue and both candidate lengths agrees with the old rule.
 */
void
exerciseEquivalence(BufferType type, VcId vcs,
                    std::uint32_t voq_private = 1)
{
    SCOPED_TRACE(std::string(bufferTypeName(type)) + " vcs=" +
                 std::to_string(vcs));
    const PortId outputs = 4;
    const std::uint32_t capacity = 8 * vcs;
    SharingPolicyConfig sharing;
    sharing.voqPrivateSlots = voq_private;
    const auto buf = makeBuffer(type, QueueLayout{outputs, vcs},
                                capacity, sharing);
    std::uint32_t rng = 12345;
    PacketId next_id = 1;
    for (int step = 0; step < 400; ++step) {
        for (PortId out = 0; out < outputs; ++out)
            for (VcId vc = 0; vc < vcs; ++vc)
                for (std::uint32_t len = 1; len <= 2; ++len) {
                    const QueueKey key{out, vc};
                    EXPECT_EQ(buf->canAccept(key, len),
                              oldRuleAccepts(*buf, key, len,
                                             voq_private))
                        << "step " << step << " queue " << out
                        << ".vc" << vc << " len " << len;
                }
        const QueueKey key{
            static_cast<PortId>(nextRand(rng) % outputs),
            static_cast<VcId>(nextRand(rng) % vcs)};
        const bool want_push = nextRand(rng) % 3 != 0;
        if (want_push && buf->canAccept(key, 1)) {
            Packet p = makePacket(next_id++, key.out, key.vc);
            buf->push(p);
        } else if (buf->queueLength(key) > 0) {
            buf->pop(key);
        }
        EXPECT_TRUE(buf->checkInvariants().empty());
    }
}

TEST(AdmissionEquivalence, AllOrganizationsSingleVc)
{
    for (const BufferType type :
         {BufferType::Fifo, BufferType::Samq, BufferType::Safc,
          BufferType::Damq, BufferType::DamqR, BufferType::Voq})
        exerciseEquivalence(type, 1);
}

TEST(AdmissionEquivalence, AllOrganizationsTwoVcs)
{
    for (const BufferType type :
         {BufferType::Fifo, BufferType::Samq, BufferType::Safc,
          BufferType::Damq, BufferType::DamqR, BufferType::Voq})
        exerciseEquivalence(type, 2);
}

TEST(AdmissionEquivalence, VoqWithLargerPrivateAllocation)
{
    exerciseEquivalence(BufferType::Voq, 1, 2);
    exerciseEquivalence(BufferType::Voq, 2, 2);
}

TEST(AdmissionEquivalence, ExplicitStaticPolicyChangesNothing)
{
    // Installing the static policy by hand must be the identity.
    const auto plain = makeBuffer(BufferType::Damq, 4, 8);
    EXPECT_EQ(&plain->admissionPolicy(),
              &StaticAdmission::instance());
    EXPECT_STREQ(plain->admissionPolicy().name(), "static");
}

TEST(AdmissionEquivalence, VoqAtOnePrivateSlotMatchesDamqR)
{
    // privateSlots == 1 degenerates to exactly the DAMQR rule: a
    // queue holding any slot has no further claim.
    const auto voq = makeBuffer(BufferType::Voq,
                                QueueLayout{4, 2}, 16);
    const auto damqr = makeBuffer(BufferType::DamqR,
                                  QueueLayout{4, 2}, 16);
    std::uint32_t rng = 777;
    PacketId next_id = 1;
    for (int step = 0; step < 300; ++step) {
        const QueueKey key{static_cast<PortId>(nextRand(rng) % 4),
                           static_cast<VcId>(nextRand(rng) % 2)};
        for (std::uint32_t len = 1; len <= 3; ++len)
            EXPECT_EQ(voq->canAccept(key, len),
                      damqr->canAccept(key, len))
                << "step " << step;
        if (nextRand(rng) % 2 && voq->canAccept(key, 1)) {
            ASSERT_TRUE(damqr->canAccept(key, 1));
            Packet p = makePacket(next_id++, key.out, key.vc);
            voq->push(p);
            damqr->push(p);
        } else if (voq->queueLength(key) > 0) {
            EXPECT_EQ(voq->pop(key).id, damqr->pop(key).id);
        }
    }
}

// ------------------------------------------------ policy unit tests

AdmissionState
stateOf(std::uint32_t capacity, std::uint32_t pool_free,
        std::uint32_t queue_slots, std::uint32_t guarantee = 0)
{
    AdmissionState st;
    st.capacity = capacity;
    st.poolFree = pool_free;
    st.guaranteeSlots = guarantee;
    st.queueSlots = queue_slots;
    st.queueLength = queue_slots;
    return st;
}

TEST(SharingPolicies, NamesRoundTrip)
{
    EXPECT_EQ(trySharingPolicyFromString("static"),
              SharingPolicy::Static);
    EXPECT_EQ(trySharingPolicyFromString("DT"),
              SharingPolicy::DynamicThreshold);
    EXPECT_EQ(trySharingPolicyFromString("delay"),
              SharingPolicy::DelayDriven);
    EXPECT_EQ(trySharingPolicyFromString("qos"),
              SharingPolicy::ClassQos);
    EXPECT_FALSE(trySharingPolicyFromString("bogus").has_value());
    EXPECT_STREQ(sharingPolicyName(SharingPolicy::DelayDriven),
                 "delay");
}

TEST(SharingPolicies, DynamicThresholdCapsQueueGrowth)
{
    const DynamicThresholdAdmission dt(2.0);
    EXPECT_EQ(dt.alphaFixed(), 2048u);
    // Queue at 4 slots, 16 free: 5 <= 2 * 16 — accept.
    EXPECT_TRUE(dt.admit(stateOf(32, 16, 4), {{0, 0}, 1, 0}).accept);
    // Queue at 20 slots, 4 free: 21 > 2 * 4 — reject even though
    // the pool has room (the hog self-limits).
    EXPECT_FALSE(dt.admit(stateOf(32, 4, 20), {{0, 0}, 1, 0}).accept);
    // Infeasible states reject no matter what alpha says.
    EXPECT_FALSE(dt.admit(stateOf(32, 1, 0, 4), {{0, 0}, 1, 0})
                     .accept);
}

TEST(SharingPolicies, DynamicPoliciesOnlyTightenStatic)
{
    const StaticAdmission &st = StaticAdmission::instance();
    const DynamicThresholdAdmission dt(1024.0);
    const DelayDrivenAdmission delay(1024.0, 1);
    const ClassQosAdmission qos(1);
    for (std::uint32_t free = 0; free < 8; ++free)
        for (std::uint32_t guarantee = 0; guarantee < 4;
             ++guarantee) {
            AdmissionState s = stateOf(8, free, 2, guarantee);
            s.headWaitAge = 1u << 30; // maximum leniency for delay
            const AdmissionRequest rq{{0, 0}, 1, 0};
            if (!st.admit(s, rq).accept) {
                EXPECT_FALSE(dt.admit(s, rq).accept);
                EXPECT_FALSE(delay.admit(s, rq).accept);
                EXPECT_FALSE(qos.admit(s, rq).accept);
            }
        }
}

TEST(SharingPolicies, DelayDrivenLoosensWithHeadAge)
{
    const DelayDrivenAdmission delay(0.25, 64);
    // Queue at 4 slots, 4 free, alpha 1/4: fresh head rejects
    // (5 * 1024 > 256 * 4)...
    AdmissionState fresh = stateOf(8, 4, 4);
    EXPECT_FALSE(delay.admit(fresh, {{0, 0}, 1, 0}).accept);
    // ...but a head that has waited 16 * ageScale cycles earns the
    // full 17x share and gets in.
    AdmissionState aged = fresh;
    aged.headWaitAge = 16 * 64;
    EXPECT_TRUE(delay.admit(aged, {{0, 0}, 1, 0}).accept);
    // Age saturates: an ancient head is no stronger than 17x.
    AdmissionState ancient = fresh;
    ancient.headWaitAge = 1u << 30;
    EXPECT_EQ(delay.admit(ancient, {{0, 0}, 1, 0}).accept,
              delay.admit(aged, {{0, 0}, 1, 0}).accept);
}

TEST(SharingPolicies, ClassQosNestsCaps)
{
    const ClassQosAdmission qos(2);
    // Class 0 of 2 may hold at most half the 8-slot buffer.
    AdmissionState s = stateOf(8, 4, 0);
    s.classSlots = 3;
    EXPECT_TRUE(qos.admit(s, {{0, 0}, 1, 0}).accept);
    s.classSlots = 4;
    EXPECT_FALSE(qos.admit(s, {{0, 0}, 1, 0}).accept);
    // Class 1 (highest) may take the whole buffer.
    EXPECT_TRUE(qos.admit(s, {{0, 0}, 1, 1}).accept);
    // Out-of-range classes clamp to the top class, not crash.
    EXPECT_TRUE(qos.admit(s, {{0, 0}, 1, 7}).accept);
}

TEST(SharingPolicies, DelayDrivenReadsTheAttachedClock)
{
    // Buffer-level check that headWaitAge actually flows from the
    // attached clock through fillAdmissionState to the policy.
    SharingPolicyConfig sharing;
    sharing.kind = SharingPolicy::DelayDriven;
    sharing.dtAlpha = 1.0;
    sharing.delayAgeScale = 64;
    const auto buf =
        makeBuffer(BufferType::Damq, QueueLayout{4, 1}, 8, sharing);
    Cycle clock = 0;
    buf->attachAdmissionClock(&clock);
    for (PacketId id = 1; id <= 4; ++id) {
        Packet p = makePacket(id, 0);
        p.generatedAt = 0;
        ASSERT_TRUE(buf->canAccept(0, 1));
        buf->push(p);
    }
    // Queue 0 holds 4 of 8; alpha 1 rejects growth past the free
    // count while the head is fresh (5 occupied vs 4 free), then
    // accepts once the head has aged 16 * 64 cycles (17x share).
    EXPECT_FALSE(buf->canAccept(0, 1));
    clock = 16 * 64;
    EXPECT_TRUE(buf->canAccept(0, 1));
}

TEST(SharingPolicies, ClassCensusTracksSlots)
{
    const auto buf = makeBuffer(BufferType::Damq, 4, 8);
    buf->push(makePacket(1, 0, 0, 1, 0));
    buf->push(makePacket(2, 1, 0, 1, 1));
    buf->push(makePacket(3, 1, 0, 1, 1));
    EXPECT_EQ(buf->classSlots(0), 1u);
    EXPECT_EQ(buf->classSlots(1), 2u);
    EXPECT_TRUE(buf->checkInvariants().empty());
    buf->pop(1);
    EXPECT_EQ(buf->classSlots(1), 1u);
    buf->clear();
    EXPECT_EQ(buf->classSlots(0), 0u);
    EXPECT_EQ(buf->classSlots(1), 0u);
}

TEST(SharingPolicies, QosBufferSegregatesClasses)
{
    SharingPolicyConfig sharing;
    sharing.kind = SharingPolicy::ClassQos;
    sharing.qosClasses = 2;
    const auto buf =
        makeBuffer(BufferType::Damq, QueueLayout{4, 1}, 8, sharing);
    // Class 0 floods: capped at half the buffer.
    PacketId id = 1;
    while (buf->canAcceptClass(0, 1, 0))
        buf->push(makePacket(id++, 0, 0, 1, 0));
    EXPECT_EQ(buf->classSlots(0), 4u);
    // Class 1 still gets the other half.
    EXPECT_TRUE(buf->canAcceptClass(0, 1, 1));
    while (buf->canAcceptClass(0, 1, 1))
        buf->push(makePacket(id++, 0, 0, 1, 1));
    EXPECT_EQ(buf->usedSlots(), 8u);
    EXPECT_TRUE(buf->checkInvariants().empty());
}

// ----------------------------------------------- VOQ + factory

TEST(VoqBufferTest, FactoryAndNames)
{
    EXPECT_EQ(tryBufferTypeFromString("voq"), BufferType::Voq);
    EXPECT_STREQ(bufferTypeName(BufferType::Voq), "VOQ");
    const auto buf = makeBuffer(BufferType::Voq, 4, 8);
    EXPECT_EQ(buf->type(), BufferType::Voq);
    const auto *voq = dynamic_cast<const VoqBuffer *>(buf.get());
    ASSERT_NE(voq, nullptr);
    EXPECT_EQ(voq->privateSlotsPerQueue(), 1u);
}

TEST(VoqBufferTest, EveryQueueKeepsItsPrivateSlot)
{
    VoqBuffer buf(QueueLayout{4, 1}, 8, 2);
    // Flood queue 0: it may take its 2 private slots plus the
    // 8 - 4*2 = 0 shared ones... with 8 slots and 4 queues x 2
    // private, queue 0 stops at exactly 2.
    PacketId id = 1;
    while (buf.canAccept(0, 1))
        buf.push(makePacket(id++, 0));
    EXPECT_EQ(buf.queueLength(0), 2u);
    // Every other queue can still take its full allocation.
    for (PortId out = 1; out < 4; ++out) {
        EXPECT_TRUE(buf.canAccept(out, 1)) << "output " << out;
        buf.push(makePacket(id++, out));
        buf.push(makePacket(id++, out));
        EXPECT_FALSE(buf.canAccept(out, 1));
    }
    EXPECT_EQ(buf.usedSlots(), 8u);
    EXPECT_TRUE(buf.checkInvariants().empty());
}

TEST(VoqDeathTest, CapacityMustCoverThePrivateAllocation)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT((VoqBuffer{QueueLayout{4, 2}, 7, 1}),
                ::testing::ExitedWithCode(1), "private");
    EXPECT_EXIT((VoqBuffer{QueueLayout{4, 1}, 8, 0}),
                ::testing::ExitedWithCode(1), "private");
}

TEST(VoqDeathTest, PartitionedOrganizationsRejectDynamicPolicies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SharingPolicyConfig sharing;
    sharing.kind = SharingPolicy::DynamicThreshold;
    EXPECT_EXIT(makeBuffer(BufferType::Samq, 4, 8, sharing),
                ::testing::ExitedWithCode(1), "shared buffer pool");
    EXPECT_EXIT(makeBuffer(BufferType::Safc, 4, 8, sharing),
                ::testing::ExitedWithCode(1), "shared buffer pool");
}

// --------------------------------------- sharded engine identity

struct Observed
{
    std::uint64_t delivered = 0;
    std::uint64_t discarded = 0;
    double latencyMean = 0.0;
    double latencyP99 = 0.0;
    std::string snapshot;
};

FabricConfig
torusBase()
{
    FabricConfig cfg = FabricConfig::torus();
    cfg.width = 8;
    cfg.height = 8;
    cfg.offeredLoad = 0.6;
    cfg.common.seed = 99;
    cfg.common.warmupCycles = 200;
    cfg.common.measureCycles = 400;
    return cfg;
}

Observed
runTorus(FabricConfig cfg, std::uint32_t shards)
{
    cfg.common.shards = shards;
    FabricSimulator sim(cfg);
    const core::SyncResult result = sim.run();
    Observed obs;
    obs.delivered = result.window.delivered;
    obs.discarded = result.window.discardedAtEntry +
                    result.window.discardedInternal;
    obs.latencyMean = result.latency.mean();
    obs.latencyP99 = result.latencyP99;
    obs.snapshot = sim.snapshotText();
    return obs;
}

void
expectIdentical(const Observed &a, const Observed &b,
                const char *what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.discarded, b.discarded);
    EXPECT_EQ(a.latencyMean, b.latencyMean);
    EXPECT_EQ(a.latencyP99, b.latencyP99);
    EXPECT_EQ(a.snapshot, b.snapshot);
}

TEST(SharingShardIdentity, VoqTorusIsBitIdenticalAcrossShards)
{
    FabricConfig cfg = torusBase();
    cfg.bufferType = BufferType::Voq;
    const Observed one = runTorus(cfg, 1);
    const Observed two = runTorus(cfg, 2);
    const Observed eight = runTorus(cfg, 8);
    ASSERT_GT(one.delivered, 0u);
    expectIdentical(one, two, "voq torus: 1 vs 2 shards");
    expectIdentical(one, eight, "voq torus: 1 vs 8 shards");
}

TEST(SharingShardIdentity, DynamicThresholdTorusIsBitIdentical)
{
    FabricConfig cfg = torusBase();
    cfg.sharing.kind = SharingPolicy::DynamicThreshold;
    cfg.sharing.dtAlpha = 1.0;
    const Observed one = runTorus(cfg, 1);
    const Observed eight = runTorus(cfg, 8);
    ASSERT_GT(one.delivered, 0u);
    expectIdentical(one, eight, "dt torus: 1 vs 8 shards");
}

TEST(SharingShardIdentity, DelayDrivenTorusIsBitIdentical)
{
    // The delay policy reads the engine clock at admission time;
    // decisions must still be start-of-cycle pure at any shard
    // count.
    FabricConfig cfg = torusBase();
    cfg.sharing.kind = SharingPolicy::DelayDriven;
    cfg.sharing.dtAlpha = 1.0;
    cfg.sharing.delayAgeScale = 32;
    const Observed one = runTorus(cfg, 1);
    const Observed eight = runTorus(cfg, 8);
    ASSERT_GT(one.delivered, 0u);
    expectIdentical(one, eight, "delay torus: 1 vs 8 shards");
}

TEST(SharingShardIdentity, ClassQosTorusIsBitIdentical)
{
    FabricConfig cfg = torusBase();
    cfg.sharing.kind = SharingPolicy::ClassQos;
    cfg.sharing.qosClasses = 2;
    cfg.trafficClasses = 2;
    const Observed one = runTorus(cfg, 1);
    const Observed eight = runTorus(cfg, 8);
    ASSERT_GT(one.delivered, 0u);
    expectIdentical(one, eight, "qos torus: 1 vs 8 shards");
}

TEST(SharingShardIdentity, DefaultStaticConfigIsUnchanged)
{
    // A default-sharing run must equal a run with the sharing
    // struct spelled out explicitly — the refactor's identity
    // guarantee at engine level.
    FabricConfig plain = torusBase();
    FabricConfig spelled = torusBase();
    spelled.sharing.kind = SharingPolicy::Static;
    spelled.trafficClasses = 1;
    expectIdentical(runTorus(plain, 1), runTorus(spelled, 1),
                    "implicit vs explicit static");
}

// ----------------------------------------- CLI flags + aliases

void
parseArgs(ArgParser &args, std::vector<std::string> extra)
{
    std::vector<char *> argv;
    static char prog[] = "test_admission";
    argv.push_back(prog);
    for (std::string &s : extra)
        argv.push_back(s.data());
    args.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(BufferPolicyFlags, DefaultsChangeNothing)
{
    ArgParser args("t", "t");
    addBufferPolicyFlags(args);
    parseArgs(args, {});
    FabricConfig cfg;
    applyBufferPolicyFlags(args, cfg);
    EXPECT_EQ(cfg.bufferType, BufferType::Damq);
    EXPECT_EQ(cfg.sharing.kind, SharingPolicy::Static);
    EXPECT_EQ(cfg.sharing.dtAlpha, 2.0);
    EXPECT_EQ(cfg.trafficClasses, 1u);
}

TEST(BufferPolicyFlags, EveryOptionApplies)
{
    ArgParser args("t", "t");
    addBufferPolicyFlags(args);
    parseArgs(args, {"--buffer-policy", "dt", "--dt-alpha", "0.5",
                     "--voq", "--voq-private", "2", "--classes",
                     "4", "--delay-age-scale", "16"});
    FabricConfig cfg;
    applyBufferPolicyFlags(args, cfg);
    EXPECT_EQ(cfg.bufferType, BufferType::Voq);
    EXPECT_EQ(cfg.sharing.kind, SharingPolicy::DynamicThreshold);
    EXPECT_EQ(cfg.sharing.dtAlpha, 0.5);
    EXPECT_EQ(cfg.sharing.voqPrivateSlots, 2u);
    EXPECT_EQ(cfg.sharing.delayAgeScale, 16u);
    EXPECT_EQ(cfg.sharing.qosClasses, 4u);
    EXPECT_EQ(cfg.trafficClasses, 4u);
}

} // namespace
} // namespace damq
