/**
 * @file
 * Data-structure microbenchmarks (google-benchmark): raw cost of
 * buffer push/pop per organization, DAMQ's linked-list traffic,
 * crossbar arbitration (a churning 4-port switch, and the bare
 * arbitrate primitive on a torus-router-shaped 5-port 2-VC switch
 * that is empty, has one busy queue, or is saturated), one
 * Omega-network cycle, and a small Markov solve.  These quantify the implementation-complexity
 * trade-offs Section 2 discusses qualitatively.
 *
 * Unless the caller passes its own --benchmark_out, results are
 * also written to BENCH_micro_buffers.json in the working
 * directory (google-benchmark's JSON format), giving the repo a
 * saved machine-readable throughput baseline to compare hot-path
 * changes against.
 */

#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "common/random.hh"
#include "markov/switch2x2.hh"
#include "network/fabric_sim.hh"
#include "queueing/buffer_factory.hh"
#include "switchsim/switch_model.hh"

namespace {

using namespace damq;

Packet
makePacket(PacketId id, PortId out)
{
    Packet p;
    p.id = id;
    p.outPort = out;
    p.lengthSlots = 1;
    return p;
}

void
BM_BufferPushPop(benchmark::State &state)
{
    const auto type = static_cast<BufferType>(state.range(0));
    auto buf = makeBuffer(type, 4, 8);
    PacketId id = 0;
    for (auto _ : state) {
        const PortId out = static_cast<PortId>(id % 4);
        if (buf->canAccept(out, 1))
            buf->push(makePacket(id, out));
        if (const Packet *head = buf->peek(out))
            benchmark::DoNotOptimize(buf->pop(head->outPort));
        ++id;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_DamqMultiSlotChurn(benchmark::State &state)
{
    auto buf = makeBuffer(BufferType::Damq, 4, 16);
    PacketId id = 0;
    for (auto _ : state) {
        const PortId out = static_cast<PortId>(id % 4);
        const std::uint32_t len = 1 + id % 4;
        if (buf->canAccept(out, len)) {
            Packet p = makePacket(id, out);
            p.lengthSlots = len;
            buf->push(p);
        }
        if (buf->peek(out))
            benchmark::DoNotOptimize(buf->pop(out));
        ++id;
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_Arbitrate(benchmark::State &state)
{
    const auto policy =
        static_cast<ArbitrationPolicy>(state.range(0));
    SwitchModel sw(4, BufferType::Damq, 8, policy);
    Random rng(5);
    // Preload a busy switch.
    for (int i = 0; i < 24; ++i) {
        sw.tryReceive(static_cast<PortId>(rng.below(4)),
                      makePacket(i, static_cast<PortId>(rng.below(4))));
    }
    auto always = [](PortId, QueueKey, const Packet &) { return true; };
    PacketId id = 100;
    for (auto _ : state) {
        const GrantList grants = sw.arbitrate(always);
        const auto popped = sw.popGranted(grants);
        benchmark::DoNotOptimize(popped.data());
        for (const Packet &p : popped) {
            Packet back = p;
            back.id = id++;
            sw.tryReceive(static_cast<PortId>(id % 4), back);
        }
    }
    state.SetItemsProcessed(state.iterations());
}

/** Occupancy of the BM_ArbitratePrimitive switch. */
enum class Occupancy
{
    Empty,    ///< every buffer empty: the idle-switch skip
    OneBusy,  ///< one queue of one input holds a packet
    Saturated ///< every queue of every input holds packets
};

void
BM_ArbitratePrimitive(benchmark::State &state)
{
    const auto policy =
        static_cast<ArbitrationPolicy>(state.range(0));
    const auto occupancy = static_cast<Occupancy>(state.range(1));
    constexpr PortId kPorts = 5;
    constexpr VcId kVcs = 2;
    // Two slots per (output, VC) queue, the torus router's shape.
    SwitchModel sw(kPorts, BufferType::Damq, 2 * kPorts * kVcs, policy,
                   8, kVcs);
    PacketId id = 0;
    const auto fill = [&](PortId in, PortId out, VcId vc) {
        Packet p = makePacket(id++, out);
        p.vc = vc;
        sw.tryReceive(in, p);
    };
    if (occupancy == Occupancy::OneBusy)
        fill(0, 2, 1);
    if (occupancy == Occupancy::Saturated) {
        for (PortId in = 0; in < kPorts; ++in)
            for (PortId out = 0; out < kPorts; ++out)
                for (VcId vc = 0; vc < kVcs; ++vc)
                    fill(in, out, vc);
    }
    auto always = [](PortId, QueueKey, const Packet &) { return true; };
    // Arbitrate without popping: buffers stay put, so every
    // iteration times the same schedule computation.
    GrantList grants;
    grants.reserve(kPorts);
    for (auto _ : state) {
        sw.arbitrateInto(always, grants);
        benchmark::DoNotOptimize(grants.data());
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_NetworkCycle(benchmark::State &state)
{
    const auto type = static_cast<BufferType>(state.range(0));
    FabricConfig cfg;
    cfg.bufferType = type;
    cfg.offeredLoad = 0.5;
    cfg.common.seed = 9;
    FabricSimulator sim(cfg);
    for (Cycle c = 0; c < 500; ++c)
        sim.step(); // warm the network
    for (auto _ : state)
        sim.step();
    state.SetItemsProcessed(state.iterations() * 64);
    state.SetLabel("items = packets offered per 64-source cycle");
}

void
BM_MarkovSolve(benchmark::State &state)
{
    const auto slots = static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        const auto result =
            analyzeDiscarding2x2(BufferType::Damq, slots, 0.9);
        benchmark::DoNotOptimize(result.discardProbability);
    }
}

} // namespace

BENCHMARK(BM_BufferPushPop)
    ->Arg(static_cast<int>(BufferType::Fifo))
    ->Arg(static_cast<int>(BufferType::Samq))
    ->Arg(static_cast<int>(BufferType::Safc))
    ->Arg(static_cast<int>(BufferType::Damq))
    ->ArgName("type");
BENCHMARK(BM_DamqMultiSlotChurn);
BENCHMARK(BM_Arbitrate)
    ->Arg(static_cast<int>(ArbitrationPolicy::Dumb))
    ->Arg(static_cast<int>(ArbitrationPolicy::Smart))
    ->ArgName("policy");
BENCHMARK(BM_ArbitratePrimitive)
    ->ArgsProduct({{static_cast<int>(ArbitrationPolicy::Dumb),
                    static_cast<int>(ArbitrationPolicy::Smart)},
                   {static_cast<int>(Occupancy::Empty),
                    static_cast<int>(Occupancy::OneBusy),
                    static_cast<int>(Occupancy::Saturated)}})
    ->ArgNames({"policy", "occupancy"});
BENCHMARK(BM_NetworkCycle)
    ->Arg(static_cast<int>(BufferType::Fifo))
    ->Arg(static_cast<int>(BufferType::Damq))
    ->ArgName("type");
BENCHMARK(BM_MarkovSolve)->Arg(2)->Arg(4)->ArgName("slots");

int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    bool has_out = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--benchmark_out",
                         std::strlen("--benchmark_out")) == 0)
            has_out = true;
    }
    // Mutable storage: google-benchmark expects argv-style char*.
    std::string out_flag = "--benchmark_out=BENCH_micro_buffers.json";
    std::string format_flag = "--benchmark_out_format=json";
    if (!has_out) {
        args.push_back(out_flag.data());
        args.push_back(format_flag.data());
    }
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
