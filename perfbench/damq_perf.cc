/**
 * @file
 * The repository benchmark: host throughput of the synchronized
 * engine (core::SyncEngine) on three fabrics, driven from outside
 * through public entry points only — the Omega and torus front-ends,
 * SyncEngine::step()/drain()/switchUnit()/lifetime counters, and the
 * standalone BufferModel, SwitchModel and TrafficSource layers.
 *
 * One *point* builds a simulator, steps it through a fixed warmup and
 * measure window, drains it, and checks every correctness gate.  The
 * untraced run (--trace 0) runs 1-shard and 2-shard points for
 * --seconds seconds and reports the end-to-end metrics.  The traced
 * run (--trace 1) repeats a round of differently armed points (spans
 * and probes, 2 shards, watchdog off, audit every 32 cycles, metrics
 * on) and replays the buffer, switch and traffic layers from
 * occupancy snapshots captured in the live run; it reports the
 * per-layer metrics.  Simulated statistics form a fingerprint that
 * must be bit-identical across every point of a run, across shard
 * counts, and (for the default seed) equal to the committed
 * reference.  See README.md for the workloads and predictions.
 */

#include <dirent.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json_writer.hh"
#include "common/random.hh"
#include "network/core/traffic_source.hh"
#include "network/network_sim.hh"
#include "network/torus_sim.hh"
#include "queueing/buffer_factory.hh"
#include "switchsim/switch_model.hh"

namespace {

using namespace damq;
using Clock = std::chrono::steady_clock;
using core::SwitchId;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) ||     \
    defined(DAMQ_PERF_SANITIZED)
constexpr const char *kUntrustedBuild = "sanitizer";
#elif !defined(__OPTIMIZE__)
constexpr const char *kUntrustedBuild = "unoptimized";
#else
constexpr const char *kUntrustedBuild = nullptr;
#endif

/** Seed whose fingerprints are committed in reference.txt. */
constexpr std::uint64_t kDefaultSeed = 1;
constexpr Cycle kAuditEvery = 256;
constexpr Cycle kWatchdogStall = 1000;
constexpr Cycle kMetricsEvery = 64;
/** Audit period of the traced run's audit-cost point. */
constexpr Cycle kAuditEveryTraced = 32;

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile @p q in [0, 1]. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        q * static_cast<double>(v.size() - 1) + 0.5);
    return v[std::min(rank, v.size() - 1)];
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// --- workloads ------------------------------------------------------

/** Per-point knobs that must not change simulated results. */
struct Arming
{
    std::uint32_t shards = 1;
    bool watchdog = true;
    Cycle auditEvery = kAuditEvery;
    Cycle metricsEvery = 0;
};

SimCommonConfig
commonFor(std::uint64_t seed, const Arming &arm)
{
    SimCommonConfig c;
    c.seed = seed;
    c.auditEveryCycles = arm.auditEvery;
    c.watchdogStallCycles = arm.watchdog ? kWatchdogStall : 0;
    c.shards = arm.shards;
    c.telemetry.metricsEvery = arm.metricsEvery;
    return c;
}

NetworkConfig
omegaSat(std::uint64_t seed, const Arming &arm)
{
    NetworkConfig cfg;
    cfg.numPorts = 256; // 4 stages x 64 radix-4 switches; see Workload
    cfg.radix = 4;
    cfg.bufferType = BufferType::Damq;
    cfg.slotsPerBuffer = 4;
    cfg.protocol = FlowControl::Discarding;
    cfg.arbitration = ArbitrationPolicy::Smart;
    cfg.traffic = "uniform";
    cfg.offeredLoad = 1.0;
    cfg.common = commonFor(seed, arm);
    return cfg;
}

TorusConfig
torusSparse(std::uint64_t seed, const Arming &arm)
{
    TorusConfig cfg; // blocking, smart arbitration
    cfg.width = 16;
    cfg.height = 16;
    cfg.bufferType = BufferType::Damq;
    cfg.slotsPerBuffer = 10;
    cfg.traffic = "uniform";
    cfg.offeredLoad = 0.01;
    cfg.common = commonFor(seed, arm);
    cfg.common.vcs = 2; // dateline VCs
    return cfg;
}

TorusConfig
torusVctReqReply(std::uint64_t seed, const Arming &arm)
{
    TorusConfig cfg;
    cfg.width = 8; // README.md: why 8x8, and the trips at 16x16 and 32x32
    cfg.height = 8;
    cfg.switching = Switching::VirtualCutThrough;
    cfg.flitsPerPacket = 4;
    cfg.bufferType = BufferType::Voq;
    // 5 ports x 2 VCs = 10 queues, two packets' worth of flits each.
    cfg.slotsPerBuffer = 80;
    cfg.sharing.kind = SharingPolicy::DelayDriven;
    cfg.sharing.dtAlpha = 2.0;
    cfg.sharing.delayAgeScale = 64;
    cfg.traffic = "hotspot";
    cfg.hotSpotFraction = 0.05;
    cfg.offeredLoad = 0.1;
    cfg.common = commonFor(seed, arm);
    cfg.common.vcs = 2;
    cfg.common.workload.kind = core::WorkloadKind::ReqReply;
    cfg.common.workload.replyWindow = 4;
    return cfg;
}

/**
 * One benchmark workload; README.md records why each was chosen.  Each
 * fabric is sized so that a 1-shard simulator fits the private caches
 * of one core: on a shared host, a fabric that spills into the shared
 * last-level cache ran up to three times slower for minutes at a time
 * while other tenants used it.
 */
struct Workload
{
    const char *name;
    const char *fabric; ///< topology, echoed in the manifest
    Cycle warmup;       ///< warmup + measure >= kAuditEvery
    Cycle measure;      ///< host-timed window
    Cycle drainBudget;
    NetworkConfig (*omega)(std::uint64_t, const Arming &); ///< or null
    TorusConfig (*torus)(std::uint64_t, const Arming &);   ///< or null
};

const Workload kWorkloads[] = {
    {"omega-sat", "omega 256 endpoints radix 4", 64, 960, 500, omegaSat,
     nullptr},
    {"torus-sparse", "torus 16x16", 128, 896, 2000, nullptr, torusSparse},
    {"torus-vct-reqreply", "torus 8x8", 512, 1024, 4000, nullptr,
     torusVctReqReply},
};

/** What the layer replays and the manifest read from a config. */
struct LayerConfig
{
    BufferType buffer;
    QueueLayout queues;
    std::uint32_t slots;
    SharingPolicyConfig sharing;
    ArbitrationPolicy arbitration;
    FlowControl protocol;
    Switching switching;
    std::uint32_t packetSlots; ///< slots one whole packet occupies
    std::uint32_t nodes;
    std::string traffic;
    double hotSpot;
    double load;
    core::WorkloadConfig workload;
};

template <typename Config>
LayerConfig
layersFrom(const Config &c, PortId ports, std::uint32_t nodes)
{
    const bool flits = c.switching != Switching::PacketSync;
    return {c.bufferType,   QueueLayout(ports, c.common.vcs),
            c.slotsPerBuffer, c.sharing,
            c.arbitration,  c.protocol,
            c.switching,    flits ? c.flitsPerPacket : 1,
            nodes,          c.traffic,
            c.hotSpotFraction, c.offeredLoad,
            c.common.workload};
}

LayerConfig
layersOf(const Workload &w, std::uint64_t seed)
{
    if (w.omega) {
        const NetworkConfig c = w.omega(seed, Arming{});
        return layersFrom(c, c.radix, c.numPorts);
    }
    const TorusConfig c = w.torus(seed, Arming{});
    return layersFrom(c, 5, c.width * c.height); // 4 ring links + local
}

/** A constructed front-end simulator of either fabric. */
class Fabric
{
  public:
    Fabric(const Workload &w, std::uint64_t seed, const Arming &arm)
    {
        if (w.omega)
            omega = std::make_unique<NetworkSimulator>(w.omega(seed, arm));
        else
            torus = std::make_unique<TorusSimulator>(w.torus(seed, arm));
    }

    core::SyncEngine &engine()
    {
        return omega ? omega->syncEngine() : torus->syncEngine();
    }

  private:
    std::unique_ptr<NetworkSimulator> omega;
    std::unique_ptr<TorusSimulator> torus;
};

/** The workload's configuration, echoed into the run manifest. */
std::string
describe(const Workload &w)
{
    const LayerConfig l = layersOf(w, kDefaultSeed);
    std::ostringstream s;
    s << w.fabric << " buffer=" << bufferTypeName(l.buffer)
      << " slots=" << l.slots << " vcs=" << l.queues.vcs
      << " protocol=" << flowControlName(l.protocol)
      << " switching=" << switchingName(l.switching)
      << " packet_slots=" << l.packetSlots
      << " arbitration=" << arbitrationPolicyName(l.arbitration)
      << " sharing=" << sharingPolicyName(l.sharing.kind);
    if (l.sharing.kind != SharingPolicy::Static)
        s << " alpha=" << l.sharing.dtAlpha
          << " age_scale=" << l.sharing.delayAgeScale;
    s << " traffic=" << l.traffic;
    if (l.traffic == "hotspot")
        s << " hotspot=" << l.hotSpot;
    s << " load=" << l.load
      << " workload=" << core::workloadKindName(l.workload.kind);
    if (l.workload.kind == core::WorkloadKind::ReqReply)
        s << " window=" << l.workload.replyWindow;
    s << " warmup=" << w.warmup << " measure=" << w.measure
      << " audit_every=" << kAuditEvery
      << " watchdog=" << kWatchdogStall;
    return s.str();
}

// --- CPU rotation ---------------------------------------------------

/**
 * Moves the process's threads to the next CPU before the first step
 * of every point.  On a shared host one CPU can run markedly slower than
 * another, and which one changes from minute to minute; the OS tends
 * to leave a busy thread where it is, so an unpinned run inherits
 * whichever CPU it happened to start on.  Rotating spreads a run's
 * repetitions of each step over all the CPUs it may use, and keeps
 * migrations (which refill the caches) out of the timed steps.  The
 * 2-shard worker runs on the CPU after the coordinator's.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof set, &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus.push_back(c);
    }

    /** Pin the main thread to the next CPU, other threads after it. */
    void next()
    {
        if (cpus.size() < 2)
            return;
        const int main_cpu = cpus[turn % cpus.size()];
        const int other_cpu = cpus[(turn + 1) % cpus.size()];
        ++turn;
        DIR *dir = opendir("/proc/self/task");
        if (!dir)
            return;
        const pid_t self = getpid();
        while (const dirent *e = readdir(dir)) {
            const pid_t tid = std::atoi(e->d_name);
            if (tid <= 0)
                continue;
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(tid == self ? main_cpu : other_cpu, &set);
            sched_setaffinity(tid, sizeof set, &set);
        }
        closedir(dir);
    }

  private:
    std::vector<int> cpus;
    std::size_t turn = 0;
};

CpuRotation rotation;

// --- spans ----------------------------------------------------------

/** In-memory span recorder; written out when the run ends. */
class SpanLog
{
  public:
    static constexpr int kNoParent = -1;

    int open(const char *name, const char *tag = "",
             int parent = kNoParent)
    {
        spans.push_back({name, tag, parent, nsSince(origin), 0.0, 0});
        return static_cast<int>(spans.size() - 1);
    }

    void close(int id, std::uint64_t count = 0)
    {
        spans[id].end = nsSince(origin);
        spans[id].count = count;
    }

    void write(const std::string &path) const
    {
        std::ofstream out(path);
        if (!out) {
            std::cerr << "cannot write span log " << path << "\n";
            return;
        }
        JsonWriter json(out);
        json.beginObject();
        json.field("schema", "damq-perfbench-spans-v1");
        json.key("spans");
        json.beginArray();
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            json.beginObject();
            json.field("id", static_cast<std::uint64_t>(i));
            json.field("name", s.name);
            json.field("tag", s.tag);
            json.field("parent", static_cast<std::int64_t>(s.parent));
            json.field("start_ns", s.start);
            json.field("end_ns", s.end);
            json.field("count", s.count);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

  private:
    struct Span
    {
        const char *name;
        const char *tag;
        int parent;
        double start;
        double end;
        std::uint64_t count;
    };
    Clock::time_point origin = Clock::now();
    std::vector<Span> spans;
};

/** Counts enqueues/dequeues of every buffer it is attached to. */
class CountingProbe final : public BufferProbe
{
  public:
    void onEnqueue(const BufferModel &, const Packet &) override
    {
        ++enqueues;
    }
    void onDequeue(const BufferModel &, QueueKey,
                   const Packet &) override
    {
        ++dequeues;
    }
    void onClear(const BufferModel &) override {}

    std::uint64_t enqueues = 0;
    std::uint64_t dequeues = 0;
};

// --- one point ------------------------------------------------------

/** Contents of one input buffer: (queue, packet) in queue order. */
using BufferSnapshot = std::vector<std::pair<QueueKey, Packet>>;
/** One switch: a snapshot per input port. */
using SwitchSnapshot = std::vector<BufferSnapshot>;

struct PointResult
{
    double constructNs = 0;
    double pointNs = 0; ///< construct + warmup + measure + drain
    double drainNs = 0;
    std::vector<double> warmupNs;    ///< warmup steps
    std::vector<double> stepNs;      ///< measured steps only
    std::vector<double> auditStepNs; ///< warmup/measure audit steps
    std::uint64_t windowHops = 0;
    unsigned shardsUsed = 0;
    SwitchId switches = 0;
    std::string fingerprint;
    std::string gateFailure; ///< empty when every gate held

    // window counts; the occupancy samples and probe counts are
    // taken on traced points only
    double idleShare = 0;
    double inFlightMean = 0;
    double sourceQueueMean = 0;
    double deliveredPerCycle = 0;
    double generatedPerCycle = 0;
    double creditsPerCycle = 0;
    double enqueuesPerCycle = 0;
    double dequeuesPerCycle = 0;
    std::vector<SwitchSnapshot> snapshots;
};

std::uint64_t
totalTransmitted(core::SyncEngine &eng)
{
    std::uint64_t hops = 0;
    for (SwitchId sw = 0; sw < eng.topology().numSwitches(); ++sw)
        hops += eng.switchUnit(sw).unitStats().transmitted;
    return hops;
}

/** Integer-only summary of a finished point (bit-identity check). */
std::string
fingerprintOf(core::SyncEngine &eng, std::uint64_t window_hops,
              std::uint64_t window_delivered)
{
    const NetworkCounters &c = eng.lifetime();
    const core::WorkloadStats &ws = eng.injection().stats();
    std::uint64_t hash = 1469598103934665603ULL; // FNV-1a
    const auto mix = [&hash](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            hash ^= (v >> (8 * i)) & 0xff;
            hash *= 1099511628211ULL;
        }
    };
    for (SwitchId sw = 0; sw < eng.topology().numSwitches(); ++sw) {
        const SwitchUnitStats &s = eng.switchUnit(sw).unitStats();
        mix(s.received);
        mix(s.transmitted);
        mix(s.discarded);
    }
    std::ostringstream s;
    s << "cycle=" << eng.now() << " gen=" << c.generated
      << " inj=" << c.injected << " del=" << c.delivered
      << " disc=" << c.discardedAtEntry << "+" << c.discardedInternal
      << " win_hops=" << window_hops << " win_del=" << window_delivered
      << " req=" << ws.requestsSent << "/" << ws.requestsDelivered
      << " rep=" << ws.repliesSent << "/" << ws.repliesDelivered
      << " credits=" << eng.creditsIssued() << "/"
      << eng.creditsReturned() << " switches=" << std::hex << hash;
    return s.str();
}

/** Every correctness gate of a drained point; "" when all hold. */
std::string
checkGates(core::SyncEngine &eng, bool drained, const Arming &arm)
{
    const FaultReport rep = eng.faultReport();
    const NetworkCounters &c = eng.lifetime();
    const core::WorkloadStats &ws = eng.injection().stats();
    std::ostringstream why;
    if (rep.auditsRun == 0)
        why << "no invariant audit ran; ";
    if (rep.auditViolations != 0)
        why << rep.auditViolations << " audit violations; ";
    if (arm.watchdog && rep.watchdogFired)
        why << "deadlock watchdog fired; ";
    if (!drained)
        why << "did not drain; ";
    if (c.misrouted != 0 || c.faultDropped != 0)
        why << "misrouted/fault-dropped packets; ";
    if (c.generated != c.delivered + c.discarded())
        why << "generated " << c.generated << " != delivered "
            << c.delivered << " + discarded " << c.discarded() << "; ";
    if (c.delivered == 0)
        why << "nothing delivered; ";
    if (eng.injection().closedLoop() &&
        !(ws.requestsSent == ws.requestsDelivered &&
          ws.requestsDelivered == ws.repliesSent &&
          ws.repliesSent == ws.repliesDelivered && ws.requestsSent > 0))
        why << "requests " << ws.requestsSent << "/"
            << ws.requestsDelivered << " != replies " << ws.repliesSent
            << "/" << ws.repliesDelivered << "; ";
    if (eng.flitMode() &&
        !(eng.flitCreditsAtRest() &&
          eng.creditsIssued() == eng.creditsReturned()))
        why << "credits not back at rest; ";
    return why.str();
}

/** A traced point records spans, counts enqueues/dequeues with a
 *  probe on every buffer, and samples occupancy after each step. */
struct Tracing
{
    SpanLog *spans = nullptr; ///< null: an untraced point
    bool snapshots = false;   ///< also capture occupancy snapshots
};

/** Capture the buffer contents of about 128 evenly spaced switches. */
void
captureSnapshots(core::SyncEngine &eng, std::vector<SwitchSnapshot> &out)
{
    const SwitchId n = eng.topology().numSwitches();
    const SwitchId stride = std::max<SwitchId>(1, n / 128);
    for (SwitchId sw = 0; sw < n; sw += stride) {
        SwitchSnapshot snap;
        eng.switchUnit(sw).forEachBuffer(
            [&snap](PortId, BufferModel &buf) {
                BufferSnapshot b;
                const QueueLayout lay = buf.layout();
                for (PortId o = 0; o < lay.outputs; ++o)
                    for (VcId v = 0; v < lay.vcs; ++v)
                        buf.forEachInQueue(
                            QueueKey{o, v}, [&](const Packet &p) {
                                b.emplace_back(QueueKey{o, v}, p);
                            });
                snap.push_back(std::move(b));
            });
        out.push_back(std::move(snap));
    }
}

PointResult
runPoint(const Workload &w, std::uint64_t seed, const Arming &arm,
         const Tracing &tr = {})
{
    PointResult r;
    SpanLog *log = tr.spans;
    const int point_span = log ? log->open("point", w.name) : -1;

    const Clock::time_point t0 = Clock::now();
    int sp = log ? log->open("network.construct", "", point_span) : -1;
    Fabric fabric(w, seed, arm);
    r.constructNs = nsSince(t0);
    if (log)
        log->close(sp);
    // After construction, so the shard workers exist and get pinned.
    rotation.next();
    core::SyncEngine &eng = fabric.engine();
    r.shardsUsed = eng.shards();
    const SwitchId nsw = eng.topology().numSwitches();
    r.switches = nsw;

    std::vector<std::unique_ptr<CountingProbe>> probes;
    if (log) {
        for (SwitchId sw = 0; sw < nsw; ++sw) {
            eng.switchUnit(sw).forEachBuffer(
                [&probes](PortId, BufferModel &buf) {
                    probes.push_back(std::make_unique<CountingProbe>());
                    buf.attachProbe(probes.back().get());
                });
        }
    }

    const auto timed_step = [&](const char *tag) {
        const int s = log ? log->open("network.step", tag, point_span)
                          : -1;
        const std::uint64_t del = log ? eng.lifetime().delivered : 0;
        const Clock::time_point ts = Clock::now();
        eng.step();
        const double ns = nsSince(ts);
        if (log)
            log->close(s, eng.lifetime().delivered - del);
        return ns;
    };

    r.warmupNs.reserve(w.warmup);
    for (Cycle c = 0; c < w.warmup; ++c) {
        const bool audit = (eng.now() + 1) % arm.auditEvery == 0;
        r.warmupNs.push_back(timed_step(audit ? "warmup.audit" : "warmup"));
        if (audit)
            r.auditStepNs.push_back(r.warmupNs.back());
    }

    const std::uint64_t hops0 = totalTransmitted(eng);
    const NetworkCounters c0 = eng.lifetime();
    const std::uint64_t credits0 = eng.creditsIssued();
    std::uint64_t enq0 = 0, deq0 = 0;
    for (const auto &p : probes) {
        enq0 += p->enqueues;
        deq0 += p->dequeues;
    }
    std::uint64_t idle = 0;
    double in_flight = 0, at_sources = 0;
    r.stepNs.reserve(w.measure);
    for (Cycle c = 0; c < w.measure; ++c) {
        const bool audit = (eng.now() + 1) % arm.auditEvery == 0;
        r.stepNs.push_back(timed_step(audit ? "measure.audit"
                                            : "measure"));
        if (audit)
            r.auditStepNs.push_back(r.stepNs.back());
        if (log) {
            for (SwitchId sw = 0; sw < nsw; ++sw)
                idle += eng.switchUnit(sw).totalPackets() == 0;
            in_flight += static_cast<double>(eng.packetsInFlight());
            at_sources += static_cast<double>(eng.packetsAtSources());
            if (tr.snapshots && (c + 1) % (w.measure / 4) == 0)
                captureSnapshots(eng, r.snapshots);
        }
    }
    r.windowHops = totalTransmitted(eng) - hops0;
    const NetworkCounters win = eng.lifetime() - c0;
    const double cycles = static_cast<double>(w.measure);
    r.idleShare = static_cast<double>(idle) /
                  (cycles * static_cast<double>(nsw));
    r.inFlightMean = in_flight / cycles;
    r.sourceQueueMean = at_sources / cycles;
    r.deliveredPerCycle = static_cast<double>(win.delivered) / cycles;
    r.generatedPerCycle = static_cast<double>(win.generated) / cycles;
    r.creditsPerCycle =
        static_cast<double>(eng.creditsIssued() - credits0) / cycles;
    std::uint64_t enq1 = 0, deq1 = 0;
    for (const auto &p : probes) {
        enq1 += p->enqueues;
        deq1 += p->dequeues;
    }
    r.enqueuesPerCycle = static_cast<double>(enq1 - enq0) / cycles;
    r.dequeuesPerCycle = static_cast<double>(deq1 - deq0) / cycles;

    const Clock::time_point td = Clock::now();
    sp = log ? log->open("network.drain", "", point_span) : -1;
    const bool drained = eng.drain(w.drainBudget);
    r.drainNs = nsSince(td);
    r.pointNs = nsSince(t0);
    if (log) {
        log->close(sp);
        log->close(point_span, win.delivered);
    }

    r.fingerprint = fingerprintOf(eng, r.windowHops, win.delivered);
    r.gateFailure = checkGates(eng, drained, arm);
    std::cerr << "point " << w.name << " shards=" << r.shardsUsed
              << " step_p50_us=" << median(r.stepNs) * 1e-3
              << " point_s=" << r.pointNs * 1e-9
              << " construct_ms=" << r.constructNs * 1e-6 << "\n";
    // Detach before the probes are destroyed.
    if (log)
        for (SwitchId sw = 0; sw < nsw; ++sw)
            eng.switchUnit(sw).forEachBuffer(
                [](PortId, BufferModel &buf) { buf.attachProbe(nullptr); });
    return r;
}

// --- run bookkeeping -----------------------------------------------

struct Metric
{
    const char *name;
    const char *unit;
    double value;
};

/** Gate and fingerprint bookkeeping across the points of a run. */
class Verdict
{
  public:
    Verdict(const Workload &w, std::uint64_t seed,
            std::string reference)
        : wl(w), seed(seed), reference(std::move(reference))
    {
    }

    /** Count @p r as one attempted operation. */
    void record(const PointResult &r, const char *what,
                const Arming &arm)
    {
        ++attempted;
        std::string why = r.gateFailure;
        if (first.empty())
            first = r.fingerprint;
        else if (r.fingerprint != first)
            why += "fingerprint differs from the run's first point (" +
                   r.fingerprint + " vs " + first + "); ";
        if (!reference.empty() && r.fingerprint != reference)
            why += "fingerprint differs from the committed reference (" +
                   r.fingerprint + " vs " + reference + "); ";
        if (why.empty())
            return;
        ++failed;
        std::cerr << "FAILED " << what << ": " << why << "\n"
                  << "reproduce: python3 perfbench/run.py --workload "
                  << wl.name << " --seed " << seed
                  << " --seconds 1 --trace 0  (point: shards "
                  << arm.shards << ", watchdog "
                  << (arm.watchdog ? "armed" : "off") << ", audit every "
                  << arm.auditEvery << ", metrics every "
                  << arm.metricsEvery << ")\n";
    }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::string first; ///< fingerprint of the run's first point
    const Workload &wl;
    std::uint64_t seed;
    std::string reference;
};

/**
 * Peak resident memory of this program: VmHWM of /proc/self/status.
 * getrusage's ru_maxrss is not used because it keeps the peak of the
 * process image before exec, so under run.py it reported the Python
 * parent's size.
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    std::cerr << "no VmHWM in /proc/self/status\n";
    std::exit(1);
}

/** Host ns of building the 1-shard simulator, at least five times
 *  and up to @p budget_ns, so set-up time rests on a median. */
std::vector<double>
setupSamples(const Workload &w, std::uint64_t seed, double budget_ns)
{
    std::vector<double> ns;
    const Clock::time_point t0 = Clock::now();
    while (ns.size() < 5 ||
           (ns.size() < 41 && nsSince(t0) < budget_ns)) {
        rotation.next();
        const Clock::time_point ts = Clock::now();
        Fabric f(w, seed, Arming{});
        ns.push_back(nsSince(ts));
    }
    return ns;
}

/**
 * The fastest host time seen for each phase of a point, over a run's
 * repetitions of it.  Every point of a run simulates the same cycles
 * (the fingerprint gate checks it), so step i of one point does the
 * same work as step i of the next.  On a shared host, other tenants
 * slow the memory system in bursts of a few tenths of a second and
 * slow single CPUs for minutes; that interference only adds time.  The
 * fastest repetition of each step, taken on different CPUs at
 * different times, estimates the step's own cost, and a window or
 * point time is the sum of its phases' fastest repetitions.
 */
class BestOfRepetitions
{
  public:
    void add(const PointResult &r)
    {
        ++repetitions;
        hops = static_cast<double>(r.windowHops);
        keepMin(construct, {r.constructNs});
        keepMin(warmup, r.warmupNs);
        keepMin(measure, r.stepNs);
        keepMin(drain, {r.drainNs});
    }

    /** Packet-hops per host second over the measured window. */
    double hopsPerS() const { return hops / (sum(measure) * 1e-9); }
    /** Median over the measured steps of each step's fastest time. */
    double stepNsP50() const { return median(measure); }
    /** Construct + warmup + measure + drain, each at its fastest. */
    double pointNs() const
    {
        return construct[0] + sum(warmup) + sum(measure) + drain[0];
    }

    std::uint64_t repetitions = 0;

  private:
    static void keepMin(std::vector<double> &best,
                        const std::vector<double> &ns)
    {
        if (best.empty())
            best = ns;
        for (std::size_t i = 0; i < ns.size(); ++i)
            best[i] = std::min(best[i], ns[i]);
    }

    static double sum(const std::vector<double> &v)
    {
        double total = 0;
        for (double x : v)
            total += x;
        return total;
    }

    double hops = 0;
    std::vector<double> construct, warmup, measure, drain;
};

std::vector<Metric>
untracedRun(const Workload &w, std::uint64_t seed, double seconds,
            bool smoke, Verdict &verdict)
{
    const double budget = seconds * 1e9;
    const Clock::time_point start = Clock::now();
    std::vector<double> setup = setupSamples(w, seed, 0.05 * budget);

    BestOfRepetitions one, two;
    double spent1 = 0, spent2 = 0; ///< host ns of each kind's points
    double last1 = 0, last2 = 0;   ///< duration of the latest point
    for (;;) {
        // 1-shard points get about two thirds of the host time: four of
        // the six metrics come from them.
        const std::uint32_t shards = spent1 <= 2 * spent2 ? 1 : 2;
        const double next_ns = shards == 1 ? last1 : last2;
        if (one.repetitions > 0 && two.repetitions > 0 &&
            (smoke || nsSince(start) + next_ns > budget))
            break;
        Arming arm;
        arm.shards = shards;
        const Clock::time_point tp = Clock::now();
        const PointResult r = runPoint(w, seed, arm);
        verdict.record(r, shards == 1 ? "1-shard point" : "2-shard point",
                       arm);
        if (shards == 1) {
            one.add(r);
            setup.push_back(r.constructNs);
            last1 = nsSince(tp);
            spent1 += last1;
        } else {
            two.add(r);
            last2 = nsSince(tp);
            spent2 += last2;
        }
    }
    std::cerr << "repetitions: " << one.repetitions << " 1-shard, "
              << two.repetitions << " 2-shard points\n";

    return {
        {"hops_per_s", "hops/s", one.hopsPerS()},
        {"hops_per_s_2shard", "hops/s", two.hopsPerS()},
        {"cycle_us_p50", "us", one.stepNsP50() * 1e-3},
        {"point_s", "s", one.pointNs() * 1e-9},
        {"setup_s", "s", median(setup) * 1e-9},
        {"peak_rss_mb", "MB", peakRssMb()},
    };
}

// --- layer replays --------------------------------------------------

/** steady_clock read cost, subtracted from per-call timings. */
double
clockOverheadNs()
{
    std::vector<double> v;
    for (int i = 0; i < 1001; ++i) {
        const Clock::time_point a = Clock::now();
        v.push_back(nsSince(a));
    }
    return median(v);
}

/** Buffer-layer replay results. */
struct QueueingReplay
{
    double peekNs = 0, admitNs = 0, pushNs = 0, popNs = 0;
    double emptyShare = 0, refusedRatio = 0;
};

/** A snapshot packet as a fully resident record. */
Packet
resident(Packet p, QueueKey key)
{
    p.flitsArrived = 0;
    p.flitsSent = 0;
    p.outPort = key.out;
    p.vc = key.vc;
    return p;
}

/**
 * Load each snapshot buffer into a standalone makeBuffer() of the
 * workload's organization and policy, then time peek and admit over
 * every queue and a pop + push of every packet (which restores the
 * state).  Packets that no longer fit whole are left out.  Pop and
 * push batches are short, so each is timed less one clock read.
 */
QueueingReplay
replayQueueing(const LayerConfig &l,
               const std::vector<SwitchSnapshot> &snaps, Cycle clock,
               int reps, SpanLog &log)
{
    const int layer = log.open("queueing.replay");
    const double overhead = clockOverheadNs();
    std::vector<QueueKey> keys;
    for (PortId o = 0; o < l.queues.outputs; ++o)
        for (VcId v = 0; v < l.queues.vcs; ++v)
            keys.emplace_back(o, v);
    std::uint64_t calls = 0, found = 0, refused = 0, moved = 0;
    double peek_ns = 0, admit_ns = 0, push_ns = 0, pop_ns = 0;
    for (const SwitchSnapshot &sw : snaps) {
        for (const BufferSnapshot &snap : sw) {
            std::unique_ptr<BufferModel> buf =
                makeBuffer(l.buffer, l.queues, l.slots, l.sharing);
            buf->attachAdmissionClock(&clock);
            std::vector<Packet> kept;
            for (const auto &[key, pkt] : snap) {
                const Packet p = resident(pkt, key);
                if (buf->canHold(key, p.slotsHeld())) {
                    buf->push(p);
                    kept.push_back(p);
                }
            }
            const std::uint64_t n = keys.size() * reps;
            calls += n;

            int s = log.open("queueing.peek", "", layer);
            Clock::time_point t = Clock::now();
            for (int r = 0; r < reps; ++r)
                for (QueueKey k : keys)
                    found += buf->peek(k) != nullptr;
            peek_ns += nsSince(t);
            log.close(s, n);

            s = log.open("queueing.admit", "", layer);
            t = Clock::now();
            for (int r = 0; r < reps; ++r)
                for (QueueKey k : keys)
                    refused += !buf->admit(k, l.packetSlots, 0).accept;
            admit_ns += nsSince(t);
            log.close(s, n);

            if (kept.empty())
                continue;
            s = log.open("queueing.pop_push", "", layer);
            for (int r = 0; r < reps; ++r) {
                t = Clock::now();
                for (const Packet &p : kept)
                    buf->pop(QueueKey{p.outPort, p.vc});
                pop_ns += nsSince(t) - overhead;
                t = Clock::now();
                for (const Packet &p : kept)
                    buf->push(p);
                push_ns += nsSince(t) - overhead;
            }
            moved += kept.size() * reps;
            log.close(s, kept.size() * reps);
        }
    }
    log.close(layer, 2 * calls + 2 * moved);
    QueueingReplay q;
    q.peekNs = ratio(peek_ns, static_cast<double>(calls));
    q.admitNs = ratio(admit_ns, static_cast<double>(calls));
    q.popNs = ratio(pop_ns, static_cast<double>(moved));
    q.pushNs = ratio(push_ns, static_cast<double>(moved));
    q.emptyShare = 1 - ratio(static_cast<double>(found),
                             static_cast<double>(calls));
    q.refusedRatio = ratio(static_cast<double>(refused),
                           static_cast<double>(calls));
    return q;
}

/** Switch-layer replay results. */
struct SwitchReplay
{
    double arbitrateNs = 0, popGrantedNs = 0, receiveNs = 0;
    double grantsPerArbitrate = 0;
};

/**
 * Load each snapshot switch into a standalone SwitchModel, then time
 * arbitrateInto (every downstream clear), popGrantedInto, and
 * receiveGranted of the popped packets, which restores occupancy.
 * Each call is timed alone, less the cost of one clock read.
 */
SwitchReplay
replaySwitch(const LayerConfig &l,
             const std::vector<SwitchSnapshot> &snaps, int reps,
             SpanLog &log)
{
    const int layer = log.open("switchsim.replay");
    const double overhead = clockOverheadNs();
    const CanSendFn always = [](PortId, QueueKey, const Packet &) {
        return true;
    };
    std::uint64_t calls = 0, granted = 0;
    double arb_ns = 0, pop_ns = 0, recv_ns = 0;
    GrantList grants;
    std::vector<Packet> sent;
    for (const SwitchSnapshot &sw : snaps) {
        SwitchModel model(l.queues.outputs, l.buffer, l.slots,
                          l.arbitration, 8, l.queues.vcs, l.sharing);
        for (PortId in = 0; in < sw.size(); ++in)
            for (const auto &[key, pkt] : sw[in])
                model.receiveGranted(in, resident(pkt, key));
        const int s = log.open("switchsim.cycle", "", layer);
        for (int r = 0; r < reps; ++r) {
            Clock::time_point t = Clock::now();
            model.arbitrateInto(always, grants);
            arb_ns += nsSince(t) - overhead;
            t = Clock::now();
            model.popGrantedInto(grants, sent);
            pop_ns += nsSince(t) - overhead;
            granted += grants.size();
            if (grants.empty())
                continue;
            t = Clock::now();
            for (std::size_t i = 0; i < grants.size(); ++i)
                model.receiveGranted(grants[i].input, sent[i]);
            recv_ns += nsSince(t) - overhead;
        }
        calls += reps;
        log.close(s, static_cast<std::uint64_t>(reps));
    }
    log.close(layer, calls);
    SwitchReplay out;
    out.arbitrateNs = ratio(arb_ns, static_cast<double>(calls));
    out.popGrantedNs = ratio(pop_ns, static_cast<double>(calls));
    out.receiveNs = ratio(recv_ns, static_cast<double>(granted));
    out.grantsPerArbitrate = ratio(static_cast<double>(granted),
                                   static_cast<double>(calls));
    return out;
}

/** Host ns per source-cycle of a standalone TrafficSource. */
double
replayDrawNs(const LayerConfig &l, std::uint64_t seed, Cycle cycles,
             SpanLog &log)
{
    core::TrafficSource source(
        core::makeTrafficPattern(l.traffic, l.nodes, l.hotSpot, 0, seed),
        l.nodes, l.load, l.workload);
    Random rng(seed);
    const int s = log.open("workload.draws");
    const Clock::time_point t = Clock::now();
    for (Cycle now = 1; now <= cycles; ++now)
        for (NodeId src = 0; src < l.nodes; ++src)
            if (source.shouldGenerate(src, now, rng))
                source.destinationFor(src, rng);
    const double ns = nsSince(t);
    const std::uint64_t draws = cycles * l.nodes;
    log.close(s, draws);
    return ns / static_cast<double>(draws);
}

// --- traced run -----------------------------------------------------

std::vector<Metric>
tracedRun(const Workload &w, std::uint64_t seed, double seconds,
          bool smoke, Verdict &verdict, SpanLog &log)
{
    const double budget = seconds * 1e9;
    const Clock::time_point start = Clock::now();
    std::vector<double> construct =
        setupSamples(w, seed, 0.02 * budget);
    // Each armed variant's step time is taken as on the untraced run:
    // the fastest repetition of each step over the rounds.
    BestOfRepetitions untraced1, traced1, two, wd_off, metrics_on;
    std::vector<double> audit_extra, drain;
    PointResult first_traced;
    bool have_traced = false;
    unsigned metrics_shards = 0;
    double round_ns = 0;
    do {
        const Clock::time_point tr0 = Clock::now();
        Arming base;
        PointResult r = runPoint(w, seed, base);
        verdict.record(r, "untraced 1-shard point", base);
        untraced1.add(r);
        construct.push_back(r.constructNs);

        Tracing tracing;
        tracing.spans = &log;
        tracing.snapshots = !have_traced;
        r = runPoint(w, seed, base, tracing);
        verdict.record(r, "traced 1-shard point", base);
        traced1.add(r);
        construct.push_back(r.constructNs);
        drain.push_back(r.drainNs);
        if (!have_traced) {
            first_traced = std::move(r);
            have_traced = true;
        }

        Arming arm = base;
        arm.shards = 2;
        r = runPoint(w, seed, arm);
        verdict.record(r, "2-shard point", arm);
        two.add(r);

        arm = base;
        arm.watchdog = false;
        r = runPoint(w, seed, arm);
        verdict.record(r, "watchdog-off point", arm);
        wd_off.add(r);

        arm = base;
        arm.auditEvery = kAuditEveryTraced;
        r = runPoint(w, seed, arm);
        verdict.record(r, "frequent-audit point", arm);
        audit_extra.push_back(median(r.auditStepNs) - median(r.stepNs));

        arm = base;
        arm.shards = 2;
        arm.metricsEvery = kMetricsEvery;
        r = runPoint(w, seed, arm);
        verdict.record(r, "metrics-on point", arm);
        metrics_on.add(r);
        metrics_shards = r.shardsUsed;
        round_ns = nsSince(tr0);
    } while (!smoke && nsSince(start) + round_ns < budget);

    const PointResult &t = first_traced;
    const LayerConfig layers = layersOf(w, seed);
    const int reps = smoke ? 20 : 200;
    const QueueingReplay q = replayQueueing(layers, t.snapshots,
                                            w.warmup + w.measure, reps, log);
    const SwitchReplay s = replaySwitch(layers, t.snapshots, reps, log);
    const double draw_ns = replayDrawNs(layers, seed, smoke ? 50 : 500, log);

    const double t1 = untraced1.stepNsP50(), t2 = two.stepNsP50();
    const std::vector<double> &steps = t.stepNs;
    return {
        {"network.construct_s", "s", median(construct) * 1e-9},
        {"network.step_us_p50", "us", median(steps) * 1e-3},
        {"network.step_us_p99", "us", percentile(steps, 0.99) * 1e-3},
        {"network.step_samples", "count",
         static_cast<double>(steps.size())},
        {"network.switch_cycle_ns", "ns", t1 / t.switches},
        {"network.idle_switch_share", "ratio", t.idleShare},
        {"network.shard_efficiency", "ratio", ratio(t1, 2 * t2)},
        {"network.drain_s", "s", median(drain) * 1e-9},
        {"network.delivered_per_cycle", "pkts/cycle", t.deliveredPerCycle},
        {"network.hops_per_packet", "hops/pkt",
         ratio(static_cast<double>(t.windowHops),
               t.deliveredPerCycle * static_cast<double>(w.measure))},
        {"network.in_flight_mean", "pkts", t.inFlightMean},
        {"network.source_queue_mean", "pkts", t.sourceQueueMean},
        {"network.credits_per_cycle", "credits/cycle", t.creditsPerCycle},
        {"network.trace_overhead", "ratio", ratio(traced1.stepNsP50(), t1) - 1},
        {"queueing.peek_ns", "ns", q.peekNs},
        {"queueing.admit_ns", "ns", q.admitNs},
        {"queueing.push_ns", "ns", q.pushNs},
        {"queueing.pop_ns", "ns", q.popNs},
        {"queueing.empty_queue_share", "ratio", q.emptyShare},
        {"queueing.enqueues_per_cycle", "ops/cycle", t.enqueuesPerCycle},
        {"queueing.dequeues_per_cycle", "ops/cycle", t.dequeuesPerCycle},
        {"queueing.refused_ratio", "ratio", q.refusedRatio},
        {"switchsim.arbitrate_ns", "ns", s.arbitrateNs},
        {"switchsim.pop_granted_ns", "ns", s.popGrantedNs},
        {"switchsim.receive_ns", "ns", s.receiveNs},
        {"switchsim.grants_per_arbitrate", "grants/call",
         s.grantsPerArbitrate},
        {"workload.draw_ns", "ns", draw_ns},
        {"workload.generated_per_cycle", "pkts/cycle", t.generatedPerCycle},
        {"fault.audit_us", "us", median(audit_extra) * 1e-3},
        {"fault.watchdog_share", "ratio", 1 - ratio(wd_off.stepNsP50(), t1)},
        {"obs.metrics_overhead", "ratio", ratio(metrics_on.stepNsP50(), t1) - 1},
        {"obs.metrics_shards", "count", static_cast<double>(metrics_shards)},
    };
}

// --- main -----------------------------------------------------------

std::string
readReference(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind(workload + " ", 0) == 0)
            return line.substr(workload.size() + 1);
    }
    return "";
}

void
usage()
{
    std::cerr << "usage: damq_perf --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--reference FILE] "
                 "[--span-out FILE] [--revision TEXT]\n"
                 "       damq_perf --fingerprint NAME --seed N\n"
                 "workloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, reference_path, span_out, revision = "unknown";
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    int trace = 0;
    bool smoke = false, fingerprint_only = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            workload = next();
        else if (a == "--fingerprint") {
            workload = next();
            fingerprint_only = true;
        } else if (a == "--seed")
            seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(next().c_str(), nullptr);
        else if (a == "--trace")
            trace = std::atoi(next().c_str());
        else if (a == "--smoke")
            smoke = true;
        else if (a == "--reference")
            reference_path = next();
        else if (a == "--span-out")
            span_out = next();
        else if (a == "--revision")
            revision = next();
        else {
            usage();
            return 2;
        }
    }
    const Workload *wl = nullptr;
    for (const Workload &w : kWorkloads)
        if (workload == w.name)
            wl = &w;
    if (!wl || seconds <= 0 || (trace != 0 && trace != 1)) {
        usage();
        return 2;
    }

    if (fingerprint_only) {
        // Regenerates one line of reference.txt.
        const PointResult r = runPoint(*wl, seed, Arming{});
        std::cout << wl->name << " " << r.fingerprint << "\n";
        return r.gateFailure.empty() ? 0 : 1;
    }
    if (kUntrustedBuild && !smoke) {
        std::cerr << "refusing to report timings (" << kUntrustedBuild
                  << " build, flags: " << DAMQ_PERF_FLAGS
                  << "); rebuild with CMAKE_BUILD_TYPE=Release\n";
        return 3;
    }

    {
        std::ostringstream m;
        m << "{\"manifest\": {\"revision\": \"" << revision
          << "\", \"compiler\": \"" << __VERSION__
          << "\", \"flags\": \"" << DAMQ_PERF_FLAGS
          << "\", \"build_type\": \"" << DAMQ_PERF_BUILD_TYPE
          << "\", \"nproc\": " << std::thread::hardware_concurrency()
          << ", \"workload\": \"" << wl->name << "\", \"seed\": " << seed
          << ", \"seconds\": " << seconds << ", \"trace\": " << trace
          << ", \"smoke\": " << (smoke ? "true" : "false")
          << ", \"config\": \"" << describe(*wl) << "\"}}";
        std::cout << m.str() << std::endl;
    }

    const std::string reference =
        seed == kDefaultSeed && !reference_path.empty()
            ? readReference(reference_path, wl->name)
            : "";
    if (seed == kDefaultSeed && !reference_path.empty() &&
        reference.empty()) {
        std::cerr << "no reference fingerprint for " << wl->name
                  << " in " << reference_path << "\n";
        return 1;
    }
    Verdict verdict(*wl, seed, reference);
    SpanLog log;
    const std::vector<Metric> metrics =
        trace ? tracedRun(*wl, seed, seconds, smoke, verdict, log)
              : untracedRun(*wl, seed, seconds, smoke, verdict);
    if (trace && !span_out.empty())
        log.write(span_out);

    std::ostringstream out;
    out << "{\"correct\": " << (verdict.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << verdict.attempted
        << ", \"failed\": " << verdict.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? ", " : "") << "\"" << metrics[i].name
            << "\": {\"value\": " << formatJsonNumber(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    return 0;
}
