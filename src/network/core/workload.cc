#include "network/core/workload.hh"

#include <algorithm>
#include <cctype>
#include <deque>
#include <fstream>
#include <sstream>

#include "common/logging.hh"

namespace damq {
namespace core {

const char *
workloadKindName(WorkloadKind kind)
{
    switch (kind) {
      case WorkloadKind::Geometric: return "geometric";
      case WorkloadKind::OnOff: return "onoff";
      case WorkloadKind::Mmpp: return "mmpp";
      case WorkloadKind::Batch: return "batch";
      case WorkloadKind::ReqReply: return "reqreply";
      case WorkloadKind::Trace: return "trace";
    }
    return "?";
}

std::optional<WorkloadKind>
tryWorkloadKindFromString(const std::string &name)
{
    std::string lower(name);
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (lower == "geometric" || lower == "bernoulli")
        return WorkloadKind::Geometric;
    if (lower == "onoff")
        return WorkloadKind::OnOff;
    if (lower == "mmpp")
        return WorkloadKind::Mmpp;
    if (lower == "batch")
        return WorkloadKind::Batch;
    if (lower == "reqreply")
        return WorkloadKind::ReqReply;
    if (lower == "trace")
        return WorkloadKind::Trace;
    return std::nullopt;
}

std::uint32_t
LengthDistribution::sample(Random &rng) const
{
    damq_assert(!weights.empty(), "empty length distribution");
    double total = 0.0;
    for (const double w : weights)
        total += w;
    damq_assert(total > 0.0, "length distribution has no mass");
    double draw = rng.uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        draw -= weights[i];
        if (draw < 0.0)
            return static_cast<std::uint32_t>(i + 1);
    }
    return static_cast<std::uint32_t>(weights.size());
}

double
LengthDistribution::mean() const
{
    double total = 0.0;
    double weighted = 0.0;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        total += weights[i];
        weighted += weights[i] * static_cast<double>(i + 1);
    }
    damq_assert(total > 0.0, "length distribution has no mass");
    return weighted / total;
}

std::uint32_t
LengthDistribution::maxLength() const
{
    for (std::size_t i = weights.size(); i > 0; --i) {
        if (weights[i - 1] > 0.0)
            return static_cast<std::uint32_t>(i);
    }
    return 0;
}

bool
LengthDistribution::variable() const
{
    return std::count_if(weights.begin(), weights.end(),
                         [](double w) { return w > 0.0; }) > 1;
}

namespace {

/** Open-loop Bernoulli at the offered load: one draw per call. */
class GeometricProcess : public InjectionProcess
{
  public:
    explicit GeometricProcess(double load) : load(load) {}

    const char *name() const override { return "geometric"; }

    bool shouldGenerate(NodeId, Cycle, Random &rng) override
    {
        return rng.bernoulli(load);
    }

  private:
    double load;
};

/**
 * The historical two-state burst source, draw-for-draw identical to
 * the pre-redesign TrafficSource: one transition draw, then one
 * generation draw at load * B while on (0 while off).
 */
class OnOffProcess : public InjectionProcess
{
  public:
    OnOffProcess(std::uint32_t num_sources, double load,
                 double burstiness, Cycle mean_burst_cycles)
        : load(load), burstiness(burstiness),
          meanOn(static_cast<double>(mean_burst_cycles)),
          sourceOn(num_sources, false)
    {
    }

    const char *name() const override { return "onoff"; }

    bool shouldGenerate(NodeId src, Cycle, Random &rng) override
    {
        // On a fraction 1/B of the time, generating at rate
        // load * B while on.
        const double mean_off = meanOn * (burstiness - 1.0);
        if (sourceOn[src]) {
            if (rng.bernoulli(1.0 / meanOn))
                sourceOn[src] = false;
        } else {
            if (rng.bernoulli(1.0 / mean_off))
                sourceOn[src] = true;
        }
        const double gen = sourceOn[src] ? load * burstiness : 0.0;
        return rng.bernoulli(gen);
    }

  private:
    double load;
    double burstiness;
    double meanOn;
    std::vector<bool> sourceOn;
};

/**
 * 2-state Markov-modulated Bernoulli: rate load * B in the high
 * state, load / B in the low state, stationary high fraction
 * 1/(B+1), so the mean rate is exactly the offered load.  Two draws
 * per source per cycle (transition, then generation) regardless of
 * state.
 */
class MmppProcess : public InjectionProcess
{
  public:
    MmppProcess(std::uint32_t num_sources, double load,
                double burstiness, Cycle mean_burst_cycles)
        : rateHigh(load * burstiness), rateLow(load / burstiness),
          leaveHigh(1.0 / static_cast<double>(mean_burst_cycles)),
          leaveLow(1.0 / (static_cast<double>(mean_burst_cycles) *
                          burstiness)),
          sourceHigh(num_sources, false)
    {
    }

    const char *name() const override { return "mmpp"; }

    bool shouldGenerate(NodeId src, Cycle, Random &rng) override
    {
        if (sourceHigh[src]) {
            if (rng.bernoulli(leaveHigh))
                sourceHigh[src] = false;
        } else {
            if (rng.bernoulli(leaveLow))
                sourceHigh[src] = true;
        }
        return rng.bernoulli(sourceHigh[src] ? rateHigh : rateLow);
    }

  private:
    double rateHigh;
    double rateLow;
    double leaveHigh;
    double leaveLow;
    std::vector<bool> sourceHigh;
};

/**
 * Fixed per-source quota offered at the configured rate; once a
 * source's quota is spent it never draws again, and the process
 * reports exhausted so the engine can drain-and-measure.
 */
class BatchProcess : public InjectionProcess
{
  public:
    BatchProcess(std::uint32_t num_sources, double load,
                 std::uint64_t batch_packets)
        : load(load), remaining(num_sources, batch_packets),
          totalRemaining(static_cast<std::uint64_t>(num_sources) *
                         batch_packets)
    {
        stats_.batchRemaining = totalRemaining;
    }

    const char *name() const override { return "batch"; }

    bool shouldGenerate(NodeId src, Cycle, Random &rng) override
    {
        if (remaining[src] == 0)
            return false;
        if (!rng.bernoulli(load))
            return false;
        --remaining[src];
        --totalRemaining;
        stats_.batchRemaining = totalRemaining;
        return true;
    }

    bool exhausted() const override { return totalRemaining == 0; }

  private:
    double load;
    std::vector<std::uint64_t> remaining;
    std::uint64_t totalRemaining;
};

/**
 * Memory-like closed loop: a source issues requests (Bernoulli at
 * the offered load) while it has window headroom; delivery of a
 * request queues a reply at its destination, which that node sends
 * ahead of any new request (no RNG draw); delivery of the reply
 * frees the requester's window slot.
 */
class ReqReplyProcess : public InjectionProcess
{
  public:
    ReqReplyProcess(std::uint32_t num_sources, double load,
                    std::uint32_t reply_window)
        : load(load), replyWindow(reply_window),
          outstanding(num_sources, 0), pendingReplies(num_sources)
    {
    }

    const char *name() const override { return "reqreply"; }

    bool shouldGenerate(NodeId src, Cycle now, Random &rng) override
    {
        if (drainPending(src, now))
            return true;
        stagedDest = kInvalidNode;
        stagedKindV = PacketKind::Request;
        if (outstanding[src] >= replyWindow)
            return false;
        if (!rng.bernoulli(load))
            return false;
        ++outstanding[src];
        ++stats_.requestsSent;
        return true;
    }

    bool drainPending(NodeId src, Cycle) override
    {
        if (pendingReplies[src].empty())
            return false;
        stagedDest = pendingReplies[src].front();
        pendingReplies[src].pop_front();
        --pendingTotal;
        stagedKindV = PacketKind::Reply;
        ++stats_.repliesSent;
        return true;
    }

    NodeId stagedDestination() const override { return stagedDest; }
    PacketKind stagedKind() const override { return stagedKindV; }

    void onDelivered(const Packet &pkt, Cycle) override
    {
        if (pkt.kind == PacketKind::Request) {
            ++stats_.requestsDelivered;
            pendingReplies[pkt.dest].push_back(pkt.source);
            ++pendingTotal;
        } else if (pkt.kind == PacketKind::Reply) {
            ++stats_.repliesDelivered;
            damq_assert(outstanding[pkt.dest] > 0,
                        "reply delivered to a node with no "
                        "outstanding requests");
            --outstanding[pkt.dest];
        }
    }

    bool closedLoop() const override { return true; }

    std::uint64_t pendingOffers() const override
    {
        return pendingTotal;
    }

  private:
    double load;
    std::uint32_t replyWindow;
    NodeId stagedDest = kInvalidNode;
    PacketKind stagedKindV = PacketKind::Request;
    std::uint64_t pendingTotal = 0;
    std::vector<std::uint32_t> outstanding;
    std::vector<std::deque<NodeId>> pendingReplies;
};

/** Replay of a recorded trace; never touches the RNG. */
class TraceProcess : public InjectionProcess
{
  public:
    TraceProcess(std::vector<WorkloadTraceEntry> entries,
                 std::uint32_t num_sources)
        : queues(num_sources)
    {
        for (const WorkloadTraceEntry &e : entries)
            queues[e.source].push_back(e);
        std::uint64_t total = entries.size();
        remaining = total;
    }

    const char *name() const override { return "trace"; }

    bool shouldGenerate(NodeId src, Cycle now, Random &) override
    {
        if (queues[src].empty() || queues[src].front().cycle > now)
            return false;
        stagedDest = queues[src].front().dest;
        queues[src].pop_front();
        --remaining;
        return true;
    }

    NodeId stagedDestination() const override { return stagedDest; }

    bool exhausted() const override { return remaining == 0; }

  private:
    std::vector<std::deque<WorkloadTraceEntry>> queues;
    std::uint64_t remaining = 0;
    NodeId stagedDest = kInvalidNode;
};

/**
 * Reject peak rates above one packet per source per cycle.  With
 * QoS stamping (src % classes) every source of class c peaks at the
 * same time-local rate, so an overcommitted peak is overcommitted
 * within each class too — say so in the error.
 */
void
validatePeakRate(const char *kind, double load, double burstiness,
                 std::uint32_t traffic_classes)
{
    const double peak = load * burstiness;
    if (peak <= 1.0)
        return;
    std::ostringstream oss;
    oss << kind << " workload peak rate " << peak << " (load " << load
        << " x burstiness " << burstiness
        << ") exceeds 1 packet/source/cycle";
    if (traffic_classes > 1) {
        oss << "; with --classes " << traffic_classes
            << " every class is driven at this per-source peak, so "
               "each QoS class is overcommitted individually";
    }
    damq_fatal(oss.str());
}

} // namespace

std::unique_ptr<InjectionProcess>
makeInjectionProcess(const WorkloadConfig &workload,
                     std::uint32_t num_sources, double offered_load,
                     std::uint32_t traffic_classes)
{
    // The single construction-path validation: every front end (CLI
    // flags, bench configs) funnels through here.
    if (offered_load < 0.0 || offered_load > 1.0) {
        damq_fatal("offered load ", offered_load,
                   " is not a probability (need 0 <= load <= 1)");
    }
    if (workload.burstiness < 1.0) {
        damq_fatal("workload burstiness ", workload.burstiness,
                   " must be >= 1 (peak/average factor)");
    }
    if (workload.meanBurstCycles == 0)
        damq_fatal("workload mean burst cycles must be >= 1");

    switch (workload.kind) {
      case WorkloadKind::Geometric:
        validatePeakRate("geometric", offered_load, 1.0,
                         traffic_classes);
        return std::make_unique<GeometricProcess>(offered_load);

      case WorkloadKind::OnOff:
        if (workload.burstiness <= 1.0) {
            damq_fatal("onoff workload needs burstiness > 1 "
                       "(use geometric for an unmodulated source)");
        }
        validatePeakRate("onoff", offered_load, workload.burstiness,
                         traffic_classes);
        return std::make_unique<OnOffProcess>(
            num_sources, offered_load, workload.burstiness,
            workload.meanBurstCycles);

      case WorkloadKind::Mmpp:
        if (workload.burstiness <= 1.0) {
            damq_fatal("mmpp workload needs burstiness > 1 "
                       "(use geometric for an unmodulated source)");
        }
        validatePeakRate("mmpp", offered_load, workload.burstiness,
                         traffic_classes);
        return std::make_unique<MmppProcess>(
            num_sources, offered_load, workload.burstiness,
            workload.meanBurstCycles);

      case WorkloadKind::Batch:
        if (workload.batchPackets == 0)
            damq_fatal("batch workload needs --batch >= 1 packets");
        validatePeakRate("batch", offered_load, 1.0, traffic_classes);
        return std::make_unique<BatchProcess>(
            num_sources, offered_load, workload.batchPackets);

      case WorkloadKind::ReqReply:
        if (workload.replyWindow == 0) {
            damq_fatal("reqreply workload needs --reply-window >= 1 "
                       "outstanding requests");
        }
        validatePeakRate("reqreply", offered_load, 1.0,
                         traffic_classes);
        return std::make_unique<ReqReplyProcess>(
            num_sources, offered_load, workload.replyWindow);

      case WorkloadKind::Trace:
        if (workload.traceFile.empty())
            damq_fatal("trace workload needs --trace-file");
        return std::make_unique<TraceProcess>(
            parseWorkloadTrace(workload.traceFile, num_sources),
            num_sources);
    }
    damq_panic("unhandled workload kind");
}

std::vector<WorkloadTraceEntry>
parseWorkloadTrace(const std::string &path, std::uint32_t num_nodes)
{
    std::ifstream in(path);
    if (!in)
        damq_fatal("cannot open workload trace '", path, "'");

    std::vector<WorkloadTraceEntry> entries;
    std::vector<Cycle> lastCycle(num_nodes, 0);
    std::string line;
    std::uint64_t lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::uint64_t cycle = 0, src = 0, dest = 0;
        if (!(fields >> cycle))
            continue; // blank or comment-only line
        if (!(fields >> src >> dest)) {
            damq_fatal("trace '", path, "' line ", lineno,
                       ": expected 'cycle src dest'");
        }
        if (src >= num_nodes || dest >= num_nodes) {
            damq_fatal("trace '", path, "' line ", lineno,
                       ": endpoint out of range (network has ",
                       num_nodes, " nodes)");
        }
        if (!entries.empty() && cycle < lastCycle[src]) {
            damq_fatal("trace '", path, "' line ", lineno,
                       ": cycles must be non-decreasing per source");
        }
        lastCycle[src] = cycle;
        entries.push_back(WorkloadTraceEntry{
            cycle, static_cast<NodeId>(src),
            static_cast<NodeId>(dest)});
    }
    return entries;
}

void
writeWorkloadTrace(const std::string &path,
                   const std::vector<WorkloadTraceEntry> &entries)
{
    std::ofstream out(path);
    if (!out)
        damq_fatal("cannot write workload trace '", path, "'");
    out << "# cycle src dest\n";
    for (const WorkloadTraceEntry &e : entries)
        out << e.cycle << ' ' << e.source << ' ' << e.dest << '\n';
}

} // namespace core
} // namespace damq
