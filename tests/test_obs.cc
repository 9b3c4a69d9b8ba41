/**
 * @file
 * Unit tests for the telemetry subsystem (src/obs): metric
 * registry sampling, packet tracer Chrome-trace export, queue
 * probes, the Telemetry facade, and an end-to-end check that a
 * simulator's results are unperturbed by turning telemetry on.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "network/fabric_sim.hh"
#include "obs/metric_registry.hh"
#include "obs/packet_tracer.hh"
#include "obs/telemetry.hh"
#include "queueing/buffer_factory.hh"

namespace damq {
namespace {

using obs::MetricRegistry;
using obs::PacketTracer;
using obs::Telemetry;
using obs::TelemetryConfig;

/**
 * Minimal recursive-descent JSON well-formedness checker, enough to
 * validate the tracer and metrics documents without a JSON library.
 * Tracks how many objects appear directly inside the "traceEvents"
 * array and how often each "ph" value occurs.
 */
class MiniJsonParser
{
  public:
    explicit MiniJsonParser(std::string text) : text(std::move(text))
    {
    }

    /** Parse the whole document; false on any syntax error. */
    bool parse()
    {
        pos = 0;
        if (!parseValue())
            return false;
        skipWs();
        return pos == text.size();
    }

    int phCount(char phase) const
    {
        const auto it = phases.find(phase);
        return it == phases.end() ? 0 : it->second;
    }

    int traceEventCount() const { return traceEvents; }

  private:
    void skipWs()
    {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\n' ||
                text[pos] == '\t' || text[pos] == '\r'))
            ++pos;
    }

    bool parseValue()
    {
        skipWs();
        if (pos >= text.size())
            return false;
        switch (text[pos]) {
          case '{':
            return parseObject();
          case '[':
            return parseArray(false);
          case '"': {
            std::string s;
            return parseString(s);
          }
          default:
            return parseLiteralOrNumber();
        }
    }

    bool parseObject()
    {
        ++pos; // '{'
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos >= text.size() || text[pos] != ':')
                return false;
            ++pos;
            skipWs();
            if (key == "traceEvents" && pos < text.size() &&
                text[pos] == '[') {
                if (!parseArray(true))
                    return false;
            } else if (key == "ph") {
                std::string ph;
                if (!parseString(ph) || ph.size() != 1)
                    return false;
                ++phases[ph[0]];
            } else if (!parseValue()) {
                return false;
            }
            skipWs();
            if (pos >= text.size())
                return false;
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == '}') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool parseArray(bool count_events)
    {
        ++pos; // '['
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        while (true) {
            skipWs();
            if (count_events && pos < text.size() && text[pos] == '{')
                ++traceEvents;
            if (!parseValue())
                return false;
            skipWs();
            if (pos >= text.size())
                return false;
            if (text[pos] == ',') {
                ++pos;
                continue;
            }
            if (text[pos] == ']') {
                ++pos;
                return true;
            }
            return false;
        }
    }

    bool parseString(std::string &out)
    {
        if (pos >= text.size() || text[pos] != '"')
            return false;
        ++pos;
        out.clear();
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] == '\\') {
                ++pos;
                if (pos >= text.size())
                    return false;
            } else {
                out.push_back(text[pos]);
            }
            ++pos;
        }
        if (pos >= text.size())
            return false;
        ++pos; // closing quote
        return true;
    }

    bool parseLiteralOrNumber()
    {
        const std::size_t start = pos;
        while (pos < text.size() &&
               (std::isalnum(static_cast<unsigned char>(text[pos])) ||
                text[pos] == '-' || text[pos] == '+' ||
                text[pos] == '.'))
            ++pos;
        return pos > start;
    }

    std::string text;
    std::size_t pos = 0;
    int traceEvents = 0;
    std::map<char, int> phases;
};

TEST(MetricRegistry, FindOrCreateReturnsSameObject)
{
    MetricRegistry reg;
    obs::Counter &a = reg.counter("hits");
    a.inc(3);
    EXPECT_EQ(&reg.counter("hits"), &a);
    EXPECT_EQ(reg.counterValue("hits"), 3u);
    EXPECT_EQ(reg.counterValue("absent"), 0u);

    obs::Gauge &g = reg.gauge("level");
    g.set(2.5);
    EXPECT_EQ(&reg.gauge("level"), &g);
    EXPECT_DOUBLE_EQ(reg.gauge("level").value(), 2.5);
}

TEST(MetricRegistry, SampleDueFollowsStride)
{
    MetricRegistry off(0);
    EXPECT_FALSE(off.sampleDue(0));
    EXPECT_FALSE(off.sampleDue(100));

    MetricRegistry reg(10);
    EXPECT_TRUE(reg.sampleDue(10));
    EXPECT_TRUE(reg.sampleDue(20));
    EXPECT_FALSE(reg.sampleDue(5));
    EXPECT_FALSE(reg.sampleDue(11));
}

TEST(MetricRegistry, SeriesRowsAndColumnFreeze)
{
    MetricRegistry reg(10);
    obs::Counter &c = reg.counter("events");
    obs::Gauge &g = reg.gauge("depth");

    c.inc(4);
    g.set(1.5);
    reg.sample(10);
    c.inc(2);
    g.set(0.5);
    reg.sample(20);

    ASSERT_EQ(reg.seriesRowCount(), 2u);
    ASSERT_EQ(reg.seriesColumns().size(), 2u);
    EXPECT_EQ(reg.seriesColumns()[0], "events");
    EXPECT_EQ(reg.seriesColumns()[1], "depth");
    EXPECT_EQ(reg.seriesCycles()[0], 10u);
    EXPECT_EQ(reg.seriesCycles()[1], 20u);
    EXPECT_DOUBLE_EQ(reg.seriesRow(0)[0], 4.0);
    EXPECT_DOUBLE_EQ(reg.seriesRow(0)[1], 1.5);
    EXPECT_DOUBLE_EQ(reg.seriesRow(1)[0], 6.0);
    EXPECT_DOUBLE_EQ(reg.seriesRow(1)[1], 0.5);

    // The column set froze at the first sample: registering a new
    // column afterwards is a caught bug, not a silent ragged row.
    EXPECT_DEATH(reg.counter("late"), "registered after");
}

TEST(MetricRegistry, JsonPinsSchemaAndParses)
{
    MetricRegistry reg(5);
    reg.counter("events").inc(7);
    reg.gauge("depth").set(3.0);
    reg.histogram("occ:test", 1.0, 4).add(2.0);
    reg.sample(5);

    std::ostringstream json;
    reg.writeJson(json);
    // The schema tag is a public contract (ISSUE: smoke tests pin
    // it); bump it only with a new schema version.
    EXPECT_NE(json.str().find("\"damq-metrics-v1\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"occ:test\""), std::string::npos);

    MiniJsonParser parser(json.str());
    EXPECT_TRUE(parser.parse());

    std::ostringstream csv;
    reg.writeCsv(csv);
    EXPECT_EQ(csv.str().substr(0, csv.str().find('\n')),
              "cycle,events,depth");
}

TEST(PacketTracer, RecordsAndCapsEvents)
{
    PacketTracer tracer(3);
    tracer.instant("a", "t", 1, 0, 0);
    tracer.complete("b", "t", 2, 5, 0, 0);
    tracer.asyncBegin("c", "t", 42, 3, 0, 0);
    EXPECT_EQ(tracer.eventCount(), 3u);
    EXPECT_EQ(tracer.droppedEvents(), 0u);

    tracer.asyncEnd("c", "t", 42, 9, 0, 0);
    EXPECT_EQ(tracer.eventCount(), 3u);
    EXPECT_EQ(tracer.droppedEvents(), 1u);
}

TEST(PacketTracer, ChromeTraceRoundTrips)
{
    PacketTracer tracer;
    tracer.setProcessName(0, "stage0");
    tracer.setThreadName(0, 1, "sw0.in1");
    tracer.instant("gen", "pkt", 4, 0, 1);
    tracer.complete("p7", "queue", 5, 3, 0, 1,
                    "{\"pkt\": 7, \"out\": 2, \"wait\": 3}");
    tracer.asyncBegin("pkt", "pkt", 7, 5, 0, 1,
                      "{\"src\": 0, \"dest\": 3, \"slots\": 1}");
    tracer.asyncEnd("pkt", "pkt", 7, 9, 0, 1);

    std::ostringstream out;
    tracer.writeChromeTrace(out);

    MiniJsonParser parser(out.str());
    ASSERT_TRUE(parser.parse()) << out.str();
    // 2 metadata + 4 recorded events.
    EXPECT_EQ(parser.traceEventCount(), 6);
    EXPECT_EQ(parser.phCount('M'), 2);
    EXPECT_EQ(parser.phCount('i'), 1);
    EXPECT_EQ(parser.phCount('X'), 1);
    EXPECT_EQ(parser.phCount('b'), 1);
    EXPECT_EQ(parser.phCount('e'), 1);
}

TEST(QueueProbe, ObservesOccupancyAndWaitingTime)
{
    TelemetryConfig cfg;
    cfg.metricsEvery = 100;
    cfg.tracePackets = true;
    Telemetry telemetry(cfg);

    auto buffer = makeBuffer(BufferType::Damq, 4, 8);
    telemetry.attachProbe(*buffer, "q0", /*pid=*/1, /*tid=*/2);
    ASSERT_NE(buffer->attachedProbe(), nullptr);

    Packet pkt;
    pkt.id = 11;
    pkt.outPort = 0;
    telemetry.beginCycle(10);
    buffer->push(pkt);
    telemetry.beginCycle(17);
    buffer->pop(0);

    MetricRegistry &reg = telemetry.metrics();
    EXPECT_EQ(reg.counterValue("buf.enqueues"), 1u);
    EXPECT_EQ(reg.counterValue("buf.dequeues"), 1u);

    // Same geometry the probe used: occupancy gets one bin per slot
    // plus empty, waits are 1-cycle bins.
    Histogram &occ = reg.histogram("occ:q0", 1.0, 9);
    EXPECT_EQ(occ.count(), 2u);   // one enqueue + one dequeue sample
    EXPECT_EQ(occ.binCount(0), 1u); // empty after the pop
    EXPECT_EQ(occ.binCount(1), 1u); // one slot used after the push

    Histogram &wait = reg.histogram("wait:q0", 1.0, 1024);
    ASSERT_EQ(wait.count(), 1u);
    EXPECT_EQ(wait.binCount(7), 1u); // waited 17 - 10 = 7 cycles

    // The residency became one complete ('X') span on pid 1, tid 2.
    ASSERT_NE(telemetry.trace(), nullptr);
    EXPECT_EQ(telemetry.trace()->eventCount(), 1u);
}

TEST(Telemetry, SampleHooksRunOnStride)
{
    TelemetryConfig cfg;
    cfg.metricsEvery = 5;
    Telemetry telemetry(cfg);
    EXPECT_TRUE(cfg.enabled());
    EXPECT_EQ(telemetry.trace(), nullptr); // tracing not requested

    int hook_runs = 0;
    telemetry.metrics().gauge("depth");
    telemetry.addSampleHook([&] {
        ++hook_runs;
        telemetry.metrics().gauge("depth").set(hook_runs);
    });

    for (Cycle cycle = 1; cycle <= 10; ++cycle) {
        telemetry.beginCycle(cycle);
        telemetry.endCycle();
    }

    EXPECT_EQ(hook_runs, 2); // cycles 5 and 10
    ASSERT_EQ(telemetry.metrics().seriesRowCount(), 2u);
    EXPECT_DOUBLE_EQ(telemetry.metrics().seriesRow(1)[0], 2.0);
}

TEST(Telemetry, ConfigEnabledSemantics)
{
    EXPECT_FALSE(TelemetryConfig{}.enabled());
    TelemetryConfig metrics_only;
    metrics_only.metricsEvery = 1;
    EXPECT_TRUE(metrics_only.enabled());
    TelemetryConfig trace_only;
    trace_only.tracePackets = true;
    EXPECT_TRUE(trace_only.enabled());
}

TEST(Telemetry, WriteFilesEmitsAllThree)
{
    const std::string prefix =
        testing::TempDir() + "damq_obs_writefiles";

    TelemetryConfig cfg;
    cfg.metricsEvery = 2;
    cfg.tracePackets = true;
    cfg.outputPrefix = prefix;
    Telemetry telemetry(cfg);
    telemetry.metrics().counter("events").inc();
    telemetry.trace()->instant("gen", "pkt", 1, 0, 0);
    telemetry.beginCycle(2);
    telemetry.endCycle();

    EXPECT_EQ(telemetry.writeFiles(), 3);

    for (const char *suffix :
         {".metrics.json", ".metrics.csv", ".trace.json"}) {
        std::ifstream in(prefix + suffix);
        EXPECT_TRUE(in.good()) << suffix;
        std::stringstream body;
        body << in.rdbuf();
        EXPECT_FALSE(body.str().empty()) << suffix;
        if (std::string(suffix).find(".json") != std::string::npos) {
            MiniJsonParser parser(body.str());
            EXPECT_TRUE(parser.parse()) << suffix;
        }
        std::remove((prefix + suffix).c_str());
    }
}

TEST(Telemetry, EndToEndNetworkSimTraceRoundTrips)
{
    FabricConfig cfg;
    cfg.numPorts = 16;
    cfg.radix = 4;
    cfg.offeredLoad = 0.4;
    cfg.common.seed = 7;
    cfg.common.warmupCycles = 50;
    cfg.common.measureCycles = 400;

    // Baseline run with telemetry off.
    FabricSimulator plain(cfg);
    EXPECT_EQ(plain.telemetryOrNull(), nullptr);
    const core::SyncResult base = plain.run();

    // Instrumented run: same config plus metrics + tracing.
    cfg.common.telemetry.metricsEvery = 50;
    cfg.common.telemetry.tracePackets = true;
    FabricSimulator sim(cfg);
    ASSERT_NE(sim.telemetryOrNull(), nullptr);
    const core::SyncResult result = sim.run();

    // Observation must not perturb the simulation.
    EXPECT_EQ(result.window.delivered, base.window.delivered);
    EXPECT_EQ(result.window.generated, base.window.generated);
    EXPECT_DOUBLE_EQ(result.deliveredThroughput,
                     base.deliveredThroughput);
    EXPECT_DOUBLE_EQ(result.latency.mean(), base.latency.mean());

    Telemetry &telemetry = *sim.telemetryOrNull();
    EXPECT_GT(telemetry.metrics().seriesRowCount(), 0u);
    EXPECT_GT(telemetry.metrics().counterValue("buf.enqueues"), 0u);

    ASSERT_NE(telemetry.trace(), nullptr);
    EXPECT_GT(telemetry.trace()->eventCount(), 0u);
    EXPECT_EQ(telemetry.trace()->droppedEvents(), 0u);

    std::ostringstream out;
    telemetry.trace()->writeChromeTrace(out);
    MiniJsonParser parser(out.str());
    ASSERT_TRUE(parser.parse());
    // Every delivered packet closes the async pair its injection
    // opened; packets still in flight leave unmatched 'b's.
    EXPECT_GE(parser.phCount('b'),
              static_cast<int>(result.window.delivered));
    EXPECT_GT(parser.phCount('e'), 0);
    EXPECT_LE(parser.phCount('e'), parser.phCount('b'));
}

} // namespace
} // namespace damq
