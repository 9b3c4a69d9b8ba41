/**
 * @file
 * Error-path tests: the library's contract is that user mistakes
 * hit damq_fatal (clean exit 1) and internal invariant violations
 * hit damq_panic (abort).  These death tests pin the guard rails
 * that the other suites rely on never firing.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "microarch/routing_table.hh"
#include "network/fabric_sim.hh"
#include "network/omega_topology.hh"
#include "queueing/buffer_factory.hh"
#include "queueing/damq_buffer.hh"
#include "queueing/fifo_buffer.hh"
#include "runner/sim_flags.hh"

namespace damq {
namespace {

using ExitWithError = ::testing::ExitedWithCode;

/** Run argv through an ArgParser and an enum *Option() helper —
 *  the CLI path every front-end takes since the throwing parsers
 *  were removed. */
template <typename OptionFn>
void
parseCli(const char *flag, const char *value,
         const std::string &help, OptionFn &&option)
{
    ArgParser args("test", "error-path probe");
    args.addOption(flag, "", help);
    std::string flag_arg = std::string("--") + flag;
    std::string value_arg = value;
    char *argv[] = {const_cast<char *>("test"), flag_arg.data(),
                    value_arg.data(), nullptr};
    args.parse(3, argv);
    option(args, flag);
}

TEST(ErrorPaths, UnknownBufferNameIsFatal)
{
    EXPECT_EXIT(parseCli("buffer", "damqq", kBufferTypeChoices,
                         [](const ArgParser &a, const char *n) {
                             bufferTypeOption(a, n);
                         }),
                ExitWithError(1), "unknown buffer type 'damqq'");
}

TEST(ErrorPaths, UnknownProtocolIsFatal)
{
    EXPECT_EXIT(parseCli("protocol", "drop", kFlowControlChoices,
                         [](const ArgParser &a, const char *n) {
                             flowControlOption(a, n);
                         }),
                ExitWithError(1), "unknown flow control 'drop'");
}

TEST(ErrorPaths, UnknownRecoveryPolicyIsFatal)
{
    EXPECT_EXIT(parseCli("recovery", "retry-forever",
                         kRecoveryPolicyChoices,
                         [](const ArgParser &a, const char *n) {
                             recoveryPolicyOption(a, n);
                         }),
                ExitWithError(1),
                "unknown recovery policy 'retry-forever'");
}

TEST(ErrorPaths, IndivisiblePartitionIsFatal)
{
    EXPECT_EXIT(makeBuffer(BufferType::Samq, 4, 6), ExitWithError(1),
                "divisible");
}

TEST(ErrorPaths, PopFromEmptyQueuePanics)
{
    DamqBuffer buf(4, 4);
    EXPECT_DEATH(buf.pop(1), "pop");
}

TEST(ErrorPaths, FifoPopForWrongOutputPanics)
{
    FifoBuffer buf(4, 4);
    Packet p;
    p.id = 1;
    p.outPort = 2;
    p.lengthSlots = 1;
    buf.push(p);
    EXPECT_DEATH(buf.pop(1), "head-of-line is elsewhere");
}

TEST(ErrorPaths, OverfillPanics)
{
    DamqBuffer buf(2, 1);
    Packet p;
    p.id = 1;
    p.outPort = 0;
    p.lengthSlots = 1;
    buf.push(p);
    EXPECT_DEATH(buf.push(p), "full");
}

TEST(ErrorPaths, NonPowerNetworkIsRejected)
{
    EXPECT_DEATH(OmegaTopology(60, 4), "not an exact power");
}

TEST(ErrorPaths, FabricRejectsNonPowerOmega)
{
    FabricConfig cfg;
    cfg.numPorts = 60;
    EXPECT_EXIT(FabricSimulator sim(cfg), ExitWithError(1),
                "60 ports is not an exact power of radix 4");
}

TEST(ErrorPaths, GridRejectsNonInputPlacement)
{
    // Grid switches are input-buffered only: another placement must
    // be refused, never quietly replaced.
    for (FabricConfig cfg : {FabricConfig::mesh(), FabricConfig::torus()}) {
        for (const BufferPlacement placement :
             {BufferPlacement::Central, BufferPlacement::Output}) {
            cfg.placement = placement;
            EXPECT_EXIT(FabricSimulator sim(cfg), ExitWithError(1),
                        "input-buffered; .* placement is available "
                        "on the omega network only");
        }
    }
}

TEST(ErrorPaths, GridShapeIsValidated)
{
    FabricConfig tiny = FabricConfig::mesh();
    tiny.width = 1;
    EXPECT_EXIT(FabricSimulator sim(tiny), ExitWithError(1),
                "mesh needs at least 2x2 nodes, got 1x8");

    FabricConfig oblong = FabricConfig::torus();
    oblong.height = 4;
    oblong.traffic = "transpose";
    EXPECT_EXIT(FabricSimulator sim(oblong), ExitWithError(1),
                "transpose traffic needs a square torus, got 8x4");
}

TEST(ErrorPaths, ExcessiveBurstinessIsFatal)
{
    FabricConfig cfg;
    cfg.offeredLoad = 0.6;
    cfg.common.workload.kind = core::WorkloadKind::OnOff;
    cfg.common.workload.burstiness = 2.0; // peak 1.2 > 1
    EXPECT_EXIT(FabricSimulator sim(cfg), ExitWithError(1),
                "exceeds 1 packet/source/cycle");
}

TEST(ErrorPaths, UnprogrammedCircuitPanics)
{
    micro::RoutingTable table;
    EXPECT_DEATH(table.route(9), "unprogrammed circuit");
}

TEST(ErrorPaths, ReprogrammingMidMessagePanics)
{
    micro::RoutingTable table;
    table.program(3, 1, 3);
    table.beginMessage(3, 100);
    EXPECT_DEATH(table.program(3, 2, 3), "mid-message");
}

} // namespace
} // namespace damq
