/**
 * @file
 * Shared helpers for the bench harnesses: banner printing and the
 * standard simulation settings used across the table benches.
 */

#ifndef DAMQ_BENCH_BENCH_UTIL_HH
#define DAMQ_BENCH_BENCH_UTIL_HH

#include <iostream>
#include <string>

#include "network/fabric_sim.hh"
#include "runner/table_benches.hh"

namespace damq {
namespace bench {

/** Print a section banner. */
inline void
banner(const std::string &title, const std::string &subtitle)
{
    std::cout << "\n==================================================="
                 "=========================\n"
              << title << "\n"
              << subtitle << "\n"
              << "====================================================="
                 "=======================\n";
}

/** The Omega-network settings shared by the Section 4.2 benches. */
inline FabricConfig
paperNetworkConfig()
{
    // Defined beside the runner's Table 4 sweep so the bench
    // executables and the runner tests agree on the experiment.
    return paperOmegaConfig();
}

/** All four buffer organizations, in the paper's table order. */
inline const BufferType kAllBufferTypes[4] = {
    BufferType::Fifo, BufferType::Damq, BufferType::Samq,
    BufferType::Safc};

} // namespace bench
} // namespace damq

#endif // DAMQ_BENCH_BENCH_UTIL_HH
