/**
 * @file
 * Compatibility names for the Omega front-end, which is now
 * FabricSimulator over a FabricConfig (network/fabric_sim.hh).  New
 * code includes fabric_sim.hh; these aliases keep older programs
 * compiling unchanged.
 */

#ifndef DAMQ_NETWORK_NETWORK_SIM_HH
#define DAMQ_NETWORK_NETWORK_SIM_HH

#include "network/fabric_sim.hh"

namespace damq {

/** A default FabricConfig is the Omega network's. */
using NetworkConfig = FabricConfig;

using NetworkSimulator = FabricSimulator;

} // namespace damq

#endif // DAMQ_NETWORK_NETWORK_SIM_HH
