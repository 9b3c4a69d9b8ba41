/**
 * @file
 * Compatibility names for the torus front-end, which is now
 * FabricSimulator over FabricConfig::torus() (network/fabric_sim.hh).
 * New code includes fabric_sim.hh; these names keep older programs
 * compiling unchanged.
 */

#ifndef DAMQ_NETWORK_TORUS_SIM_HH
#define DAMQ_NETWORK_TORUS_SIM_HH

#include "network/fabric_sim.hh"

namespace damq {

/** A FabricConfig that starts from the torus defaults. */
struct TorusConfig : FabricConfig
{
    TorusConfig() : FabricConfig(FabricConfig::torus()) {}
};

using TorusSimulator = FabricSimulator;

} // namespace damq

#endif // DAMQ_NETWORK_TORUS_SIM_HH
