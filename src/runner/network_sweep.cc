#include "runner/network_sweep.hh"

namespace damq {

NetworkConfig
atLoad(const NetworkConfig &base, double load)
{
    NetworkConfig cfg = base;
    cfg.offeredLoad = load;
    return cfg;
}

MeshConfig
atLoad(const MeshConfig &base, double load)
{
    MeshConfig cfg = base;
    cfg.offeredLoad = load;
    return cfg;
}

TorusConfig
atLoad(const TorusConfig &base, double load)
{
    TorusConfig cfg = base;
    cfg.offeredLoad = load;
    return cfg;
}

} // namespace damq
