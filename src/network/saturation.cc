#include "network/saturation.hh"

namespace damq {

// One definition of each sweep per simulator family, so the many
// benches and tests that sweep loads share object code.

template std::vector<SweepPoint> sweepLoads(
    const NetworkConfig &, const std::vector<double> &);
template std::vector<SweepPoint> sweepLoads(
    const MeshConfig &, const std::vector<double> &);
template std::vector<SweepPoint> sweepLoads(
    const TorusConfig &, const std::vector<double> &);

template SaturationSummary measureSaturation(const NetworkConfig &);
template SaturationSummary measureSaturation(const MeshConfig &);
template SaturationSummary measureSaturation(const TorusConfig &);

template double latencyAtLoad(const NetworkConfig &, double);
template double latencyAtLoad(const MeshConfig &, double);
template double latencyAtLoad(const TorusConfig &, double);

} // namespace damq
