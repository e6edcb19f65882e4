// Lint fixture (never compiled): the sinks inside src/obs call each other
// directly, and obs-seam must stay silent here.
#include "obs/telemetry.hpp"

namespace lint_fixture {

inline void sink() { ompmca::obs::count(ompmca::obs::Counter::kGompFor); }

}  // namespace lint_fixture
