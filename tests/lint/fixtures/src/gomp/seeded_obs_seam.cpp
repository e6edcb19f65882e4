// Lint fixture (never compiled): one direct sink call outside src/obs.
#include "obs/event.hpp"

namespace lint_fixture {

inline void unseamed() { ompmca::obs::count(ompmca::obs::Counter::kGompFor); }

inline void seamed() {
  // Control: the seam's own hooks must NOT be reported, nor a sink named in
  // a comment like obs::count(...).
  ompmca::obs::Scope event(ompmca::obs::Event::kFor);
  ompmca::obs::emit(ompmca::obs::Event::kLoopChunk, 0, 1);
}

}  // namespace lint_fixture
