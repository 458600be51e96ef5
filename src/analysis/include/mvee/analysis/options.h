// Analysis engine knobs.
//
// Baseline-toggle contract (MVEE_ANALYSIS_FAST_SOLVER, below): the
// production configuration is the default, the seed/textbook configuration
// stays in-binary behind a bool as the tests' equality oracle, an
// environment variable flips the default so whole test suites sweep the
// baseline without edits, and explicit assignments in code always win.

#ifndef MVEE_ANALYSIS_OPTIONS_H_
#define MVEE_ANALYSIS_OPTIONS_H_

#include <cstdlib>

namespace mvee {

// Default for AnalysisOptions::fast_solver: on, unless the environment
// forces the textbook baseline (MVEE_ANALYSIS_FAST_SOLVER=0).
inline bool DefaultFastSolver() {
  const char* env = std::getenv("MVEE_ANALYSIS_FAST_SOLVER");
  return env == nullptr || env[0] != '0';
}

struct AnalysisOptions {
  // On: inclusion solving — Andersen and the field-sensitive analysis —
  // uses the wave-propagation engine (sparse bitmaps, difference
  // propagation, online cycle collapse — wave_solver.h). Off: the textbook
  // std::set worklist solver. Both produce bit-identical points-to
  // solutions (tests/analysis_test.cc proves it per register); only cost
  // differs. bench_analysis.cc measures the gap and CI gates on it.
  bool fast_solver = DefaultFastSolver();
};

}  // namespace mvee

#endif  // MVEE_ANALYSIS_OPTIONS_H_
