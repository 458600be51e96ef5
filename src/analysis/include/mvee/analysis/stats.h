// Unified per-analysis cost accounting.
//
// Every points-to engine (Steensgaard, and the textbook and wave inclusion
// solvers, which serve both Andersen and the field-sensitive analysis) fills
// one AnalysisStats during construction
// instead of growing ad-hoc per-class getters. The stats ride along in
// SyncOpReport, show up in the Table-3 output, and are what
// bench_analysis.cc serializes into BENCH_analysis.json — so solver cost is
// diffable across commits the same way agent throughput is.

#ifndef MVEE_ANALYSIS_STATS_H_
#define MVEE_ANALYSIS_STATS_H_

#include <cstdint>
#include <string>

namespace mvee {

struct AnalysisStats {
  // Which analysis and engine produced the solution ("steensgaard",
  // "andersen-baseline", "andersen-wave", "field-sensitive-baseline",
  // "field-sensitive-wave").
  std::string solver;
  // Worklist pops (set-based solvers) / node visits across waves (wave
  // solver) / unify operations (Steensgaard). The engines' unit of work.
  uint64_t solver_iterations = 0;
  // Seed constraints extracted from the module (addr-of + copy + field
  // select + call).
  uint64_t constraints = 0;
  // Copy-graph edges, including edges added by call resolution.
  uint64_t copy_edges = 0;
  // Call-graph edges resolved (direct + indirect x callee).
  uint64_t call_edges_resolved = 0;
  // Constraint nodes unified by online cycle detection (wave solver) or by
  // class unification (Steensgaard).
  uint64_t sccs_collapsed = 0;
  // Memory footprint of the final points-to solution in the engine's native
  // representation (sets vs sparse bitmaps).
  uint64_t points_to_bytes = 0;
};

}  // namespace mvee

#endif  // MVEE_ANALYSIS_STATS_H_
