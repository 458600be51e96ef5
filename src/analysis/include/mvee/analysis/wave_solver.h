// Wave-propagation inclusion solver (Hardekopf & Lin, "The Ant and the
// Grasshopper", adapted).
//
// The textbook solver (andersen.cc's baseline engine) pops one register at a
// time and re-inserts its whole points-to set into every successor — on
// copy cycles (mutually recursive parameter passing, function-pointer rings)
// it re-propagates the same elements around the cycle once per element, and
// every insert is a std::set tree walk. This engine removes all three costs:
//
//   * sparse bitmaps (sparse_bitmap.h): word-parallel set union, ~64x less
//     memory per element than std::set nodes;
//   * difference propagation: each node remembers the frontier it already
//     pushed (prev_pts); a wave only moves pts - prev_pts along edges, so an
//     unchanged set costs one merge scan, not |set| inserts;
//   * online cycle detection: before every wave, Tarjan SCCs over the
//     current copy graph collapse cycles into single nodes (union-find), so
//     a K-node parameter ring propagates once instead of K times per
//     element; the condensation is then processed in topological order, so
//     one wave reaches the fixpoint for a fixed graph.
//
// Field selects (field-sensitive programs) ride the same waves: each node
// pushes select_f(delta) along its select out-edges. They are not copy
// edges, so they never join a collapsed cycle; a collapse merges the
// members' select out-edges onto the representative, which re-pushes its
// whole set once like any merged node. A select into a node the wave has
// already passed is picked up by the next wave.
//
// Indirect calls are the one graph-growing constraint (MIR has no
// load/store-deref pointer flow): after every wave, new function objects in
// pts(fptr) resolve to new parameter/return copy edges, and the loop
// repeats — the classic on-the-fly call-graph / points-to fixpoint. The
// solution is bit-identical to the baseline engine's (the differential
// tests in tests/analysis_test.cc prove it per register).

#ifndef MVEE_ANALYSIS_WAVE_SOLVER_H_
#define MVEE_ANALYSIS_WAVE_SOLVER_H_

#include "mvee/analysis/constraints.h"

namespace mvee {

// Cycle members share one bitmap (solution.rep names the collapsed node) —
// part of the memory win.
PointsToSolution SolveWave(const MirModule& module, const ConstraintProgram& program);

}  // namespace mvee

#endif  // MVEE_ANALYSIS_WAVE_SOLVER_H_
