// Andersen-style subset-based points-to analysis over MIR.
//
// The paper's second automation attempt used SVF, "an Andersen-style,
// subset-based points-to analysis" (§4.3.1), noting it keeps more precision
// than Steensgaard's unification but is costlier. Cost is exactly why the
// paper abandoned it at production scale — so this class carries two
// engines behind AnalysisOptions::fast_solver:
//
//   fast_solver = false  the textbook inclusion-constraint worklist over
//                        std::set (the seed implementation, kept in-binary
//                        as the measurable baseline);
//   fast_solver = true   the wave-propagation engine (wave_solver.h):
//                        sparse bitmaps, difference propagation, online
//                        cycle collapse.
//
// Both engines consume the same ConstraintProgram (constraints.h) — AddrOf,
// copy, field select, and interprocedural parameter/return flow, with
// indirect-call targets resolved on the fly from the growing points-to
// solution — and produce bit-identical solutions; the differential tests in
// tests/analysis_test.cc prove per-register equality on randomized modules.
// The field-sensitive analysis (field_sensitive.h) is the same two engines
// run on the program's field-sensitive lowering.
//
// The directionality is what distinguishes it from Steensgaard: `p = &x;
// p = &y; q = &y` does NOT force x into pts(q). The analysis bench compares
// the two on precision (spurious type-(iii) marks) and run time.

#ifndef MVEE_ANALYSIS_ANDERSEN_H_
#define MVEE_ANALYSIS_ANDERSEN_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "mvee/analysis/constraints.h"
#include "mvee/analysis/mir.h"
#include "mvee/analysis/options.h"

namespace mvee {

// Solves `program` with the engine `options` selects: the wave solver
// (fast_solver) or the textbook baseline.
PointsToSolution SolveInclusion(const MirModule& module, const ConstraintProgram& program,
                                const AnalysisOptions& options);

class AndersenAnalysis {
 public:
  explicit AndersenAnalysis(const MirModule& module, const AnalysisOptions& options = {});

  // The set of object indices pointer register `reg` may point to,
  // materialized. Convenient for tests; hot paths should use ForEachPointee,
  // which walks the bitmap solution directly.
  std::set<int32_t> PointsTo(int32_t reg) const;

  // Sorted pointee ids — the differential tests' comparison form.
  std::vector<int32_t> PointsToSorted(int32_t reg) const;

  template <typename Fn>
  void ForEachPointee(int32_t reg, Fn fn) const {
    solution_.Locations(reg).ForEach([&](uint32_t object) { fn(static_cast<int32_t>(object)); });
  }

  bool MayAlias(int32_t reg_a, int32_t reg_b) const;

  // Locations are objects (one slot per object).
  const PointsToSolution& solution() const { return solution_; }
  const AnalysisStats& stats() const { return solution_.stats; }

 private:
  PointsToSolution solution_;
};

// All call-induced def-use copy pairs (dst, src): direct calls resolved
// statically, indirect calls from the points-to fixpoint. The _Atomic
// qualifier propagation (atomic_check.cc) walks these like Mov edges.
std::vector<std::pair<int32_t, int32_t>> ResolveCallCopies(const MirModule& module,
                                                           const AnalysisOptions& options = {});

}  // namespace mvee

#endif  // MVEE_ANALYSIS_ANDERSEN_H_
