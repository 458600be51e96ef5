// Steensgaard-style unification-based points-to analysis over MIR.
//
// The paper's first automation attempt used LLVM DSA, "a Steensgaard-style,
// unification-based points-to analysis" (§4.3.1). This implementation is the
// textbook algorithm: a union-find over abstract nodes where each node has
// at most one points-to successor; assignments unify the successors. It is
// flow- and field-insensitive (kGep is treated as a copy), which makes it
// sound but over-approximate — exactly the precision profile the paper
// reports for DSA.
//
// Interprocedural flow is unification too: call-site arguments unify with
// callee parameters and returns with call destinations; indirect-call
// targets are the function objects in the fptr's pointee class, iterated to
// a fixpoint (new callees can grow the class, which can reveal new callees).
//
// Queries run off a PointsToSolution built once after solving: one member
// bitmap per pointee class, shared by every register pointing into it — the
// seed implementation rescanned every object per PointsTo call, making each
// query O(#objects) and the stage-2 pipeline quadratic on large modules.

#ifndef MVEE_ANALYSIS_POINTS_TO_H_
#define MVEE_ANALYSIS_POINTS_TO_H_

#include <cstdint>
#include <set>
#include <vector>

#include "mvee/analysis/constraints.h"
#include "mvee/analysis/mir.h"

namespace mvee {

class PointsToAnalysis {
 public:
  // Runs the analysis on `module`.
  explicit PointsToAnalysis(const MirModule& module);

  // The set of object indices pointer register `reg` may point to.
  std::set<int32_t> PointsTo(int32_t reg) const;

  // True if the two registers may point to a common object.
  bool MayAlias(int32_t reg_a, int32_t reg_b) const;

  // Locations are objects (one slot per object); rep[r] names r's pointee
  // class bitmap.
  const PointsToSolution& solution() const { return solution_; }
  const AnalysisStats& stats() const { return solution_.stats; }

 private:
  // Union-find node ids: [0, reg_count) are registers,
  // [reg_count, reg_count + object_count) are objects.
  int32_t Find(int32_t node) const;
  void Union(int32_t a, int32_t b);
  // Returns (creating if needed) the points-to successor of node's class.
  int32_t SuccessorOf(int32_t node);
  // Unifies the successors of two classes (Steensgaard's join).
  void UnifySuccessors(int32_t a, int32_t b);
  // The root of reg's pointee class, or -1 if reg points at nothing.
  int32_t PointeeClassOf(int32_t reg) const;
  // Builds solution_ after the constraint fixpoint.
  void BuildSolution();

  int32_t reg_count_ = 0;
  int32_t object_count_ = 0;
  mutable std::vector<int32_t> parent_;
  std::vector<int32_t> successor_;  // Per class representative; -1 = none.
  PointsToSolution solution_;
};

}  // namespace mvee

#endif  // MVEE_ANALYSIS_POINTS_TO_H_
