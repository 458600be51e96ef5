// Field-sensitive Andersen-style points-to analysis.
//
// The paper's §4.3.1 post-mortem of its two automation attempts is all about
// field sensitivity on heap objects:
//
//   "Although DSA is field-sensitive, we found that the field sensitivity is
//    often lost because heap objects of incompatible types get unified. ...
//    Although SVF does a better job at maintaining field sensitivity, we
//    found no way to query its field sensitive results for heap objects. ...
//    In both cases, the majority of type (iii) instructions that target
//    heap-allocated variables are classified as potential aliases of type
//    (i) and (ii) instruction operands."
//
// This analysis is the missing piece the paper left to future work: an
// inclusion-based solution whose abstract locations are (object, field)
// pairs, queryable at field granularity for heap objects. A heap node
// carrying an atomically-updated reference count in field 0 and payload in
// fields 1..n (the STL refcounting pattern of §5.3) keeps its payload
// accesses unmarked, where the field-insensitive analyses mark every access
// to the object.
//
// It is no separate solver: the constraint program lowers each kGep to a
// field select (constraints.h), and the Andersen engines — the wave solver
// or, with fast_solver off, the textbook oracle — solve it. Opaque pointer
// arithmetic (kGep with field = -1) collapses the result to the any-field
// wildcard — exactly the SVF conservatism the paper observed.

#ifndef MVEE_ANALYSIS_FIELD_SENSITIVE_H_
#define MVEE_ANALYSIS_FIELD_SENSITIVE_H_

#include <cstdint>
#include <set>

#include "mvee/analysis/constraints.h"
#include "mvee/analysis/mir.h"
#include "mvee/analysis/options.h"
#include "mvee/analysis/syncop_analysis.h"

namespace mvee {

// Abstract location: a field within an object. field == kAnyField matches
// every field of the object (result of opaque arithmetic).
struct FieldLoc {
  int32_t object = -1;
  int32_t field = 0;

  static constexpr int32_t kAnyField = LocationSpace::kAnyField;

  friend bool operator<(const FieldLoc& a, const FieldLoc& b) {
    return a.object != b.object ? a.object < b.object : a.field < b.field;
  }
  friend bool operator==(const FieldLoc&, const FieldLoc&) = default;
};

// Two locations may denote the same memory iff the objects match and either
// field is the wildcard or they are equal.
bool LocsMayAlias(const FieldLoc& a, const FieldLoc& b);

class FieldSensitiveAnalysis {
 public:
  explicit FieldSensitiveAnalysis(const MirModule& module, const AnalysisOptions& options = {});

  // The (object, field) locations `reg` may point to, materialized.
  std::set<FieldLoc> PointsTo(int32_t reg) const;

  // True if some location of `reg_a` may alias some location of `reg_b`.
  bool MayAlias(int32_t reg_a, int32_t reg_b) const;

  const PointsToSolution& solution() const { return solution_; }
  const AnalysisStats& stats() const { return solution_.stats; }

 private:
  PointsToSolution solution_;
};

// The two-stage identification of §4.3 at field granularity. Same report
// shape as the field-insensitive pipelines so the three can be compared
// row by row (bench_table3_syncops does).
SyncOpReport IdentifySyncOpsFieldSensitive(const MirModule& module,
                                           const SyncOpAnalysisOptions& options = {});

}  // namespace mvee

#endif  // MVEE_ANALYSIS_FIELD_SENSITIVE_H_
