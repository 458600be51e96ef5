#include "mvee/analysis/field_sensitive.h"

#include "mvee/analysis/andersen.h"

namespace mvee {

bool LocsMayAlias(const FieldLoc& a, const FieldLoc& b) {
  if (a.object != b.object) {
    return false;
  }
  return a.field == FieldLoc::kAnyField || b.field == FieldLoc::kAnyField ||
         a.field == b.field;
}

FieldSensitiveAnalysis::FieldSensitiveAnalysis(const MirModule& module,
                                               const AnalysisOptions& options)
    : solution_(SolveInclusion(module, BuildConstraintProgram(module, FieldModel::kSensitive),
                               options)) {}

std::set<FieldLoc> FieldSensitiveAnalysis::PointsTo(int32_t reg) const {
  const LocationSpace& locations = solution_.locations;
  std::set<FieldLoc> result;
  solution_.Locations(reg).ForEach([&](uint32_t loc) {
    result.insert({locations.ObjectOf(loc), locations.FieldOf(loc)});
  });
  return result;
}

bool FieldSensitiveAnalysis::MayAlias(int32_t reg_a, int32_t reg_b) const {
  return solution_.Locations(reg_a).Intersects(
      solution_.locations.MayAliasClosure(solution_.Locations(reg_b)));
}

SyncOpReport IdentifySyncOpsFieldSensitive(const MirModule& module,
                                           const SyncOpAnalysisOptions& options) {
  return IdentifySyncOpsIn(module, FieldSensitiveAnalysis(module, options.analysis).solution(),
                           options);
}

}  // namespace mvee
