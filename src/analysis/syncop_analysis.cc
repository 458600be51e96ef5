#include "mvee/analysis/syncop_analysis.h"

#include <sstream>

#include "mvee/analysis/points_to.h"

namespace mvee {

SyncOpReport IdentifySyncOpsIn(const MirModule& module, const PointsToSolution& solution,
                               const SyncOpAnalysisOptions& options) {
  SyncOpReport report;
  report.module_name = module.name;
  report.stats = solution.stats;
  const LocationSpace& locations = solution.locations;

  // Stage 1: mark type (i) and (ii) instructions; the locations their
  // pointer operands may reference seed the sync variables.
  SparseBitmap seeds;
  for (const auto& function : module.functions) {
    for (size_t i = 0; i < function.instructions.size(); ++i) {
      const MirInst& inst = function.instructions[i];
      if (inst.op != MirOp::kLockRmw && inst.op != MirOp::kXchg) {
        continue;
      }
      auto& bucket = inst.op == MirOp::kLockRmw ? report.type_i : report.type_ii;
      bucket.push_back({function.name, i, inst.source_line, inst.op});
      seeds.UnionWith(solution.Locations(inst.ptr));
    }
  }

  // Volatile extension (§4.3): a volatile object is a sync variable, all of
  // its fields included.
  if (options.treat_volatile_as_sync) {
    for (size_t obj = 0; obj < module.objects.size(); ++obj) {
      if (module.objects[obj].is_volatile) {
        locations.InsertObject(static_cast<int32_t>(obj), &seeds);
      }
    }
  }
  seeds.ForEach([&](uint32_t loc) {
    report.sync_objects.insert(report.sync_objects.end(), locations.ObjectOf(loc));
  });

  // Stage 2: an aligned load/store is a type (iii) sync op iff it may alias
  // a sync variable — at field granularity when the solution has fields, so
  // a different field of an object whose refcount field is locked stays
  // unmarked.
  const SparseBitmap sync_locations = locations.MayAliasClosure(seeds);
  for (const auto& function : module.functions) {
    for (size_t i = 0; i < function.instructions.size(); ++i) {
      const MirInst& inst = function.instructions[i];
      if (inst.op != MirOp::kLoad && inst.op != MirOp::kStore) {
        continue;
      }
      if (solution.Locations(inst.ptr).Intersects(sync_locations)) {
        report.type_iii.push_back({function.name, i, inst.source_line, inst.op});
      } else {
        ++report.unmarked_memops;
      }
    }
  }
  return report;
}

SyncOpReport IdentifySyncOps(const MirModule& module, const SyncOpAnalysisOptions& options) {
  return IdentifySyncOpsIn(module, PointsToAnalysis(module).solution(), options);
}

std::string FormatTable3(const std::vector<SyncOpReport>& reports) {
  std::ostringstream out;
  out << "Module                     (i)    (ii)   (iii)  solver\n";
  out << "-------------------------------------------------------\n";
  for (const auto& report : reports) {
    out << report.module_name;
    for (size_t pad = report.module_name.size(); pad < 25; ++pad) {
      out << ' ';
    }
    char row[128];
    std::snprintf(row, sizeof(row), "%6zu %6zu %6zu  %s iters=%llu\n", report.type_i.size(),
                  report.type_ii.size(), report.type_iii.size(), report.stats.solver.c_str(),
                  static_cast<unsigned long long>(report.stats.solver_iterations));
    out << row;
  }
  return out.str();
}

}  // namespace mvee
