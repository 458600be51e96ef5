#include "mvee/analysis/andersen.h"

#include <deque>

#include "mvee/analysis/constraints.h"
#include "mvee/analysis/syncop_analysis.h"
#include "mvee/analysis/wave_solver.h"

namespace mvee {

namespace {

// The textbook worklist solver over std::set — the seed implementation,
// kept verbatim in spirit as the measurable baseline and the wave solver's
// equality oracle (selected by MVEE_ANALYSIS_FAST_SOLVER=0). One register
// pops at a time and re-inserts its entire points-to set into every
// successor; indirect calls re-resolve against the full set on every pop.
PointsToSolution SolveBaseline(const MirModule& module, const ConstraintProgram& program) {
  const LocationSpace& locations = program.locations;
  PointsToSolution solution;
  solution.locations = locations;
  AnalysisStats& stats = solution.stats;
  stats.solver = program.SolverName("baseline");
  stats.constraints = program.ConstraintCount();
  stats.call_edges_resolved = program.direct_call_edges;

  const int32_t n = program.reg_count;
  std::vector<std::set<uint32_t>> points_to(n);
  std::vector<std::vector<int32_t>> copy_targets(n);
  // Field-select out-edges (target, slot).
  std::vector<std::vector<std::pair<int32_t, int32_t>>> select_targets(n);
  // Indirect call sites keyed by their function-pointer register.
  std::vector<std::vector<size_t>> sites_on_reg(n);
  std::vector<std::set<int32_t>> resolved(program.indirect_calls.size());

  std::deque<int32_t> worklist;
  for (const auto& [dst, loc] : program.addr_of) {
    if (dst >= 0 && dst < n && points_to[dst].insert(loc).second) {
      worklist.push_back(dst);
    }
  }
  for (const auto& [dst, src] : program.copies) {
    if (dst >= 0 && dst < n && src >= 0 && src < n && dst != src) {
      copy_targets[src].push_back(dst);
      ++stats.copy_edges;
      worklist.push_back(src);
    }
  }
  for (const FieldSelectConstraint& select : program.field_selects) {
    if (select.dst >= 0 && select.dst < n && select.src >= 0 && select.src < n) {
      select_targets[select.src].emplace_back(select.dst, select.slot);
      worklist.push_back(select.src);
    }
  }
  for (size_t site = 0; site < program.indirect_calls.size(); ++site) {
    const int32_t fptr = program.indirect_calls[site].fptr;
    if (fptr >= 0 && fptr < n) {
      sites_on_reg[fptr].push_back(site);
      worklist.push_back(fptr);
    }
  }

  std::vector<uint32_t> selected;
  std::vector<std::pair<int32_t, int32_t>> new_edges;
  while (!worklist.empty()) {
    ++stats.solver_iterations;
    const int32_t reg = worklist.front();
    worklist.pop_front();
    for (int32_t target : copy_targets[reg]) {
      bool changed = false;
      for (uint32_t loc : points_to[reg]) {
        changed |= points_to[target].insert(loc).second;
      }
      if (changed) {
        worklist.push_back(target);
      }
    }
    for (const auto& [target, slot] : select_targets[reg]) {
      selected.clear();
      for (uint32_t loc : points_to[reg]) {
        selected.push_back(locations.Select(loc, slot));
      }
      bool changed = false;
      for (uint32_t loc : selected) {
        changed |= points_to[target].insert(loc).second;
      }
      if (changed) {
        worklist.push_back(target);
      }
    }
    // On-the-fly call graph: new function objects in pts(reg) bind new
    // callees at the sites dispatching through reg.
    for (size_t site : sites_on_reg[reg]) {
      const IndirectCallConstraint& call = program.indirect_calls[site];
      for (uint32_t loc : points_to[reg]) {
        const int32_t callee = program.CalleeOf(loc);
        if (callee < 0 || !resolved[site].insert(callee).second) {
          continue;
        }
        ++stats.call_edges_resolved;
        new_edges.clear();
        AppendCallCopies(module, callee, call.dst, call.args, &new_edges);
        for (const auto& [dst, src] : new_edges) {
          if (dst >= 0 && dst < n && src >= 0 && src < n && dst != src) {
            copy_targets[src].push_back(dst);
            ++stats.copy_edges;
            worklist.push_back(src);
          }
        }
      }
    }
  }

  solution.rep.resize(n);
  solution.pts.resize(n);
  for (int32_t reg = 0; reg < n; ++reg) {
    solution.rep[reg] = reg;
    for (uint32_t loc : points_to[reg]) {
      solution.pts[reg].Insert(loc);
    }
    // std::set stores one red-black node (~64 bytes with pointers, color,
    // and the payload) per element — the representation cost the sparse
    // bitmaps exist to kill.
    stats.points_to_bytes += sizeof(points_to[reg]) + points_to[reg].size() * 64;
  }
  return solution;
}

}  // namespace

PointsToSolution SolveInclusion(const MirModule& module, const ConstraintProgram& program,
                                const AnalysisOptions& options) {
  return options.fast_solver ? SolveWave(module, program) : SolveBaseline(module, program);
}

AndersenAnalysis::AndersenAnalysis(const MirModule& module, const AnalysisOptions& options)
    : solution_(SolveInclusion(module, BuildConstraintProgram(module), options)) {}

std::set<int32_t> AndersenAnalysis::PointsTo(int32_t reg) const {
  std::set<int32_t> result;
  ForEachPointee(reg, [&](int32_t object) { result.insert(result.end(), object); });
  return result;
}

std::vector<int32_t> AndersenAnalysis::PointsToSorted(int32_t reg) const {
  std::vector<int32_t> result;
  ForEachPointee(reg, [&](int32_t object) { result.push_back(object); });
  return result;  // ForEach yields ascending ids already.
}

bool AndersenAnalysis::MayAlias(int32_t reg_a, int32_t reg_b) const {
  return solution_.Locations(reg_a).Intersects(solution_.Locations(reg_b));
}

std::vector<std::pair<int32_t, int32_t>> ResolveCallCopies(const MirModule& module,
                                                           const AnalysisOptions& options) {
  std::vector<std::pair<int32_t, int32_t>> copies;
  bool has_indirect = false;
  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      if (inst.op == MirOp::kIndirectCall) {
        has_indirect = true;
      } else if (inst.op == MirOp::kCall) {
        const int32_t callee = (inst.object >= 0 &&
                                static_cast<size_t>(inst.object) < module.objects.size())
                                   ? module.objects[inst.object].function_index
                                   : -1;
        AppendCallCopies(module, callee, inst.dst, inst.args, &copies);
      }
    }
  }
  if (!has_indirect) {
    return copies;
  }
  // Indirect callees come from the points-to fixpoint.
  const AndersenAnalysis points_to(module, options);
  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      if (inst.op != MirOp::kIndirectCall) {
        continue;
      }
      points_to.ForEachPointee(inst.ptr, [&](int32_t object) {
        const int32_t callee = module.objects[object].function_index;
        if (callee >= 0) {
          AppendCallCopies(module, callee, inst.dst, inst.args, &copies);
        }
      });
    }
  }
  return copies;
}

SyncOpReport IdentifySyncOpsAndersen(const MirModule& module,
                                     const SyncOpAnalysisOptions& options) {
  return IdentifySyncOpsIn(module, AndersenAnalysis(module, options.analysis).solution(),
                           options);
}

}  // namespace mvee
