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
struct BaselineSolution {
  std::vector<std::set<int32_t>> points_to;
  AnalysisStats stats;
};

BaselineSolution SolveBaseline(const MirModule& module, const ConstraintProgram& program) {
  BaselineSolution solution;
  AnalysisStats& stats = solution.stats;
  stats.solver = "andersen-baseline";
  stats.constraints =
      program.addr_of.size() + program.copies.size() + program.indirect_calls.size();
  stats.call_edges_resolved = program.direct_call_edges;

  const int32_t n = program.reg_count;
  auto& points_to = solution.points_to;
  points_to.resize(n);
  std::vector<std::vector<int32_t>> copy_targets(n);
  // Indirect call sites keyed by their function-pointer register.
  std::vector<std::vector<size_t>> sites_on_reg(n);
  std::vector<std::set<int32_t>> resolved(program.indirect_calls.size());

  std::deque<int32_t> worklist;
  for (const auto& [dst, object] : program.addr_of) {
    if (dst >= 0 && dst < n && object >= 0 && points_to[dst].insert(object).second) {
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
  for (size_t site = 0; site < program.indirect_calls.size(); ++site) {
    const int32_t fptr = program.indirect_calls[site].fptr;
    if (fptr >= 0 && fptr < n) {
      sites_on_reg[fptr].push_back(site);
      worklist.push_back(fptr);
    }
  }

  std::vector<std::pair<int32_t, int32_t>> new_edges;
  while (!worklist.empty()) {
    ++stats.solver_iterations;
    const int32_t reg = worklist.front();
    worklist.pop_front();
    for (int32_t target : copy_targets[reg]) {
      bool changed = false;
      for (int32_t object : points_to[reg]) {
        changed |= points_to[target].insert(object).second;
      }
      if (changed) {
        worklist.push_back(target);
      }
    }
    // On-the-fly call graph: new function objects in pts(reg) bind new
    // callees at the sites dispatching through reg.
    for (size_t site : sites_on_reg[reg]) {
      const IndirectCallConstraint& call = program.indirect_calls[site];
      for (int32_t object : points_to[reg]) {
        if (static_cast<size_t>(object) >= program.object_function.size()) {
          continue;
        }
        const int32_t callee = program.object_function[object];
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

  for (const auto& set : points_to) {
    // std::set stores one red-black node (~64 bytes with pointers, color,
    // and the payload) per element — the representation cost the sparse
    // bitmaps exist to kill.
    stats.points_to_bytes += sizeof(set) + set.size() * 64;
  }
  return solution;
}

}  // namespace

AndersenAnalysis::AndersenAnalysis(const MirModule& module, const AnalysisOptions& options) {
  const ConstraintProgram program = BuildConstraintProgram(module);
  if (options.fast_solver) {
    WaveSolution solution = SolveWave(module, program);
    rep_ = std::move(solution.rep);
    pts_ = std::move(solution.pts);
    stats_ = std::move(solution.stats);
  } else {
    BaselineSolution solution = SolveBaseline(module, program);
    stats_ = std::move(solution.stats);
    const int32_t n = program.reg_count;
    rep_.resize(n);
    pts_.resize(n);
    for (int32_t reg = 0; reg < n; ++reg) {
      rep_[reg] = reg;
      for (int32_t object : solution.points_to[reg]) {
        pts_[reg].Insert(static_cast<uint32_t>(object));
      }
    }
  }
}

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

bool AndersenAnalysis::PointsToObject(int32_t reg, int32_t object) const {
  if (reg < 0 || static_cast<size_t>(reg) >= rep_.size() || object < 0) {
    return false;
  }
  return pts_[rep_[reg]].Test(static_cast<uint32_t>(object));
}

bool AndersenAnalysis::MayAlias(int32_t reg_a, int32_t reg_b) const {
  if (reg_a < 0 || static_cast<size_t>(reg_a) >= rep_.size() || reg_b < 0 ||
      static_cast<size_t>(reg_b) >= rep_.size()) {
    return false;
  }
  return pts_[rep_[reg_a]].Intersects(pts_[rep_[reg_b]]);
}

bool AndersenAnalysis::MayPointInto(int32_t reg, const std::set<int32_t>& objects) const {
  if (reg < 0 || static_cast<size_t>(reg) >= rep_.size()) {
    return false;
  }
  const SparseBitmap& pts = pts_[rep_[reg]];
  for (int32_t object : objects) {
    if (object >= 0 && pts.Test(static_cast<uint32_t>(object))) {
      return true;
    }
  }
  return false;
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
  SyncOpReport report;
  report.module_name = module.name;

  AndersenAnalysis points_to(module, options.analysis);
  report.stats = points_to.stats();

  for (const auto& function : module.functions) {
    for (size_t i = 0; i < function.instructions.size(); ++i) {
      const MirInst& inst = function.instructions[i];
      if (inst.op == MirOp::kLockRmw) {
        report.type_i.push_back({function.name, i, inst.source_line, inst.op});
        points_to.ForEachPointee(inst.ptr,
                                 [&](int32_t object) { report.sync_objects.insert(object); });
      } else if (inst.op == MirOp::kXchg) {
        report.type_ii.push_back({function.name, i, inst.source_line, inst.op});
        points_to.ForEachPointee(inst.ptr,
                                 [&](int32_t object) { report.sync_objects.insert(object); });
      }
    }
  }

  if (options.treat_volatile_as_sync) {
    for (size_t obj = 0; obj < module.objects.size(); ++obj) {
      if (module.objects[obj].is_volatile) {
        report.sync_objects.insert(static_cast<int32_t>(obj));
      }
    }
  }

  for (const auto& function : module.functions) {
    for (size_t i = 0; i < function.instructions.size(); ++i) {
      const MirInst& inst = function.instructions[i];
      if (inst.op != MirOp::kLoad && inst.op != MirOp::kStore) {
        continue;
      }
      if (points_to.MayPointInto(inst.ptr, report.sync_objects)) {
        report.type_iii.push_back({function.name, i, inst.source_line, inst.op});
      } else {
        ++report.unmarked_memops;
      }
    }
  }
  return report;
}

}  // namespace mvee
