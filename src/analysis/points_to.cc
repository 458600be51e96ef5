#include "mvee/analysis/points_to.h"

#include <algorithm>
#include <unordered_map>

namespace mvee {

PointsToAnalysis::PointsToAnalysis(const MirModule& module) {
  solution_.stats.solver = "steensgaard";
  reg_count_ = module.register_count;
  object_count_ = static_cast<int32_t>(module.objects.size());
  const int32_t node_count = reg_count_ + object_count_;
  parent_.resize(node_count);
  for (int32_t i = 0; i < node_count; ++i) {
    parent_[i] = i;
  }
  successor_.assign(node_count, -1);

  // Function objects, for indirect-call target resolution (there are few:
  // scanning them per site per pass is cheap).
  std::vector<int32_t> function_objects;
  for (int32_t obj = 0; obj < object_count_; ++obj) {
    if (module.objects[obj].function_index >= 0) {
      function_objects.push_back(obj);
    }
  }

  // Binds a call site to `callee`: unify args with params, return with dst.
  auto unify_call = [&](int32_t callee, int32_t dst, const std::vector<int32_t>& args) {
    if (callee < 0 || static_cast<size_t>(callee) >= module.functions.size()) {
      return;
    }
    ++solution_.stats.call_edges_resolved;
    const MirFunction& target = module.functions[callee];
    const size_t bound = std::min(args.size(), target.params.size());
    for (size_t i = 0; i < bound; ++i) {
      if (args[i] >= 0) {
        UnifySuccessors(target.params[i], args[i]);
        ++solution_.stats.copy_edges;
      }
    }
    if (dst >= 0 && target.return_reg >= 0) {
      UnifySuccessors(dst, target.return_reg);
      ++solution_.stats.copy_edges;
    }
  };

  // Intraprocedural constraints and direct calls are solved online by
  // unification (each operation maintains the invariant that every class
  // has at most one successor class). Indirect calls need the outer
  // fixpoint below: resolving one can grow a pointee class, which can
  // reveal new callees at another site.
  struct IndirectSite {
    const MirInst* inst;
    std::set<int32_t> resolved;  // Callee function indices already bound.
  };
  std::vector<IndirectSite> indirect_sites;

  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      switch (inst.op) {
        case MirOp::kAddrOf:
        case MirOp::kAlloc: {
          // dst may point to object: unify succ(dst) with the object class.
          ++solution_.stats.constraints;
          const int32_t object_node = reg_count_ + inst.object;
          const int32_t succ = SuccessorOf(inst.dst);
          Union(succ, object_node);
          break;
        }
        case MirOp::kMov:
        case MirOp::kGep: {
          // dst = src (field-insensitive): unify successors.
          ++solution_.stats.constraints;
          ++solution_.stats.copy_edges;
          UnifySuccessors(inst.dst, inst.src);
          break;
        }
        case MirOp::kCall: {
          ++solution_.stats.constraints;
          const int32_t callee = (inst.object >= 0 &&
                                  static_cast<size_t>(inst.object) < module.objects.size())
                                     ? module.objects[inst.object].function_index
                                     : -1;
          unify_call(callee, inst.dst, inst.args);
          break;
        }
        case MirOp::kIndirectCall:
          ++solution_.stats.constraints;
          indirect_sites.push_back({&inst, {}});
          break;
        default:
          break;
      }
    }
  }

  // Indirect-call fixpoint.
  bool changed = !indirect_sites.empty();
  while (changed) {
    changed = false;
    for (IndirectSite& site : indirect_sites) {
      const int32_t pointee_class = PointeeClassOf(site.inst->ptr);
      if (pointee_class == -1) {
        continue;
      }
      for (int32_t obj : function_objects) {
        if (Find(reg_count_ + obj) != Find(pointee_class)) {
          continue;
        }
        const int32_t callee = module.objects[obj].function_index;
        if (!site.resolved.insert(callee).second) {
          continue;
        }
        unify_call(callee, site.inst->dst, site.inst->args);
        changed = true;
      }
    }
  }

  BuildSolution();
}

int32_t PointsToAnalysis::Find(int32_t node) const {
  while (parent_[node] != node) {
    parent_[node] = parent_[parent_[node]];
    node = parent_[node];
  }
  return node;
}

void PointsToAnalysis::Union(int32_t a, int32_t b) {
  const int32_t root_a = Find(a);
  const int32_t root_b = Find(b);
  if (root_a == root_b) {
    return;
  }
  ++solution_.stats.solver_iterations;
  ++solution_.stats.sccs_collapsed;
  parent_[root_b] = root_a;
  // Merge successors: if both classes had one, those must unify too
  // (recursive join — the heart of Steensgaard's near-linear algorithm).
  const int32_t succ_a = successor_[root_a];
  const int32_t succ_b = successor_[root_b];
  if (succ_b != -1) {
    if (succ_a == -1) {
      successor_[root_a] = succ_b;
    } else {
      Union(succ_a, succ_b);
    }
  }
}

int32_t PointsToAnalysis::SuccessorOf(int32_t node) {
  const int32_t root = Find(node);
  if (successor_[root] == -1) {
    // No successor yet: grow the universe with a fresh synthetic class so
    // later unifications have a concrete node to merge with. Synthetic
    // nodes never appear in the member index, so they cannot leak into
    // query results.
    parent_.push_back(static_cast<int32_t>(parent_.size()));
    successor_.push_back(-1);
    successor_[root] = static_cast<int32_t>(parent_.size() - 1);
  }
  return successor_[Find(node)];
}

void PointsToAnalysis::UnifySuccessors(int32_t a, int32_t b) {
  const int32_t succ_a = SuccessorOf(a);
  const int32_t succ_b = SuccessorOf(b);
  Union(succ_a, succ_b);
}

int32_t PointsToAnalysis::PointeeClassOf(int32_t reg) const {
  if (reg < 0 || reg >= reg_count_) {
    return -1;
  }
  const int32_t succ = successor_[Find(reg)];
  return succ == -1 ? -1 : Find(succ);
}

void PointsToAnalysis::BuildSolution() {
  // Class root -> index of its member bitmap.
  std::unordered_map<int32_t, int32_t> class_index;
  for (int32_t obj = 0; obj < object_count_; ++obj) {
    const auto [it, fresh] =
        class_index.emplace(Find(reg_count_ + obj), static_cast<int32_t>(solution_.pts.size()));
    if (fresh) {
      solution_.pts.emplace_back();
    }
    solution_.pts[it->second].Insert(static_cast<uint32_t>(obj));
  }
  solution_.rep.assign(reg_count_, -1);
  for (int32_t reg = 0; reg < reg_count_; ++reg) {
    const auto it = class_index.find(PointeeClassOf(reg));
    if (it != class_index.end()) {
      solution_.rep[reg] = it->second;
    }
  }
  AnalysisStats& stats = solution_.stats;
  for (const SparseBitmap& members : solution_.pts) {
    stats.points_to_bytes += members.MemoryBytes();
  }
  stats.points_to_bytes +=
      sizeof(int32_t) * (parent_.capacity() + successor_.capacity() + solution_.rep.capacity());
}

std::set<int32_t> PointsToAnalysis::PointsTo(int32_t reg) const {
  std::set<int32_t> result;
  solution_.Locations(reg).ForEach(
      [&](uint32_t object) { result.insert(result.end(), static_cast<int32_t>(object)); });
  return result;
}

bool PointsToAnalysis::MayAlias(int32_t reg_a, int32_t reg_b) const {
  if (reg_a < 0 || reg_b < 0) {
    return false;
  }
  const int32_t succ_a = successor_[Find(reg_a)];
  const int32_t succ_b = successor_[Find(reg_b)];
  if (succ_a == -1 || succ_b == -1) {
    return false;
  }
  return Find(succ_a) == Find(succ_b);
}

}  // namespace mvee
