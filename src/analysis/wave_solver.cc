#include "mvee/analysis/wave_solver.h"

#include <algorithm>
#include <utility>

namespace mvee {

namespace {

// Union-find with path halving. Union keeps `a`'s root as representative so
// the caller can merge per-node state into a predictable side.
class UnionFind {
 public:
  explicit UnionFind(int32_t count) : parent_(count) {
    for (int32_t i = 0; i < count; ++i) {
      parent_[i] = i;
    }
  }

  int32_t Find(int32_t node) {
    while (parent_[node] != node) {
      parent_[node] = parent_[parent_[node]];
      node = parent_[node];
    }
    return node;
  }

  int32_t Union(int32_t a, int32_t b) {
    const int32_t root_a = Find(a);
    const int32_t root_b = Find(b);
    if (root_a != root_b) {
      parent_[root_b] = root_a;
    }
    return root_a;
  }

 private:
  std::vector<int32_t> parent_;
};

// Iterative Tarjan over the representative copy graph. Emits strongly
// connected components in reverse topological order (every component is
// emitted after all components it has edges into).
class TarjanScc {
 public:
  TarjanScc(const std::vector<std::vector<int32_t>>& succ, UnionFind& uf)
      : succ_(succ), uf_(uf) {
    const size_t n = succ.size();
    index_.assign(n, -1);
    lowlink_.assign(n, 0);
    on_stack_.assign(n, 0);
  }

  // Components, each a list of representative node ids, in emission order.
  std::vector<std::vector<int32_t>> Run(const std::vector<int32_t>& roots) {
    for (int32_t root : roots) {
      if (index_[root] == -1) {
        Visit(root);
      }
    }
    return std::move(components_);
  }

 private:
  struct Frame {
    int32_t node;
    size_t next_child;
  };

  void Visit(int32_t start) {
    std::vector<Frame> frames;
    frames.push_back({start, 0});
    Begin(start);
    while (!frames.empty()) {
      Frame& frame = frames.back();
      const int32_t node = frame.node;
      bool descended = false;
      while (frame.next_child < succ_[node].size()) {
        const int32_t target = uf_.Find(succ_[node][frame.next_child++]);
        if (target == node) {
          continue;  // Self loop (collapsed cycle remnant).
        }
        if (index_[target] == -1) {
          Begin(target);
          frames.push_back({target, 0});
          descended = true;
          break;
        }
        if (on_stack_[target]) {
          lowlink_[node] = std::min(lowlink_[node], index_[target]);
        }
      }
      if (descended) {
        continue;
      }
      // node is finished: pop a component if it is a root.
      if (lowlink_[node] == index_[node]) {
        std::vector<int32_t> component;
        for (;;) {
          const int32_t member = stack_.back();
          stack_.pop_back();
          on_stack_[member] = 0;
          component.push_back(member);
          if (member == node) {
            break;
          }
        }
        components_.push_back(std::move(component));
      }
      frames.pop_back();
      if (!frames.empty()) {
        lowlink_[frames.back().node] =
            std::min(lowlink_[frames.back().node], lowlink_[node]);
      }
    }
  }

  void Begin(int32_t node) {
    index_[node] = lowlink_[node] = next_index_++;
    stack_.push_back(node);
    on_stack_[node] = 1;
  }

  const std::vector<std::vector<int32_t>>& succ_;
  UnionFind& uf_;
  std::vector<int32_t> index_;
  std::vector<int32_t> lowlink_;
  std::vector<uint8_t> on_stack_;
  std::vector<int32_t> stack_;
  std::vector<std::vector<int32_t>> components_;
  int32_t next_index_ = 0;
};

}  // namespace

PointsToSolution SolveWave(const MirModule& module, const ConstraintProgram& program) {
  const int32_t n = program.reg_count;
  const LocationSpace& locations = program.locations;
  PointsToSolution solution;
  solution.locations = locations;
  AnalysisStats& stats = solution.stats;
  stats.solver = program.SolverName("wave");
  stats.constraints = program.ConstraintCount();
  stats.call_edges_resolved = program.direct_call_edges;

  UnionFind uf(n);
  std::vector<SparseBitmap> pts(n);
  // prev[r]: the frontier node r has already pushed to its successors.
  // Difference propagation moves only pts[r] - prev[r] per wave.
  std::vector<SparseBitmap> prev(n);
  std::vector<std::vector<int32_t>> succ(n);
  // Field-select out-edges (target, slot); a self edge is a real constraint.
  std::vector<std::vector<std::pair<int32_t, int32_t>>> selects(n);

  for (const auto& [dst, loc] : program.addr_of) {
    if (dst >= 0 && dst < n) {
      pts[dst].Insert(loc);
    }
  }
  for (const auto& [dst, src] : program.copies) {
    if (dst >= 0 && dst < n && src >= 0 && src < n && dst != src) {
      succ[src].push_back(dst);
      ++stats.copy_edges;
    }
  }
  for (const FieldSelectConstraint& select : program.field_selects) {
    if (select.dst >= 0 && select.dst < n && select.src >= 0 && select.src < n) {
      selects[select.src].emplace_back(select.dst, select.slot);
    }
  }

  // Per indirect call site: the callee set already lowered to edges.
  std::vector<SparseBitmap> resolved(program.indirect_calls.size());
  std::vector<int32_t> new_callees;
  std::vector<std::pair<int32_t, int32_t>> new_edges;

  for (;;) {
    // --- Phase 1: normalize out-edge lists on live representatives. ---
    std::vector<int32_t> live;
    live.reserve(static_cast<size_t>(n));
    for (int32_t r = 0; r < n; ++r) {
      if (uf.Find(r) != r) {
        continue;
      }
      live.push_back(r);
      auto& edges = succ[r];
      for (int32_t& target : edges) {
        target = uf.Find(target);
      }
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      edges.erase(std::remove(edges.begin(), edges.end(), r), edges.end());
      auto& select_edges = selects[r];
      for (auto& edge : select_edges) {
        edge.first = uf.Find(edge.first);
      }
      std::sort(select_edges.begin(), select_edges.end());
      select_edges.erase(std::unique(select_edges.begin(), select_edges.end()),
                         select_edges.end());
    }

    // --- Phase 2: online cycle detection — SCCs of the copy graph. ---
    TarjanScc tarjan(succ, uf);
    const std::vector<std::vector<int32_t>> components = tarjan.Run(live);

    // --- Phase 3: collapse multi-node components. ---
    for (const auto& component : components) {
      if (component.size() < 2) {
        continue;
      }
      const int32_t rep = component.front();
      for (size_t i = 1; i < component.size(); ++i) {
        const int32_t member = component[i];
        uf.Union(rep, member);
        pts[rep].UnionWith(pts[member]);
        pts[member] = SparseBitmap();
        // prev is per-out-edge-set state; the merged node has the union of
        // everyone's out-edges, to which no single member has pushed its
        // whole frontier. Reset so the next wave re-pushes everything once.
        prev[member] = SparseBitmap();
        succ[rep].insert(succ[rep].end(), succ[member].begin(), succ[member].end());
        succ[member].clear();
        succ[member].shrink_to_fit();
        selects[rep].insert(selects[rep].end(), selects[member].begin(), selects[member].end());
        selects[member].clear();
        selects[member].shrink_to_fit();
      }
      prev[rep] = SparseBitmap();
      stats.sccs_collapsed += component.size() - 1;
    }

    // --- Phase 4: one topological wave of difference propagation. ---
    // Components arrive in reverse topological order; walk them backwards so
    // every node pushes before its copy successors pull, making one pass
    // reach the fixpoint for the current copy graph.
    bool propagated = false;
    for (auto it = components.rbegin(); it != components.rend(); ++it) {
      // Phase 3 only unions within a component, so front() is the live
      // representative of every component, singleton or collapsed.
      const int32_t rep = uf.Find(it->front());
      ++stats.solver_iterations;
      SparseBitmap delta;
      prev[rep].UnionWithDelta(pts[rep], &delta);
      if (delta.Empty()) {
        continue;
      }
      propagated = true;
      for (int32_t raw_target : succ[rep]) {
        const int32_t target = uf.Find(raw_target);
        if (target != rep) {
          pts[target].UnionWith(delta);
        }
      }
      for (const auto& [raw_target, slot] : selects[rep]) {
        SparseBitmap selected;
        delta.ForEach([&](uint32_t loc) { selected.Insert(locations.Select(loc, slot)); });
        pts[uf.Find(raw_target)].UnionWith(selected);
      }
    }

    // --- Phase 5: on-the-fly call graph — resolve indirect calls. ---
    // New callees are collected before any edge is seeded: seeding can grow
    // the fptr's own bitmap (a callee parameter collapsed with it).
    bool grew = false;
    for (size_t site = 0; site < program.indirect_calls.size(); ++site) {
      const IndirectCallConstraint& call = program.indirect_calls[site];
      if (call.fptr < 0 || call.fptr >= n) {
        continue;
      }
      new_callees.clear();
      pts[uf.Find(call.fptr)].ForEach([&](uint32_t loc) {
        const int32_t callee = program.CalleeOf(loc);
        if (callee >= 0 && resolved[site].Insert(static_cast<uint32_t>(callee))) {
          new_callees.push_back(callee);
        }
      });
      for (int32_t callee : new_callees) {
        ++stats.call_edges_resolved;
        new_edges.clear();
        AppendCallCopies(module, callee, call.dst, call.args, &new_edges);
        for (const auto& [dst, src] : new_edges) {
          if (dst < 0 || dst >= n || src < 0 || src >= n) {
            continue;
          }
          const int32_t src_rep = uf.Find(src);
          const int32_t dst_rep = uf.Find(dst);
          if (src_rep == dst_rep) {
            continue;
          }
          succ[src_rep].push_back(dst_rep);
          ++stats.copy_edges;
          // src may already have pushed its frontier; seed the new edge with
          // the full current set so nothing is lost, then let waves carry
          // future growth.
          pts[dst_rep].UnionWith(pts[src_rep]);
          grew = true;
        }
      }
    }

    if (!propagated && !grew) {
      break;
    }
  }

  solution.rep.resize(n);
  for (int32_t r = 0; r < n; ++r) {
    solution.rep[r] = uf.Find(r);
    if (solution.rep[r] == r) {
      stats.points_to_bytes += pts[r].MemoryBytes();
    }
  }
  solution.pts = std::move(pts);
  return solution;
}

}  // namespace mvee
