// Analysis engine bench: module size x solver x pipeline sweep over the
// interprocedural corpus (corpus.h), emitting BENCH_analysis.json.
//
// Per module row (~10k / ~40k / >=100k MIR instructions) the bench times the
// full two-stage identification pipeline under each engine:
//   - steensgaard               unification (DSA-style), near-linear
//   - andersen-baseline         textbook std::set worklist (fast_solver=0)
//   - andersen-wave             sparse bitmaps + difference propagation +
//                               online cycle collapse (fast_solver=1)
//   - field-sensitive-baseline  the same two engines on the field-sensitive
//   - field-sensitive-wave      lowering: (object, field) locations
// and reports: solve wall time, solution memory, precision (spurious type
// (iii) marks = marked memops whose source line carries the corpus'
// "noise:" ground-truth prefix), and plan quality through
// DeriveAssignmentPlan (how many variables each engine routes to kNull /
// kTotalOrder / kPartialOrder — precision loss shows up as PO fallback).
//
// CI gate: MVEE_BENCH_ANALYSIS_MIN_SPEEDUP fails the run when the Andersen
// wave engine does not beat the baseline by the given factor on the largest
// (>=100k instruction) row. The run fails regardless, on every row, when the
// wave and baseline engines disagree on ANY mark, field-insensitive or
// field-sensitive (the speedup must come at exact precision parity; the
// differential tests prove per-register equality, the bench re-checks the
// end-to-end reports). 0/unset = report only.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/common.h"
#include "mvee/analysis/assignment_plan.h"
#include "mvee/analysis/corpus.h"
#include "mvee/analysis/field_sensitive.h"
#include "mvee/analysis/syncop_analysis.h"

namespace {

using namespace mvee;

size_t SpuriousMarks(const SyncOpReport& report) {
  size_t spurious = 0;
  for (const auto& site : report.type_iii) {
    if (site.source_line.rfind("noise:", 0) == 0) {
      ++spurious;
    }
  }
  return spurious;
}

struct PlanCounts {
  size_t null_routes = 0;
  size_t total_order = 0;
  size_t partial_order = 0;
  size_t per_variable = 0;
  size_t escaping_thread_local = 0;  // Escaping locals wrongly kept kNull-able.
};

PlanCounts CountPlan(const MirModule& module, const SyncOpReport& report,
                     const std::vector<int32_t>& escaping_objects) {
  const AssignmentPlanReport plan = DeriveAssignmentPlan(module, report);
  PlanCounts counts;
  for (const auto& variable : plan.variables) {
    switch (variable.kind) {
      case AgentKind::kNull:
        ++counts.null_routes;
        break;
      case AgentKind::kTotalOrder:
        ++counts.total_order;
        break;
      case AgentKind::kPartialOrder:
        ++counts.partial_order;
        break;
      default:
        ++counts.per_variable;
        break;
    }
    for (int32_t escaping : escaping_objects) {
      if (variable.object == escaping &&
          variable.verdict == AssignmentVerdict::kThreadLocal) {
        ++counts.escaping_thread_local;
      }
    }
  }
  return counts;
}

struct EngineRow {
  std::string module;
  size_t instructions = 0;
  std::string engine;
  double solve_seconds = 0.0;
  SyncOpReport report;
  PlanCounts plan;
};

template <typename Fn>
EngineRow MeasureEngine(const InterprocCorpus& corpus, Fn identify) {
  EngineRow row;
  row.module = corpus.module.name;
  row.instructions = corpus.module.InstructionCount();
  const auto start = std::chrono::steady_clock::now();
  row.report = identify(corpus.module);
  row.solve_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  row.engine = row.report.stats.solver;
  row.plan = CountPlan(corpus.module, row.report, corpus.escaping_objects);
  return row;
}

void WriteAnalysisJson(const std::vector<EngineRow>& rows, double largest_speedup,
                       bool parity_ok) {
  const std::string path = bench::ResolveBenchJsonPath("BENCH_analysis.json");
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_analysis: cannot open %s\n", path.c_str());
    return;
  }
  std::fprintf(file, "{\n  \"analysis\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const EngineRow& row = rows[i];
    std::fprintf(
        file,
        "    {\"module\": \"%s\", \"instructions\": %zu, \"engine\": \"%s\", "
        "\"solve_seconds\": %.6f, \"points_to_bytes\": %llu, "
        "\"solver_iterations\": %llu, \"sccs_collapsed\": %llu, "
        "\"call_edges_resolved\": %llu, \"type_iii\": %zu, \"spurious_marks\": %zu, "
        "\"unmarked_memops\": %zu, \"null_routes\": %zu, \"total_order_routes\": %zu, "
        "\"partial_order_routes\": %zu, \"per_variable_routes\": %zu}%s\n",
        row.module.c_str(), row.instructions, row.engine.c_str(), row.solve_seconds,
        static_cast<unsigned long long>(row.report.stats.points_to_bytes),
        static_cast<unsigned long long>(row.report.stats.solver_iterations),
        static_cast<unsigned long long>(row.report.stats.sccs_collapsed),
        static_cast<unsigned long long>(row.report.stats.call_edges_resolved),
        row.report.type_iii.size(), SpuriousMarks(row.report), row.report.unmarked_memops,
        row.plan.null_routes, row.plan.total_order, row.plan.partial_order,
        row.plan.per_variable, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(file, "  ],\n  \"wave_vs_baseline_speedup\": %.2f,\n", largest_speedup);
  std::fprintf(file, "  \"precision_parity\": %s\n}\n", parity_ok ? "true" : "false");
  std::fclose(file);
  std::printf("wrote %s (%zu rows)\n", path.c_str(), rows.size());
}

// Exact end-to-end agreement between the wave and baseline engines.
bool ReportsMatch(const SyncOpReport& a, const SyncOpReport& b) {
  auto sites_match = [](const std::vector<SyncOpSite>& x, const std::vector<SyncOpSite>& y) {
    if (x.size() != y.size()) {
      return false;
    }
    for (size_t i = 0; i < x.size(); ++i) {
      if (x[i].function != y[i].function || x[i].instruction_index != y[i].instruction_index) {
        return false;
      }
    }
    return true;
  };
  return sites_match(a.type_i, b.type_i) && sites_match(a.type_ii, b.type_ii) &&
         sites_match(a.type_iii, b.type_iii) && a.sync_objects == b.sync_objects &&
         a.unmarked_memops == b.unmarked_memops;
}

}  // namespace

int main() {
  bench::PrintHeader("Analysis engines: solve time / memory / precision / plan quality");

  double min_speedup = 0.0;
  if (const char* env = std::getenv("MVEE_BENCH_ANALYSIS_MIN_SPEEDUP")) {
    min_speedup = std::atof(env);
  }

  std::vector<EngineRow> rows;
  double largest_speedup = 0.0;
  size_t largest_instructions = 0;
  bool parity_ok = true;

  for (const InterprocSpec& spec : ScaledInterprocSpecs()) {
    const InterprocCorpus corpus = BuildInterprocModule(spec);
    const size_t instructions = corpus.module.InstructionCount();
    std::printf("\n%s: %zu instructions, %zu objects, %zu functions, %zu noise memops\n",
                spec.module_name, instructions, corpus.module.objects.size(),
                corpus.module.functions.size(), corpus.noise_memops);
    std::printf("%-26s %12s %12s %10s %10s %8s %22s\n", "engine", "solve s", "mem bytes",
                "type(iii)", "spurious", "iters", "plan null/TO/PO/PVO");

    auto print_row = [&](const EngineRow& row) {
      char plan[64];
      std::snprintf(plan, sizeof(plan), "%zu/%zu/%zu/%zu", row.plan.null_routes,
                    row.plan.total_order, row.plan.partial_order, row.plan.per_variable);
      std::printf("%-26s %12.4f %12llu %10zu %10zu %8llu %22s\n", row.engine.c_str(),
                  row.solve_seconds,
                  static_cast<unsigned long long>(row.report.stats.points_to_bytes),
                  row.report.type_iii.size(), SpuriousMarks(row.report),
                  static_cast<unsigned long long>(row.report.stats.solver_iterations), plan);
      if (row.plan.escaping_thread_local != 0) {
        std::printf("  WARNING: %zu escaping locals kept a thread-local verdict\n",
                    row.plan.escaping_thread_local);
      }
      rows.push_back(row);
    };

    const EngineRow steensgaard =
        MeasureEngine(corpus, [](const MirModule& m) { return IdentifySyncOps(m); });
    print_row(steensgaard);

    // Both inclusion analyses, each on the textbook and the wave engine.
    for (const bool field_sensitive : {false, true}) {
      const char* analysis = field_sensitive ? "field-sensitive" : "andersen";
      auto identify = [field_sensitive](bool fast_solver) {
        return [field_sensitive, fast_solver](const MirModule& m) {
          SyncOpAnalysisOptions options;
          options.analysis.fast_solver = fast_solver;
          return field_sensitive ? IdentifySyncOpsFieldSensitive(m, options)
                                 : IdentifySyncOpsAndersen(m, options);
        };
      };
      const EngineRow baseline = MeasureEngine(corpus, identify(false));
      print_row(baseline);
      const EngineRow fast = MeasureEngine(corpus, identify(true));
      print_row(fast);

      const bool parity = ReportsMatch(baseline.report, fast.report);
      if (!parity) {
        std::fprintf(stderr, "FAIL: %s: wave and baseline %s reports disagree\n",
                     spec.module_name, analysis);
        parity_ok = false;
      }
      const double speedup =
          fast.solve_seconds > 0.0 ? baseline.solve_seconds / fast.solve_seconds : 0.0;
      std::printf("  %s wave vs baseline: %.1fx (parity %s)\n", analysis, speedup,
                  parity ? "ok" : "BROKEN");
      if (!field_sensitive && instructions > largest_instructions) {
        largest_instructions = instructions;
        largest_speedup = speedup;
      }
    }
  }

  WriteAnalysisJson(rows, largest_speedup, parity_ok);

  bool gate_ok = parity_ok;
  if (min_speedup > 0.0 && largest_speedup < min_speedup) {
    std::fprintf(stderr,
                 "FAIL: wave speedup %.1fx on the %zu-instruction module below "
                 "required %.1fx\n",
                 largest_speedup, largest_instructions, min_speedup);
    gate_ok = false;
  }
  std::printf("\nandersen wave vs baseline on largest module (%zu instructions): %.1fx%s\n",
              largest_instructions, largest_speedup,
              min_speedup > 0.0 ? (gate_ok ? " (gate ok)" : " (gate FAILED)") : "");
  return gate_ok ? 0 : 1;
}
