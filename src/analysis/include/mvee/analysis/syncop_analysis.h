// Two-stage sync-op identification (paper §4.3) + Table 3 report.
//
// Stage 1 ("analysis.rb"): scan the module for type (i) LOCK-prefixed and
// type (ii) XCHG instructions — these are sync ops by definition, since
// accesses to synchronization variables are atomic.
//
// Stage 2 (points-to): compute the set of objects the stage-1 instructions
// may touch; every aligned load/store that may alias one of those objects is
// a type (iii) sync op. The strategy is sound but not complete: primitives
// built *only* from aligned loads/stores (paper Listing 2) are missed unless
// the volatile extension is enabled, which additionally seeds every
// volatile-qualified object (§4.3's "obvious extension").
//
// The two stages exist once (IdentifySyncOpsIn); the three analyses differ
// only in the points-to solution they hand it — Steensgaard's classes,
// Andersen's object sets, or the field-sensitive (object, field) sets.

#ifndef MVEE_ANALYSIS_SYNCOP_ANALYSIS_H_
#define MVEE_ANALYSIS_SYNCOP_ANALYSIS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "mvee/analysis/constraints.h"
#include "mvee/analysis/mir.h"
#include "mvee/analysis/options.h"
#include "mvee/analysis/stats.h"

namespace mvee {

// Location of one identified sync op.
struct SyncOpSite {
  std::string function;
  size_t instruction_index = 0;
  std::string source_line;
  MirOp op = MirOp::kCompute;
};

// Per-module identification result — one row of the paper's Table 3.
struct SyncOpReport {
  std::string module_name;
  std::vector<SyncOpSite> type_i;    // LOCK-prefixed RMW.
  std::vector<SyncOpSite> type_ii;   // XCHG.
  std::vector<SyncOpSite> type_iii;  // Aliasing aligned load/store.
  // Objects classified as synchronization variables.
  std::set<int32_t> sync_objects;
  // Load/stores *not* marked (precision metric; the paper wastes no cycles
  // ordering non-sync accesses).
  size_t unmarked_memops = 0;
  // Cost accounting of the points-to engine that produced this report
  // (stats.h) — surfaced in the Table-3 output and BENCH_analysis.json.
  AnalysisStats stats;

  size_t TotalSyncOps() const { return type_i.size() + type_ii.size() + type_iii.size(); }
};

struct SyncOpAnalysisOptions {
  // §4.3 extension: also treat volatile-qualified objects as sync variables.
  bool treat_volatile_as_sync = false;
  // Engine knobs (solver selection) for the pipelines that run Andersen.
  AnalysisOptions analysis;
};

// Runs both stages on `module` over a solved points-to problem: stage 1
// seeds the sync locations from the pointer operands of type (i)/(ii)
// instructions (plus, with the volatile extension, every location of each
// volatile object); stage 2 marks each load/store whose pointer may alias a
// seed location. The report's stats are the solution's.
SyncOpReport IdentifySyncOpsIn(const MirModule& module, const PointsToSolution& solution,
                               const SyncOpAnalysisOptions& options = {});

// Runs both stages on `module` with the Steensgaard (DSA-style) points-to —
// the paper's first automation attempt.
SyncOpReport IdentifySyncOps(const MirModule& module, const SyncOpAnalysisOptions& options = {});

// Same pipeline but with the Andersen (SVF-style) subset-based points-to —
// the paper's second attempt (§4.3.1). More precise (fewer spurious type
// (iii) marks on unification-heavy code), more expensive.
SyncOpReport IdentifySyncOpsAndersen(const MirModule& module,
                                     const SyncOpAnalysisOptions& options = {});

// Formats reports as the paper's Table 3 (columns (i)/(ii)/(iii)).
std::string FormatTable3(const std::vector<SyncOpReport>& reports);

}  // namespace mvee

#endif  // MVEE_ANALYSIS_SYNCOP_ANALYSIS_H_
