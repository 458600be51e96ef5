// The constraint program every inclusion engine solves, and the solution
// shape every points-to engine answers queries from.
//
// Both inclusion engines — the textbook std::set oracle (andersen.cc) and
// the wave-propagation solver (wave_solver.h) — must implement the *same*
// constraint semantics (the differential tests demand bit-identical
// solutions), so the translation from MIR to constraints lives here, once:
//
//   AddrOf/Alloc   p = &x          {loc(x, base)} ⊆ pts(p)
//   Mov            p = q           pts(q) ⊆ pts(p)
//   Gep            p = q + f       field-insensitive: pts(q) ⊆ pts(p)
//                                  field-sensitive:   select_f(pts(q)) ⊆ pts(p)
//   kCall          r = f(a0..an)   pts(ai) ⊆ pts(param_i(f)),
//                                  pts(ret(f)) ⊆ pts(r)
//   kIndirectCall  r = (*fp)(...)  for every function object F ∈ pts(fp):
//                                  the kCall rule with callee F
//
// Direct calls have a static callee, so their parameter/return flow lowers
// to plain copy edges at build time. Indirect calls stay symbolic: their
// callee set grows with the points-to solution (the mutually-recursive
// call-graph / points-to fixpoint), so the solvers resolve them on the fly.
// A field select never changes the object a location belongs to, so the
// object projection of the field-sensitive solution is exactly the
// field-insensitive one.

#ifndef MVEE_ANALYSIS_CONSTRAINTS_H_
#define MVEE_ANALYSIS_CONSTRAINTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "mvee/analysis/mir.h"
#include "mvee/analysis/sparse_bitmap.h"
#include "mvee/analysis/stats.h"

namespace mvee {

// Dense abstract-location ids: loc = object * slots() + slot. A
// field-insensitive space has one slot, so a location is its object id. A
// field-sensitive space has slot 0 for field 0 (the object's base, where &x
// and allocations point), slot 1 for "any field" (opaque arithmetic), and
// one slot per further static field index the module's kGeps select.
class LocationSpace {
 public:
  static constexpr int32_t kBaseSlot = 0;
  static constexpr int32_t kAnySlot = 1;
  static constexpr int32_t kAnyField = -1;  // MirInst::field of opaque arithmetic.

  LocationSpace() = default;
  explicit LocationSpace(std::vector<int32_t> slot_fields)
      : slot_fields_(std::move(slot_fields)) {}

  int32_t slots() const { return static_cast<int32_t>(slot_fields_.size()); }
  uint32_t Loc(int32_t object, int32_t slot) const {
    return static_cast<uint32_t>(object * slots() + slot);
  }
  int32_t ObjectOf(uint32_t loc) const { return static_cast<int32_t>(loc) / slots(); }
  int32_t SlotOf(uint32_t loc) const { return static_cast<int32_t>(loc) % slots(); }
  // The MIR field index a location denotes (kAnyField for the any-field slot).
  int32_t FieldOf(uint32_t loc) const { return slot_fields_[SlotOf(loc)]; }
  // The slot a kGep's MIR field index selects.
  int32_t SlotOfField(int32_t field) const;

  // The field-select transfer: a static field off the object's base selects
  // that field. Opaque arithmetic, arithmetic on an already-smeared pointer,
  // and field-of-field (nested aggregates are not modelled) may address any
  // field — the SVF conservatism §4.3.1 complains about.
  uint32_t Select(uint32_t loc, int32_t slot) const {
    const int32_t from = SlotOf(loc);
    return loc - static_cast<uint32_t>(from) +
           static_cast<uint32_t>(from == kBaseSlot && slot != kAnySlot ? slot : kAnySlot);
  }

  // Adds every location of `object` to *locs.
  void InsertObject(int32_t object, SparseBitmap* locs) const;
  // Every location that may denote the same memory as some location in
  // `locs`: same object, and equal fields or either one the any-field slot.
  // A pointer may alias `locs` iff its points-to set intersects this.
  SparseBitmap MayAliasClosure(const SparseBitmap& locs) const;

 private:
  std::vector<int32_t> slot_fields_{0};  // slot -> MIR field index.
};

// One unresolved indirect call site.
struct IndirectCallConstraint {
  int32_t fptr = -1;          // Function-pointer register.
  int32_t dst = -1;           // Register receiving the return value (-1 = none).
  std::vector<int32_t> args;  // Argument registers, positional.
};

// select_slot(pts(src)) ⊆ pts(dst): a field-sensitive kGep.
struct FieldSelectConstraint {
  int32_t dst = -1;
  int32_t src = -1;
  int32_t slot = LocationSpace::kAnySlot;
};

enum class FieldModel : uint8_t {
  kInsensitive,  // kGep is a copy; locations are objects (Andersen).
  kSensitive,    // kGep is a field select over (object, field) locations.
};

struct ConstraintProgram {
  FieldModel field_model = FieldModel::kInsensitive;
  LocationSpace locations;
  int32_t reg_count = 0;
  // (dst register, location): {location} ⊆ pts(dst).
  std::vector<std::pair<int32_t, uint32_t>> addr_of;
  // (dst, src): pts(src) ⊆ pts(dst). Includes lowered direct-call edges.
  std::vector<std::pair<int32_t, int32_t>> copies;
  std::vector<FieldSelectConstraint> field_selects;
  std::vector<IndirectCallConstraint> indirect_calls;
  // object id -> function index (>= 0) for function objects, else -1.
  std::vector<int32_t> object_function;
  // Direct call-graph edges resolved at build time (one per kCall site with
  // a valid callee; their copy edges are already lowered into `copies`).
  uint64_t direct_call_edges = 0;

  // The function a location's object denotes, or -1.
  int32_t CalleeOf(uint32_t loc) const {
    const auto object = static_cast<size_t>(locations.ObjectOf(loc));
    return object < object_function.size() ? object_function[object] : -1;
  }
  uint64_t ConstraintCount() const {
    return addr_of.size() + copies.size() + field_selects.size() + indirect_calls.size();
  }
  // "andersen-<engine>" or "field-sensitive-<engine>".
  std::string SolverName(const char* engine) const;
};

ConstraintProgram BuildConstraintProgram(const MirModule& module,
                                         FieldModel field_model = FieldModel::kInsensitive);

// Appends the copy edges (dst, src) induced by binding call site
// (dst, args) to `callee` (a function index): args -> params positionally,
// callee return_reg -> dst. Returns how many edges were appended.
size_t AppendCallCopies(const MirModule& module, int32_t callee_function, int32_t call_dst,
                        const std::vector<int32_t>& args,
                        std::vector<std::pair<int32_t, int32_t>>* out);

// A solved points-to problem, in the shape every engine (Steensgaard and
// both inclusion engines) hands to its queries and to the two-stage
// sync-op pipeline: register r may point to the locations in pts[rep[r]].
// Registers an engine merged share one bitmap; rep[r] = -1 points nowhere.
struct PointsToSolution {
  LocationSpace locations;
  std::vector<int32_t> rep;
  std::vector<SparseBitmap> pts;
  AnalysisStats stats;

  const SparseBitmap& Locations(int32_t reg) const;
};

}  // namespace mvee

#endif  // MVEE_ANALYSIS_CONSTRAINTS_H_
