#include "mvee/analysis/constraints.h"

#include <algorithm>

namespace mvee {

void LocationSpace::InsertObject(int32_t object, SparseBitmap* locs) const {
  for (int32_t slot = 0; slot < slots(); ++slot) {
    locs->Insert(Loc(object, slot));
  }
}

SparseBitmap LocationSpace::MayAliasClosure(const SparseBitmap& locs) const {
  if (slots() == 1) {
    return locs;
  }
  SparseBitmap closure;
  locs.ForEach([&](uint32_t loc) {
    if (SlotOf(loc) == kAnySlot) {
      InsertObject(ObjectOf(loc), &closure);
    } else {
      closure.Insert(loc);
      closure.Insert(Loc(ObjectOf(loc), kAnySlot));
    }
  });
  return closure;
}

int32_t LocationSpace::SlotOfField(int32_t field) const {
  if (field <= 0) {
    return field == 0 ? kBaseSlot : kAnySlot;
  }
  return static_cast<int32_t>(
      std::lower_bound(slot_fields_.begin() + 2, slot_fields_.end(), field) -
      slot_fields_.begin());
}

const SparseBitmap& PointsToSolution::Locations(int32_t reg) const {
  static const SparseBitmap kNowhere;
  if (reg < 0 || static_cast<size_t>(reg) >= rep.size() || rep[reg] < 0) {
    return kNowhere;
  }
  return pts[rep[reg]];
}

std::string ConstraintProgram::SolverName(const char* engine) const {
  return std::string(field_model == FieldModel::kSensitive ? "field-sensitive-" : "andersen-") +
         engine;
}

size_t AppendCallCopies(const MirModule& module, int32_t callee_function, int32_t call_dst,
                        const std::vector<int32_t>& args,
                        std::vector<std::pair<int32_t, int32_t>>* out) {
  if (callee_function < 0 || static_cast<size_t>(callee_function) >= module.functions.size()) {
    return 0;
  }
  const MirFunction& callee = module.functions[callee_function];
  size_t appended = 0;
  const size_t bound = std::min(args.size(), callee.params.size());
  for (size_t i = 0; i < bound; ++i) {
    if (args[i] >= 0) {
      out->emplace_back(callee.params[i], args[i]);
      ++appended;
    }
  }
  if (call_dst >= 0 && callee.return_reg >= 0) {
    out->emplace_back(call_dst, callee.return_reg);
    ++appended;
  }
  return appended;
}

namespace {

// Slot layout of a field-sensitive program: base and any-field slots once
// the module selects a field at all, then its other static fields, sorted.
std::vector<int32_t> FieldSlots(const MirModule& module) {
  std::vector<int32_t> fields;
  bool selects = false;
  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      if (inst.op == MirOp::kGep) {
        selects = true;
        if (inst.field > 0) {
          fields.push_back(inst.field);
        }
      }
    }
  }
  std::sort(fields.begin(), fields.end());
  fields.erase(std::unique(fields.begin(), fields.end()), fields.end());
  std::vector<int32_t> slot_fields{0};
  if (selects) {
    slot_fields.push_back(LocationSpace::kAnyField);
    slot_fields.insert(slot_fields.end(), fields.begin(), fields.end());
  }
  return slot_fields;
}

}  // namespace

ConstraintProgram BuildConstraintProgram(const MirModule& module, FieldModel field_model) {
  ConstraintProgram program;
  program.field_model = field_model;
  program.reg_count = module.register_count;
  program.object_function.reserve(module.objects.size());
  for (const MirObject& object : module.objects) {
    program.object_function.push_back(object.function_index);
  }
  const bool field_sensitive = field_model == FieldModel::kSensitive;
  if (field_sensitive) {
    program.locations = LocationSpace(FieldSlots(module));
  }
  const LocationSpace& locations = program.locations;

  for (const auto& function : module.functions) {
    for (const auto& inst : function.instructions) {
      switch (inst.op) {
        case MirOp::kAddrOf:
        case MirOp::kAlloc:
          if (inst.object >= 0) {
            program.addr_of.emplace_back(inst.dst,
                                         locations.Loc(inst.object, LocationSpace::kBaseSlot));
          }
          break;
        case MirOp::kGep:
          if (field_sensitive) {
            program.field_selects.push_back(
                {inst.dst, inst.src, locations.SlotOfField(inst.field)});
          } else {
            program.copies.emplace_back(inst.dst, inst.src);
          }
          break;
        case MirOp::kMov:
          program.copies.emplace_back(inst.dst, inst.src);
          break;
        case MirOp::kCall: {
          // Static callee: lower parameter/return flow to copy edges now.
          const int32_t callee = (inst.object >= 0 &&
                                  static_cast<size_t>(inst.object) < module.objects.size())
                                     ? module.objects[inst.object].function_index
                                     : -1;
          if (callee >= 0) {
            ++program.direct_call_edges;
          }
          AppendCallCopies(module, callee, inst.dst, inst.args, &program.copies);
          break;
        }
        case MirOp::kIndirectCall:
          program.indirect_calls.push_back({inst.ptr, inst.dst, inst.args});
          break;
        default:
          break;
      }
    }
  }
  return program;
}

}  // namespace mvee
