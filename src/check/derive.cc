#include "src/check/derive.h"

#include "src/ir/semantics.h"
#include "src/support/strings.h"

namespace polynima::check {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::Op;
using ir::Value;

bool IsGpr(const std::string& name) {
  return name.size() > 3 && name.compare(0, 3, "vr_") == 0;
}

}  // namespace

bool Provenance::Join(const Provenance& o) {
  bool changed = false;
  if (o.stack && !stack) {
    stack = true;
    delta_known = o.delta_known;
    delta = o.delta;
    changed = true;
  } else if (o.stack && stack && delta_known &&
             (!o.delta_known || o.delta != delta)) {
    delta_known = false;  // two distinct slots: "some stack address"
    changed = true;
  }
  if (o.other && !other) {
    other = true;
    changed = true;
  }
  for (const Instruction* a : o.allocs) {
    changed = allocs.insert(a).second || changed;
  }
  return changed;
}

bool IsAllocatorExternal(const std::string& name) {
  return name == "malloc" || name == "calloc" || name == "realloc";
}

RegionDeriver::RegionDeriver(const Function& f,
                             const std::vector<std::string>& externals)
    : f_(f), externals_(externals) {
  bottom_ = Provenance{};
  for (const auto& b : f.blocks()) {
    for (const auto& inst : b->insts()) {
      if (inst->op() == Op::kCall &&
          IsAllocatorExternal(ExternalName(*inst))) {
        alloc_sites_.push_back(inst.get());
      }
    }
  }
  Solve();
}

std::string ExternalName(const Instruction& call,
                         const std::vector<std::string>& externals) {
  if (!ir::CallsIntrinsic(call, ir::Intrinsic::kExtCall) ||
      call.num_operands() < 1 || !call.operand(0)->is_const()) {
    return "";
  }
  int64_t slot = static_cast<const ir::Constant*>(call.operand(0))->value();
  if (slot < 0 || static_cast<size_t>(slot) >= externals.size()) {
    return "";
  }
  return externals[static_cast<size_t>(slot)];
}

const Provenance& RegionDeriver::ValueOf(const Value* v) const {
  if (v == nullptr || !v->is_inst()) {
    // Constants are offsets, not pointers; arguments do not occur in lifted
    // functions (hand-built IR arguments stay bottom -> classified shared).
    return bottom_;
  }
  auto it = values_.find(static_cast<const Instruction*>(v));
  return it == values_.end() ? bottom_ : it->second;
}

Provenance RegionDeriver::Eval(const Value* v) const { return ValueOf(v); }

// Provenance a GPR holds when nothing in this function has written it yet:
// the stack pointer (and the frame pointer once established) roots the
// emulated stack; every other register arrives with caller state of unknown
// provenance.
static Provenance DefaultGlobal(const Function& f, const Global* g) {
  Provenance p;
  if (g->name() == "vr_rsp") {
    p.stack = true;
    // An unwritten vr_rsp is still the function-entry stack pointer: the
    // origin all slot deltas are measured from.
    p.delta_known = true;
    p.delta = 0;
  } else if (g->name() == "vr_rbp" && f.frame_pointer) {
    p.stack = true;  // established by the prologue; entry offset unknown
  } else {
    p.other = true;
  }
  return p;
}

void RegionDeriver::ApplyCallClobbers(const Instruction& call,
                                      GlobalState& state) const {
  if (!ir::IsCallBoundary(call)) {
    return;
  }
  Provenance other;
  other.other = true;
  for (auto& [g, p] : state) {
    if (IsGpr(g->name()) && !ir::IsCalleeSavedGpr(g->name())) {
      p = other;
    }
  }
  // A guest call returns through the callee's lifted `ret`, which pops the
  // return address the caller pushed: vr_rsp comes back exactly 8 bytes above
  // the value the caller stored before the call. Without this shift every
  // loop that calls through its body joins two rsp deltas 8 apart at the
  // header phi and loses slot resolution for the whole loop. External calls
  // and the never-returning intrinsics do not touch the emulated stack
  // pointer (the lifter emits no push for them).
  if (call.callee != nullptr) {
    for (auto& [g, p] : state) {
      if (g->name() == "vr_rsp" && p.stack && p.delta_known) {
        p.delta += 8;
      }
    }
  }
  // Missing entries already default to `other` for caller-saved registers.
  std::string name = ExternalName(call);
  if (IsAllocatorExternal(name)) {
    const Global* rax = nullptr;
    for (const auto& [g, p] : state) {
      if (g->name() == "vr_rax") {
        rax = g;
        break;
      }
    }
    Provenance fresh;
    fresh.allocs.insert(&call);
    if (rax != nullptr) {
      state[rax] = fresh;
    } else {
      // vr_rax not yet in the state map: find it through the call's users —
      // the lifter reads the result with GlobalLoad @vr_rax. Seeding via the
      // first such load keeps the map keyed on the module's Global object.
      for (const auto& b : f_.blocks()) {
        for (const auto& inst : b->insts()) {
          if ((inst->op() == Op::kGlobalLoad ||
               inst->op() == Op::kGlobalStore) &&
              inst->global != nullptr && inst->global->name() == "vr_rax") {
            state[inst->global] = fresh;
            return;
          }
        }
      }
    }
  }
}

bool RegionDeriver::Transfer(const BasicBlock& b, GlobalState state) {
  bool changed = false;
  auto lookup = [&](const Global* g) -> Provenance {
    auto it = state.find(g);
    return it != state.end() ? it->second : DefaultGlobal(f_, g);
  };
  auto set_value = [&](const Instruction* inst, const Provenance& p) {
    changed = values_[inst].Join(p) || changed;
  };
  for (const auto& inst : b.insts()) {
    switch (inst->op()) {
      case Op::kGlobalLoad:
        if (inst->global != nullptr) {
          set_value(inst.get(), lookup(inst->global));
        }
        break;
      case Op::kGlobalStore:
        if (inst->global != nullptr) {
          state[inst->global] = Eval(inst->operand(0));
        }
        break;
      case Op::kAdd:
      case Op::kSub: {
        // Base-plus-offset: arithmetic on a uniquely-rooted pointer keeps
        // its region. An operand with no stack bit and no allocation sites
        // (Bottom or pure {other}) is an offset, not a second base — without
        // this rule every a[i] whose index reloads from a spill slot would
        // degrade to "unknown". The documented assumption (DESIGN.md §4e):
        // compilers do not materialize a pointer as (other-region base +
        // cross-region difference), so treating the value operand as an
        // integer offset cannot launder a foreign pointer into the base's
        // region. The TSO checker re-derives kHeapLocal witnesses with this
        // same code, so analyzer and checker agree by construction.
        Provenance lhs = Eval(inst->operand(0));
        Provenance rhs = Eval(inst->operand(1));
        auto is_offset = [](const Provenance& p) {
          return !p.stack && p.allocs.empty();
        };
        // Keeps a resolved slot delta current across base±offset: a literal
        // constant shifts it, any symbolic offset makes the slot unknown.
        auto shift_delta = [&](Provenance& p, const Value* off, bool add) {
          if (!p.stack || !p.delta_known) {
            return;
          }
          if (off->is_const()) {
            int64_t c = static_cast<const ir::Constant*>(off)->value();
            p.delta += add ? c : -c;
          } else {
            p.delta_known = false;
          }
        };
        Provenance p;
        if ((lhs.PureStack() || lhs.PureHeap()) && is_offset(rhs)) {
          p = lhs;
          shift_delta(p, inst->operand(1), inst->op() == Op::kAdd);
        } else if (inst->op() == Op::kAdd &&
                   (rhs.PureStack() || rhs.PureHeap()) && is_offset(lhs)) {
          p = rhs;  // index + base, commuted
          shift_delta(p, inst->operand(0), /*add=*/true);
        } else {
          p = lhs;
          p.Join(rhs);
          p.delta_known = false;  // mixed bases never name one slot
        }
        set_value(inst.get(), p);
        break;
      }
      case Op::kSelect: {
        Provenance p = Eval(inst->operand(1));
        p.Join(Eval(inst->operand(2)));
        set_value(inst.get(), p);
        break;
      }
      case Op::kPhi: {
        Provenance p;
        for (int i = 0; i < inst->num_operands(); ++i) {
          p.Join(Eval(inst->operand(i)));
        }
        set_value(inst.get(), p);
        break;
      }
      case Op::kStore: {
        // Values saved to provably-private memory are NOT escaped at the
        // store (spill slots and private heap objects are the two escape
        // exemptions in ComputeEscapeFacts), so reloads must be able to
        // re-materialize their provenance — otherwise a pointer laundered
        // through a spill slot would reach an escape sink as a bare `other`
        // and slip past every escape rule. Accumulate them into the memory
        // residue that kLoad folds back in, per slot when resolved.
        Provenance dst = Eval(inst->operand(0));
        Provenance val = Eval(inst->operand(1));
        if (!val.Bottom()) {
          if (dst.PureStack()) {
            Provenance& r = dst.delta_known ? slot_residue_[dst.delta]
                                            : stack_unknown_residue_;
            changed = r.Join(val) || changed;
          } else if (dst.PureHeap()) {
            changed = heap_residue_.Join(val) || changed;
          }
          // Any other destination: the sink walk escapes `val` at this
          // store, so the plain `other` a reload gets already covers it.
        }
        break;
      }
      case Op::kLoad:
      case Op::kAtomicRmw:
      case Op::kCmpXchg: {
        // A reload materializes caller state (`other`, which also covers
        // everything escaped at its own store) plus anything this function
        // parked in private memory the address may alias: the matching
        // stack slot (every slot when the offset is unresolved) and, for
        // site-derived addresses, the private-heap residue. A pure
        // `other`/constant address cannot name a still-private location —
        // publishing a frame or heap pointer to reachable-from-elsewhere
        // memory already escaped it (and the guest memory layout keeps
        // constant data apart from stack and heap, the same assumption
        // analyze::MayAlias makes).
        Provenance p;
        p.other = true;
        Provenance addr = Eval(inst->operand(0));
        if (addr.stack) {
          if (addr.PureStack() && addr.delta_known) {
            auto it = slot_residue_.find(addr.delta);
            if (it != slot_residue_.end()) {
              p.Join(it->second);
            }
          } else {
            for (const auto& [delta, r] : slot_residue_) {
              (void)delta;
              p.Join(r);
            }
          }
          p.Join(stack_unknown_residue_);
        }
        if (!addr.allocs.empty()) {
          p.Join(heap_residue_);
        }
        p.delta_known = false;
        set_value(inst.get(), p);
        break;
      }
      case Op::kCall:
        ApplyCallClobbers(*inst, state);
        break;
      default: {
        // Any other op may smuggle a pointer through arithmetic: propagate
        // the operand provenance (so escapes through disguised values are
        // still seen) but never leave it Pure.
        if (!inst->HasResult()) {
          break;
        }
        Provenance p;
        for (int i = 0; i < inst->num_operands(); ++i) {
          p.Join(Eval(inst->operand(i)));
        }
        if (!p.Bottom()) {
          p.other = true;
        }
        set_value(inst.get(), p);
        break;
      }
    }
  }
  // Merge the out-state into every successor's in-state. A key missing on
  // either side stands for DefaultGlobal, so only explicit disagreements
  // need materializing.
  for (BasicBlock* succ : b.Successors()) {
    auto it = block_in_.find(succ);
    if (it == block_in_.end()) {
      block_in_[succ] = state;
      changed = true;
      continue;
    }
    GlobalState& in = it->second;
    for (const auto& [g, p] : state) {
      auto jt = in.find(g);
      if (jt == in.end()) {
        Provenance joined = DefaultGlobal(f_, g);
        if (joined.Join(p)) {
          in[g] = joined;
          changed = true;
        }
      } else {
        changed = jt->second.Join(p) || changed;
      }
    }
    for (auto& [g, p] : in) {
      if (state.find(g) == state.end()) {
        changed = p.Join(DefaultGlobal(f_, g)) || changed;
      }
    }
  }
  return changed;
}

void RegionDeriver::Solve() {
  if (f_.blocks().empty()) {
    return;
  }
  block_in_[f_.entry()] = {};
  bool changed = true;
  // Widening is monotone over a finite lattice (two bits + a site set
  // bounded by the function's allocation count), so this terminates.
  while (changed) {
    changed = false;
    for (const auto& b : f_.blocks()) {
      auto it = block_in_.find(b.get());
      if (it == block_in_.end()) {
        continue;  // not reached (yet)
      }
      changed = Transfer(*b, it->second) || changed;
    }
  }
}

Provenance RegionDeriver::GlobalBefore(const Instruction& inst,
                                       const Global* g) const {
  const BasicBlock* b = inst.parent();
  if (b == nullptr) {
    Provenance p;
    p.other = true;
    return p;
  }
  auto it = block_in_.find(b);
  GlobalState state = it != block_in_.end() ? it->second : GlobalState{};
  for (const auto& cur : b->insts()) {
    if (cur.get() == &inst) {
      break;
    }
    if (cur->op() == Op::kGlobalStore && cur->global != nullptr) {
      state[cur->global] = Eval(cur->operand(0));
    } else if (cur->op() == Op::kCall) {
      ApplyCallClobbers(*cur, state);
    }
  }
  auto jt = state.find(g);
  return jt != state.end() ? jt->second : DefaultGlobal(f_, g);
}

namespace {

void MarkStack(EscapeFacts& facts, const std::string& reason) {
  if (!facts.stack_escaped) {
    facts.stack_escaped = true;
    facts.stack_reason = reason;
  }
}

void MarkSite(EscapeFacts& facts, const Instruction* site,
              const std::string& reason) {
  if (facts.escaped.insert(site).second) {
    facts.reasons[site] = reason;
  }
}

void EscapeAll(EscapeFacts& facts, const Provenance& p,
               const std::string& reason) {
  if (p.stack) {
    MarkStack(facts, reason);
  }
  for (const Instruction* site : p.allocs) {
    MarkSite(facts, site, reason);
  }
}

uint64_t GuestAddrOf(const Instruction& inst) {
  return inst.parent() != nullptr ? inst.parent()->guest_address : 0;
}

}  // namespace

EscapeFacts ComputeEscapeFacts(const Function& f, const ir::Module& m,
                               const RegionDeriver& deriver) {
  EscapeFacts facts;
  // h -> {s...}: if allocation h escapes, every s stored into it escapes.
  std::map<const Instruction*, std::set<const Instruction*>> held_by;
  // Sites whose pointer was saved to a (pure) stack slot: escape iff the
  // frame itself escapes.
  std::set<const Instruction*> spilled_to_stack;

  std::vector<const Global*> arg_regs;
  for (const char* name : ir::kArgGprs) {
    arg_regs.push_back(m.GetGlobal(name));
  }
  const Global* rax = m.GetGlobal("vr_rax");

  for (const auto& b : f.blocks()) {
    for (const auto& inst : b->insts()) {
      switch (inst->op()) {
        case Op::kStore: {
          const Provenance& dst = deriver.ValueOf(inst->operand(0));
          const Provenance& val = deriver.ValueOf(inst->operand(1));
          if (val.Bottom()) {
            break;
          }
          std::string where = StrCat("store@", HexString(GuestAddrOf(*inst)));
          if (dst.PureStack()) {
            // A spill: not an escape by itself, but remember which heap
            // objects live in the frame in case the frame later escapes.
            for (const Instruction* site : val.allocs) {
              spilled_to_stack.insert(site);
            }
          } else if (dst.PureHeap()) {
            if (val.stack) {
              MarkStack(facts, where + " into heap object");
            }
            for (const Instruction* holder : dst.allocs) {
              for (const Instruction* site : val.allocs) {
                held_by[holder].insert(site);
              }
            }
          } else {
            EscapeAll(facts, val, where + " to shared memory");
          }
          break;
        }
        case Op::kAtomicRmw:
        case Op::kCmpXchg: {
          // Atomic access declares the location shared; the value operands
          // may also publish a pointer.
          std::string where =
              StrCat("atomic@", HexString(GuestAddrOf(*inst)));
          for (int i = 0; i < inst->num_operands(); ++i) {
            EscapeAll(facts, deriver.ValueOf(inst->operand(i)), where);
          }
          break;
        }
        case Op::kCall: {
          if (inst->callee == nullptr &&
              inst->intrinsic != ir::Intrinsic::kExtCall &&
              inst->intrinsic != ir::Intrinsic::kCfmiss) {
            break;  // other intrinsics take explicit operands, not GPRs
          }
          // Call-boundary conservatism: anything in an argument register
          // may be retained by the callee (guest or external) or handed to
          // a new thread.
          std::string name = deriver.ExternalName(*inst);
          std::string where =
              StrCat("call ", name.empty() ? "(guest)" : name, "@",
                     HexString(GuestAddrOf(*inst)));
          for (const Global* g : arg_regs) {
            if (g != nullptr) {
              EscapeAll(facts, deriver.GlobalBefore(*inst, g), where);
            }
          }
          break;
        }
        case Op::kRet: {
          // Return-value escape: the caller receives whatever vr_rax holds.
          if (rax != nullptr) {
            EscapeAll(facts, deriver.GlobalBefore(*inst, rax),
                      "returned to caller");
          }
          if (inst->num_operands() == 1) {
            EscapeAll(facts, deriver.ValueOf(inst->operand(0)),
                      "returned to caller");
          }
          break;
        }
        default:
          break;
      }
    }
  }

  // A frame escape exposes every spill slot.
  if (facts.stack_escaped) {
    for (const Instruction* site : spilled_to_stack) {
      MarkSite(facts, site,
               StrCat("spilled to escaped frame (", facts.stack_reason, ")"));
    }
  }
  // An escaped holder exposes everything stored into it.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [holder, held] : held_by) {
      if (facts.escaped.count(holder) == 0) {
        continue;
      }
      for (const Instruction* site : held) {
        if (facts.escaped.insert(site).second) {
          facts.reasons[site] = StrCat("stored into escaped object (",
                                       facts.reasons[holder], ")");
          changed = true;
        }
      }
    }
  }
  return facts;
}

}  // namespace polynima::check
