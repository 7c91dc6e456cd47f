#include "src/analyze/icf.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>

#include "src/check/derive.h"
#include "src/ir/semantics.h"
#include "src/obs/trace.h"
#include "src/support/strings.h"

namespace polynima::analyze {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::Op;
using ir::Value;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Concrete feasible-value set of one i64 value. Join-semilattice ordered by
// inclusion with an explicit top ("unbounded"); bottom is the empty set
// (unreached code). Everything the solver cannot model goes to top, so a
// bounded fact is a sound over-approximation of the runtime value.
struct Fact {
  bool top = false;
  std::set<uint64_t> values;

  static Fact Top() {
    Fact f;
    f.top = true;
    return f;
  }
  bool bounded() const { return !top; }

  // Joins `o` in, widening to top past `cap` members. Returns true when
  // anything changed.
  bool Join(const Fact& o, size_t cap) {
    if (top) {
      return false;
    }
    if (o.top) {
      top = true;
      values.clear();
      return true;
    }
    bool changed = false;
    for (uint64_t v : o.values) {
      changed = values.insert(v).second || changed;
    }
    if (values.size() > cap) {
      top = true;
      values.clear();
      changed = true;
    }
    return changed;
  }
};

// Reads `size` little-endian bytes at `addr` if the address range lies
// entirely inside a read-only, non-executable segment (.rodata). Only such
// memory is immutable under the execution model — writable segments can
// change at runtime and executable segments are covered by the separate SMC
// guard, not this certificate — so only these reads may feed a proof.
bool ReadRoValue(const binary::Image& image, uint64_t addr, int size,
                 uint64_t* out) {
  const binary::Segment* seg = image.SegmentContaining(addr);
  if (seg == nullptr || !seg->read_only || seg->executable) {
    return false;
  }
  uint64_t off = addr - seg->address;
  if (off + static_cast<uint64_t>(size) > seg->bytes.size()) {
    return false;
  }
  uint64_t v = 0;
  for (int i = size - 1; i >= 0; --i) {
    v = (v << 8) | seg->bytes[off + static_cast<uint64_t>(i)];
  }
  *out = v;
  return true;
}

// Forward dataflow computing a Fact for every instruction of one function.
// State flows through the virtual GPR globals (like check::RegionDeriver)
// and — when the frame is proven non-escaping — through resolved stack spill
// slots, so the mcc `push callee; pop r10; call r10` idiom keeps its fact.
class TargetSolver {
 public:
  TargetSolver(const Function& f, const ir::Module& m,
               const binary::Image& image,
               const check::RegionDeriver& deriver, bool track_slots,
               size_t cap)
      : f_(f),
        image_(image),
        deriver_(deriver),
        track_slots_(track_slots),
        cap_(cap),
        rsp_(m.GetGlobal("vr_rsp")) {
    Solve();
  }

  // Fact of `v` at fixpoint. Bottom (empty set) for unreached instructions.
  Fact FactOf(const Value* v) const {
    if (v == nullptr) {
      return Fact::Top();
    }
    if (v->is_const()) {
      Fact f;
      f.values.insert(
          static_cast<uint64_t>(static_cast<const ir::Constant*>(v)->value()));
      return f;
    }
    if (!v->is_inst()) {
      return Fact::Top();
    }
    auto it = values_.find(static_cast<const Instruction*>(v));
    return it == values_.end() ? Fact{} : it->second;
  }

 private:
  // Bounded facts only: a missing key means "unknown" (top), which makes the
  // function-entry state (empty maps) the correct caller-unknown default.
  struct State {
    std::map<const Global*, Fact> globals;
    std::map<int64_t, Fact> slots;  // 8-byte slots keyed by entry-rsp delta
  };

  template <typename K>
  bool JoinMap(std::map<K, Fact>& into, const std::map<K, Fact>& from) const {
    bool changed = false;
    for (auto it = into.begin(); it != into.end();) {
      auto jt = from.find(it->first);
      if (jt == from.end()) {
        it = into.erase(it);  // other side top
        changed = true;
        continue;
      }
      if (it->second.Join(jt->second, cap_)) {
        changed = true;
        if (it->second.top) {
          it = into.erase(it);
          continue;
        }
      }
      ++it;
    }
    return changed;
  }

  Fact BinopFact(Op op, const Fact& a, const Fact& b) const {
    if (a.bounded() && b.bounded()) {
      if (a.values.empty() || b.values.empty()) {
        return Fact{};  // bottom: an unreached operand
      }
      Fact r;
      for (uint64_t x : a.values) {
        for (uint64_t y : b.values) {
          ir::BinaryResult v = ir::EvalBinary(op, x, y);
          if (!v.ok()) {
            return Fact::Top();  // a faulting pair has no value to bound
          }
          r.values.insert(v.value);
          if (r.values.size() > cap_) {
            return Fact::Top();
          }
        }
      }
      return r;
    }
    // One side unbounded: masking and modulus still bound the result — the
    // rule that keeps `table[i & 7]` provable when `i` is a loop index the
    // solver cannot enumerate.
    if (op == Op::kAnd) {
      const Fact& m = a.bounded() ? a : b;
      if (m.bounded() && !m.values.empty()) {
        Fact r;
        for (uint64_t mask : m.values) {
          if (mask >= cap_) {
            return Fact::Top();
          }
          for (uint64_t w = 0; w <= mask; ++w) {
            if ((w & mask) == w) {
              r.values.insert(w);
            }
          }
        }
        if (r.values.size() > cap_) {
          return Fact::Top();
        }
        return r;
      }
    }
    if (op == Op::kURem && b.bounded() && !b.values.empty()) {
      if (b.values.count(0) != 0) {
        return Fact::Top();
      }
      uint64_t max_mod = *b.values.rbegin();
      if (max_mod > cap_) {
        return Fact::Top();
      }
      Fact r;
      for (uint64_t w = 0; w < max_mod; ++w) {
        r.values.insert(w);
      }
      return r;
    }
    return Fact::Top();
  }

  Fact LoadFact(const State& state, const Instruction& inst) const {
    const Value* addr = inst.operand(0);
    Fact af = FactOf(addr);
    if (af.bounded() && !af.values.empty()) {
      Fact r;
      bool all_ro = true;
      for (uint64_t a : af.values) {
        uint64_t v = 0;
        if (!ReadRoValue(image_, a, inst.size, &v)) {
          all_ro = false;
          break;
        }
        r.values.insert(v);
      }
      if (all_ro && r.values.size() <= cap_) {
        return r;
      }
    }
    // A reload from a resolved private spill slot re-materializes what was
    // stored there. Only sound when the frame never escapes: no foreign
    // pointer to the frame can exist, so untracked writes cannot alias it
    // (the same aliasing model check::RegionDeriver documents).
    if (track_slots_ && inst.size == 8) {
      const check::Provenance& p = deriver_.ValueOf(addr);
      if (p.PureStack() && p.delta_known) {
        auto it = state.slots.find(p.delta);
        return it != state.slots.end() ? it->second : Fact::Top();
      }
    }
    return Fact::Top();
  }

  // Store-side slot effects: a resolved pure-stack store records (or, when
  // partial, clobbers) its slot; an unresolved or mixed stack address may
  // alias any slot and drops them all; a non-stack address cannot alias the
  // (non-escaped) frame.
  void StoreEffect(State& state, const Value* addr, int size,
                   const Fact* stored) const {
    const check::Provenance& p = deriver_.ValueOf(addr);
    if (!p.stack) {
      return;
    }
    if (!p.PureStack() || !p.delta_known) {
      state.slots.clear();
      return;
    }
    for (auto it = state.slots.begin(); it != state.slots.end();) {
      int64_t s = it->first;
      if (s < p.delta + size && s + 8 > p.delta) {
        it = state.slots.erase(it);
      } else {
        ++it;
      }
    }
    if (track_slots_ && stored != nullptr && size == 8 && stored->bounded() &&
        !stored->values.empty()) {
      state.slots[p.delta] = *stored;
    }
  }

  void CallEffect(State& state, const Instruction& call) const {
    if (!ir::IsCallBoundary(call)) {
      return;
    }
    // Everything but the callee-saved GPRs is clobbered at a call boundary
    // (flags and vector state included). vr_rsp is preserved as a *pointer*
    // but not as a value — a guest callee's ret pops the return address, so
    // the register comes back 8 above the stored value (the deriver models
    // the shift; a concrete value fact cannot, so it is dropped).
    for (auto it = state.globals.begin(); it != state.globals.end();) {
      if (!ir::IsCalleeSavedGpr(it->first->name()) ||
          (call.callee != nullptr && it->first->name() == "vr_rsp")) {
        it = state.globals.erase(it);
      } else {
        ++it;
      }
    }
    // The callee runs below the stack pointer of the call: slots at or above
    // the return-address slot survive (the frame is private, so the callee
    // holds no pointer into it). An unresolved stack pointer drops them all.
    if (rsp_ != nullptr) {
      check::Provenance p = deriver_.GlobalBefore(call, rsp_);
      if (p.PureStack() && p.delta_known) {
        for (auto it = state.slots.begin(); it != state.slots.end();) {
          if (it->first < p.delta) {
            it = state.slots.erase(it);
          } else {
            ++it;
          }
        }
        return;
      }
    }
    state.slots.clear();
  }

  bool Transfer(const BasicBlock& b, State state) {
    bool changed = false;
    auto set_value = [&](const Instruction* inst, const Fact& f) {
      changed = values_[inst].Join(f, cap_) || changed;
    };
    for (const auto& inst : b.insts()) {
      switch (inst->op()) {
        case Op::kGlobalLoad: {
          auto it = state.globals.find(inst->global);
          set_value(inst.get(),
                    it != state.globals.end() ? it->second : Fact::Top());
          break;
        }
        case Op::kGlobalStore: {
          Fact f = FactOf(inst->operand(0));
          if (f.bounded()) {
            state.globals[inst->global] = std::move(f);
          } else {
            state.globals.erase(inst->global);
          }
          break;
        }
        case Op::kAdd:
        case Op::kSub:
        case Op::kMul:
        case Op::kAnd:
        case Op::kOr:
        case Op::kXor:
        case Op::kShl:
        case Op::kLShr:
        case Op::kAShr:
        case Op::kURem:
          set_value(inst.get(),
                    BinopFact(inst->op(), FactOf(inst->operand(0)),
                              FactOf(inst->operand(1))));
          break;
        case Op::kSExt: {
          Fact a = FactOf(inst->operand(0));
          if (!a.bounded()) {
            set_value(inst.get(), Fact::Top());
            break;
          }
          Fact r;
          for (uint64_t v : a.values) {
            r.values.insert(ir::SignExtend(v, inst->width));
          }
          set_value(inst.get(), r);
          break;
        }
        case Op::kICmp: {
          Fact r;
          r.values.insert(0);
          r.values.insert(1);
          set_value(inst.get(), r);
          break;
        }
        case Op::kSelect: {
          Fact r = FactOf(inst->operand(1));
          r.Join(FactOf(inst->operand(2)), cap_);
          set_value(inst.get(), r);
          break;
        }
        case Op::kPhi: {
          Fact r;
          for (int i = 0; i < inst->num_operands(); ++i) {
            r.Join(FactOf(inst->operand(i)), cap_);
          }
          set_value(inst.get(), r);
          break;
        }
        case Op::kLoad:
          set_value(inst.get(), LoadFact(state, *inst));
          break;
        case Op::kStore: {
          Fact stored = FactOf(inst->operand(1));
          StoreEffect(state, inst->operand(0), inst->size, &stored);
          break;
        }
        case Op::kAtomicRmw:
        case Op::kCmpXchg:
          StoreEffect(state, inst->operand(0), inst->size, nullptr);
          set_value(inst.get(), Fact::Top());
          break;
        case Op::kCall:
          CallEffect(state, *inst);
          if (inst->HasResult()) {
            set_value(inst.get(), Fact::Top());
          }
          break;
        case Op::kFence:
        case Op::kBr:
        case Op::kSwitch:
        case Op::kRet:
        case Op::kUnreachable:
          break;
        default:
          if (inst->HasResult()) {
            set_value(inst.get(), Fact::Top());
          }
          break;
      }
    }
    for (BasicBlock* succ : b.Successors()) {
      auto it = block_in_.find(succ);
      if (it == block_in_.end()) {
        block_in_[succ] = state;
        changed = true;
        continue;
      }
      changed = JoinMap(it->second.globals, state.globals) || changed;
      changed = JoinMap(it->second.slots, state.slots) || changed;
    }
    return changed;
  }

  void Solve() {
    if (f_.blocks().empty()) {
      return;
    }
    block_in_[f_.entry()] = {};
    bool changed = true;
    // Monotone over a finite lattice (value sets capped at cap_, state maps
    // only shrink toward top), so this terminates.
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

  const Function& f_;
  const binary::Image& image_;
  const check::RegionDeriver& deriver_;
  const bool track_slots_;
  const size_t cap_;
  const Global* rsp_;
  std::map<const BasicBlock*, State> block_in_;
  std::map<const Instruction*, Fact> values_;
};

}  // namespace

IcfResult AnalyzeIndirectControlFlow(const lift::LiftedProgram& program,
                                     const binary::Image& image,
                                     const cfg::ControlFlowGraph& graph,
                                     const IcfOptions& options) {
  IcfResult result;
  if (program.module == nullptr) {
    return result;
  }
  obs::Span span(options.obs.trace, "analyze", "icf");
  int64_t start_ns = NowNs();
  size_t cap = options.max_targets > 0
                   ? static_cast<size_t>(options.max_targets)
                   : 512;

  std::vector<uint64_t> pads = cfg::CollectLandingPads(image);
  result.landing_pads = static_cast<int>(pads.size());

  // Site inventory: every indirect transfer the recovery found, keyed by the
  // address of the transfer instruction (which is also what the lifter
  // passes to the cfmiss intrinsic).
  struct Inv {
    bool is_call = false;
    uint64_t fn_entry = 0;
    std::string fn_name;
  };
  std::map<uint64_t, Inv> inventory;
  for (const auto& [block_start, b] : graph.blocks) {
    if (b.term != cfg::TermKind::kIndirectJump &&
        b.term != cfg::TermKind::kIndirectCall) {
      continue;
    }
    const cfg::FunctionInfo* fi = graph.FunctionOwning(block_start);
    Inv inv;
    inv.is_call = b.term == cfg::TermKind::kIndirectCall;
    if (fi != nullptr) {
      inv.fn_entry = fi->entry;
      inv.fn_name = fi->name;
    }
    inventory[b.term_address] = std::move(inv);
  }
  result.sites_total = static_cast<int>(inventory.size());

  // A site shared by several lifted functions (block multi-membership) must
  // be proven in every context; targets accumulate across contexts.
  struct Accum {
    bool proven = true;
    std::set<uint64_t> targets;
    std::string reason;
  };
  std::map<uint64_t, Accum> accum;
  auto add_reason = [](Accum& acc, const std::string& r) {
    if (acc.reason.empty()) {
      acc.reason = r;
    }
  };

  // Per lifted function: which sites must be proven for the function to
  // count as fully covered, and whether any *other* uncovered block (trap,
  // bare unreachable, cfmiss outside the inventory) forbids coverage.
  struct FnCover {
    uint64_t entry = 0;
    std::string name;
    bool provable = true;
    std::set<uint64_t> needs;
  };
  std::vector<FnCover> covers;

  for (const auto& [entry, fn] : program.functions_by_entry) {
    // Locate this function's uncovered blocks and the cfmiss sites in them.
    std::vector<const Instruction*> miss_sites;
    FnCover cover;
    cover.entry = entry;
    cover.name = fn->name();
    for (const auto& b : fn->blocks()) {
      if (!ir::IsUncovered(*b)) {
        continue;
      }
      uint64_t site_ta = 0;
      const Instruction* site_inst = nullptr;
      for (const auto& inst : b->insts()) {
        if (ir::CallsIntrinsic(*inst, ir::Intrinsic::kCfmiss) &&
            inst->num_operands() >= 2 && inst->operand(1)->is_const()) {
          uint64_t ta = static_cast<uint64_t>(
              static_cast<const ir::Constant*>(inst->operand(1))->value());
          if (inventory.count(ta) != 0) {
            site_ta = ta;
            site_inst = inst.get();
          }
        }
      }
      if (site_inst == nullptr) {
        cover.provable = false;  // uncovered block elision cannot remove
      } else {
        cover.needs.insert(site_ta);
        miss_sites.push_back(site_inst);
      }
    }
    if (miss_sites.empty()) {
      continue;  // no indirect sites: nothing to classify here
    }

    check::RegionDeriver deriver(*fn, program.externals);
    check::EscapeFacts escapes =
        check::ComputeEscapeFacts(*fn, *program.module, deriver);
    TargetSolver solver(*fn, *program.module, image, deriver,
                        /*track_slots=*/!escapes.stack_escaped, cap);

    for (const Instruction* site : miss_sites) {
      uint64_t ta = static_cast<uint64_t>(
          static_cast<const ir::Constant*>(site->operand(1))->value());
      Accum& acc = accum[ta];
      Fact f = solver.FactOf(site->operand(0));
      if (!f.bounded()) {
        acc.proven = false;
        add_reason(acc, escapes.stack_escaped
                            ? "target value unbounded (frame escapes: " +
                                  escapes.stack_reason + ")"
                            : "target value unbounded");
        continue;
      }
      if (f.values.empty()) {
        acc.proven = false;
        add_reason(acc, "site unreachable in lifted IR");
        continue;
      }
      bool all_pads = true;
      uint64_t bad = 0;
      for (uint64_t t : f.values) {
        if (!std::binary_search(pads.begin(), pads.end(), t)) {
          all_pads = false;
          bad = t;
          break;
        }
      }
      if (!all_pads) {
        acc.proven = false;
        add_reason(acc, StrCat("feasible target ", HexString(bad),
                               " is not a landing pad"));
        continue;
      }
      acc.targets.insert(f.values.begin(), f.values.end());
    }
    covers.push_back(std::move(cover));
  }

  for (const auto& [ta, inv] : inventory) {
    IcfSite s;
    s.transfer_address = ta;
    s.is_call = inv.is_call;
    s.function_entry = inv.fn_entry;
    s.function_name = inv.fn_name;
    auto it = accum.find(ta);
    if (it == accum.end()) {
      s.proven = false;
      s.reason = "no lifted context reaches the site";
    } else if (!it->second.proven) {
      s.proven = false;
      s.reason = it->second.reason;
    } else {
      s.proven = true;
      s.targets.assign(it->second.targets.begin(), it->second.targets.end());
      s.reason = StrCat("bounded to ", s.targets.size(),
                        " landing-pad target", s.targets.size() == 1 ? "" : "s");
    }
    (s.proven ? result.sites_proven : result.sites_open) += 1;
    result.site_summaries.push_back(
        StrCat(s.function_name.empty() ? "?" : s.function_name, "@",
               HexString(ta), ": ", s.proven ? "proven" : "open", " (",
               s.reason, ")"));
    result.sites.push_back(std::move(s));
  }

  std::set<uint64_t> proven_tas;
  for (const auto& [ta, acc] : accum) {
    if (acc.proven) {
      proven_tas.insert(ta);
    }
  }
  for (const FnCover& c : covers) {
    if (!c.provable || c.needs.empty()) {
      continue;
    }
    bool ok = true;
    for (uint64_t ta : c.needs) {
      if (proven_tas.count(ta) == 0) {
        ok = false;
        break;
      }
    }
    if (ok) {
      IcfCoveredFunction f;
      f.entry = c.entry;
      f.name = c.name;
      result.covered_functions.push_back(std::move(f));
    }
  }

  result.analyze_ns = NowNs() - start_ns;
  span.Arg("landing_pads", static_cast<int64_t>(result.landing_pads));
  span.Arg("sites_proven", static_cast<int64_t>(result.sites_proven));
  span.Arg("sites_open", static_cast<int64_t>(result.sites_open));
  return result;
}

std::string IcfResult::Summary() const {
  return StrCat("icf: ", landing_pads, " landing pads, ", sites_total,
                " indirect sites (", sites_proven, " proven, ", sites_open,
                " open), ", covered_functions.size(),
                " fully-covered function",
                covered_functions.size() == 1 ? "" : "s");
}

json::Value IcfResult::ToJson() const {
  json::Object doc;
  doc["schema"] = "polynima-icf/v1";
  doc["landing_pads"] = landing_pads;
  doc["sites_total"] = sites_total;
  doc["sites_proven"] = sites_proven;
  doc["sites_open"] = sites_open;
  doc["analyze_ns"] = analyze_ns;
  json::Array covered;
  for (const IcfCoveredFunction& f : covered_functions) {
    json::Object o;
    o["entry"] = f.entry;
    o["name"] = f.name;
    covered.push_back(std::move(o));
  }
  doc["covered_functions"] = std::move(covered);
  json::Array sites_json;
  for (const IcfSite& s : sites) {
    json::Object o;
    o["transfer_address"] = s.transfer_address;
    o["function"] = s.function_name;
    o["function_entry"] = s.function_entry;
    o["call"] = s.is_call;
    o["proven"] = s.proven;
    json::Array targets;
    for (uint64_t t : s.targets) {
      targets.push_back(t);
    }
    o["targets"] = std::move(targets);
    o["reason"] = s.reason;
    sites_json.push_back(std::move(o));
  }
  doc["sites"] = std::move(sites_json);
  return doc;
}

check::CfgCert MakeCfgCert(const IcfResult& result,
                           const binary::Image& image) {
  check::CfgCert cert;
  cert.binary_key = check::BinaryKey(image);
  cert.landing_pads = result.landing_pads;
  cert.sites_proven = result.sites_proven;
  cert.sites_open = result.sites_open;
  for (const IcfSite& s : result.sites) {
    if (!s.proven) {
      continue;
    }
    check::CfgCert::Site cs;
    cs.transfer_address = s.transfer_address;
    cs.is_call = s.is_call;
    cs.targets = s.targets;
    cert.sites.push_back(std::move(cs));
  }
  for (const IcfCoveredFunction& f : result.covered_functions) {
    cert.covered_functions.push_back(f.entry);
  }
  cert.site_summaries = result.site_summaries;
  cert.Seal();
  return cert;
}

}  // namespace polynima::analyze
