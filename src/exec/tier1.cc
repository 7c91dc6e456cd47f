// Tier-1 translator and executor (see tier1.h for the architecture).
//
// Parity rules the translator and executor enforce together — every one of
// these is what makes tier-1 runs bit-identical to tier 0:
//   - Costs are pre-summed per TInst from the same IrCostModel; jitter draws
//     come from the thread's jitter stream, one per non-folded component, in
//     source order.
//   - Addressing-fold members execute for free in both tiers (cost 0, no
//     draw), so fusing them changes nothing observable.
//   - Memory fusions require the components to be ADJACENT in the block: a
//     deopt between a folded address computation and its memory op would
//     otherwise resume tier 0 past the (skipped) computation with its value
//     slot unwritten.
//   - Branches into uncovered blocks are intercepted BEFORE any charging or
//     profile counting, so the interpreter re-executes the branch exactly
//     once.
//   - Under a controlled scheduler every visible TInst is one IR
//     instruction (fusion restricted to kCmpBr, whose components are always
//     thread-private), and Step deopts + interprets it inline, so decision
//     indices, kinds and rng consumption match tier 0 exactly.
#include "src/exec/tier1.h"

#include <algorithm>
#include <utility>

#include "src/exec/engine.h"
#include "src/ir/semantics.h"
#include "src/support/check.h"
#include "src/support/strings.h"

namespace polynima::exec {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Op;
using ir::Pred;
using ir::RmwOp;
using ir::Value;

const char* DeoptReasonName(DeoptReason reason) {
  switch (reason) {
    case DeoptReason::kPreempt:
      return "preempt";
    case DeoptReason::kSmcWrite:
      return "smc_write";
    case DeoptReason::kUncoveredEdge:
      return "uncovered_edge";
    default:
      return "?";
  }
}

namespace {

// Exactly one operand of `user` is `v`.
bool UsesExactlyOnce(const Instruction* user, const Value* v) {
  int uses = 0;
  for (int i = 0; i < user->num_operands(); ++i) {
    if (user->operand(i) == v) {
      ++uses;
    }
  }
  return uses == 1;
}

constexpr bool Mirrors(TOp t, Op o) {
  return static_cast<int>(t) == static_cast<int>(o);
}
// TOp's ALU block mirrors ir::Op's binary ops one for one, so an ALU op
// translates by a cast and a fused kLoadOp stores its ir::Op in `extra`.
static_assert(Mirrors(TOp::kAdd, Op::kAdd) && Mirrors(TOp::kSub, Op::kSub) &&
              Mirrors(TOp::kMul, Op::kMul) && Mirrors(TOp::kSDiv, Op::kSDiv) &&
              Mirrors(TOp::kSRem, Op::kSRem) &&
              Mirrors(TOp::kUDiv, Op::kUDiv) &&
              Mirrors(TOp::kURem, Op::kURem) && Mirrors(TOp::kAnd, Op::kAnd) &&
              Mirrors(TOp::kOr, Op::kOr) && Mirrors(TOp::kXor, Op::kXor) &&
              Mirrors(TOp::kShl, Op::kShl) &&
              Mirrors(TOp::kLShr, Op::kLShr) &&
              Mirrors(TOp::kAShr, Op::kAShr));

}  // namespace

uint64_t AluBaseCost(Op op, const IrCostModel& c) {
  switch (op) {
    case Op::kMul:
      return c.alu + 2;
    case Op::kSDiv:
    case Op::kSRem:
    case Op::kUDiv:
    case Op::kURem:
      return c.alu + 20;
    default:
      return c.alu;
  }
}

uint64_t SwitchCost(size_t num_cases) {
  uint64_t n = num_cases;
  uint64_t cost = 2;
  while (n > 1) {
    n >>= 1;
    ++cost;
  }
  return cost;
}

// ---------------------------------------------------------------------------
// Translator
// ---------------------------------------------------------------------------

bool Tier1Backend::Translate(FuncInfo* info) {
  Function* fn = info->fn;
  // Under a controlled scheduler only private-by-construction fusion is
  // allowed (see file header); free-running modes fuse everything.
  const bool fusion_full = e_.options_.scheduler == nullptr;
  const IrCostModel& c = e_.costs_;
  auto tr = std::make_shared<Translation>();
  tr->num_slots = info->num_slots;

  std::set<const BasicBlock*> covered;
  size_t max_phis = 0;
  for (const auto& bp : fn->blocks()) {
    if (ir::IsUncovered(*bp)) {
      continue;
    }
    covered.insert(bp.get());
    size_t phis = 0;
    for (const auto& inst : bp->insts()) {
      if (inst->op() != Op::kPhi) {
        break;
      }
      ++phis;
    }
    max_phis = std::max(max_phis, phis);
  }
  if (covered.count(fn->entry()) == 0) {
    info->translation_failed = true;
    return false;
  }

  // Constant interning prescan. Every constant operand of a covered
  // instruction — and every constant phi-incoming (edge stubs copy them) —
  // lands in the pool BEFORE emission, so the value-array layout is fixed.
  std::map<int64_t, uint32_t> interned;
  auto intern = [&](const Value* v) {
    int64_t value = static_cast<const ir::Constant*>(v)->value();
    if (interned.emplace(value, static_cast<uint32_t>(tr->const_pool.size()))
            .second) {
      tr->const_pool.push_back(static_cast<uint64_t>(value));
    }
  };
  for (const BasicBlock* b : covered) {
    for (const auto& inst : b->insts()) {
      for (int i = 0; i < inst->num_operands(); ++i) {
        if (inst->operand(i)->is_const()) {
          intern(inst->operand(i));
        }
      }
    }
  }
  tr->const_base = static_cast<uint32_t>(tr->num_slots);
  tr->scratch_base =
      tr->const_base + static_cast<uint32_t>(tr->const_pool.size());
  tr->num_values = tr->scratch_base + static_cast<uint32_t>(max_phis);

  auto slot_of = [&](const Value* v) -> uint32_t {
    if (v->is_const()) {
      return tr->const_base +
             interned.at(static_cast<const ir::Constant*>(v)->value());
    }
    const auto* inst = static_cast<const Instruction*>(v);
    POLY_CHECK_GE(inst->id, 0);
    return static_cast<uint32_t>(inst->id);
  };
  auto site_of = [&](const BasicBlock* b) -> uint32_t {
    return e_.options_.obs.profile != nullptr ? e_.ProfileSite(fn, b) : 0;
  };
  auto folded = [&](const Instruction* inst) {
    return inst->id >= 0 &&
           info->fold_by_id[static_cast<size_t>(inst->id)] != 0;
  };

  // ---- Pass A: emit covered block bodies. ----
  std::vector<TInst>& code = tr->code;
  for (const auto& bp : fn->blocks()) {
    BasicBlock* b = bp.get();
    if (covered.count(b) == 0) {
      continue;
    }
    const uint32_t bsite = site_of(b);
    const auto& insts = std::as_const(*b).insts();
    auto it = insts.begin();
    while (it != insts.end() && (*it)->op() == Op::kPhi) {
      ++it;  // phis materialize in edge stubs / tier-0 EnterBlock
    }
    tr->block_heads[b] = static_cast<uint32_t>(code.size());

    for (; it != insts.end(); ++it) {
      const Instruction& inst = **it;
      auto next_it = std::next(it);
      const Instruction* nx =
          next_it != insts.end() ? next_it->get() : nullptr;
      TInst ti;
      ti.block = b;
      ti.anchor = it;
      ti.site = bsite;

      // --- Fused patterns, first component leading. ---

      // icmp + cond-br (always allowed: both components thread-private).
      if (inst.op() == Op::kICmp && nx != nullptr && nx->op() == Op::kBr &&
          nx->num_operands() == 1 && nx->operand(0) == &inst &&
          inst.users().size() == 1) {
        ti.op = TOp::kCmpBr;
        ti.extra = static_cast<uint8_t>(inst.pred);
        ti.a = slot_of(inst.operand(0));
        ti.b = slot_of(inst.operand(1));
        ti.dst = static_cast<uint32_t>(inst.id);
        ti.aux = static_cast<uint32_t>(tr->brs.size());
        tr->brs.push_back(
            {BrTarget{0, nx->targets[0], 0}, BrTarget{0, nx->targets[1], 0}});
        ti.cost = static_cast<uint32_t>(c.alu + c.branch);
        ti.jitter = 2;
        ti.n_instrs = 2;
        code.push_back(ti);
        it = next_it;  // consume the br (block terminator: loop ends)
        continue;
      }

      // shl + add + load/store: scaled-index addressing, 3 adjacent folded
      // components.
      if (fusion_full && inst.op() == Op::kShl && folded(&inst) &&
          inst.users().size() == 1 && nx != nullptr &&
          inst.users()[0] == nx && nx->op() == Op::kAdd && folded(nx) &&
          nx->users().size() == 1 && UsesExactlyOnce(nx, &inst)) {
        auto nn_it = std::next(next_it);
        const Instruction* nn =
            nn_it != insts.end() ? nn_it->get() : nullptr;
        if (nn != nullptr && nx->users()[0] == nn &&
            (nn->op() == Op::kLoad || nn->op() == Op::kStore) &&
            nn->operand(0) == nx &&
            (nn->op() == Op::kLoad || nn->operand(1) != nx)) {
          const Value* other =
              nx->operand(0) == &inst ? nx->operand(1) : nx->operand(0);
          ti.op = nn->op() == Op::kLoad ? TOp::kLoadBIS : TOp::kStoreBIS;
          ti.a = slot_of(other);
          ti.b = slot_of(inst.operand(0));
          ti.extra = static_cast<uint8_t>(
              static_cast<const ir::Constant*>(inst.operand(1))->value());
          ti.size = static_cast<uint8_t>(nn->size);
          if (nn->op() == Op::kLoad) {
            ti.dst = static_cast<uint32_t>(nn->id);
          } else {
            ti.c = slot_of(nn->operand(1));
          }
          ti.cost = static_cast<uint32_t>(c.mem_access);
          ti.jitter = 1;  // shl and add are folded: only the memop draws
          ti.n_instrs = 3;
          code.push_back(ti);
          it = nn_it;
          continue;
        }
      }

      // add + load/store: base+index addressing, 2 adjacent components.
      if (fusion_full && inst.op() == Op::kAdd && folded(&inst) &&
          inst.users().size() == 1 && nx != nullptr &&
          inst.users()[0] == nx &&
          (nx->op() == Op::kLoad || nx->op() == Op::kStore) &&
          nx->operand(0) == &inst &&
          (nx->op() == Op::kLoad || nx->operand(1) != &inst)) {
        ti.op = nx->op() == Op::kLoad ? TOp::kLoadBI : TOp::kStoreBI;
        ti.a = slot_of(inst.operand(0));
        ti.b = slot_of(inst.operand(1));
        ti.size = static_cast<uint8_t>(nx->size);
        if (nx->op() == Op::kLoad) {
          ti.dst = static_cast<uint32_t>(nx->id);
        } else {
          ti.c = slot_of(nx->operand(1));
        }
        ti.cost = static_cast<uint32_t>(c.mem_access);
        ti.jitter = 1;
        ti.n_instrs = 2;
        code.push_back(ti);
        it = next_it;
        continue;
      }

      // load + single-use ALU consumer.
      if (fusion_full && inst.op() == Op::kLoad &&
          inst.users().size() == 1 && nx != nullptr &&
          inst.users()[0] == nx && !folded(nx) &&
          (nx->op() == Op::kAdd || nx->op() == Op::kSub ||
           nx->op() == Op::kAnd || nx->op() == Op::kOr ||
           nx->op() == Op::kXor) &&
          UsesExactlyOnce(nx, &inst)) {
        bool mem_lhs = nx->operand(0) == &inst;
        ti.op = TOp::kLoadOp;
        ti.a = slot_of(inst.operand(0));
        ti.c = slot_of(mem_lhs ? nx->operand(1) : nx->operand(0));
        ti.dst = static_cast<uint32_t>(nx->id);
        ti.size = static_cast<uint8_t>(inst.size);
        ti.extra = static_cast<uint8_t>(nx->op()) | (mem_lhs ? 0x80 : 0);
        ti.cost = static_cast<uint32_t>(c.mem_access + c.alu);
        ti.jitter = 2;
        ti.n_instrs = 2;
        code.push_back(ti);
        it = next_it;
        continue;
      }

      // fence + store (the dominant TSO store-release pattern).
      if (fusion_full && inst.op() == Op::kFence && nx != nullptr &&
          nx->op() == Op::kStore) {
        ti.op = TOp::kFenceStore;
        ti.a = slot_of(nx->operand(0));
        ti.b = slot_of(nx->operand(1));
        ti.size = static_cast<uint8_t>(nx->size);
        ti.cost = static_cast<uint32_t>(c.fence + c.mem_access);
        ti.jitter = 2;
        ti.n_instrs = 2;
        code.push_back(ti);
        it = next_it;
        continue;
      }

      // --- Single-instruction translation. ---
      switch (inst.op()) {
        case Op::kAdd:
        case Op::kSub:
        case Op::kMul:
        case Op::kSDiv:
        case Op::kSRem:
        case Op::kUDiv:
        case Op::kURem:
        case Op::kAnd:
        case Op::kOr:
        case Op::kXor:
        case Op::kShl:
        case Op::kLShr:
        case Op::kAShr:
          ti.op = static_cast<TOp>(inst.op());
          ti.a = slot_of(inst.operand(0));
          ti.b = slot_of(inst.operand(1));
          ti.dst = static_cast<uint32_t>(inst.id);
          ti.cost = static_cast<uint32_t>(AluBaseCost(inst.op(), c));
          ti.jitter = 1;
          break;
        case Op::kICmp:
          ti.op = TOp::kICmp;
          ti.extra = static_cast<uint8_t>(inst.pred);
          ti.a = slot_of(inst.operand(0));
          ti.b = slot_of(inst.operand(1));
          ti.dst = static_cast<uint32_t>(inst.id);
          ti.cost = static_cast<uint32_t>(c.alu);
          ti.jitter = 1;
          break;
        case Op::kSelect:
          ti.op = TOp::kSelect;
          ti.a = slot_of(inst.operand(0));
          ti.b = slot_of(inst.operand(1));
          ti.c = slot_of(inst.operand(2));
          ti.dst = static_cast<uint32_t>(inst.id);
          ti.cost = static_cast<uint32_t>(c.alu);
          ti.jitter = 1;
          break;
        case Op::kSExt:
          ti.op = TOp::kSExt;
          ti.a = slot_of(inst.operand(0));
          ti.extra = static_cast<uint8_t>(inst.width);
          ti.dst = static_cast<uint32_t>(inst.id);
          ti.cost = static_cast<uint32_t>(c.alu);
          ti.jitter = 1;
          break;
        case Op::kLoad:
          ti.op = TOp::kLoad;
          ti.a = slot_of(inst.operand(0));
          ti.size = static_cast<uint8_t>(inst.size);
          ti.dst = static_cast<uint32_t>(inst.id);
          ti.cost = static_cast<uint32_t>(c.mem_access);
          ti.jitter = 1;
          break;
        case Op::kStore:
          ti.op = TOp::kStore;
          ti.a = slot_of(inst.operand(0));
          ti.b = slot_of(inst.operand(1));
          ti.size = static_cast<uint8_t>(inst.size);
          ti.cost = static_cast<uint32_t>(c.mem_access);
          ti.jitter = 1;
          break;
        case Op::kGlobalLoad:
          ti.op = inst.global->is_thread_local() ? TOp::kGlobalLoadTls
                                                 : TOp::kGlobalLoadShared;
          ti.aux = static_cast<uint32_t>(inst.global->slot());
          ti.dst = static_cast<uint32_t>(inst.id);
          ti.cost = static_cast<uint32_t>(c.global_access);
          ti.jitter = 1;
          break;
        case Op::kGlobalStore:
          ti.op = inst.global->is_thread_local() ? TOp::kGlobalStoreTls
                                                 : TOp::kGlobalStoreShared;
          ti.aux = static_cast<uint32_t>(inst.global->slot());
          ti.a = slot_of(inst.operand(0));
          ti.cost = static_cast<uint32_t>(c.global_access);
          ti.jitter = 1;
          break;
        case Op::kFence:
          ti.op = TOp::kFence;
          ti.cost = static_cast<uint32_t>(c.fence);
          ti.jitter = 1;
          break;
        case Op::kAtomicRmw:
          ti.op = TOp::kAtomicRmw;
          ti.extra = static_cast<uint8_t>(inst.rmw_op);
          ti.a = slot_of(inst.operand(0));
          ti.b = slot_of(inst.operand(1));
          ti.size = static_cast<uint8_t>(inst.size);
          ti.dst = static_cast<uint32_t>(inst.id);
          ti.cost = static_cast<uint32_t>(c.atomic);
          ti.jitter = 1;
          break;
        case Op::kCmpXchg:
          ti.op = TOp::kCmpXchg;
          ti.a = slot_of(inst.operand(0));
          ti.b = slot_of(inst.operand(1));
          ti.c = slot_of(inst.operand(2));
          ti.size = static_cast<uint8_t>(inst.size);
          ti.dst = static_cast<uint32_t>(inst.id);
          ti.cost = static_cast<uint32_t>(c.atomic);
          ti.jitter = 1;
          break;
        case Op::kBr:
          if (inst.num_operands() == 0) {
            ti.op = TOp::kJmp;
            ti.aux = static_cast<uint32_t>(tr->brs.size());
            tr->brs.push_back({BrTarget{0, inst.targets[0], 0}, BrTarget{}});
          } else {
            ti.op = TOp::kBrCond;
            ti.a = slot_of(inst.operand(0));
            ti.aux = static_cast<uint32_t>(tr->brs.size());
            tr->brs.push_back({BrTarget{0, inst.targets[0], 0},
                               BrTarget{0, inst.targets[1], 0}});
          }
          ti.cost = static_cast<uint32_t>(c.branch);
          ti.jitter = 1;
          break;
        case Op::kSwitch: {
          ti.op = TOp::kSwitch;
          ti.a = slot_of(inst.operand(0));
          ti.aux = static_cast<uint32_t>(tr->switches.size());
          SwitchInfo si;
          si.default_t = BrTarget{0, inst.targets[0], 0};
          for (size_t k = 0; k < inst.case_values.size(); ++k) {
            si.cases.push_back(
                {static_cast<uint64_t>(inst.case_values[k]),
                 BrTarget{0, inst.targets[k + 1], 0}});
          }
          tr->switches.push_back(std::move(si));
          ti.cost =
              static_cast<uint32_t>(SwitchCost(inst.case_values.size()));
          ti.jitter = 1;
          break;
        }
        case Op::kRet:
          ti.op = TOp::kRet;
          ti.a = inst.num_operands() > 0 ? slot_of(inst.operand(0)) : kNoDst;
          ti.cost = static_cast<uint32_t>(c.ret);
          ti.jitter = 1;
          break;
        case Op::kCall:
          if (inst.callee != nullptr) {
            ti.op = TOp::kCall;
            ti.aux = static_cast<uint32_t>(tr->calls.size());
            tr->calls.push_back(e_.InfoFor(inst.callee));
            ti.dst = inst.HasResult() ? static_cast<uint32_t>(inst.id)
                                      : kNoDst;
            ti.cost = static_cast<uint32_t>(c.call);
            ti.jitter = 1;
          } else {
            ti.op = TOp::kIntrinsic;
            ti.extra = static_cast<uint8_t>(ir::InfoOf(inst.intrinsic).sched);
            ti.cost = 0;  // intrinsics charge their own cost
            ti.jitter = 1;
          }
          break;
        default:
          // kPhi handled above, kUnreachable excluded by coverage.
          POLY_UNREACHABLE("unexpected op in covered block");
      }
      // Addressing-fold members are free in tier 0; mirror exactly.
      if (folded(&inst)) {
        ti.cost = 0;
        ti.jitter = 0;
      }
      code.push_back(ti);
    }
  }

  // ---- Pass B: resolve branch targets; build edge + deopt stubs. ----
  auto head_of = [&](const BasicBlock* b) { return tr->block_heads.at(b); };
  std::map<std::pair<const BasicBlock*, const BasicBlock*>, uint32_t>
      edge_stubs;
  const size_t body_end = code.size();
  // By value: resolving may append edge stubs to tr->brs, so references into
  // that vector (or into code) must not be held across a resolve call.
  auto resolve = [&](BrTarget bt, const TInst br) -> BrTarget {
    BasicBlock* succ = bt.block;
    if (covered.count(succ) == 0) {
      // Uncovered edge: the branch is intercepted before executing and the
      // interpreter re-runs it from the anchor (cfmiss/trap follows there).
      TInst d;
      d.op = TOp::kDeopt;
      d.extra = static_cast<uint8_t>(DeoptReason::kUncoveredEdge);
      d.n_instrs = 0;
      d.block = br.block;
      d.anchor = br.anchor;
      d.site = br.site;
      bt.tpc = static_cast<uint32_t>(code.size());
      code.push_back(d);
      return bt;
    }
    bt.site = site_of(succ);
    size_t nphis = 0;
    for (const auto& inst : succ->insts()) {
      if (inst->op() != Op::kPhi) {
        break;
      }
      ++nphis;
    }
    if (nphis == 0) {
      bt.tpc = head_of(succ);
      return bt;
    }
    auto key = std::make_pair(static_cast<const BasicBlock*>(br.block),
                              static_cast<const BasicBlock*>(succ));
    auto cached = edge_stubs.find(key);
    if (cached != edge_stubs.end()) {
      bt.tpc = cached->second;
      return bt;
    }
    // Parallel-copy stub: one direct copy for a single phi, scratch-slot
    // staging for two or more (EnterBlock's two-phase semantics).
    uint32_t stub = static_cast<uint32_t>(code.size());
    auto emit_copy = [&](uint32_t src, uint32_t dst) {
      if (src == dst) {
        return;
      }
      TInst cp;
      cp.op = TOp::kCopy;
      cp.a = src;
      cp.dst = dst;
      cp.cost = 0;
      cp.jitter = 0;
      cp.n_instrs = 0;
      cp.block = succ;
      cp.site = bt.site;
      code.push_back(cp);
    };
    auto incoming_slot = [&](const Instruction* phi) -> uint32_t {
      int idx = -1;
      for (size_t i = 0; i < phi->phi_blocks.size(); ++i) {
        if (phi->phi_blocks[i] == br.block) {
          idx = static_cast<int>(i);
          break;
        }
      }
      POLY_CHECK_GE(idx, 0) << "phi missing incoming block";
      return slot_of(phi->operand(idx));
    };
    size_t k = 0;
    if (nphis == 1) {
      const Instruction* phi = succ->insts().begin()->get();
      emit_copy(incoming_slot(phi), static_cast<uint32_t>(phi->id));
    } else {
      for (const auto& inst : succ->insts()) {
        if (inst->op() != Op::kPhi) {
          break;
        }
        emit_copy(incoming_slot(inst.get()),
                  tr->scratch_base + static_cast<uint32_t>(k++));
      }
      k = 0;
      for (const auto& inst : succ->insts()) {
        if (inst->op() != Op::kPhi) {
          break;
        }
        emit_copy(tr->scratch_base + static_cast<uint32_t>(k++),
                  static_cast<uint32_t>(inst->id));
      }
    }
    // Stub-internal jump (extra=1): free, no profile entry — the branch
    // that entered the stub already counted the edge.
    TInst j;
    j.op = TOp::kJmp;
    j.extra = 1;
    j.cost = 0;
    j.jitter = 0;
    j.n_instrs = 0;
    j.block = succ;
    j.site = bt.site;
    j.aux = static_cast<uint32_t>(tr->brs.size());
    tr->brs.push_back({BrTarget{head_of(succ), succ, bt.site}, BrTarget{}});
    code.push_back(j);
    edge_stubs[key] = stub;
    bt.tpc = stub;
    return bt;
  };
  for (size_t i = 0; i < body_end; ++i) {
    const TInst ti = code[i];  // copy: resolve appends to code
    switch (ti.op) {
      case TOp::kJmp: {
        BrTarget then_t = resolve(tr->brs[ti.aux].then_t, ti);
        tr->brs[ti.aux].then_t = then_t;
        break;
      }
      case TOp::kBrCond:
      case TOp::kCmpBr: {
        BrTarget then_t = resolve(tr->brs[ti.aux].then_t, ti);
        tr->brs[ti.aux].then_t = then_t;
        BrTarget else_t = resolve(tr->brs[ti.aux].else_t, ti);
        tr->brs[ti.aux].else_t = else_t;
        break;
      }
      case TOp::kSwitch: {
        for (size_t c = 0; c < tr->switches[ti.aux].cases.size(); ++c) {
          BrTarget bt = resolve(tr->switches[ti.aux].cases[c].second, ti);
          tr->switches[ti.aux].cases[c].second = bt;
        }
        BrTarget bt = resolve(tr->switches[ti.aux].default_t, ti);
        tr->switches[ti.aux].default_t = bt;
        break;
      }
      default:
        break;
    }
  }

  info->translation = std::move(tr);
  return true;
}

// ---------------------------------------------------------------------------
// Runtime support
// ---------------------------------------------------------------------------

void Tier1Backend::EnsureTier1Values(Frame& f) {
  const Translation& tr = *f.info->translation;
  if (f.values.size() < static_cast<size_t>(tr.num_values)) {
    f.values.resize(tr.num_values, 0);
    std::copy(tr.const_pool.begin(), tr.const_pool.end(),
              f.values.begin() + tr.const_base);
  }
}

ir::BasicBlock* Tier1Backend::CurrentBlock(const Frame& f) const {
  return f.info->translation->code[f.tpc].block;
}

void Tier1Backend::Deopt(Thread& t, Frame& f, const TInst& ti,
                         DeoptReason reason) {
  // Resident tier before the flags flip (forensics: where the guard fired).
  const int resident_tier = f.native ? 2 : 1;
  f.translated = false;
  f.native = false;  // a preempt deopt may hit a tier-2 frame (kSingle path)
  f.block = ti.block;
  f.it = ti.anchor;
  f.profile_site = ti.site;
  ++e_.deopt_counts_[static_cast<int>(reason)];
  if (e_.tierprof_ != nullptr) {
    e_.tierprof_->RecordDeopt(
        t.id, e_.TierProfId(f.info), resident_tier,
        static_cast<uint8_t>(reason),
        ti.block != nullptr ? ti.block->guest_address : 0, e_.steps_);
  }
  e_.options_.obs.Add(obs::Counter::kExecDeopts);
  switch (reason) {
    case DeoptReason::kPreempt:
      e_.options_.obs.Add(obs::Counter::kExecDeoptPreempt);
      break;
    case DeoptReason::kSmcWrite:
      e_.options_.obs.Add(obs::Counter::kExecDeoptSmcWrite);
      break;
    default:
      e_.options_.obs.Add(obs::Counter::kExecDeoptUncovered);
      if (f.info->fn != nullptr &&
          e_.options_.cfg_certified_entries.count(f.info->fn->guest_entry) !=
              0) {
        // A certificate promised this function had no uncovered edges.
        e_.options_.obs.Add(obs::Counter::kExecDeoptUncoveredCert);
      }
      break;
  }
}

NextOp Tier1Backend::Classify(const Thread& t, const Frame& f) const {
  const Translation& tr = *f.info->translation;
  const TInst& ti = tr.code[f.tpc];
  const uint64_t* v = f.values.data();
  NextOp op;
  auto mem = [&](uint64_t addr, bool is_store) {
    if (addr >= t.estack_low && addr < t.estack_high) {
      return;  // emulated-stack access: thread-private
    }
    op.visible = true;
    op.mutates = is_store;
    op.kind = is_store ? sched::PointKind::kStore : sched::PointKind::kLoad;
  };
  switch (ti.op) {
    case TOp::kLoad:
    case TOp::kLoadOp:
      mem(v[ti.a], false);
      return op;
    case TOp::kLoadBI:
      mem(v[ti.a] + v[ti.b], false);
      return op;
    case TOp::kLoadBIS:
      mem(v[ti.a] + (v[ti.b] << ti.extra), false);
      return op;
    case TOp::kStore:
    case TOp::kFenceStore:
      mem(v[ti.a], true);
      if (ti.op == TOp::kFenceStore) {
        op.visible = true;  // the fence component is always visible
      }
      return op;
    case TOp::kStoreBI:
      mem(v[ti.a] + v[ti.b], true);
      return op;
    case TOp::kStoreBIS:
      mem(v[ti.a] + (v[ti.b] << ti.extra), true);
      return op;
    case TOp::kAtomicRmw:
    case TOp::kCmpXchg:
      op.visible = true;
      op.mutates = true;
      op.kind = sched::PointKind::kAtomic;
      return op;
    case TOp::kFence:
      op.visible = true;
      op.kind = sched::PointKind::kFence;
      return op;
    case TOp::kGlobalLoadShared:
      op.visible = true;
      op.kind = sched::PointKind::kLoad;
      return op;
    case TOp::kGlobalStoreShared:
      op.visible = true;
      op.mutates = true;
      op.kind = sched::PointKind::kStore;
      return op;
    case TOp::kIntrinsic:
      return IntrinsicNextOp(static_cast<ir::SchedClass>(ti.extra));
    default:
      return op;  // ALU, copies, branches, call/ret: thread-private
  }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

bool Tier1Backend::Step(Thread& t, StepMode mode) {
  return e_.obs_attached_ ? StepImpl<true>(t, mode) : StepImpl<false>(t, mode);
}

template <bool kObs>
bool Tier1Backend::StepImpl(Thread& t, StepMode mode) {
  Frame* f = &t.stack.back();
  const Translation* tr = f->info->translation.get();
  const std::vector<TInst>& code = tr->code;
  uint64_t* v = f->values.data();
  vm::Memory& mem = e_.memory_;
  const bool jitter = e_.options_.cost_jitter;
  auto* profile = kObs ? e_.options_.obs.profile : nullptr;
  // Residency attribution target: the whole batch retires in this frame's
  // function (call/ret end the batch), and FuncInfo outlives the frame, so
  // the flush sites below stay valid even after kRet pops `f`.
  FuncInfo* fi = kObs ? f->info : nullptr;
  auto* tierprof = kObs ? e_.tierprof_ : nullptr;

  // `executed` counts retired IR instructions; the outer scheduling loop
  // adds 1 per Step, so normal returns flush executed-1 (fault returns flush
  // all of it — tier 0's faulting step is never counted either).
  uint64_t executed = 0;
  uint64_t budget = 1;
  if (mode != StepMode::kSingle) {
    // The outer loop faults once steps_ exceeds max_steps, with the
    // over-limit instruction retired and charged exactly like tier 0's: a
    // batch may run at most (max_steps - steps_ + 1) instructions.
    uint64_t left = e_.options_.max_steps >= e_.steps_
                        ? e_.options_.max_steps - e_.steps_ + 1
                        : 1;
    budget = std::min<uint64_t>(65536, left);
  }

  auto finish_true = [&]() {
    e_.steps_ += executed > 0 ? executed - 1 : 0;
    e_.tier1_instrs_ += executed;
    if constexpr (kObs) {
      if (tierprof != nullptr) {
        fi->tp_steps[1] += executed;
      }
    }
    return true;
  };
  auto finish_false = [&]() {
    e_.steps_ += executed;
    e_.tier1_instrs_ += executed;
    if constexpr (kObs) {
      if (tierprof != nullptr) {
        fi->tp_steps[1] += executed;
      }
    }
    return false;
  };
  auto do_deopt = [&](const TInst& anchor_ti, DeoptReason reason) {
    Deopt(t, *f, anchor_ti, reason);
    if (executed == 0) {
      // Keep the ≥1-instruction-per-Step contract: interpret the deopted
      // operation inline (the scheduler's decision already covered it).
      return e_.StepInstruction(t);
    }
    e_.steps_ += executed - 1;
    e_.tier1_instrs_ += executed;
    if constexpr (kObs) {
      if (tierprof != nullptr) {
        fi->tp_steps[1] += executed;
      }
    }
    return true;
  };
  auto charge = [&](const TInst& ti) {
    uint64_t cost = ti.cost;
    if (jitter) {
      for (int j = 0; j < ti.jitter; ++j) {
        cost += t.jitter_rng.Next() & 1;
      }
    }
    t.clock += cost;
    executed += ti.n_instrs;
    if constexpr (kObs) {
      if (profile != nullptr && ti.n_instrs > 0) {
        profile->AddInstrs(ti.site, ti.n_instrs);
      }
    }
  };
  auto is_visible = [&](const TInst& ti) {
    switch (ti.op) {
      case TOp::kLoad:
      case TOp::kLoadOp:
      case TOp::kStore: {
        uint64_t addr = v[ti.a];
        return !(addr >= t.estack_low && addr < t.estack_high);
      }
      case TOp::kLoadBI:
      case TOp::kStoreBI: {
        uint64_t addr = v[ti.a] + v[ti.b];
        return !(addr >= t.estack_low && addr < t.estack_high);
      }
      case TOp::kLoadBIS:
      case TOp::kStoreBIS: {
        uint64_t addr = v[ti.a] + (v[ti.b] << ti.extra);
        return !(addr >= t.estack_low && addr < t.estack_high);
      }
      case TOp::kFence:
      case TOp::kFenceStore:
      case TOp::kAtomicRmw:
      case TOp::kCmpXchg:
      case TOp::kGlobalLoadShared:
      case TOp::kGlobalStoreShared:
        return true;
      case TOp::kIntrinsic:
        return ti.extra != 0;
      default:
        return false;
    }
  };
  auto take_branch = [&](const TInst& ti, const BrTarget& bt) {
    f->tpc = bt.tpc;
    f->profile_site = bt.site;
    if constexpr (kObs) {
      if (profile != nullptr) {
        profile->AddEntry(bt.site);
      }
    }
    charge(ti);
  };
  auto alu = [&](const TInst& ti, uint64_t value) {
    v[ti.dst] = value;
    charge(ti);
    ++f->tpc;
  };
  // A faulting division stops before charging, as in tier 0.
  auto divide = [&](const TInst& ti, ir::BinaryResult r) {
    if (!r.ok()) {
      e_.Fault(ir::DivFaultMessage(r.fault));
      return false;
    }
    alu(ti, r.value);
    return true;
  };

  for (;;) {
    const TInst& ti = code[f->tpc];
    const bool zero_width =
        ti.op == TOp::kCopy || (ti.op == TOp::kJmp && ti.extra == 1);
    if (!zero_width) {
      // Edge stubs drain with the branch that entered them; real operations
      // honor the stop rules.
      if (executed >= budget) {
        return finish_true();
      }
      if (mode == StepMode::kBatch && executed > 0 && is_visible(ti)) {
        return finish_true();  // stop before visible ops: min-clock parity
      }
      if (mode == StepMode::kSingle && is_visible(ti)) {
        // The controlled scheduler owns every visible operation: hand it to
        // the interpreter so decision points match tier 0 exactly.
        return do_deopt(ti, DeoptReason::kPreempt);
      }
    }

    switch (ti.op) {
      case TOp::kAdd:
        alu(ti, ir::Add(v[ti.a], v[ti.b]));
        break;
      case TOp::kSub:
        alu(ti, ir::Sub(v[ti.a], v[ti.b]));
        break;
      case TOp::kMul:
        alu(ti, ir::Mul(v[ti.a], v[ti.b]));
        break;
      case TOp::kSDiv:
        if (!divide(ti, ir::SDiv(v[ti.a], v[ti.b]))) {
          return finish_false();
        }
        break;
      case TOp::kSRem:
        if (!divide(ti, ir::SRem(v[ti.a], v[ti.b]))) {
          return finish_false();
        }
        break;
      case TOp::kUDiv:
        if (!divide(ti, ir::UDiv(v[ti.a], v[ti.b]))) {
          return finish_false();
        }
        break;
      case TOp::kURem:
        if (!divide(ti, ir::URem(v[ti.a], v[ti.b]))) {
          return finish_false();
        }
        break;
      case TOp::kAnd:
        alu(ti, ir::And(v[ti.a], v[ti.b]));
        break;
      case TOp::kOr:
        alu(ti, ir::Or(v[ti.a], v[ti.b]));
        break;
      case TOp::kXor:
        alu(ti, ir::Xor(v[ti.a], v[ti.b]));
        break;
      case TOp::kShl:
        alu(ti, ir::Shl(v[ti.a], v[ti.b]));
        break;
      case TOp::kLShr:
        alu(ti, ir::LShr(v[ti.a], v[ti.b]));
        break;
      case TOp::kAShr:
        alu(ti, ir::AShr(v[ti.a], v[ti.b]));
        break;
      case TOp::kICmp:
        alu(ti, ir::EvalPred(static_cast<Pred>(ti.extra), v[ti.a], v[ti.b]));
        break;
      case TOp::kSelect:
        alu(ti, v[ti.a] != 0 ? v[ti.b] : v[ti.c]);
        break;
      case TOp::kSExt:
        alu(ti, ir::SignExtend(v[ti.a], ti.extra));
        break;

      case TOp::kLoad:
        v[ti.dst] = mem.Read(v[ti.a], ti.size);
        charge(ti);
        ++f->tpc;
        if (mem.faulted()) {
          return finish_true();  // surface at tier-0 granularity
        }
        break;
      case TOp::kLoadBI:
        v[ti.dst] = mem.Read(v[ti.a] + v[ti.b], ti.size);
        charge(ti);
        ++f->tpc;
        if (mem.faulted()) {
          return finish_true();
        }
        break;
      case TOp::kLoadBIS:
        v[ti.dst] = mem.Read(v[ti.a] + (v[ti.b] << ti.extra), ti.size);
        charge(ti);
        ++f->tpc;
        if (mem.faulted()) {
          return finish_true();
        }
        break;
      case TOp::kLoadOp: {
        uint64_t m = mem.Read(v[ti.a], ti.size);
        bool mem_lhs = (ti.extra & 0x80) != 0;
        alu(ti, ir::EvalBinary(static_cast<Op>(ti.extra & 0x7f),
                               mem_lhs ? m : v[ti.c], mem_lhs ? v[ti.c] : m)
                    .value);
        if (mem.faulted()) {
          return finish_true();
        }
        break;
      }

      case TOp::kStore: {
        uint64_t addr = v[ti.a];
        if (mem.InExecutableRange(addr, ti.size)) {
          return do_deopt(ti, DeoptReason::kSmcWrite);
        }
        mem.Write(addr, ti.size, ir::MaskBytes(v[ti.b], ti.size));
        charge(ti);
        ++f->tpc;
        if (mem.faulted()) {
          return finish_true();
        }
        break;
      }
      case TOp::kStoreBI: {
        uint64_t addr = v[ti.a] + v[ti.b];
        if (mem.InExecutableRange(addr, ti.size)) {
          return do_deopt(ti, DeoptReason::kSmcWrite);
        }
        mem.Write(addr, ti.size, ir::MaskBytes(v[ti.c], ti.size));
        charge(ti);
        ++f->tpc;
        if (mem.faulted()) {
          return finish_true();
        }
        break;
      }
      case TOp::kStoreBIS: {
        uint64_t addr = v[ti.a] + (v[ti.b] << ti.extra);
        if (mem.InExecutableRange(addr, ti.size)) {
          return do_deopt(ti, DeoptReason::kSmcWrite);
        }
        mem.Write(addr, ti.size, ir::MaskBytes(v[ti.c], ti.size));
        charge(ti);
        ++f->tpc;
        if (mem.faulted()) {
          return finish_true();
        }
        break;
      }
      case TOp::kFenceStore: {
        uint64_t addr = v[ti.a];
        if (mem.InExecutableRange(addr, ti.size)) {
          return do_deopt(ti, DeoptReason::kSmcWrite);
        }
        if constexpr (kObs) {
          if (profile != nullptr) {
            profile->AddFence(ti.site);
          }
          e_.options_.obs.Add(obs::Counter::kExecFences);
        }
        mem.Write(addr, ti.size, ir::MaskBytes(v[ti.b], ti.size));
        charge(ti);
        ++f->tpc;
        if (mem.faulted()) {
          return finish_true();
        }
        break;
      }

      case TOp::kGlobalLoadTls:
        v[ti.dst] = t.tls[ti.aux];
        charge(ti);
        ++f->tpc;
        break;
      case TOp::kGlobalLoadShared:
        v[ti.dst] = e_.shared_globals_[ti.aux];
        charge(ti);
        ++f->tpc;
        break;
      case TOp::kGlobalStoreTls:
        t.tls[ti.aux] = v[ti.a];
        charge(ti);
        ++f->tpc;
        break;
      case TOp::kGlobalStoreShared:
        e_.shared_globals_[ti.aux] = v[ti.a];
        charge(ti);
        ++f->tpc;
        break;

      case TOp::kFence:
        if constexpr (kObs) {
          if (profile != nullptr) {
            profile->AddFence(ti.site);
          }
          e_.options_.obs.Add(obs::Counter::kExecFences);
        }
        charge(ti);
        ++f->tpc;
        break;

      case TOp::kAtomicRmw: {
        uint64_t addr = v[ti.a];
        uint64_t old = mem.Read(addr, ti.size);
        uint64_t r = ir::ApplyRmw(static_cast<RmwOp>(ti.extra), old, v[ti.b]);
        mem.Write(addr, ti.size, ir::MaskBytes(r, ti.size));
        v[ti.dst] = old;
        if constexpr (kObs) {
          if (profile != nullptr) {
            profile->AddAtomic(ti.site);
          }
          e_.options_.obs.Add(obs::Counter::kExecAtomics);
        }
        charge(ti);
        ++f->tpc;
        if (mem.faulted()) {
          return finish_true();
        }
        break;
      }
      case TOp::kCmpXchg: {
        uint64_t addr = v[ti.a];
        uint64_t expected = ir::MaskBytes(v[ti.b], ti.size);
        uint64_t old = mem.Read(addr, ti.size);
        if (old == expected) {
          mem.Write(addr, ti.size, ir::MaskBytes(v[ti.c], ti.size));
        }
        v[ti.dst] = old;
        if constexpr (kObs) {
          if (profile != nullptr) {
            profile->AddAtomic(ti.site);
          }
          e_.options_.obs.Add(obs::Counter::kExecAtomics);
        }
        charge(ti);
        ++f->tpc;
        if (mem.faulted()) {
          return finish_true();
        }
        break;
      }

      case TOp::kJmp: {
        const BrTarget& bt = tr->brs[ti.aux].then_t;
        if (ti.extra == 1) {
          f->tpc = bt.tpc;  // stub-internal: free, already counted
          break;
        }
        const TInst& tt = code[bt.tpc];
        if (tt.op == TOp::kDeopt) {
          return do_deopt(tt, static_cast<DeoptReason>(tt.extra));
        }
        take_branch(ti, bt);
        break;
      }
      case TOp::kBrCond: {
        const BrInfo& bi = tr->brs[ti.aux];
        const BrTarget& bt = v[ti.a] != 0 ? bi.then_t : bi.else_t;
        const TInst& tt = code[bt.tpc];
        if (tt.op == TOp::kDeopt) {
          return do_deopt(tt, static_cast<DeoptReason>(tt.extra));
        }
        take_branch(ti, bt);
        break;
      }
      case TOp::kCmpBr: {
        uint64_t cond =
            ir::EvalPred(static_cast<Pred>(ti.extra), v[ti.a], v[ti.b]);
        const BrInfo& bi = tr->brs[ti.aux];
        const BrTarget& bt = cond != 0 ? bi.then_t : bi.else_t;
        const TInst& tt = code[bt.tpc];
        if (tt.op == TOp::kDeopt) {
          // Anchor is the icmp: tier 0 re-executes both components.
          return do_deopt(tt, static_cast<DeoptReason>(tt.extra));
        }
        v[ti.dst] = cond;
        take_branch(ti, bt);
        break;
      }
      case TOp::kSwitch: {
        const SwitchInfo& si = tr->switches[ti.aux];
        uint64_t value = v[ti.a];
        const BrTarget* bt = &si.default_t;
        for (const auto& [case_value, target] : si.cases) {
          if (case_value == value) {
            bt = &target;
            break;
          }
        }
        const TInst& tt = code[bt->tpc];
        if (tt.op == TOp::kDeopt) {
          return do_deopt(tt, static_cast<DeoptReason>(tt.extra));
        }
        take_branch(ti, *bt);
        break;
      }

      case TOp::kRet: {
        uint64_t value = ti.a == kNoDst ? 0 : v[ti.a];
        bool was_root = f->dispatch_root;
        charge(ti);
        t.stack.pop_back();  // f and v dangle from here
        if (t.stack.empty() || was_root) {
          t.pending_pc = value;
          t.last_toplevel_pc = value;
        } else {
          Frame& caller = t.stack.back();
          if (caller.translated) {
            const TInst& call = caller.info->translation->code[caller.tpc];
            POLY_CHECK(call.op == TOp::kCall);
            if (call.dst != kNoDst) {
              caller.values[call.dst] = value;
            }
            ++caller.tpc;
          } else {
            const Instruction& call_inst = **caller.it;
            POLY_CHECK(call_inst.op() == Op::kCall);
            if (call_inst.HasResult()) {
              caller.values[static_cast<size_t>(call_inst.id)] = value;
            }
            ++caller.it;
          }
        }
        return finish_true();
      }

      case TOp::kCall: {
        charge(ti);
        // tpc stays at the call; the matching return advances it.
        e_.PushFrame(t, tr->calls[ti.aux], /*dispatch_root=*/false);
        return finish_true();
      }

      case TOp::kIntrinsic: {
        const size_t frame_index = t.stack.size() - 1;
        // Flush retired work: the intrinsic may nest dispatches (qsort
        // callbacks) whose own stepping must see an up-to-date count. The
        // intrinsic itself is covered by the outer loop's +1.
        e_.steps_ += executed;
        e_.tier1_instrs_ += executed;
        if constexpr (kObs) {
          if (tierprof != nullptr) {
            fi->tp_steps[1] += executed;
          }
        }
        executed = 0;
        const Instruction& inst = **ti.anchor;
        if (!e_.HandleIntrinsic(t, frame_index, inst)) {
          return !e_.faulted_ && e_.miss_ == std::nullopt;
        }
        Frame& ff = t.stack[frame_index];  // nested dispatch may reallocate
        if (e_.retry_pending_) {
          e_.retry_pending_ = false;
          e_.last_step_retried_ = true;
        } else {
          ++ff.tpc;
        }
        if (jitter) {
          t.clock += t.jitter_rng.Next() & 1;
        }
        if constexpr (kObs) {
          if (profile != nullptr) {
            profile->AddInstrs(ti.site, 1);
          }
          if (tierprof != nullptr) {
            fi->tp_steps[1] += 1;
          }
        }
        e_.tier1_instrs_ += 1;
        return true;
      }

      case TOp::kCopy:
        v[ti.dst] = v[ti.a];
        ++f->tpc;
        break;

      case TOp::kDeopt:
      default:
        // Unreachable by construction (branch targets are intercepted), but
        // transfer control soundly if ever landed on.
        return do_deopt(ti, static_cast<DeoptReason>(ti.extra));
    }

    if (e_.exited_) {
      return finish_true();
    }
  }
}

template bool Tier1Backend::StepImpl<true>(Thread& t, StepMode mode);
template bool Tier1Backend::StepImpl<false>(Thread& t, StepMode mode);

}  // namespace polynima::exec
