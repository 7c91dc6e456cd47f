// Dead virtual-state store elimination.
//
// Two parts:
//  1. Cross-block liveness for *flag* globals (fl_*). Flags are not
//     preserved across calls or returns by any ABI, so they are dead at
//     kRet and at state boundaries; a flag store with no reachable load
//     before the next store/boundary is removed. This is the classic
//     dead-EFLAGS elimination every binary lifter needs — without it each
//     lifted ALU instruction keeps five flag updates alive.
//  2. Intra-block redundant-store elimination for all thread-local globals:
//     a gstore overwritten by a later gstore with no intervening load or
//     state boundary is dead.
#include <map>
#include <set>

#include "src/ir/semantics.h"
#include "src/opt/passes.h"
#include "src/support/strings.h"

namespace polynima::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::Op;

bool DeadFlagElim(Function& f) {
  bool changed = false;

  // ---- Part 1: flag liveness across blocks ----
  auto is_flag = [](const Global* g) {
    return StartsWith(g->name(), "fl_");
  };

  // live_in[b] = set of flag globals read before written on some path from
  // the top of b.
  std::map<BasicBlock*, std::set<const Global*>> live_in;
  bool fixpoint = false;
  while (!fixpoint) {
    fixpoint = true;
    // Iterate until stable (reverse order helps convergence but is not
    // required).
    for (auto bit = f.blocks().rbegin(); bit != f.blocks().rend(); ++bit) {
      BasicBlock* block = bit->get();
      // live-out = union of successors' live-in; flags die at rets.
      std::set<const Global*> live;
      for (BasicBlock* succ : block->Successors()) {
        const auto& in = live_in[succ];
        live.insert(in.begin(), in.end());
      }
      // Backward scan.
      for (auto iit = block->insts().rbegin(); iit != block->insts().rend();
           ++iit) {
        Instruction* inst = iit->get();
        if (inst->op() == Op::kGlobalLoad && is_flag(inst->global)) {
          live.insert(inst->global);
        } else if (inst->op() == Op::kGlobalStore && is_flag(inst->global)) {
          live.erase(inst->global);
        } else if (ir::IsCallBoundary(*inst) || inst->op() == Op::kRet) {
          live.clear();
        }
      }
      if (live != live_in[block]) {
        live_in[block] = std::move(live);
        fixpoint = false;
      }
    }
  }

  for (auto& block : f.blocks()) {
    std::set<const Global*> live;
    for (BasicBlock* succ : block->Successors()) {
      const auto& in = live_in[succ];
      live.insert(in.begin(), in.end());
    }
    for (auto iit = block->insts().rbegin(); iit != block->insts().rend();) {
      Instruction* inst = iit->get();
      if (inst->op() == Op::kGlobalLoad && is_flag(inst->global)) {
        live.insert(inst->global);
        ++iit;
      } else if (inst->op() == Op::kGlobalStore && is_flag(inst->global)) {
        if (live.count(inst->global) == 0) {
          // Dead flag store.
          auto fwd = std::next(iit).base();  // iterator to inst
          iit = std::make_reverse_iterator(block->Erase(fwd));
          changed = true;
          continue;
        }
        live.erase(inst->global);
        ++iit;
      } else if (ir::IsCallBoundary(*inst) || inst->op() == Op::kRet) {
        live.clear();
        ++iit;
      } else {
        ++iit;
      }
    }
  }

  // ---- Part 2: intra-block redundant gstore elimination (all TLS) ----
  for (auto& block : f.blocks()) {
    std::map<const Global*, Instruction*> pending;
    for (auto it = block->insts().begin(); it != block->insts().end();) {
      Instruction* inst = it->get();
      if (inst->op() == Op::kGlobalStore && inst->global->is_thread_local()) {
        auto p = pending.find(inst->global);
        if (p != pending.end()) {
          // Remove the earlier store.
          for (auto del = block->insts().begin(); del != block->insts().end();
               ++del) {
            if (del->get() == p->second) {
              block->Erase(del);
              changed = true;
              break;
            }
          }
        }
        pending[inst->global] = inst;
      } else if (inst->op() == Op::kGlobalLoad) {
        pending.erase(inst->global);
      } else if (ir::IsCallBoundary(*inst)) {
        pending.clear();
      }
      ++it;
    }
  }

  return changed;
}

}  // namespace polynima::opt
