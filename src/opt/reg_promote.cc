// Promotion of thread-local virtual-state globals to SSA values, using
// on-the-fly SSA construction in the style of Braun et al. (CC'13) with
// block sealing. This is the conservative prototype-recovery equivalent of
// the paper (§3.3.2): registers become SSA values inside a function and are
// committed to the thread-local state only where the ABI requires.
//
// Write-back model: every gstore to a thread-local global is deleted and
// recorded as the reaching definition; the current values of all globals the
// function ever writes (except flags — no ABI preserves them across calls or
// returns) are flushed right before each state boundary (lifted call,
// ext_call, cfmiss/trap) and before every ret. Reads after a boundary reload
// fresh values, except callee-saved registers across ext_call, which the
// SysV ABI guarantees. Trivial phis are not folded here — InstCombine does
// that, which avoids dangling def-cache entries during construction.
#include <map>
#include <set>

#include "src/ir/builder.h"
#include "src/ir/semantics.h"
#include "src/opt/passes.h"
#include "src/support/strings.h"

namespace polynima::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::IRBuilder;
using ir::Op;
using ir::Value;

namespace {

// Globals ordered by allocation slot, not pointer: the flush loop both emits
// gstores and triggers phi/load creation in this order, so it must not
// depend on heap layout (which varies run-to-run and under concurrency).
struct GlobalSlotOrder {
  bool operator()(const Global* a, const Global* b) const {
    return a->slot() < b->slot();
  }
};

class Promoter {
 public:
  explicit Promoter(Function& f) : f_(f), preds_(Predecessors(f)) {}

  bool Run() {
    // Pre-scan: which non-flag thread-local globals does this function ever
    // store? Those are flushed at every boundary.
    for (auto& block : f_.blocks()) {
      for (auto& inst : block->insts()) {
        if (inst->op() == Op::kGlobalStore &&
            inst->global->is_thread_local() &&
            !StartsWith(inst->global->name(), "fl_")) {
          flush_set_.insert(inst->global);
        }
      }
    }
    std::vector<BasicBlock*> rpo = ReversePostOrder(f_);
    TrySeal(f_.entry());
    for (BasicBlock* block : rpo) {
      ProcessBlock(block);
      filled_.insert(block);
      for (BasicBlock* candidate : rpo) {
        TrySeal(candidate);
      }
    }
    return changed_;
  }

 private:
  struct EndState {
    // Definitions live at the end of the block, valid only since the last
    // barrier within the block.
    std::map<Global*, Value*> defs;
    bool barrier = false;
  };

  void TrySeal(BasicBlock* block) {
    if (block == nullptr || sealed_.count(block) != 0) {
      return;
    }
    for (BasicBlock* pred : preds_[block]) {
      if (filled_.count(pred) == 0) {
        return;
      }
    }
    sealed_.insert(block);
    auto it = incomplete_.find(block);
    if (it != incomplete_.end()) {
      for (auto& [global, phi] : it->second) {
        AddPhiOperands(global, phi, block);
      }
      incomplete_.erase(it);
    }
  }

  Instruction* NewPhi(BasicBlock* block) {
    auto inst = std::make_unique<Instruction>(Op::kPhi);
    return block->InsertBefore(block->insts().begin(), std::move(inst));
  }

  void AddPhiOperands(Global* g, Instruction* phi, BasicBlock* block) {
    for (BasicBlock* pred : preds_[block]) {
      IRBuilder::AddIncoming(phi, ReadEnd(g, pred), pred);
    }
  }

  // Value of `g` at the end of a filled block.
  Value* ReadEnd(Global* g, BasicBlock* block) {
    EndState& st = end_state_[block];
    auto it = st.defs.find(g);
    if (it != st.defs.end()) {
      return it->second;
    }
    if (st.barrier) {
      // A barrier erased all knowledge: reload just before the terminator.
      auto load = std::make_unique<Instruction>(Op::kGlobalLoad);
      load->global = g;
      POLY_CHECK(!block->insts().empty());
      auto pos = std::prev(block->insts().end());
      Instruction* inst = block->InsertBefore(pos, std::move(load));
      st.defs[g] = inst;
      return inst;
    }
    return ReadStart(g, block);
  }

  // Value of `g` at the start of the block.
  Value* ReadStart(Global* g, BasicBlock* block) {
    auto& cache = start_cache_[block];
    auto it = cache.find(g);
    if (it != cache.end()) {
      return it->second;
    }
    Value* v;
    if (sealed_.count(block) == 0) {
      Instruction* phi = NewPhi(block);
      incomplete_[block].push_back({g, phi});
      v = phi;
    } else if (preds_[block].empty()) {
      // Function entry: materialize incoming state with a load at the top.
      auto load = std::make_unique<Instruction>(Op::kGlobalLoad);
      load->global = g;
      v = block->InsertBefore(block->insts().begin(), std::move(load));
    } else if (preds_[block].size() == 1) {
      v = ReadEnd(g, preds_[block][0]);
    } else {
      Instruction* phi = NewPhi(block);
      cache[g] = phi;  // break recursion through loops
      AddPhiOperands(g, phi, block);
      v = phi;
    }
    cache[g] = v;
    return v;
  }

  void ProcessBlock(BasicBlock* block) {
    std::map<Global*, Value*> cur;  // defs since the last barrier
    bool barrier = false;
    std::set<Global*> stored_since_barrier;

    // Commits the reaching values of all written globals to memory right
    // before `pos` (an ABI boundary).
    auto flush = [&](BasicBlock::InstList::iterator pos) {
      for (Global* g : flush_set_) {
        Value* v;
        auto def = cur.find(g);
        if (def != cur.end()) {
          v = def->second;
          if (v->is_inst() &&
              static_cast<Instruction*>(v)->op() == Op::kGlobalLoad &&
              static_cast<Instruction*>(v)->global == g) {
            continue;  // the def is memory's own value: no write-back needed
          }
        } else if (barrier && stored_since_barrier.count(g) == 0) {
          continue;  // memory already holds the post-barrier value
        } else {
          v = ReadStart(g, block);
          if (v->is_inst() &&
              static_cast<Instruction*>(v)->op() == Op::kGlobalLoad &&
              static_cast<Instruction*>(v)->global == g) {
            continue;  // value came straight from memory: store is a no-op
          }
        }
        auto store = std::make_unique<Instruction>(Op::kGlobalStore);
        store->global = g;
        store->AddOperand(v);
        block->InsertBefore(pos, std::move(store));
        changed_ = true;
      }
    };

    for (auto it = block->insts().begin(); it != block->insts().end();) {
      Instruction* inst = it->get();
      if (inst->op() == Op::kGlobalLoad && inst->global->is_thread_local()) {
        auto def = cur.find(inst->global);
        if (def != cur.end()) {
          inst->ReplaceAllUsesWith(def->second);
          it = block->Erase(it);
          changed_ = true;
          continue;
        }
        if (barrier) {
          // First read after a barrier: this load is the new definition.
          cur[inst->global] = inst;
          ++it;
          continue;
        }
        Value* v = ReadStart(inst->global, block);
        if (v != inst) {
          cur[inst->global] = v;
          inst->ReplaceAllUsesWith(v);
          it = block->Erase(it);
          changed_ = true;
          continue;
        }
        cur[inst->global] = inst;
        ++it;
        continue;
      }
      if (inst->op() == Op::kGlobalStore && inst->global->is_thread_local()) {
        cur[inst->global] = inst->operand(0);
        if (flush_set_.count(inst->global) != 0) {
          // Deferred write-back: committed at the next boundary.
          stored_since_barrier.insert(inst->global);
          it = block->Erase(it);
          changed_ = true;
          continue;
        }
        ++it;  // flag stores stay (DeadFlagElim owns them)
        continue;
      }
      if (inst->op() == Op::kRet) {
        flush(it);
        ++it;
        continue;
      }
      if (ir::IsCallBoundary(*inst)) {
        flush(it);
        stored_since_barrier.clear();
        if (ir::CallsIntrinsic(*inst, ir::Intrinsic::kExtCall)) {
          // External calls follow the SysV ABI: callee-saved registers and
          // the stack pointers survive; only caller-saved state is
          // clobbered (the external may run callbacks).
          for (auto def = cur.begin(); def != cur.end();) {
            def = ir::IsCalleeSavedGpr(def->first->name()) ? std::next(def)
                                                           : cur.erase(def);
          }
        } else {
          cur.clear();
        }
        barrier = true;
      }
      ++it;
    }
    end_state_[block] = EndState{std::move(cur), barrier};
  }

  Function& f_;
  std::map<BasicBlock*, std::vector<BasicBlock*>> preds_;
  std::map<BasicBlock*, std::map<Global*, Value*>> start_cache_;
  std::map<BasicBlock*, EndState> end_state_;
  std::map<BasicBlock*, std::vector<std::pair<Global*, Instruction*>>>
      incomplete_;
  std::set<Global*, GlobalSlotOrder> flush_set_;
  std::set<BasicBlock*> sealed_;
  std::set<BasicBlock*> filled_;
  bool changed_ = false;
};

}  // namespace

bool PromoteGlobals(Function& f) { return Promoter(f).Run(); }

}  // namespace polynima::opt
