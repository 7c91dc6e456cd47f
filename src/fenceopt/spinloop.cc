#include "src/fenceopt/spinloop.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/ir/semantics.h"
#include "src/lift/lifter.h"
#include "src/opt/passes.h"
#include "src/support/strings.h"
#include "src/vm/external.h"

namespace polynima::fenceopt {

using exec::AccessRecord;
using ir::BasicBlock;
using ir::Constant;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Op;
using ir::Value;

namespace {

// ---------------------------------------------------------------------------
// Dominators + natural loops
// ---------------------------------------------------------------------------

struct LoopInfo {
  BasicBlock* header = nullptr;
  std::set<BasicBlock*> body;
};

std::map<BasicBlock*, BasicBlock*> ComputeIdoms(Function& f) {
  std::vector<BasicBlock*> rpo = opt::ReversePostOrder(f);
  std::map<BasicBlock*, int> order;
  for (size_t i = 0; i < rpo.size(); ++i) {
    order[rpo[i]] = static_cast<int>(i);
  }
  auto preds = opt::Predecessors(f);
  std::map<BasicBlock*, BasicBlock*> idom;
  BasicBlock* entry = f.entry();
  idom[entry] = entry;

  auto intersect = [&](BasicBlock* a, BasicBlock* b) {
    while (a != b) {
      while (order[a] > order[b]) {
        a = idom[a];
      }
      while (order[b] > order[a]) {
        b = idom[b];
      }
    }
    return a;
  };

  bool changed = true;
  while (changed) {
    changed = false;
    for (BasicBlock* b : rpo) {
      if (b == entry) {
        continue;
      }
      BasicBlock* new_idom = nullptr;
      for (BasicBlock* p : preds[b]) {
        if (idom.count(p) == 0) {
          continue;
        }
        new_idom = new_idom == nullptr ? p : intersect(new_idom, p);
      }
      if (new_idom != nullptr && idom[b] != new_idom) {
        idom[b] = new_idom;
        changed = true;
      }
    }
  }
  return idom;
}

bool Dominates(const std::map<BasicBlock*, BasicBlock*>& idom, BasicBlock* a,
               BasicBlock* b) {
  BasicBlock* cur = b;
  while (true) {
    if (cur == a) {
      return true;
    }
    auto it = idom.find(cur);
    if (it == idom.end() || it->second == cur) {
      return cur == a;
    }
    cur = it->second;
  }
}

std::vector<LoopInfo> FindNaturalLoops(Function& f) {
  auto idom = ComputeIdoms(f);
  auto preds = opt::Predecessors(f);
  std::map<BasicBlock*, LoopInfo> by_header;
  for (auto& block : f.blocks()) {
    for (BasicBlock* succ : block->Successors()) {
      if (idom.count(block.get()) == 0) {
        continue;  // unreachable
      }
      if (!Dominates(idom, succ, block.get())) {
        continue;  // not a back edge
      }
      // Natural loop of back edge block->succ: reverse reachability from
      // the tail without passing through the header.
      LoopInfo& loop = by_header[succ];
      loop.header = succ;
      loop.body.insert(succ);
      std::vector<BasicBlock*> work{block.get()};
      while (!work.empty()) {
        BasicBlock* b = work.back();
        work.pop_back();
        if (!loop.body.insert(b).second) {
          continue;
        }
        for (BasicBlock* p : preds[b]) {
          work.push_back(p);
        }
      }
    }
  }
  std::vector<LoopInfo> loops;
  for (auto& [header, loop] : by_header) {
    loops.push_back(std::move(loop));
  }
  return loops;
}

// ---------------------------------------------------------------------------
// Instruction influence analysis (§3.4.2)
// ---------------------------------------------------------------------------

enum class Influence : uint8_t {
  kLoopConstant = 0,  // invariant across iterations
  kLocalVarying = 1,  // modified by the loop, locally
  kExternal = 2,      // depends on shared memory / atomics / external calls
};

Influence Max(Influence a, Influence b) {
  return static_cast<Influence>(
      std::max(static_cast<int>(a), static_cast<int>(b)));
}

class Classifier {
 public:
  Classifier(const LoopInfo& loop,
             const std::map<const Instruction*, AccessRecord>& accesses)
      : loop_(loop), accesses_(accesses) {
    // Gather intra-loop stores once.
    for (BasicBlock* b : loop_.body) {
      for (auto& inst : b->insts()) {
        if (inst->op() == Op::kStore) {
          stores_.push_back(inst.get());
        }
      }
    }
  }

  bool saw_uncovered_load() const { return saw_uncovered_load_; }

  Influence Classify(const Value* v) {
    std::set<const Instruction*> chase_path;
    return ClassifyValue(v, chase_path, 0);
  }

 private:
  // `chase_path` holds the local loads whose store values are currently
  // being chased: hitting one again means a loop-carried dependence through
  // memory — example (d) in the paper — which is a loop-modified local
  // value, the memory analog of a loop-header phi.
  Influence ClassifyValue(const Value* v,
                          std::set<const Instruction*>& chase_path,
                          int depth) {
    if (depth > 64) {
      return Influence::kExternal;  // give up conservatively
    }
    if (v->is_const() || v->kind() == Value::Kind::kArgument) {
      return Influence::kLoopConstant;
    }
    if (!v->is_inst()) {
      return Influence::kLoopConstant;
    }
    const auto* inst = static_cast<const Instruction*>(v);
    if (loop_.body.count(inst->parent()) == 0) {
      return Influence::kLoopConstant;  // defined outside: loop-invariant
    }
    switch (inst->op()) {
      case Op::kPhi: {
        // Loop-header phi: a loop-modified local value (example (e)),
        // unless an external dependency flows into it.
        if (!phis_in_progress_.insert(inst).second) {
          return Influence::kLocalVarying;  // cycle through the back edge
        }
        Influence r = Influence::kLocalVarying;
        for (int i = 0; i < inst->num_operands(); ++i) {
          r = Max(r, ClassifyValue(inst->operand(i), chase_path, depth + 1));
        }
        phis_in_progress_.erase(inst);
        return r;
      }
      case Op::kLoad: {
        auto rec = accesses_.find(inst);
        if (rec == accesses_.end()) {
          // Never executed: cannot resolve (uncovered-loop false-negative
          // path, §3.4.3).
          saw_uncovered_load_ = true;
          return Influence::kExternal;
        }
        if (rec->second.shared) {
          return Influence::kExternal;  // examples (a)/(b): shared location
        }
        if (chase_path.count(inst) != 0) {
          return Influence::kLocalVarying;  // loop-carried memory cycle
        }
        // Local location: chase intra-loop stores to the same observed
        // addresses (example (d)).
        chase_path.insert(inst);
        Influence r = Influence::kLoopConstant;
        for (const Instruction* store : stores_) {
          auto srec = accesses_.find(store);
          if (srec == accesses_.end()) {
            continue;  // store never executed: cannot have produced a value
          }
          if (!rec->second.MayAliasAddresses(srec->second)) {
            continue;
          }
          r = Max(r, ClassifyValue(store->operand(1), chase_path, depth + 1));
        }
        chase_path.erase(inst);
        return r;
      }
      case Op::kAtomicRmw:
      case Op::kCmpXchg:
        return Influence::kExternal;
      case Op::kCall: {
        if (inst->callee == nullptr && ir::InfoOf(inst->intrinsic).pure) {
          Influence r = Influence::kLoopConstant;
          for (int i = 0; i < inst->num_operands(); ++i) {
            r = Max(r, ClassifyValue(inst->operand(i), chase_path, depth + 1));
          }
          return r;
        }
        return Influence::kExternal;  // external call results
      }
      case Op::kGlobalLoad:
        // Thread-local virtual state (registers reloaded after a call
        // boundary) is this thread's own data: a loop whose exit depends on
        // it is either a plain counting loop (callee-saved register) or a
        // loop synchronizing through the external call itself — and external
        // calls are compiler barriers, so fences are superfluous either way
        // (§3.4.1, first case). Only genuinely shared virtual state (the
        // McSema-like non-thread-local mode) is an external dependency.
        return inst->global->is_thread_local() ? Influence::kLocalVarying
                                               : Influence::kExternal;
      default: {
        Influence r = Influence::kLoopConstant;
        for (int i = 0; i < inst->num_operands(); ++i) {
          r = Max(r, ClassifyValue(inst->operand(i), chase_path, depth + 1));
        }
        return r;
      }
    }
  }

  const LoopInfo& loop_;
  const std::map<const Instruction*, AccessRecord>& accesses_;
  std::vector<const Instruction*> stores_;
  std::set<const Instruction*> phis_in_progress_;
  bool saw_uncovered_load_ = false;
};

}  // namespace

SpinloopAnalysis AnalyzeLoops(
    Module& module,
    const std::map<const Instruction*, AccessRecord>& accesses) {
  SpinloopAnalysis analysis;
  for (auto& f : module.functions()) {
    for (const LoopInfo& loop : FindNaturalLoops(*f)) {
      LoopVerdict verdict;
      verdict.function = f->name();
      verdict.header_block = loop.header->name();
      verdict.guest_address = loop.header->guest_address;

      // Exit conditions: conditional terminators in the body with at least
      // one successor outside the loop.
      std::vector<const Value*> exit_conditions;
      for (BasicBlock* b : loop.body) {
        Instruction* term = b->terminator();
        if (term == nullptr) {
          continue;
        }
        bool exits = false;
        for (BasicBlock* succ : b->Successors()) {
          if (loop.body.count(succ) == 0) {
            exits = true;
          }
        }
        if (!exits || term->num_operands() == 0) {
          continue;
        }
        exit_conditions.push_back(term->operand(0));
      }

      if (exit_conditions.empty()) {
        verdict.spinning = true;
        verdict.reason = "no analyzable exit condition";
        analysis.loops.push_back(std::move(verdict));
        continue;
      }

      Classifier classifier(loop, accesses);
      bool non_spinning = false;
      bool any_external = false;
      for (const Value* cond : exit_conditions) {
        // Look through an icmp to its operands (the paper's %op values).
        std::vector<const Value*> operands;
        if (cond->is_inst() &&
            static_cast<const Instruction*>(cond)->op() == Op::kICmp) {
          const auto* icmp = static_cast<const Instruction*>(cond);
          operands = {icmp->operand(0), icmp->operand(1)};
        } else {
          operands = {cond};
        }
        bool external = false;
        bool varying = false;
        for (const Value* op : operands) {
          Influence inf = classifier.Classify(op);
          external = external || inf == Influence::kExternal;
          varying = varying || inf == Influence::kLocalVarying;
        }
        any_external = any_external || external;
        if (varying && !external) {
          non_spinning = true;
          break;
        }
      }
      verdict.uncovered = classifier.saw_uncovered_load();
      if (non_spinning) {
        verdict.spinning = false;
        verdict.reason = "exit driven by loop-modified local value";
      } else {
        verdict.spinning = true;
        verdict.reason = verdict.uncovered
                             ? "loop body not covered by provided inputs"
                             : (any_external
                                    ? "exit depends on shared memory"
                                    : "no loop-varying local influence");
      }
      analysis.loops.push_back(std::move(verdict));
    }
  }
  return analysis;
}

Expected<SpinloopAnalysis> DetectImplicitSynchronization(
    const binary::Image& image, const cfg::ControlFlowGraph& graph,
    const std::vector<std::vector<std::vector<uint8_t>>>& input_sets,
    const obs::Session& obs) {
  obs::Span span(obs.trace, "fenceopt", "spinloop-analysis");
  // 1. Analysis module: inline everything, promote registers to SSA.
  lift::LiftOptions lift_options;
  lift_options.mark_all_external = false;  // analysis copy: inline freely
  POLY_ASSIGN_OR_RETURN(lift::LiftedProgram program,
                        lift::Lift(image, graph, lift_options));
  opt::InlineFunctions(*program.module, /*max_callee_blocks=*/128);
  POLY_RETURN_IF_ERROR(opt::RunPipeline(*program.module));

  // 2. Instrumented runs over every input set; merge records.
  std::map<const Instruction*, AccessRecord> merged;
  std::vector<std::vector<std::vector<uint8_t>>> sets = input_sets;
  if (sets.empty()) {
    sets.push_back({});
  }
  for (const auto& inputs : sets) {
    vm::ExternalLibrary library;
    exec::ExecOptions exec_options;
    exec_options.record_accesses = true;
    exec::Engine engine(program, image, &library, exec_options);
    engine.SetInputs(inputs);
    exec::ExecResult result = engine.Run();
    if (!result.ok) {
      return Status::Aborted(
          StrCat("instrumented run failed: ", result.fault_message));
    }
    for (const auto& [inst, rec] : result.accesses) {
      AccessRecord& m = merged[inst];
      m.stack_local |= rec.stack_local;
      m.shared |= rec.shared;
      m.overflow |= rec.overflow;
      if (m.addresses.size() + rec.addresses.size() > 8192) {
        m.overflow = true;
      } else {
        m.addresses.insert(rec.addresses.begin(), rec.addresses.end());
      }
    }
  }

  // 3. Classify.
  SpinloopAnalysis analysis = AnalyzeLoops(*program.module, merged);
  if (obs.metrics != nullptr) {
    obs.Add(obs::Counter::kFenceoptLoopsAnalyzed, analysis.loops.size());
    obs.Add(obs::Counter::kFenceoptLoopsSpinning,
            static_cast<uint64_t>(analysis.SpinningCount()));
  }
  span.Arg("loops", static_cast<int64_t>(analysis.loops.size()));
  return analysis;
}

check::ElisionCert MakeElisionCert(const SpinloopAnalysis& analysis,
                                   const binary::Image& image) {
  check::ElisionCert cert;
  cert.binary_key = check::BinaryKey(image);
  cert.loops_analyzed = static_cast<int>(analysis.loops.size());
  cert.spinning_loops = analysis.SpinningCount();
  for (const LoopVerdict& v : analysis.loops) {
    cert.uncovered_loops += v.uncovered ? 1 : 0;
    cert.loop_summaries.push_back(
        StrCat(v.function, "/", v.header_block, "@",
               HexString(v.guest_address), ": ",
               v.spinning ? "spinning" : "non-spinning",
               v.uncovered ? " (uncovered)" : "", " — ", v.reason));
  }
  cert.Seal();
  return cert;
}

}  // namespace polynima::fenceopt
