#include "src/analyze/race.h"

#include <algorithm>
#include <optional>

#include "src/check/derive.h"
#include "src/ir/semantics.h"
#include "src/support/strings.h"
#include "src/vm/external.h"

namespace polynima::analyze {

namespace {

using ir::BasicBlock;
using ir::Function;
using ir::Global;
using ir::Instruction;
using ir::Op;

constexpr int kMaxPairs = 200;
constexpr int kSpawnCap = 8;  // outstanding-spawn saturation

struct Root {
  const Function* entry = nullptr;
  bool is_main = false;
  bool multi_instance = false;
  std::set<const Function*> reachable;
};

// Last value stored to virtual register `g` before `call` within its block.
// Returns false when no store is found, the reaching store is non-constant,
// or a call clobbers the (caller-saved) register after the store — callers
// must then degrade conservatively.
bool ResolveRegBefore(const Instruction& call, const Global* g,
                      uint64_t& value) {
  if (g == nullptr || call.parent() == nullptr) {
    return false;
  }
  bool found = false;
  for (const auto& inst : call.parent()->insts()) {
    if (inst.get() == &call) {
      break;
    }
    if (inst->op() == Op::kGlobalStore && inst->global == g) {
      if (inst->operand(0)->is_const()) {
        value = static_cast<uint64_t>(
            static_cast<const ir::Constant*>(inst->operand(0))->value());
        found = true;
      } else {
        found = false;
      }
    } else if (ir::IsCallBoundary(*inst)) {
      // The argument registers this resolver is used for are all
      // caller-saved: a constant stored before an intervening call is stale
      // by the time `call` executes.
      found = false;
    }
  }
  return found;
}

// Forward CFG reachability: can execution starting at `from` reach `to`?
bool CanReach(const BasicBlock* from, const BasicBlock* to) {
  std::set<const BasicBlock*> seen;
  std::vector<const BasicBlock*> work{from};
  while (!work.empty()) {
    const BasicBlock* cur = work.back();
    work.pop_back();
    if (cur == to) {
      return true;
    }
    if (!seen.insert(cur).second) {
      continue;
    }
    for (const BasicBlock* s : cur->Successors()) {
      work.push_back(s);
    }
  }
  return false;
}

bool BlockOnCycle(const BasicBlock* b) {
  for (const BasicBlock* s : b->Successors()) {
    if (CanReach(s, b)) {
      return true;
    }
  }
  return false;
}

// Direct-call reachability from `entry`; sets `widened` when an indirect
// call (cfmiss) makes the callee set unknowable.
std::set<const Function*> Reachable(const Function* entry, bool& widened) {
  std::set<const Function*> out;
  std::vector<const Function*> work{entry};
  while (!work.empty()) {
    const Function* f = work.back();
    work.pop_back();
    if (!out.insert(f).second) {
      continue;
    }
    for (const auto& b : f->blocks()) {
      for (const auto& inst : b->insts()) {
        if (inst->op() != Op::kCall) {
          continue;
        }
        if (inst->callee != nullptr) {
          work.push_back(inst->callee);
        } else if (inst->intrinsic == ir::Intrinsic::kCfmiss) {
          widened = true;
        }
      }
    }
  }
  return out;
}

struct LockFacts {
  // Lockset (constant mutex addresses provably held) before each access.
  std::map<const Instruction*, std::set<uint64_t>> at_access;
};

using Lockset = std::optional<std::set<uint64_t>>;  // nullopt = unvisited (⊤)

void IntersectInto(Lockset& into, const std::set<uint64_t>& s) {
  if (!into.has_value()) {
    into = s;
    return;
  }
  std::set<uint64_t> merged;
  std::set_intersection(into->begin(), into->end(), s.begin(), s.end(),
                        std::inserter(merged, merged.begin()));
  *into = std::move(merged);
}

// Interprocedural lockset fixpoint: a callee's entry lockset is the
// intersection over its (direct) call sites; intra-procedurally block merges
// intersect and only constant-address lock/unlock pairs are tracked.
LockFacts ComputeLocksets(const std::vector<Root>& roots,
                          const std::vector<std::string>& externals,
                          const Global* rdi) {
  LockFacts facts;
  std::map<const Function*, Lockset> entry;
  for (const Root& r : roots) {
    IntersectInto(entry[r.entry], {});
  }
  // Iterate to convergence: the entry-lockset lattice is finite (one set of
  // observed constant mutex addresses per function) and IntersectInto only
  // ever shrinks it, so this terminates. A fixed round cap would be unsound
  // — stopping early leaves entry locksets larger than the true fixpoint,
  // fabricating protection that suppresses real races.
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [fn, in] : entry) {
      if (!in.has_value()) {
        continue;
      }
      std::map<const BasicBlock*, Lockset> block_in;
      block_in[fn->entry()] = *in;
      bool local_changed = true;
      while (local_changed) {
        local_changed = false;
        for (const auto& b : fn->blocks()) {
          auto it = block_in.find(b.get());
          if (it == block_in.end() || !it->second.has_value()) {
            continue;
          }
          std::set<uint64_t> cur = *it->second;
          for (const auto& inst : b->insts()) {
            switch (inst->op()) {
              case Op::kLoad:
              case Op::kStore:
              case Op::kAtomicRmw:
              case Op::kCmpXchg: {
                auto [at, inserted] =
                    facts.at_access.emplace(inst.get(), cur);
                if (!inserted && at->second != cur) {
                  std::set<uint64_t> merged;
                  std::set_intersection(
                      at->second.begin(), at->second.end(), cur.begin(),
                      cur.end(), std::inserter(merged, merged.begin()));
                  if (merged != at->second) {
                    at->second = std::move(merged);
                    local_changed = true;
                  }
                }
                break;
              }
              case Op::kCall: {
                std::string name = check::ExternalName(*inst, externals);
                uint64_t mutex = 0;
                if (name == "pthread_mutex_lock") {
                  if (ResolveRegBefore(*inst, rdi, mutex)) {
                    cur.insert(mutex);
                  }
                  // unresolved lock: held set unchanged (under-approximates
                  // protection, over-reports races — the sound direction)
                } else if (name == "pthread_mutex_unlock") {
                  if (ResolveRegBefore(*inst, rdi, mutex)) {
                    cur.erase(mutex);
                  } else {
                    cur.clear();  // could release any lock
                  }
                } else if (inst->callee != nullptr) {
                  // Direct guest call: propagate to the callee's entry and
                  // assume it is lock-balanced on return (documented).
                  Lockset& ce = entry[inst->callee];
                  Lockset before = ce;
                  IntersectInto(ce, cur);
                  if (ce != before) {
                    changed = true;
                  }
                }
                break;
              }
              default:
                break;
            }
          }
          for (const BasicBlock* succ : b->Successors()) {
            Lockset& sin = block_in[succ];
            Lockset before = sin;
            IntersectInto(sin, cur);
            if (sin != before) {
              local_changed = true;
            }
          }
        }
      }
    }
  }
  return facts;
}

struct SpawnFacts {
  // Outstanding spawn count before each instruction of the main function.
  std::map<const Instruction*, int> outstanding;
  // Functions reachable from a main call site with outstanding > 0.
  std::set<const Function*> windowed;
};

// Functions whose execution may leave new threads running when they return:
// they call pthread_create themselves, make an indirect call (cfmiss) that
// could reach one, or directly call such a function. gomp_parallel is
// excluded — it joins its children before returning, so no spawn outlives
// the call. Main's outstanding-spawn dataflow pins the counter at the cap
// across calls into this set: the helper may have started any number of
// threads that main never sees a pthread_create for.
std::set<const Function*> MaySpawnFunctions(
    const lift::LiftedProgram& program,
    const std::vector<std::string>& externals) {
  std::set<const Function*> out;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& [addr, fn] : program.functions_by_entry) {
      (void)addr;
      if (out.count(fn) != 0) {
        continue;
      }
      bool spawns = false;
      for (const auto& b : fn->blocks()) {
        for (const auto& inst : b->insts()) {
          if (spawns || inst->op() != Op::kCall) {
            continue;
          }
          if (inst->callee != nullptr) {
            spawns = out.count(inst->callee) != 0;
          } else if (inst->intrinsic == ir::Intrinsic::kCfmiss) {
            spawns = true;  // unknown callee: may reach a spawn
          } else {
            spawns = check::ExternalName(*inst, externals) == "pthread_create";
          }
        }
      }
      if (spawns) {
        out.insert(fn);
        changed = true;
      }
    }
  }
  return out;
}

SpawnFacts ComputeSpawnWindow(const Function* main,
                              const std::vector<std::string>& externals,
                              const std::set<const Function*>& may_spawn) {
  SpawnFacts facts;
  std::map<const BasicBlock*, int> block_in;
  block_in[main->entry()] = 0;
  std::set<const Function*> window_seeds;
  // Blocks that call pthread_join, for the structured-join drain below.
  std::vector<const BasicBlock*> join_blocks;
  for (const auto& b : main->blocks()) {
    for (const auto& inst : b->insts()) {
      if (inst->op() == Op::kCall &&
          check::ExternalName(*inst, externals) == "pthread_join") {
        join_blocks.push_back(b.get());
        break;
      }
    }
  }
  // A block sits on a join loop when some join block shares a cycle with it.
  auto on_join_loop = [&](const BasicBlock* b) {
    for (const BasicBlock* j : join_blocks) {
      if ((j == b || (CanReach(b, j) && CanReach(j, b)))) {
        return BlockOnCycle(b);
      }
    }
    return false;
  };
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& b : main->blocks()) {
      auto it = block_in.find(b.get());
      if (it == block_in.end()) {
        continue;
      }
      int cur = it->second;
      for (const auto& inst : b->insts()) {
        auto [at, inserted] = facts.outstanding.emplace(inst.get(), cur);
        if (!inserted && at->second < cur) {
          at->second = cur;
          changed = true;
        }
        if (inst->op() == Op::kCall) {
          std::string name = check::ExternalName(*inst, externals);
          if (name == "pthread_create") {
            cur = std::min(cur + 1, kSpawnCap);
          } else if (name == "pthread_join") {
            cur = std::max(cur - 1, 0);
          } else if (inst->callee != nullptr) {
            // A helper that can reach a spawn returns with an unknown number
            // of children outstanding: saturate the counter so nothing after
            // the call is treated as quiescent, and window the helper itself
            // (its post-spawn code runs concurrently with the children).
            if (may_spawn.count(inst->callee) != 0) {
              cur = kSpawnCap;
            }
            if (cur > 0) {
              window_seeds.insert(inst->callee);
            }
          } else if (inst->intrinsic == ir::Intrinsic::kCfmiss) {
            cur = kSpawnCap;  // unknown callee: may spawn
          }
          // gomp_parallel joins its children internally: no change.
        }
      }
      // Structured-join drain: a pthread_join inside a loop (the canonical
      // "for (i) join(tids[i])" idiom) joins one child per iteration, so on
      // the loop's EXIT edges every outstanding spawn is accounted for —
      // the saturating counter would otherwise stay pinned at its cap and
      // mark everything after the join loop as concurrent forever. Inside
      // the loop (back edges) the count is kept: children genuinely may
      // still run while earlier ones are being joined. This is the one
      // deliberate under-approximation in the detector (DESIGN.md §4e): a
      // join loop that dynamically joins fewer threads than were created
      // defeats it.
      bool join_loop = on_join_loop(b.get());
      for (const BasicBlock* succ : b->Successors()) {
        int out = join_loop && !CanReach(succ, b.get()) ? 0 : cur;
        auto jt = block_in.find(succ);
        if (jt == block_in.end()) {
          block_in[succ] = out;
          changed = true;
        } else if (jt->second < out) {
          jt->second = out;
          changed = true;
        }
      }
    }
  }
  bool widened = false;
  for (const Function* f : window_seeds) {
    for (const Function* r : Reachable(f, widened)) {
      facts.windowed.insert(r);
    }
  }
  return facts;
}

bool RangesOverlap(const AccessInfo& a, const AccessInfo& b) {
  // Inexact addresses (constant base + unresolved non-negative index) extend
  // upward without bound.
  uint64_t a_end = a.const_exact ? a.const_base + a.size : UINT64_MAX;
  uint64_t b_end = b.const_exact ? b.const_base + b.size : UINT64_MAX;
  return a.const_base < b_end && b.const_base < a_end;
}

bool MayAlias(const AccessInfo& a, const AccessInfo& b) {
  AddrKind ka = a.addr_kind;
  AddrKind kb = b.addr_kind;
  if (ka == AddrKind::kSym || kb == AddrKind::kSym) {
    return true;
  }
  if (ka != kb) {
    // Distinct resolved segments (const data vs stack vs heap) are disjoint
    // by the guest memory layout; per-thread stacks and per-instance heap
    // objects keep the symmetric symbolic cases apart.
    return false;
  }
  switch (ka) {
    case AddrKind::kConstData:
      return RangesOverlap(a, b);
    case AddrKind::kStackSym:
      // Each concurrent context owns a private emulated stack.
      return false;
    case AddrKind::kHeapSym: {
      // Same (escaped) allocation site reached from both sides: the object
      // may have been published. Distinct sites are distinct objects.
      for (const Instruction* s : a.sites) {
        if (b.sites.count(s) != 0) {
          return true;
        }
      }
      return false;
    }
    case AddrKind::kSym:
      return true;
  }
  return true;
}

struct Cand {
  const AccessInfo* access = nullptr;
  const Function* fn = nullptr;
  std::set<uint64_t> locks;
  std::vector<int> roots;
  bool quiescent_main = false;  // main-context copy proven child-free
};

bool LocksDisjoint(const Cand& a, const Cand& b) {
  for (uint64_t l : a.locks) {
    if (b.locks.count(l) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

RaceReport DetectRaces(
    const lift::LiftedProgram& program,
    const std::map<const ir::Function*, EscapeResult>& escapes) {
  RaceReport report;
  if (program.module == nullptr) {
    return report;
  }
  auto main_it = program.functions_by_entry.find(program.entry);
  if (main_it == program.functions_by_entry.end()) {
    return report;
  }
  const Function* main_fn = main_it->second;
  const std::vector<std::string>& externals = program.externals;

  // --- thread roots ---
  std::vector<Root> roots;
  roots.push_back({main_fn, true, false, {}});
  std::map<const Function*, int> spawn_count;  // resolved entry -> #sites
  std::map<const Function*, bool> forced_multi;
  bool unresolved_spawn = false;
  for (const auto& [addr, fn] : program.functions_by_entry) {
    (void)addr;
    for (const auto& b : fn->blocks()) {
      for (const auto& inst : b->insts()) {
        std::string name = check::ExternalName(*inst, externals);
        if (name.empty() || !vm::IsThreadSpawnExternal(name)) {
          continue;
        }
        int arg = vm::ThreadEntryArgIndex(name);
        const Global* g = program.module->GetGlobal(ir::kArgGprs[arg]);
        uint64_t entry_addr = 0;
        const Function* entry_fn = nullptr;
        if (ResolveRegBefore(*inst, g, entry_addr)) {
          auto fit = program.functions_by_entry.find(entry_addr);
          if (fit != program.functions_by_entry.end()) {
            entry_fn = fit->second;
          }
        }
        if (entry_fn == nullptr) {
          unresolved_spawn = true;
          continue;
        }
        ++spawn_count[entry_fn];
        if (name == "gomp_parallel" || BlockOnCycle(b.get())) {
          forced_multi[entry_fn] = true;
        }
      }
    }
  }
  for (const auto& [fn, n] : spawn_count) {
    roots.push_back({fn, false, n >= 2 || forced_multi[fn], {}});
  }
  if (unresolved_spawn) {
    // A spawn whose entry we cannot resolve may start any externally
    // callable function, any number of times.
    report.conservative_roots = true;
    for (const auto& [addr, fn] : program.functions_by_entry) {
      (void)addr;
      if (!fn->is_external_entry || fn == main_fn) {
        continue;
      }
      bool present = false;
      for (Root& r : roots) {
        if (r.entry == fn) {
          r.multi_instance = true;
          present = true;
        }
      }
      if (!present) {
        roots.push_back({fn, false, true, {}});
      }
    }
  }
  report.thread_roots = static_cast<int>(roots.size());

  // --- reachability per root ---
  bool widened = false;
  for (Root& r : roots) {
    r.reachable = Reachable(r.entry, widened);
  }
  if (widened) {
    report.conservative_roots = true;
    for (Root& r : roots) {
      for (const auto& [addr, fn] : program.functions_by_entry) {
        (void)addr;
        r.reachable.insert(fn);
      }
    }
  }

  // --- sync facts ---
  const Global* rdi = program.module->GetGlobal("vr_rdi");
  LockFacts locks = ComputeLocksets(roots, externals, rdi);
  SpawnFacts spawn = ComputeSpawnWindow(
      main_fn, externals, MaySpawnFunctions(program, externals));

  // --- candidates ---
  std::vector<Cand> cands;
  std::map<const Instruction*, size_t> cand_index;
  for (size_t ri = 0; ri < roots.size(); ++ri) {
    for (const Function* fn : roots[ri].reachable) {
      auto eit = escapes.find(fn);
      if (eit == escapes.end()) {
        continue;
      }
      for (const AccessInfo& a : eit->second.accesses) {
        if (a.region != Region::kShared) {
          continue;
        }
        auto [cit, inserted] = cand_index.emplace(a.inst, cands.size());
        if (inserted) {
          Cand c;
          c.access = &a;
          c.fn = fn;
          auto lit = locks.at_access.find(a.inst);
          if (lit != locks.at_access.end()) {
            c.locks = lit->second;
          }
          cands.push_back(std::move(c));
        }
        cands[cit->second].roots.push_back(static_cast<int>(ri));
      }
    }
  }
  report.candidate_accesses = static_cast<int>(cands.size());
  for (Cand& c : cands) {
    bool in_main = false;
    for (int ri : c.roots) {
      in_main = in_main || roots[static_cast<size_t>(ri)].is_main;
    }
    if (!in_main) {
      continue;
    }
    if (c.fn == main_fn) {
      auto oit = spawn.outstanding.find(c.access->inst);
      c.quiescent_main = oit == spawn.outstanding.end() || oit->second == 0;
    } else {
      c.quiescent_main = spawn.windowed.count(c.fn) == 0;
    }
  }

  // --- pair enumeration ---
  auto concurrent = [&](const Cand& a, const Cand& b) {
    for (int ra : a.roots) {
      for (int rb : b.roots) {
        const Root& A = roots[static_cast<size_t>(ra)];
        const Root& B = roots[static_cast<size_t>(rb)];
        if (ra == rb) {
          if (A.multi_instance) {
            return true;
          }
          continue;
        }
        if (A.is_main && a.quiescent_main) {
          continue;
        }
        if (B.is_main && b.quiescent_main) {
          continue;
        }
        return true;
      }
    }
    return false;
  };
  std::set<std::tuple<std::string, uint64_t, std::string, uint64_t>> seen;
  for (size_t i = 0; i < cands.size(); ++i) {
    for (size_t j = i; j < cands.size(); ++j) {
      const Cand& a = cands[i];
      const Cand& b = cands[j];
      if (i == j && !a.access->is_write) {
        continue;  // a read racing with itself is not a race
      }
      if (!a.access->is_write && !b.access->is_write) {
        continue;
      }
      if (a.access->is_atomic && b.access->is_atomic) {
        continue;
      }
      if (!MayAlias(*a.access, *b.access) || !LocksDisjoint(a, b) ||
          !concurrent(a, b)) {
        continue;
      }
      std::tuple<std::string, uint64_t, std::string, uint64_t> key{
          a.fn->name(), a.access->guest_address, b.fn->name(),
          b.access->guest_address};
      std::tuple<std::string, uint64_t, std::string, uint64_t> rkey{
          b.fn->name(), b.access->guest_address, a.fn->name(),
          a.access->guest_address};
      if (seen.count(key) != 0 || seen.count(rkey) != 0) {
        continue;
      }
      seen.insert(key);
      if (static_cast<int>(report.pairs.size()) >= kMaxPairs) {
        report.truncated = true;
        break;
      }
      RacePair pair;
      pair.a = {a.fn->name(), a.access->guest_address, a.access->is_write,
                a.access->is_atomic};
      pair.b = {b.fn->name(), b.access->guest_address, b.access->is_write,
                b.access->is_atomic};
      const char* kind =
          a.access->addr_kind == AddrKind::kConstData &&
                  b.access->addr_kind == AddrKind::kConstData
              ? "const-data overlap"
              : "symbolic may-alias";
      pair.reason = StrCat(
          kind, i == j ? ", multi-instance self-race" : "",
          (a.access->is_atomic || b.access->is_atomic) ? ", atomic-vs-plain"
                                                       : "");
      report.pairs.push_back(std::move(pair));
    }
    if (report.truncated) {
      break;
    }
  }
  return report;
}

std::set<uint64_t> RaceHintAddresses(const RaceReport& report) {
  std::set<uint64_t> out;
  for (const RacePair& p : report.pairs) {
    if (p.a.guest_address != 0) {
      out.insert(p.a.guest_address);
    }
    if (p.b.guest_address != 0) {
      out.insert(p.b.guest_address);
    }
  }
  return out;
}

}  // namespace polynima::analyze
