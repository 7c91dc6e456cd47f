#include "src/cfg/cfg.h"

#include <deque>

#include "src/support/check.h"
#include "src/support/strings.h"
#include "src/x86/decoder.h"

namespace polynima::cfg {

using x86::Inst;
using x86::Mnemonic;

const char* TermKindName(TermKind k) {
  switch (k) {
    case TermKind::kFallthrough:
      return "fallthrough";
    case TermKind::kJump:
      return "jump";
    case TermKind::kCondJump:
      return "condjump";
    case TermKind::kIndirectJump:
      return "indirectjump";
    case TermKind::kCall:
      return "call";
    case TermKind::kIndirectCall:
      return "indirectcall";
    case TermKind::kExternalCall:
      return "externalcall";
    case TermKind::kRet:
      return "ret";
    case TermKind::kTrap:
      return "trap";
  }
  return "?";
}

Expected<TermKind> TermKindFromName(const std::string& name) {
  static const std::map<std::string, TermKind>* map =
      new std::map<std::string, TermKind>{
          {"fallthrough", TermKind::kFallthrough},
          {"jump", TermKind::kJump},
          {"condjump", TermKind::kCondJump},
          {"indirectjump", TermKind::kIndirectJump},
          {"call", TermKind::kCall},
          {"indirectcall", TermKind::kIndirectCall},
          {"externalcall", TermKind::kExternalCall},
          {"ret", TermKind::kRet},
          {"trap", TermKind::kTrap},
      };
  auto it = map->find(name);
  if (it == map->end()) {
    return Status::InvalidArgument("bad term kind: " + name);
  }
  return it->second;
}

bool ControlFlowGraph::AddIndirectTarget(uint64_t transfer_address,
                                         uint64_t target) {
  BlockInfo* block = MutableBlockContaining(transfer_address);
  if (block == nullptr) {
    return false;
  }
  return block->indirect_targets.insert(target).second;
}

const BlockInfo* ControlFlowGraph::BlockContaining(uint64_t addr) const {
  auto it = blocks.upper_bound(addr);
  if (it == blocks.begin()) {
    return nullptr;
  }
  --it;
  if (addr >= it->second.start && addr < it->second.end) {
    return &it->second;
  }
  return nullptr;
}

BlockInfo* ControlFlowGraph::MutableBlockContaining(uint64_t addr) {
  return const_cast<BlockInfo*>(
      static_cast<const ControlFlowGraph*>(this)->BlockContaining(addr));
}

const FunctionInfo* ControlFlowGraph::FunctionOwning(
    uint64_t block_start) const {
  for (const auto& [entry, fn] : functions) {
    if (fn.block_starts.count(block_start) != 0) {
      return &fn;
    }
  }
  return nullptr;
}

size_t ControlFlowGraph::TotalIndirectTargets() const {
  size_t n = 0;
  for (const auto& [start, block] : blocks) {
    n += block.indirect_targets.size();
  }
  return n;
}

json::Value ControlFlowGraph::ToJson() const {
  json::Array block_arr;
  for (const auto& [start, b] : blocks) {
    json::Object obj;
    obj["start"] = json::Value(b.start);
    obj["end"] = json::Value(b.end);
    obj["term"] = json::Value(TermKindName(b.term));
    obj["term_address"] = json::Value(b.term_address);
    obj["direct_target"] = json::Value(b.direct_target);
    obj["fallthrough"] = json::Value(b.fallthrough);
    obj["external_slot"] = json::Value(b.external_slot);
    json::Array targets;
    for (uint64_t t : b.indirect_targets) {
      targets.push_back(json::Value(t));
    }
    obj["indirect_targets"] = json::Value(std::move(targets));
    block_arr.push_back(json::Value(std::move(obj)));
  }
  json::Array fn_arr;
  for (const auto& [entry, fn] : functions) {
    json::Object obj;
    obj["entry"] = json::Value(fn.entry);
    obj["name"] = json::Value(fn.name);
    json::Array starts;
    for (uint64_t s : fn.block_starts) {
      starts.push_back(json::Value(s));
    }
    obj["blocks"] = json::Value(std::move(starts));
    fn_arr.push_back(json::Value(std::move(obj)));
  }
  json::Object root;
  root["blocks"] = json::Value(std::move(block_arr));
  root["functions"] = json::Value(std::move(fn_arr));
  return json::Value(std::move(root));
}

namespace {

// Typed readers for FromJson: a field that is absent or of the wrong type
// is an InvalidArgument naming it (`path` is its parent, e.g. "blocks[3].").
Status FieldError(const std::string& path, const char* key, const char* kind) {
  return Status::InvalidArgument(StrCat("cfg json: \"", path, key,
                                        "\" is missing or not ", kind));
}

Status ReadField(const json::Value& obj, const std::string& path,
                 const char* key, const json::Array** out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr || !v->is_array()) {
    return FieldError(path, key, "an array");
  }
  *out = &v->as_array();
  return Status::Ok();
}

Status ReadField(const json::Value& obj, const std::string& path,
                 const char* key, uint64_t* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr || !v->is_int()) {
    return FieldError(path, key, "an integer");
  }
  *out = v->as_uint();
  return Status::Ok();
}

Status ReadField(const json::Value& obj, const std::string& path,
                 const char* key, std::string* out) {
  const json::Value* v = obj.Find(key);
  if (v == nullptr || !v->is_string()) {
    return FieldError(path, key, "a string");
  }
  *out = v->as_string();
  return Status::Ok();
}

Status ReadField(const json::Value& obj, const std::string& path,
                 const char* key, std::set<uint64_t>* out) {
  const json::Array* arr = nullptr;
  POLY_RETURN_IF_ERROR(ReadField(obj, path, key, &arr));
  for (const json::Value& e : *arr) {
    if (!e.is_int()) {
      return FieldError(path, key, "an array of integers");
    }
    out->insert(e.as_uint());
  }
  return Status::Ok();
}

}  // namespace

Expected<ControlFlowGraph> ControlFlowGraph::FromJson(const json::Value& v) {
  ControlFlowGraph graph;
  const json::Array* blocks = nullptr;
  const json::Array* fns = nullptr;
  POLY_RETURN_IF_ERROR(ReadField(v, "", "blocks", &blocks));
  POLY_RETURN_IF_ERROR(ReadField(v, "", "functions", &fns));
  for (size_t i = 0; i < blocks->size(); ++i) {
    const json::Value& bv = (*blocks)[i];
    const std::string path = StrCat("blocks[", i, "].");
    BlockInfo b;
    std::string term;
    POLY_RETURN_IF_ERROR(ReadField(bv, path, "start", &b.start));
    POLY_RETURN_IF_ERROR(ReadField(bv, path, "end", &b.end));
    POLY_RETURN_IF_ERROR(ReadField(bv, path, "term", &term));
    POLY_ASSIGN_OR_RETURN(b.term, TermKindFromName(term));
    POLY_RETURN_IF_ERROR(ReadField(bv, path, "term_address", &b.term_address));
    POLY_RETURN_IF_ERROR(
        ReadField(bv, path, "direct_target", &b.direct_target));
    POLY_RETURN_IF_ERROR(ReadField(bv, path, "fallthrough", &b.fallthrough));
    POLY_RETURN_IF_ERROR(
        ReadField(bv, path, "external_slot", &b.external_slot));
    POLY_RETURN_IF_ERROR(
        ReadField(bv, path, "indirect_targets", &b.indirect_targets));
    graph.blocks[b.start] = std::move(b);
  }
  for (size_t i = 0; i < fns->size(); ++i) {
    const json::Value& fv = (*fns)[i];
    const std::string path = StrCat("functions[", i, "].");
    FunctionInfo fn;
    POLY_RETURN_IF_ERROR(ReadField(fv, path, "entry", &fn.entry));
    POLY_RETURN_IF_ERROR(ReadField(fv, path, "name", &fn.name));
    POLY_RETURN_IF_ERROR(ReadField(fv, path, "blocks", &fn.block_starts));
    graph.functions[fn.entry] = std::move(fn);
  }
  return graph;
}

Status ControlFlowGraph::WriteTo(const std::string& path) const {
  return json::WriteFile(path, ToJson());
}

Expected<ControlFlowGraph> ControlFlowGraph::ReadFrom(
    const std::string& path) {
  POLY_ASSIGN_OR_RETURN(json::Value v, json::ReadFile(path));
  return FromJson(v);
}

std::vector<uint64_t> CollectLandingPads(const binary::Image& image) {
  std::vector<uint64_t> pads;
  for (const binary::Segment& seg : image.segments) {
    if (!seg.executable || seg.bytes.size() < 4) {
      continue;
    }
    for (size_t i = 0; i + 4 <= seg.bytes.size(); ++i) {
      if (seg.bytes[i] == 0xF3 && seg.bytes[i + 1] == 0x0F &&
          seg.bytes[i + 2] == 0x1E && seg.bytes[i + 3] == 0xFA) {
        pads.push_back(seg.address + i);
      }
    }
  }
  return pads;
}

// ---------------------------------------------------------------------------
// Static recursive-descent recovery
// ---------------------------------------------------------------------------

namespace {

class Recoverer {
 public:
  Recoverer(const binary::Image& image, const RecoverOptions& options)
      : image_(image), options_(options) {}

  Expected<ControlFlowGraph> Run(const std::set<uint64_t>& entries) {
    for (uint64_t e : entries) {
      AddFunctionEntry(e);
    }
    ScanRodataPointers();
    // Iterate to a fixpoint: exploration may surface address constants and
    // jump tables, which surface more code. In sound mode, landing pads the
    // heuristics missed become entries and the fixpoint resumes, so every
    // possible indirect-transfer target is recovered.
    while (true) {
      while (!pending_.empty()) {
        std::deque<uint64_t> batch;
        batch.swap(pending_);
        for (uint64_t addr : batch) {
          Explore(addr);
        }
        ApplyHeuristics();
      }
      if (!options_.landing_pad_entries) {
        break;
      }
      bool added = false;
      for (uint64_t pad : CollectLandingPads(image_)) {
        if (explored_.count(pad) == 0 && func_entries_.count(pad) == 0) {
          AddFunctionEntry(pad);
          added = true;
        }
      }
      if (!added) {
        break;
      }
    }
    return BuildGraph(entries);
  }

 private:
  const Inst* DecodeAt(uint64_t addr) {
    auto it = insts_.find(addr);
    if (it != insts_.end()) {
      return it->second.mnemonic == Mnemonic::kInvalid ? nullptr : &it->second;
    }
    std::vector<uint8_t> bytes = image_.ReadBytes(addr, 16);
    if (bytes.empty() || !image_.IsCodeAddress(addr)) {
      insts_[addr] = Inst{};  // negative cache
      return nullptr;
    }
    auto inst = x86::Decode(bytes, addr);
    if (!inst.ok()) {
      insts_[addr] = Inst{};
      return nullptr;
    }
    return &(insts_[addr] = *inst);
  }

  void AddFunctionEntry(uint64_t addr) {
    if (!image_.IsCodeAddress(addr)) {
      return;
    }
    if (func_entries_.insert(addr).second) {
      leaders_.insert(addr);
      pending_.push_back(addr);
    }
  }

  void AddLeader(uint64_t addr) {
    if (!image_.IsCodeAddress(addr)) {
      return;
    }
    if (leaders_.insert(addr).second) {
      pending_.push_back(addr);
    }
  }

  // Function-pointer tables in read-only data: every 8-aligned qword in a
  // read-only segment that holds a decodable code address is a candidate
  // address-taken function (the rodata analogue of the movabs heuristic).
  void ScanRodataPointers() {
    if (!options_.rodata_pointer_scan) {
      return;
    }
    for (const binary::Segment& seg : image_.segments) {
      if (seg.executable || !seg.read_only) {
        continue;
      }
      for (size_t i = 0; i + 8 <= seg.bytes.size(); i += 8) {
        uint64_t v = 0;
        for (int b = 7; b >= 0; --b) {
          v = (v << 8) | seg.bytes[i + static_cast<size_t>(b)];
        }
        if (!image_.IsCodeAddress(v)) {
          continue;
        }
        std::vector<uint8_t> code = image_.ReadBytes(v, 16);
        if (x86::Decode(code, v).ok()) {
          AddFunctionEntry(v);
          address_taken_.insert(v);
        }
      }
    }
  }

  // Linear walk from `addr` until a terminator, recording instructions and
  // queueing control-flow targets.
  void Explore(uint64_t addr) {
    while (true) {
      if (explored_.count(addr) != 0) {
        return;
      }
      explored_.insert(addr);
      const Inst* inst = DecodeAt(addr);
      if (inst == nullptr) {
        return;  // undecodable: block formation emits a trap block
      }
      // Heuristic inputs: record address constants pointing into code.
      if (options_.address_constant_heuristic &&
          inst->mnemonic == Mnemonic::kMov && inst->ops[1].is_imm() &&
          inst->size == 8 && inst->ops[0].is_reg() &&
          image_.IsCodeAddress(static_cast<uint64_t>(inst->ops[1].imm))) {
        code_constants_.insert(
            {addr, static_cast<uint64_t>(inst->ops[1].imm)});
      }

      if (inst->IsBranch()) {
        if (inst->IsDirectTransfer()) {
          AddLeader(inst->DirectTarget());
          if (inst->mnemonic == Mnemonic::kJcc) {
            AddLeader(inst->Next());
          }
        } else {
          indirect_jumps_.insert(addr);
        }
        return;
      }
      if (inst->IsCall()) {
        if (inst->IsDirectTransfer()) {
          uint64_t target = inst->DirectTarget();
          if (binary::IsExternalAddress(target)) {
            // externalcall: continues at fallthrough
          } else {
            AddFunctionEntry(target);
          }
        }
        AddLeader(inst->Next());
        return;
      }
      if (inst->IsRet() || inst->mnemonic == Mnemonic::kUd2 ||
          inst->mnemonic == Mnemonic::kInt3) {
        return;
      }
      addr = inst->Next();
    }
  }

  // Reads jump-table entries at `base`: consecutive 8-byte values that are
  // plausible, decodable code addresses.
  std::vector<uint64_t> ReadTable(uint64_t base) {
    std::vector<uint64_t> entries;
    for (int i = 0; i < 512; ++i) {
      std::vector<uint8_t> bytes = image_.ReadBytes(base + 8u * i, 8);
      if (bytes.size() != 8) {
        break;
      }
      uint64_t entry = 0;
      for (int b = 7; b >= 0; --b) {
        entry = (entry << 8) | bytes[static_cast<size_t>(b)];
      }
      if (!image_.IsCodeAddress(entry)) {
        break;
      }
      std::vector<uint8_t> code = image_.ReadBytes(entry, 16);
      if (!x86::Decode(code, entry).ok()) {
        break;
      }
      entries.push_back(entry);
    }
    return entries;
  }

  void ApplyHeuristics() {
    // (a) Jump tables: for each indirect jump, look back over the preceding
    // instructions (same straight-line run) for a code-address constant that
    // is used as a table base, i.e. appears before the jump.
    if (options_.jump_table_heuristic) {
      for (uint64_t jump_addr : indirect_jumps_) {
        if (jump_tables_resolved_.count(jump_addr) != 0) {
          continue;
        }
        // Find the closest preceding recorded code constant within 64 bytes.
        uint64_t best_addr = 0, base = 0;
        for (const auto& [caddr, cval] : code_constants_) {
          if (caddr < jump_addr && jump_addr - caddr <= 64 &&
              caddr >= best_addr) {
            best_addr = caddr;
            base = cval;
          }
        }
        if (base == 0) {
          continue;
        }
        std::vector<uint64_t> entries = ReadTable(base);
        if (entries.size() < 2) {
          continue;
        }
        jump_tables_resolved_.insert(jump_addr);
        table_bases_.insert(base);
        for (uint64_t e : entries) {
          jump_targets_[jump_addr].insert(e);
          AddLeader(e);
        }
      }
    }
    // (b) Address constants that are not table bases: candidate function
    // entries (callback targets materialized for pthread_create etc.). These
    // "address-taken" functions also become the candidate target set for
    // indirect calls — the classic static over-approximation; targets
    // materialized at run time still surface as control-flow misses.
    if (options_.address_constant_heuristic) {
      for (const auto& [caddr, cval] : code_constants_) {
        if (table_bases_.count(cval) != 0) {
          continue;
        }
        if (func_entries_.count(cval) != 0) {
          address_taken_.insert(cval);
          continue;
        }
        // Sanity: the target must decode as a plausible instruction run.
        std::vector<uint8_t> code = image_.ReadBytes(cval, 16);
        if (x86::Decode(code, cval).ok()) {
          AddFunctionEntry(cval);
          address_taken_.insert(cval);
        }
      }
    }
  }

  Expected<ControlFlowGraph> BuildGraph(const std::set<uint64_t>& entries) {
    ControlFlowGraph graph;
    // Block formation: walk from each leader to the next terminator or
    // leader.
    for (uint64_t leader : leaders_) {
      BlockInfo block;
      block.start = leader;
      uint64_t addr = leader;
      while (true) {
        auto it = insts_.find(addr);
        const Inst* inst =
            (it != insts_.end() && it->second.mnemonic != Mnemonic::kInvalid)
                ? &it->second
                : nullptr;
        if (inst == nullptr) {
          // Undecodable bytes: executing here would fault.
          block.end = addr + 1;
          block.term = TermKind::kTrap;
          block.term_address = addr;
          break;
        }
        uint64_t next = inst->Next();
        if (inst->IsTerminator() || inst->IsCall()) {
          block.end = next;
          block.term_address = addr;
          if (inst->mnemonic == Mnemonic::kJmp) {
            if (inst->IsDirectTransfer()) {
              block.term = TermKind::kJump;
              block.direct_target = inst->DirectTarget();
            } else {
              block.term = TermKind::kIndirectJump;
              auto jt = jump_targets_.find(addr);
              if (jt != jump_targets_.end()) {
                block.indirect_targets = jt->second;
              }
            }
          } else if (inst->mnemonic == Mnemonic::kJcc) {
            block.term = TermKind::kCondJump;
            block.direct_target = inst->DirectTarget();
            block.fallthrough = next;
          } else if (inst->IsCall()) {
            block.fallthrough = next;
            if (inst->IsDirectTransfer()) {
              uint64_t target = inst->DirectTarget();
              if (binary::IsExternalAddress(target)) {
                block.term = TermKind::kExternalCall;
                block.external_slot = (target - binary::kExternalBase) / 16;
              } else {
                block.term = TermKind::kCall;
                block.direct_target = target;
              }
            } else {
              block.term = TermKind::kIndirectCall;
              // Candidate targets: every address-taken function.
              block.indirect_targets = address_taken_;
            }
          } else if (inst->IsRet()) {
            block.term = TermKind::kRet;
          } else {
            block.term = TermKind::kTrap;
            block.term_address = addr;
          }
          break;
        }
        if (leaders_.count(next) != 0) {
          block.end = next;
          block.term = TermKind::kFallthrough;
          block.term_address = addr;
          block.fallthrough = next;
          break;
        }
        addr = next;
      }
      graph.blocks[leader] = std::move(block);
    }

    // Function membership: BFS over intra-function edges.
    for (uint64_t entry : func_entries_) {
      FunctionInfo fn;
      fn.entry = entry;
      fn.name = StrCat("fn_", std::string(HexString(entry)).substr(2));
      std::deque<uint64_t> work{entry};
      while (!work.empty()) {
        uint64_t start = work.front();
        work.pop_front();
        if (fn.block_starts.count(start) != 0 ||
            graph.blocks.count(start) == 0) {
          continue;
        }
        fn.block_starts.insert(start);
        const BlockInfo& b = graph.blocks[start];
        switch (b.term) {
          case TermKind::kJump:
            work.push_back(b.direct_target);
            break;
          case TermKind::kCondJump:
            work.push_back(b.direct_target);
            work.push_back(b.fallthrough);
            break;
          case TermKind::kFallthrough:
          case TermKind::kCall:
          case TermKind::kIndirectCall:
          case TermKind::kExternalCall:
            work.push_back(b.fallthrough);
            break;
          case TermKind::kIndirectJump:
            for (uint64_t t : b.indirect_targets) {
              work.push_back(t);
            }
            break;
          case TermKind::kRet:
          case TermKind::kTrap:
            break;
        }
      }
      graph.functions[entry] = std::move(fn);
    }
    (void)entries;
    return graph;
  }

  const binary::Image& image_;
  const RecoverOptions& options_;

  std::map<uint64_t, Inst> insts_;
  std::set<uint64_t> explored_;
  std::set<uint64_t> leaders_;
  std::set<uint64_t> func_entries_;
  std::deque<uint64_t> pending_;
  std::set<std::pair<uint64_t, uint64_t>> code_constants_;  // (at, value)
  std::set<uint64_t> indirect_jumps_;
  std::set<uint64_t> jump_tables_resolved_;
  std::set<uint64_t> table_bases_;
  std::set<uint64_t> address_taken_;
  std::map<uint64_t, std::set<uint64_t>> jump_targets_;
};

}  // namespace

Expected<ControlFlowGraph> RecoverStatic(const binary::Image& image,
                                         const RecoverOptions& options,
                                         const std::set<uint64_t>& extra_entries) {
  std::set<uint64_t> entries = extra_entries;
  entries.insert(image.entry_point);
  return Recoverer(image, options).Run(entries);
}

Status IntegrateDiscoveredTarget(const binary::Image& image,
                                 ControlFlowGraph& graph,
                                 uint64_t transfer_address, uint64_t new_target,
                                 const RecoverOptions& options) {
  // Determine whether the miss came from a call-like or jump-like transfer.
  BlockInfo* from = graph.MutableBlockContaining(transfer_address);
  bool is_call = from != nullptr && from->term == TermKind::kIndirectCall;

  // Re-run recovery with the new target as an extra entry, keeping every
  // previously known function entry and indirect target.
  std::set<uint64_t> entries;
  for (const auto& [e, fn] : graph.functions) {
    entries.insert(e);
  }
  if (is_call || from == nullptr) {
    entries.insert(new_target);
  }
  // Save indirect targets discovered so far (tracing / previous additive
  // rounds) so the rebuild preserves them.
  std::map<uint64_t, std::set<uint64_t>> saved;
  for (const auto& [start, b] : graph.blocks) {
    if (!b.indirect_targets.empty()) {
      saved[b.term_address] = b.indirect_targets;
    }
  }
  saved[transfer_address].insert(new_target);

  // Jump targets must become leaders during re-exploration: pass them as
  // extra entries too (they will be reachable as blocks; a jump target used
  // as an "entry" simply creates an extra function we can ignore — instead we
  // add them after recovery by integrating below).
  POLY_ASSIGN_OR_RETURN(ControlFlowGraph rebuilt,
                        RecoverStatic(image, options, entries));
  // Restore + apply indirect targets; blocks for jump targets may be missing
  // if unreachable statically — add them by exploring from each target.
  bool changed = true;
  int rounds = 0;
  while (changed && rounds++ < 8) {
    changed = false;
    for (const auto& [term_addr, targets] : saved) {
      for (uint64_t t : targets) {
        if (rebuilt.blocks.count(t) == 0) {
          std::set<uint64_t> with_target = entries;
          with_target.insert(t);
          POLY_ASSIGN_OR_RETURN(rebuilt,
                                RecoverStatic(image, options, with_target));
          entries = with_target;
          changed = true;
        }
      }
    }
  }
  for (const auto& [term_addr, targets] : saved) {
    for (uint64_t t : targets) {
      rebuilt.AddIndirectTarget(term_addr, t);
    }
  }
  // Indirect-jump targets belong to the owning function: recompute function
  // membership by re-walking (cheap approximation: add target blocks to the
  // function owning the transfer).
  for (const auto& [term_addr, targets] : saved) {
    const BlockInfo* tb = rebuilt.BlockContaining(term_addr);
    if (tb == nullptr || tb->term != TermKind::kIndirectJump) {
      continue;
    }
    for (auto& [entry, fn] : rebuilt.functions) {
      if (fn.block_starts.count(tb->start) == 0) {
        continue;
      }
      // BFS from each target within this function.
      std::deque<uint64_t> work(targets.begin(), targets.end());
      while (!work.empty()) {
        uint64_t start = work.front();
        work.pop_front();
        if (rebuilt.blocks.count(start) == 0 ||
            !fn.block_starts.insert(start).second) {
          continue;
        }
        const BlockInfo& b = rebuilt.blocks[start];
        if (b.term == TermKind::kJump) {
          work.push_back(b.direct_target);
        } else if (b.term == TermKind::kCondJump) {
          work.push_back(b.direct_target);
          work.push_back(b.fallthrough);
        } else if (b.term == TermKind::kFallthrough ||
                   b.term == TermKind::kCall ||
                   b.term == TermKind::kIndirectCall ||
                   b.term == TermKind::kExternalCall) {
          work.push_back(b.fallthrough);
        } else if (b.term == TermKind::kIndirectJump) {
          for (uint64_t t2 : b.indirect_targets) {
            work.push_back(t2);
          }
        }
      }
    }
  }
  graph = std::move(rebuilt);
  return Status::Ok();
}

}  // namespace polynima::cfg
