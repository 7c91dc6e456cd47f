// Tier-1 execution backend: direct-threaded bytecode with superinstructions.
//
// The interpreter (tier 0) walks `std::list<unique_ptr<Instruction>>` with a
// virtual-dispatch-sized switch per IR instruction. Hot functions deserve
// better: the translator flattens every covered block into a dense TInst
// array, pre-resolving operand slots, constants (interned into a pool
// appended to the frame's value array), branch targets (bytecode pcs, not
// block pointers), callees (FuncInfo*, no map lookup) and the cost model.
// Execution is a loop with one switch per TInst over that array — no list
// traversal, no operand-kind dispatch, no per-instruction map lookups. What
// each operation computes comes from src/ir/semantics.h, as in tier 0.
//
// Superinstructions fuse the patterns the cost model says dominate:
//   kCmpBr              icmp + conditional branch on it
//   kLoadOp             load + single-use ALU consumer
//   kLoadBI/kLoadBIS    add(base, index[<<scale]) folded into a load
//   kStoreBI/kStoreBIS  same folding for stores
//   kFenceStore         fence immediately followed by a store (TSO pattern)
// Fusion must not change what the scheduler can observe, so under a
// controlled scheduler only kCmpBr (both components provably thread-private)
// stays enabled; every other fusion is built only for free-running modes.
//
// Guards (DESIGN.md §4f): translated code deoptimizes to tier 0 when
//   - a store targets an executable image range (kSmcWrite),
//   - a branch takes an edge into an uncovered block (kUncoveredEdge) —
//     blocks holding cfmiss/trap/unreachable are never translated,
//   - a controlled scheduler needs to own a visible operation (kPreempt).
// Every TInst carries its source block and instruction-list anchor, so
// deopt is: flip Frame::translated, set (block, it) from the TInst, done —
// the value array is already the interpreter's.
#ifndef POLYNIMA_EXEC_TIER1_H_
#define POLYNIMA_EXEC_TIER1_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "src/exec/backend.h"
#include "src/ir/ir.h"

namespace polynima::exec {

class Engine;
struct IrCostModel;

// Tier-1 opcodes.
enum class TOp : uint8_t {
  // ALU, one per IR op so the executor body is branch-free per case. This
  // block mirrors ir::Op's kAdd..kAShr in order (static_assert in tier1.cc).
  kAdd = 0,
  kSub,
  kMul,
  kSDiv,
  kSRem,
  kUDiv,
  kURem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kLShr,
  kAShr,
  kICmp,     // extra = Pred
  kSelect,   // a ? b : c
  kSExt,     // extra = source width
  kLoad,     // v[dst] = mem[v[a]]
  kStore,    // mem[v[a]] = v[b]  (SMC-guarded)
  kGlobalLoadTls,
  kGlobalLoadShared,
  kGlobalStoreTls,
  kGlobalStoreShared,
  kFence,
  kAtomicRmw,  // extra = RmwOp
  kCmpXchg,
  kJmp,     // aux = BrTarget index
  kBrCond,  // a = cond slot, aux = BrInfo index
  kSwitch,  // a = value slot, aux = SwitchInfo index
  kRet,     // a = value slot or kNoDst for void
  kCall,    // aux = call-pool index (pre-resolved FuncInfo*)
  kIntrinsic,  // anchored: executed by the engine's interpreter helper;
               // extra = ir::SchedClass
  kCopy,       // v[dst] = v[a] (edge-stub phi moves)
  kDeopt,      // extra = DeoptReason; transfer to tier 0 at the anchor
  // Superinstructions.
  kCmpBr,      // icmp (extra = Pred) + branch, aux = BrInfo index
  kLoadOp,     // v[dst] = v[c] op= mem[v[a]]; extra = fused ALU TOp
  kLoadBI,     // v[dst] = mem[v[a] + v[b]]
  kLoadBIS,    // v[dst] = mem[v[a] + (v[b] << extra)]
  kStoreBI,    // mem[v[a] + v[b]] = v[c]
  kStoreBIS,   // mem[v[a] + (v[b] << extra)] = v[c]
  kFenceStore, // fence; mem[v[a]] = v[b]
  kNumTOps,
};

constexpr uint32_t kNoDst = 0xffffffffu;

// One translated operation. 64 bytes; the executor reads it once per step.
struct TInst {
  TOp op = TOp::kDeopt;
  uint8_t size = 8;      // memory operand width
  uint8_t extra = 0;     // pred / rmw op / scale / fused TOp / deopt reason
  uint8_t n_instrs = 1;  // IR instructions this TInst retires (profile)
  uint8_t jitter = 0;    // cost-jitter draws (one per non-folded component)
  uint32_t cost = 0;     // pre-summed base cycles of all fused components
  uint32_t a = 0, b = 0, c = 0;  // value-array operand slots
  uint32_t dst = kNoDst;
  uint32_t aux = 0;  // pool index (branch/switch/call) per op
  uint32_t site = 0; // profile site of the source block
  // Deopt anchor: the interpreter resumes at exactly this position.
  ir::BasicBlock* block = nullptr;
  ir::BasicBlock::InstList::const_iterator anchor;
};

struct BrTarget {
  uint32_t tpc = 0;           // bytecode target (edge stub or block head)
  ir::BasicBlock* block = nullptr;
  uint32_t site = 0;          // profile site of the destination block
};

struct BrInfo {
  BrTarget then_t, else_t;
};

struct SwitchInfo {
  std::vector<std::pair<uint64_t, BrTarget>> cases;
  BrTarget default_t;
};

// One function's translation. Immutable once built; shared_ptr because a
// deopt can race destruction in no scenario today, but frames outliving a
// hypothetical retranslation is cheap insurance.
struct Translation {
  std::vector<TInst> code;
  std::vector<BrInfo> brs;
  std::vector<SwitchInfo> switches;
  std::vector<FuncInfo*> calls;
  std::vector<uint64_t> const_pool;
  // Bytecode pc of each covered block's post-phi head (tier-up entry).
  std::map<const ir::BasicBlock*, uint32_t> block_heads;
  // values array layout: [0, num_slots) IR results, then const pool, then
  // phi scratch.
  int num_slots = 0;
  uint32_t const_base = 0;
  uint32_t scratch_base = 0;
  uint32_t num_values = 0;
};

// Simulated cycles of a binary op and of a switch over `num_cases` cases
// (dispatch grows with the target set: switch-on-PC, §3.2). Tier 0 charges
// the same.
uint64_t AluBaseCost(ir::Op op, const IrCostModel& c);
uint64_t SwitchCost(size_t num_cases);

class Tier1Backend : public Backend {
 public:
  explicit Tier1Backend(Engine& e) : e_(e) {}

  const char* name() const override { return "tier1"; }
  bool Step(Thread& t, StepMode mode) override;

  // Builds info->translation. Returns false (and sets translation_failed)
  // when the function is untranslatable (uncovered entry block).
  bool Translate(FuncInfo* info);

  // Classification of a tier-1 frame's next operation (mirrors the
  // interpreter's ClassifyNextOp kinds exactly; `t` supplies the emulated-
  // stack bounds for the private-access test).
  NextOp Classify(const Thread& t, const Frame& f) const;

  // Block the frame currently executes (Frame::block is stale in tier 1).
  ir::BasicBlock* CurrentBlock(const Frame& f) const;

  // Grows f.values to cover the const pool + scratch slots.
  static void EnsureTier1Values(Frame& f);

 private:
  template <bool kObs>
  bool StepImpl(Thread& t, StepMode mode);

  // Transfers the top frame to tier 0 at ti's anchor and records why.
  void Deopt(Thread& t, Frame& f, const TInst& ti, DeoptReason reason);

  Engine& e_;
};

}  // namespace polynima::exec

#endif  // POLYNIMA_EXEC_TIER1_H_
