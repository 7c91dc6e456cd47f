// Polynima's compiler IR (the LLVM-14 stand-in).
//
// Design notes (see DESIGN.md §1):
//  - One value type: i64. Narrower operations are expressed with explicit
//    masks / sign-extensions emitted by the lifter; loads zero-extend and
//    stores truncate. Comparison results are 0/1.
//  - Virtual CPU state (general-purpose registers, flags, emulated stack
//    pointer, XMM halves) lives in *globals*, accessed with dedicated
//    GlobalLoad/GlobalStore ops. Globals marked thread_local get one slot per
//    guest thread (paper §3.3.2). Guest memory is accessed with Load/Store
//    taking an i64 address.
//  - Fences are acquire/release markers with C++11 semantics; they constrain
//    the optimizer exactly as LLVM's would (see src/opt/barriers.h).
//  - SIMD instructions lift to `helper_*` intrinsic calls over the XMM-half
//    globals, mirroring QEMU-helper-based translation (and its cost).
#ifndef POLYNIMA_IR_IR_H_
#define POLYNIMA_IR_IR_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/support/check.h"

namespace polynima::ir {

class Instruction;
class BasicBlock;
class Function;
class Module;

// ---------------------------------------------------------------------------
// Values
// ---------------------------------------------------------------------------

class Value {
 public:
  enum class Kind : uint8_t {
    kInstruction,
    kConstant,
    kArgument,
    kGlobal,
    kFunction,
    kBlock,
  };

  explicit Value(Kind kind) : kind_(kind) {}
  virtual ~Value() = default;
  Value(const Value&) = delete;
  Value& operator=(const Value&) = delete;

  Kind kind() const { return kind_; }
  bool is_inst() const { return kind_ == Kind::kInstruction; }
  bool is_const() const { return kind_ == Kind::kConstant; }

  // Use lists are maintained only for function-local values (instructions
  // and arguments). Constants, globals and functions are shared by every
  // function in the module: tracking their users would make unrelated
  // functions contend on (and race over) one vector during parallel lifting
  // and optimization, and nothing consumes those lists — the passes and the
  // execution engine only ever walk the users of instruction results.
  bool tracks_users() const {
    return kind_ == Kind::kInstruction || kind_ == Kind::kArgument;
  }

  const std::vector<Instruction*>& users() const { return users_; }
  void AddUser(Instruction* user) {
    if (tracks_users()) {
      users_.push_back(user);
    }
  }
  void RemoveUser(Instruction* user);
  // Rewrites every use of this value to `replacement`. Only valid on values
  // that track users.
  void ReplaceAllUsesWith(Value* replacement);

 private:
  Kind kind_;
  std::vector<Instruction*> users_;
};

class Constant : public Value {
 public:
  explicit Constant(int64_t value)
      : Value(Kind::kConstant), value_(value) {}
  int64_t value() const { return value_; }

 private:
  int64_t value_;
};

class Argument : public Value {
 public:
  Argument(std::string name, int index)
      : Value(Kind::kArgument), name_(std::move(name)), index_(index) {}
  const std::string& name() const { return name_; }
  int index() const { return index_; }

 private:
  std::string name_;
  int index_;
};

// A host-side storage cell (virtual register, flag, emulated rsp, ...).
// thread_local globals have one slot per guest thread.
class Global : public Value {
 public:
  Global(std::string name, bool is_thread_local, int64_t initial, int slot)
      : Value(Kind::kGlobal),
        name_(std::move(name)),
        thread_local_(is_thread_local),
        initial_(initial),
        slot_(slot) {}

  const std::string& name() const { return name_; }
  bool is_thread_local() const { return thread_local_; }
  int64_t initial() const { return initial_; }
  int slot() const { return slot_; }

 private:
  std::string name_;
  bool thread_local_;
  int64_t initial_;
  int slot_;  // index into the execution engine's global arrays
};

// ---------------------------------------------------------------------------
// Instructions
// ---------------------------------------------------------------------------

enum class Op : uint8_t {
  // Arithmetic / bitwise (2 operands).
  kAdd,
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
  // Comparison (pred field) -> 0/1.
  kICmp,
  // Select(cond, a, b).
  kSelect,
  // Sign-extend from `width` bits.
  kSExt,
  // Guest memory access (size field; loads zero-extend).
  kLoad,
  kStore,
  // Virtual-state access (global field).
  kGlobalLoad,
  kGlobalStore,
  // Control flow.
  kBr,      // operands: [cond]; targets: 1 or 2 blocks
  kSwitch,  // operand: value; targets: default + (case_values[i] -> blocks)
  kRet,     // operands: [] or [value]
  kUnreachable,
  // Calls: direct (callee function) or intrinsic (Intrinsic field).
  kCall,
  kPhi,
  // Concurrency.
  kFence,      // fence_order field
  kAtomicRmw,  // rmw_op + size; operands: addr, operand -> old value
  kCmpXchg,    // size; operands: addr, expected, desired -> witnessed value
};

enum class Pred : uint8_t {
  kEq,
  kNe,
  kSlt,
  kSle,
  kSgt,
  kSge,
  kUlt,
  kUle,
  kUgt,
  kUge,
};

enum class FenceOrder : uint8_t { kAcquire, kRelease, kSeqCst };

enum class RmwOp : uint8_t { kAdd, kSub, kAnd, kOr, kXor, kXchg };

// The engine intrinsics a callee-less kCall invokes, one per intrinsic the
// lifter emits. kIntrinsics in src/ir/semantics.h holds a row for each.
enum class Intrinsic : uint8_t {
  kExtCall,
  kCfmiss,
  kTrap,
  kParity,
  kPause,
  kHelperPaddd,
  kHelperPsubd,
  kHelperPmulld,
  kSimdPaddd,
  kSimdPsubd,
  kSimdPmulld,
  kHelperMulh,
  kHelperSdiv128,
  kHelperSrem128,
  kGlobalLock,
  kGlobalUnlock,
};

// Machine-checkable justification for a memory access lifted WITHOUT its
// x86-TSO ordering fence (§3.3.4). The TSO checker (src/check) re-derives
// each claim; an access whose witness fails re-verification is a soundness
// violation, not a warning.
enum class FenceWitness : uint8_t {
  kNone,        // no elision claimed: the access needs a fence on every path
  kStackLocal,  // lifter's escape analysis proved the address is thread-stack
  kHeapLocal,   // static concurrency analysis (src/analyze) proved the
                // address derives from a non-escaping same-thread allocation;
                // only valid under a sealed check::StaticCert
};

const char* OpName(Op op);
const char* PredName(Pred pred);

class Instruction : public Value {
 public:
  explicit Instruction(Op op) : Value(Kind::kInstruction), op_(op) {}
  ~Instruction() override;

  Op op() const { return op_; }
  BasicBlock* parent() const { return parent_; }
  void set_parent(BasicBlock* parent) { parent_ = parent; }

  int num_operands() const { return static_cast<int>(operands_.size()); }
  Value* operand(int i) const { return operands_[static_cast<size_t>(i)]; }
  void SetOperand(int i, Value* v);
  void AddOperand(Value* v);
  // Drops all operand uses (called before deletion).
  void DropOperands();

  // Whether the instruction produces a value.
  bool HasResult() const;
  bool IsTerminator() const {
    return op_ == Op::kBr || op_ == Op::kSwitch || op_ == Op::kRet ||
           op_ == Op::kUnreachable;
  }

  // --- per-op extra state ---
  Pred pred = Pred::kEq;             // kICmp
  int width = 64;                    // kSExt: source width in bits
  int size = 8;                      // kLoad/kStore/kAtomicRmw/kCmpXchg bytes
  Global* global = nullptr;          // kGlobalLoad/kGlobalStore
  FenceOrder fence_order = FenceOrder::kSeqCst;
  RmwOp rmw_op = RmwOp::kAdd;
  Intrinsic intrinsic = Intrinsic::kExtCall;  // kCall, when callee is null
  Function* callee = nullptr;        // kCall (direct)
  std::vector<BasicBlock*> targets;  // kBr/kSwitch successors
  std::vector<int64_t> case_values;  // kSwitch (parallel to targets[1..])
  std::vector<BasicBlock*> phi_blocks;  // kPhi incoming blocks
  // kLoad/kStore: why the lifter elided this access's TSO fence.
  FenceWitness fence_witness = FenceWitness::kNone;

  // Printing / interpretation id (assigned by Function::Renumber).
  int id = -1;

 private:
  Op op_;
  BasicBlock* parent_ = nullptr;
  std::vector<Value*> operands_;
};

class BasicBlock : public Value {
 public:
  explicit BasicBlock(std::string name)
      : Value(Kind::kBlock), name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  Function* function() const { return function_; }
  void set_function(Function* f) { function_ = f; }

  using InstList = std::list<std::unique_ptr<Instruction>>;
  InstList& insts() { return insts_; }
  const InstList& insts() const { return insts_; }

  Instruction* Append(std::unique_ptr<Instruction> inst);
  // Inserts before `pos`; returns the raw pointer.
  Instruction* InsertBefore(InstList::iterator pos,
                            std::unique_ptr<Instruction> inst);
  // Unlinks and destroys the instruction at `pos`; returns next iterator.
  InstList::iterator Erase(InstList::iterator pos);

  Instruction* terminator() const {
    return insts_.empty() ? nullptr : insts_.back().get();
  }
  std::vector<BasicBlock*> Successors() const;

  // Original-binary address this block was lifted from (0 if synthetic).
  uint64_t guest_address = 0;

 private:
  std::string name_;
  Function* function_ = nullptr;
  InstList insts_;
};

class Function : public Value {
 public:
  Function(std::string name, int num_args, bool has_result)
      : Value(Kind::kFunction),
        name_(std::move(name)),
        has_result_(has_result) {
    for (int i = 0; i < num_args; ++i) {
      args_.push_back(std::make_unique<Argument>("arg" + std::to_string(i), i));
    }
  }
  // Break all def-use links before members are destroyed: instructions may
  // reference values in earlier-destroyed blocks (or earlier list entries),
  // and ~Instruction must not touch freed use lists.
  ~Function() override;

  const std::string& name() const { return name_; }
  bool has_result() const { return has_result_; }

  BasicBlock* AddBlock(std::string block_name);
  const std::vector<std::unique_ptr<BasicBlock>>& blocks() const {
    return blocks_;
  }
  std::vector<std::unique_ptr<BasicBlock>>& blocks() { return blocks_; }
  BasicBlock* entry() const {
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }
  Argument* arg(int i) { return args_[static_cast<size_t>(i)].get(); }
  int num_args() const { return static_cast<int>(args_.size()); }

  // Removes a block (must be unreferenced).
  void RemoveBlock(BasicBlock* block);

  // Assigns dense instruction ids (printing + interpretation). Returns the
  // total number of value-producing slots.
  int Renumber();

  // Guest address of the original function (0 if synthetic).
  uint64_t guest_entry = 0;
  // Marked external: may be entered from outside (callback / thread entry);
  // such functions must be preserved and are not inlined away (§3.3.3).
  bool is_external_entry = false;
  // The lifter detected an rbp-based frame: rbp holds a stack address for
  // the whole body, so the TSO checker may treat vr_rbp as a stack root.
  bool frame_pointer = false;

 private:
  std::string name_;
  bool has_result_;
  std::vector<std::unique_ptr<Argument>> args_;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
};

class Module {
 public:
  Module() = default;
  // ~Function drops instruction operands, which unregisters uses on the
  // shared constants and globals; members destruct in reverse declaration
  // order, so destroy the functions explicitly while the pools are alive.
  ~Module() { functions_.clear(); }

  Function* AddFunction(std::string name, int num_args, bool has_result);
  Function* GetFunction(const std::string& name) const;
  const std::vector<std::unique_ptr<Function>>& functions() const {
    return functions_;
  }
  std::vector<std::unique_ptr<Function>>& functions() { return functions_; }
  void RemoveFunction(Function* f);

  Global* AddGlobal(const std::string& name, bool is_thread_local,
                    int64_t initial = 0);
  Global* GetGlobal(const std::string& name) const;
  const std::vector<std::unique_ptr<Global>>& globals() const {
    return globals_;
  }
  int num_global_slots() const { return next_slot_; }

  // Thread-safe: the constant pool is the only module state shared by
  // concurrent per-function lift/optimize workers.
  Constant* GetConstant(int64_t value);

 private:
  std::vector<std::unique_ptr<Function>> functions_;
  std::vector<std::unique_ptr<Global>> globals_;
  std::map<std::string, Global*> globals_by_name_;
  std::mutex constants_mu_;
  std::map<int64_t, std::unique_ptr<Constant>> constants_;
  int next_slot_ = 0;
};

}  // namespace polynima::ir

#endif  // POLYNIMA_IR_IR_H_
