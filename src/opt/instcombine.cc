#include "src/opt/passes.h"

#include "src/ir/semantics.h"

namespace polynima::opt {

using ir::BasicBlock;
using ir::Constant;
using ir::Function;
using ir::Instruction;
using ir::Module;
using ir::Op;
using ir::Pred;
using ir::Value;

namespace {

bool GetConst(const Value* v, int64_t& out) {
  if (!v->is_const()) {
    return false;
  }
  out = static_cast<const Constant*>(v)->value();
  return true;
}

// Number of guaranteed-zero high bits of `v` (cheap recursive bound).
int KnownZeroHighBits(const Value* v, int depth = 0) {
  if (depth > 4) {
    return 0;
  }
  int64_t c;
  if (GetConst(v, c)) {
    if (c < 0) {
      return 0;
    }
    int bits = 0;
    uint64_t u = static_cast<uint64_t>(c);
    while (bits < 64 && (u & (uint64_t{1} << 63)) == 0) {
      u <<= 1;
      ++bits;
    }
    return bits;
  }
  if (!v->is_inst()) {
    return 0;
  }
  const auto* inst = static_cast<const Instruction*>(v);
  switch (inst->op()) {
    case Op::kLoad:
      return 64 - inst->size * 8;
    case Op::kICmp:
      return 63;
    case Op::kAnd: {
      int a = KnownZeroHighBits(inst->operand(0), depth + 1);
      int b = KnownZeroHighBits(inst->operand(1), depth + 1);
      return std::max(a, b);
    }
    case Op::kOr:
    case Op::kXor: {
      int a = KnownZeroHighBits(inst->operand(0), depth + 1);
      int b = KnownZeroHighBits(inst->operand(1), depth + 1);
      return std::min(a, b);
    }
    case Op::kLShr: {
      int64_t sh;
      if (GetConst(inst->operand(1), sh) && sh >= 0 && sh < 64) {
        int base = KnownZeroHighBits(inst->operand(0), depth + 1);
        return std::min<int>(64, base + static_cast<int>(sh));
      }
      return 0;
    }
    case Op::kSelect: {
      int a = KnownZeroHighBits(inst->operand(1), depth + 1);
      int b = KnownZeroHighBits(inst->operand(2), depth + 1);
      return std::min(a, b);
    }
    case Op::kPhi: {
      // Bounded: only consider constant incomings conservatively.
      return 0;
    }
    default:
      return 0;
  }
}

// ---------------------------------------------------------------------------
// Flag fusion: the lifter materializes EFLAGS bits as expression trees
// (sign-bit extracts, overflow formulas); branch conditions built from them
// collapse back to single comparisons — the cmp+jcc fusion every binary
// lifter needs to reach native-quality branches.
// ---------------------------------------------------------------------------

Value* StripSExt(Value* v) {
  if (v->is_inst()) {
    auto* inst = static_cast<Instruction*>(v);
    if (inst->op() == Op::kSExt) {
      return inst->operand(0);
    }
  }
  return v;
}


// Matches and(lshr(X, k), 1) — the sign-bit extract of X at width k+1 — or
// the bare lshr(X, 63) form left after the and-with-1 folds away.
bool MatchBitExtract(Value* v, Value*& x, int& shift) {
  if (!v->is_inst()) {
    return false;
  }
  auto* a = static_cast<Instruction*>(v);
  Value* inner = nullptr;
  if (a->op() == Op::kAnd) {
    int64_t one;
    if (GetConst(a->operand(1), one) && one == 1) {
      inner = a->operand(0);
    } else if (GetConst(a->operand(0), one) && one == 1) {
      inner = a->operand(1);
    } else {
      return false;
    }
  } else if (a->op() == Op::kLShr) {
    inner = a;
  } else {
    return false;
  }
  if (!inner->is_inst()) {
    return false;
  }
  auto* shr = static_cast<Instruction*>(inner);
  if (shr->op() != Op::kLShr) {
    return false;
  }
  int64_t k;
  if (!GetConst(shr->operand(1), k) || k < 0 || k > 63) {
    return false;
  }
  if (inner == a) {
    // A bare lshr is a single-bit extract only when the shifted operand has
    // at most k+1 significant bits (the and-with-1 folded away because of
    // that known-bits fact).
    if (k != 63 &&
        KnownZeroHighBits(shr->operand(0)) < 64 - static_cast<int>(k) - 1) {
      return false;
    }
  }
  x = shr->operand(0);
  shift = static_cast<int>(k);
  return true;
}

// Matches xor(A, B) commutatively against a predicate on operands.
bool MatchXorPair(Value* v, Value* want_a, Value*& other) {
  if (!v->is_inst()) {
    return false;
  }
  auto* x = static_cast<Instruction*>(v);
  if (x->op() != Op::kXor) {
    return false;
  }
  if (x->operand(0) == want_a) {
    other = x->operand(1);
    return true;
  }
  if (x->operand(1) == want_a) {
    other = x->operand(0);
    return true;
  }
  return false;
}

// Matches R as the width-w result of sub(A, B): either and(sub(A,B), 2^w-1)
// or a bare sub for w == 64. Returns A, B.
bool MatchSubResult(Value* r, int width_bits, Value*& a, Value*& b) {
  Value* sub = r;
  if (width_bits < 64) {
    if (!r->is_inst()) {
      return false;
    }
    auto* m = static_cast<Instruction*>(r);
    int64_t mask;
    if (m->op() != Op::kAnd || !GetConst(m->operand(1), mask) ||
        mask != static_cast<int64_t>((uint64_t{1} << width_bits) - 1)) {
      return false;
    }
    sub = m->operand(0);
  }
  if (!sub->is_inst()) {
    return false;
  }
  auto* s = static_cast<Instruction*>(sub);
  if (s->op() != Op::kSub) {
    return false;
  }
  a = s->operand(0);
  b = s->operand(1);
  return true;
}

// Tries to rewrite `inst` (an xor/or over flag bits) into a single icmp.
// May insert helper instructions (sexts, the icmp) before `pos`. Returns the
// replacement value or nullptr.
Value* TryFuseFlags(Instruction* inst, BasicBlock* block,
                    BasicBlock::InstList::iterator pos, Module& m) {
  auto insert = [&](std::unique_ptr<Instruction> i) {
    return block->InsertBefore(pos, std::move(i));
  };
  auto make_icmp = [&](Pred pred, Value* a, Value* b) {
    auto i = std::make_unique<Instruction>(Op::kICmp);
    i->pred = pred;
    i->AddOperand(a);
    i->AddOperand(b);
    return insert(std::move(i));
  };
  auto make_sext = [&](Value* v, int width_bits) -> Value* {
    if (width_bits >= 64) {
      return v;
    }
    auto i = std::make_unique<Instruction>(Op::kSExt);
    i->width = width_bits;
    i->AddOperand(v);
    return insert(std::move(i));
  };
  auto negate = [](Pred pred) {
    switch (pred) {
      case Pred::kEq:
        return Pred::kNe;
      case Pred::kNe:
        return Pred::kEq;
      case Pred::kSlt:
        return Pred::kSge;
      case Pred::kSle:
        return Pred::kSgt;
      case Pred::kSgt:
        return Pred::kSle;
      case Pred::kSge:
        return Pred::kSlt;
      case Pred::kUlt:
        return Pred::kUge;
      case Pred::kUle:
        return Pred::kUgt;
      case Pred::kUgt:
        return Pred::kUle;
      case Pred::kUge:
        return Pred::kUlt;
    }
    return Pred::kEq;
  };

  if (inst->op() == Op::kXor) {
    // xor(icmp, 1) -> inverted icmp.
    for (int ci = 0; ci < 2; ++ci) {
      int64_t c;
      if (GetConst(inst->operand(ci), c) && c == 1 &&
          inst->operand(1 - ci)->is_inst()) {
        auto* cmp = static_cast<Instruction*>(inst->operand(1 - ci));
        if (cmp->op() == Op::kICmp) {
          return make_icmp(negate(cmp->pred), cmp->operand(0),
                           cmp->operand(1));
        }
      }
    }
    // xor(signbit(R), signbit(and(xor(A,B), xor(A,R)))) -> slt at width w.
    Value* x0;
    Value* x1;
    int k0, k1;
    if (MatchBitExtract(inst->operand(0), x0, k0) &&
        MatchBitExtract(inst->operand(1), x1, k1) && k0 == k1) {
      const int width = k0 + 1;
      for (int swap = 0; swap < 2; ++swap) {
        Value* res = swap == 0 ? x0 : x1;
        Value* ovf = swap == 0 ? x1 : x0;
        if (!ovf->is_inst()) {
          continue;
        }
        auto* and_inst = static_cast<Instruction*>(ovf);
        if (and_inst->op() != Op::kAnd) {
          continue;
        }
        // and(xor(A,B), xor(A,R)) in either operand order, A shared.
        for (int side = 0; side < 2; ++side) {
          Value* p = and_inst->operand(side);
          Value* q = and_inst->operand(1 - side);
          if (!p->is_inst() || !q->is_inst()) {
            continue;
          }
          auto* px = static_cast<Instruction*>(p);
          auto* qx = static_cast<Instruction*>(q);
          if (px->op() != Op::kXor || qx->op() != Op::kXor) {
            continue;
          }
          // q must be xor(A, R) (commutative); p must be xor(A, B).
          for (int qi = 0; qi < 2; ++qi) {
            if (qx->operand(qi) != res) {
              continue;
            }
            Value* a = qx->operand(1 - qi);
            Value* b;
            if (!MatchXorPair(p, a, b)) {
              continue;
            }
            Value* sa;
            Value* sb;
            if (!MatchSubResult(res, width, sa, sb) || sa != a || sb != b) {
              continue;
            }
            return make_icmp(Pred::kSlt, make_sext(a, width),
                             make_sext(b, width));
          }
        }
      }
    }
    return nullptr;
  }

  if (inst->op() == Op::kOr) {
    // or(icmp slt/ult(X,Y), icmp eq(A,B)) -> icmp sle/ule when the operand
    // pairs agree modulo sign extension.
    for (int side = 0; side < 2; ++side) {
      Value* lt = inst->operand(side);
      Value* eq = inst->operand(1 - side);
      if (!lt->is_inst() || !eq->is_inst()) {
        continue;
      }
      auto* lti = static_cast<Instruction*>(lt);
      auto* eqi = static_cast<Instruction*>(eq);
      if (lti->op() != Op::kICmp || eqi->op() != Op::kICmp ||
          eqi->pred != Pred::kEq) {
        continue;
      }
      if (lti->pred != Pred::kSlt && lti->pred != Pred::kUlt) {
        continue;
      }
      Value* x = StripSExt(lti->operand(0));
      Value* y = StripSExt(lti->operand(1));
      bool direct = x == StripSExt(eqi->operand(0)) &&
                    y == StripSExt(eqi->operand(1));
      bool swapped = x == StripSExt(eqi->operand(1)) &&
                     y == StripSExt(eqi->operand(0));
      if (!direct && !swapped) {
        // Also accept eq(R, 0) with R = sub(x, y).
        int64_t zero;
        Value* ra;
        Value* rb;
        bool eq_sub = GetConst(eqi->operand(1), zero) && zero == 0 &&
                      (MatchSubResult(eqi->operand(0), 64, ra, rb) ||
                       MatchSubResult(eqi->operand(0), 32, ra, rb) ||
                       MatchSubResult(eqi->operand(0), 16, ra, rb) ||
                       MatchSubResult(eqi->operand(0), 8, ra, rb));
        if (!(eq_sub && StripSExt(ra) == x && StripSExt(rb) == y)) {
          continue;
        }
      }
      return make_icmp(lti->pred == Pred::kSlt ? Pred::kSle : Pred::kUle,
                       lti->operand(0), lti->operand(1));
    }
    return nullptr;
  }

  if (inst->op() == Op::kICmp &&
      (inst->pred == Pred::kEq || inst->pred == Pred::kNe)) {
    // icmp eq/ne(R, 0) with R = masked sub(A, B) and A, B within the width
    // -> icmp eq/ne(A, B).
    int64_t zero;
    if (GetConst(inst->operand(1), zero) && zero == 0) {
      for (int w : {64, 32, 16, 8}) {
        Value* a;
        Value* b;
        if (!MatchSubResult(inst->operand(0), w, a, b)) {
          continue;
        }
        if (w < 64 && (KnownZeroHighBits(a) < 64 - w ||
                       KnownZeroHighBits(b) < 64 - w)) {
          continue;
        }
        return make_icmp(inst->pred, a, b);
      }
    }
    return nullptr;
  }
  return nullptr;
}

}  // namespace

bool InstCombine(Function& f, Module& m) {
  bool changed = false;
  for (auto& block : f.blocks()) {
    for (auto it = block->insts().begin(); it != block->insts().end();) {
      Instruction* inst = it->get();
      Value* replacement = nullptr;

      if (inst->op() == Op::kXor || inst->op() == Op::kOr ||
          inst->op() == Op::kICmp) {
        replacement = TryFuseFlags(inst, block.get(), it, m);
        if (replacement != nullptr) {
          inst->ReplaceAllUsesWith(replacement);
          it = block->Erase(it);
          changed = true;
          continue;
        }
      }

      if (ir::IsBinary(inst->op())) {
        int64_t a, b;
        bool ca = GetConst(inst->operand(0), a);
        bool cb = GetConst(inst->operand(1), b);
        if (ca && cb) {
          // A faulting pair stays unfolded: the fault happens at run time.
          ir::BinaryResult r =
              ir::EvalBinary(inst->op(), static_cast<uint64_t>(a),
                             static_cast<uint64_t>(b));
          if (r.ok()) {
            replacement = m.GetConstant(static_cast<int64_t>(r.value));
          }
        } else if (cb) {
          // Identities with constant rhs.
          switch (inst->op()) {
            case Op::kAdd:
            case Op::kSub:
            case Op::kOr:
            case Op::kXor:
            case Op::kShl:
            case Op::kLShr:
            case Op::kAShr:
              if (b == 0) {
                replacement = inst->operand(0);
              }
              break;
            case Op::kMul:
              if (b == 1) {
                replacement = inst->operand(0);
              } else if (b == 0) {
                replacement = m.GetConstant(0);
              }
              break;
            case Op::kAnd:
              if (b == -1) {
                replacement = inst->operand(0);
              } else if (b == 0) {
                replacement = m.GetConstant(0);
              } else if (b > 0) {
                // and(x, 2^k - 1) is a no-op when x's high bits are zero.
                uint64_t mask = static_cast<uint64_t>(b);
                if ((mask & (mask + 1)) == 0) {
                  int mask_bits = 64 - __builtin_clzll(mask);
                  if (KnownZeroHighBits(inst->operand(0)) >= 64 - mask_bits) {
                    replacement = inst->operand(0);
                  }
                }
                // and(and(x, c1), c2) -> and(x, c1 & c2)
                if (replacement == nullptr && inst->operand(0)->is_inst()) {
                  auto* lhs = static_cast<Instruction*>(inst->operand(0));
                  int64_t c1;
                  if (lhs->op() == Op::kAnd &&
                      GetConst(lhs->operand(1), c1)) {
                    inst->SetOperand(0, lhs->operand(0));
                    inst->SetOperand(1, m.GetConstant(c1 & b));
                    changed = true;
                  }
                }
              }
              break;
            default:
              break;
          }
        } else if (ca && a == 0 &&
                   (inst->op() == Op::kAdd || inst->op() == Op::kOr ||
                    inst->op() == Op::kXor)) {
          replacement = inst->operand(1);
        } else if (inst->operand(0) == inst->operand(1)) {
          // Same-operand identities.
          switch (inst->op()) {
            case Op::kXor:
            case Op::kSub:
              replacement = m.GetConstant(0);
              break;
            case Op::kAnd:
            case Op::kOr:
              replacement = inst->operand(0);
              break;
            default:
              break;
          }
        }
      } else if (inst->op() == Op::kICmp) {
        int64_t a, b;
        if (GetConst(inst->operand(0), a) && GetConst(inst->operand(1), b)) {
          replacement = m.GetConstant(static_cast<int64_t>(ir::EvalPred(
              inst->pred, static_cast<uint64_t>(a), static_cast<uint64_t>(b))));
        } else if (inst->operand(0) == inst->operand(1)) {
          switch (inst->pred) {
            case Pred::kEq:
            case Pred::kSle:
            case Pred::kSge:
            case Pred::kUle:
            case Pred::kUge:
              replacement = m.GetConstant(1);
              break;
            default:
              replacement = m.GetConstant(0);
              break;
          }
        }
      } else if (inst->op() == Op::kSelect) {
        int64_t c;
        if (GetConst(inst->operand(0), c)) {
          replacement = c != 0 ? inst->operand(1) : inst->operand(2);
        } else if (inst->operand(1) == inst->operand(2)) {
          replacement = inst->operand(1);
        }
      } else if (inst->op() == Op::kSExt) {
        int64_t a;
        if (GetConst(inst->operand(0), a)) {
          replacement = m.GetConstant(static_cast<int64_t>(
              ir::SignExtend(static_cast<uint64_t>(a), inst->width)));
        } else if (KnownZeroHighBits(inst->operand(0)) >=
                   64 - inst->width + 1) {
          // The sign bit of the narrow value is guaranteed zero: sext is a
          // no-op.
          replacement = inst->operand(0);
        }
      } else if (inst->op() == Op::kPhi) {
        // Trivial phi: all incoming values identical (ignoring self-refs).
        Value* same = nullptr;
        bool trivial = true;
        for (int i = 0; i < inst->num_operands(); ++i) {
          Value* v = inst->operand(i);
          if (v == inst) {
            continue;
          }
          if (same != nullptr && v != same) {
            trivial = false;
            break;
          }
          same = v;
        }
        if (trivial && same != nullptr) {
          replacement = same;
        }
      }

      if (replacement != nullptr && replacement != inst) {
        inst->ReplaceAllUsesWith(replacement);
        it = block->Erase(it);
        changed = true;
        continue;
      }
      ++it;
    }
  }
  return changed;
}

}  // namespace polynima::opt
