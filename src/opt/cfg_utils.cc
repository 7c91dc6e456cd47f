#include <algorithm>
#include <set>

#include "src/opt/passes.h"

namespace polynima::opt {

using ir::BasicBlock;
using ir::Function;
using ir::Instruction;
using ir::Op;

std::map<BasicBlock*, std::vector<BasicBlock*>> Predecessors(Function& f) {
  std::map<BasicBlock*, std::vector<BasicBlock*>> preds;
  for (auto& block : f.blocks()) {
    preds[block.get()];  // ensure presence
    for (BasicBlock* succ : block->Successors()) {
      preds[succ].push_back(block.get());
    }
  }
  return preds;
}

std::vector<BasicBlock*> ReversePostOrder(Function& f) {
  std::vector<BasicBlock*> order;
  std::set<BasicBlock*> visited;
  std::vector<std::pair<BasicBlock*, size_t>> stack;
  BasicBlock* entry = f.entry();
  if (entry == nullptr) {
    return order;
  }
  stack.push_back({entry, 0});
  visited.insert(entry);
  while (!stack.empty()) {
    auto& [block, idx] = stack.back();
    std::vector<BasicBlock*> succs = block->Successors();
    if (idx < succs.size()) {
      BasicBlock* next = succs[idx++];
      if (visited.insert(next).second) {
        stack.push_back({next, 0});
      }
    } else {
      order.push_back(block);
      stack.pop_back();
    }
  }
  std::reverse(order.begin(), order.end());
  return order;
}

}  // namespace polynima::opt
