// Tests for static control-flow recovery: block formation and splitting,
// the jump-table and address-taken heuristics, data-in-code, undecodable
// bytes, overlapping instructions, and on-disk JSON round-tripping.
#include <gtest/gtest.h>

#include "src/binary/builder.h"
#include "src/cfg/cfg.h"

namespace polynima::cfg {
namespace {

using binary::Image;
using binary::ImageBuilder;
using x86::Cond;
using x86::I0;
using x86::I1;
using x86::I2;
using x86::Label;
using x86::MemRef;
using x86::Mnemonic;
using x86::Operand;
using x86::Reg;

TEST(CfgRecovery, SplitsBlocksAtBranchTargets) {
  ImageBuilder b("split");
  auto& a = b.code();
  Label target = a.NewLabel();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(0)));
  a.Bind(target);  // loop header: jumped to from below -> must be a leader
  a.Emit(I2(Mnemonic::kAdd, 4, Operand::R(Reg::kRax), Operand::I(1)));
  a.Emit(I2(Mnemonic::kCmp, 4, Operand::R(Reg::kRax), Operand::I(10)));
  a.Jcc(Cond::kL, target);
  a.Emit(I0(Mnemonic::kRet));

  auto graph = RecoverStatic(b.Build());
  ASSERT_TRUE(graph.ok());
  // Blocks: entry stub (fallthrough), loop body (condjump), ret.
  EXPECT_EQ(graph->blocks.size(), 3u);
  ASSERT_EQ(graph->functions.size(), 1u);
  const FunctionInfo& fn = graph->functions.begin()->second;
  EXPECT_EQ(fn.block_starts.size(), 3u);

  int fallthrough = 0, condjump = 0, ret = 0;
  for (const auto& [start, block] : graph->blocks) {
    fallthrough += block.term == TermKind::kFallthrough ? 1 : 0;
    condjump += block.term == TermKind::kCondJump ? 1 : 0;
    ret += block.term == TermKind::kRet ? 1 : 0;
  }
  EXPECT_EQ(fallthrough, 1);
  EXPECT_EQ(condjump, 1);
  EXPECT_EQ(ret, 1);
}

TEST(CfgRecovery, DirectCallsCreateFunctions) {
  ImageBuilder b("calls");
  auto& a = b.code();
  Label callee = a.NewLabel();
  a.Bind(callee);
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(7)));
  a.Emit(I0(Mnemonic::kRet));
  uint64_t callee_addr = a.AddressOf(callee);
  b.SetEntry(a.CurrentAddress());
  a.Call(callee);
  a.Emit(I0(Mnemonic::kRet));

  auto graph = RecoverStatic(b.Build());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->functions.size(), 2u);
  EXPECT_EQ(graph->functions.count(callee_addr), 1u);
  // The caller's call block records target + fallthrough.
  bool found_call = false;
  for (const auto& [start, block] : graph->blocks) {
    if (block.term == TermKind::kCall) {
      found_call = true;
      EXPECT_EQ(block.direct_target, callee_addr);
      EXPECT_EQ(block.fallthrough, block.end);
    }
  }
  EXPECT_TRUE(found_call);
}

// Jump table in the code segment: the heuristic must find its entries.
TEST(CfgRecovery, JumpTableHeuristicRecoversTargets) {
  ImageBuilder b("table");
  auto& a = b.code();
  Label table = a.NewLabel();
  Label c0 = a.NewLabel(), c1 = a.NewLabel(), c2 = a.NewLabel();
  b.SetEntry(a.CurrentAddress());
  a.MovLabelAddress(Reg::kRcx, table);
  MemRef slot;
  slot.base = Reg::kRcx;
  slot.index = Reg::kRdi;
  slot.scale = 8;
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax), Operand::M(slot)));
  a.Emit(I1(Mnemonic::kJmp, 8, Operand::R(Reg::kRax)));
  a.Align(8);
  a.Bind(table);  // data-in-code
  a.Dq(c0);
  a.Dq(c1);
  a.Dq(c2);
  for (Label c : {c0, c1, c2}) {
    a.Bind(c);
    a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(1)));
    a.Emit(I0(Mnemonic::kRet));
  }

  auto graph = RecoverStatic(b.Build());
  ASSERT_TRUE(graph.ok());
  const BlockInfo* dispatch = nullptr;
  for (const auto& [start, block] : graph->blocks) {
    if (block.term == TermKind::kIndirectJump) {
      dispatch = &block;
    }
  }
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->indirect_targets.size(), 3u);
  EXPECT_EQ(dispatch->indirect_targets.count(a.AddressOf(c1)), 1u);
  // The case blocks join the dispatching function.
  const FunctionInfo* fn = graph->FunctionOwning(dispatch->start);
  ASSERT_NE(fn, nullptr);
  EXPECT_GE(fn->block_starts.size(), 4u);
}

// Jump table flush against the end of the code segment: the entry reader
// must stop at the boundary instead of fabricating targets from the void.
TEST(CfgRecovery, JumpTableAtSegmentEndStopsAtBoundary) {
  ImageBuilder b("tableend");
  auto& a = b.code();
  Label table = a.NewLabel();
  Label c0 = a.NewLabel(), c1 = a.NewLabel();
  b.SetEntry(a.CurrentAddress());
  a.MovLabelAddress(Reg::kRcx, table);
  MemRef slot;
  slot.base = Reg::kRcx;
  slot.index = Reg::kRdi;
  slot.scale = 8;
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax), Operand::M(slot)));
  a.Emit(I1(Mnemonic::kJmp, 8, Operand::R(Reg::kRax)));
  for (Label c : {c0, c1}) {
    a.Bind(c);
    a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(1)));
    a.Emit(I0(Mnemonic::kRet));
  }
  a.Align(8);
  a.Bind(table);  // the table is the last data in the segment
  a.Dq(c0);
  a.Dq(c1);

  auto graph = RecoverStatic(b.Build());
  ASSERT_TRUE(graph.ok());
  const BlockInfo* dispatch = nullptr;
  for (const auto& [start, block] : graph->blocks) {
    if (block.term == TermKind::kIndirectJump) {
      dispatch = &block;
    }
  }
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->indirect_targets.size(), 2u);
  EXPECT_EQ(dispatch->indirect_targets.count(a.AddressOf(c0)), 1u);
  EXPECT_EQ(dispatch->indirect_targets.count(a.AddressOf(c1)), 1u);
}

// A table entry that lands inside another function: the target is still
// recovered, and the landing address becomes a block leader there.
TEST(CfgRecovery, JumpTableEntryIntoAnotherFunctionIsRecovered) {
  ImageBuilder b("tablecross");
  auto& a = b.code();
  Label helper = a.NewLabel(), inner = a.NewLabel();
  a.Bind(helper);
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(1)));
  a.Bind(inner);  // mid-function: a table entry will point here
  a.Emit(I2(Mnemonic::kAdd, 4, Operand::R(Reg::kRax), Operand::I(2)));
  a.Emit(I0(Mnemonic::kRet));
  uint64_t helper_addr = a.AddressOf(helper);
  uint64_t inner_addr = a.AddressOf(inner);

  Label table = a.NewLabel(), c0 = a.NewLabel();
  b.SetEntry(a.CurrentAddress());
  a.Call(helper);  // makes helper a proper function
  a.MovLabelAddress(Reg::kRcx, table);
  MemRef slot;
  slot.base = Reg::kRcx;
  slot.index = Reg::kRdi;
  slot.scale = 8;
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax), Operand::M(slot)));
  a.Emit(I1(Mnemonic::kJmp, 8, Operand::R(Reg::kRax)));
  a.Align(8);
  a.Bind(table);
  a.Dq(c0);
  a.Dq(inner);
  a.Bind(c0);
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(3)));
  a.Emit(I0(Mnemonic::kRet));

  auto graph = RecoverStatic(b.Build());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->functions.count(helper_addr), 1u);
  const BlockInfo* dispatch = nullptr;
  for (const auto& [start, block] : graph->blocks) {
    if (block.term == TermKind::kIndirectJump) {
      dispatch = &block;
    }
  }
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->indirect_targets.count(inner_addr), 1u);
  EXPECT_EQ(dispatch->indirect_targets.count(a.AddressOf(c0)), 1u);
  // The cross-function entry split helper at the landing address.
  EXPECT_EQ(graph->blocks.count(inner_addr), 1u);
}

// With the jump-table heuristic disabled, landing-pad mode (--cfg-sound)
// must still discover every endbr64-marked case as code: the two recoveries
// agree on the covered case addresses even though they find them by
// different means (table read vs pad scan).
TEST(CfgRecovery, LandingPadModeAgreesWithJumpTableHeuristic) {
  ImageBuilder b("padagree");
  auto& a = b.code();
  Label table = a.NewLabel();
  Label c0 = a.NewLabel(), c1 = a.NewLabel(), c2 = a.NewLabel();
  b.SetEntry(a.CurrentAddress());
  a.MovLabelAddress(Reg::kRcx, table);
  MemRef slot;
  slot.base = Reg::kRcx;
  slot.index = Reg::kRdi;
  slot.scale = 8;
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax), Operand::M(slot)));
  a.Emit(I1(Mnemonic::kJmp, 8, Operand::R(Reg::kRax)));
  a.Align(8);
  a.Bind(table);
  a.Dq(c0);
  a.Dq(c1);
  a.Dq(c2);
  for (Label c : {c0, c1, c2}) {
    a.Bind(c);
    a.Emit(I0(Mnemonic::kEndbr64));  // CET landing pad at every case
    a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(1)));
    a.Emit(I0(Mnemonic::kRet));
  }
  binary::Image image = b.Build();

  const std::vector<uint64_t> pads = CollectLandingPads(image);
  EXPECT_EQ(pads.size(), 3u);

  auto with_tables = RecoverStatic(image);
  ASSERT_TRUE(with_tables.ok());
  RecoverOptions sound;
  sound.jump_table_heuristic = false;
  sound.address_constant_heuristic = false;
  sound.landing_pad_entries = true;
  auto with_pads = RecoverStatic(image, sound);
  ASSERT_TRUE(with_pads.ok());

  for (Label c : {c0, c1, c2}) {
    uint64_t addr = a.AddressOf(c);
    EXPECT_EQ(with_tables->blocks.count(addr), 1u) << std::hex << addr;
    EXPECT_EQ(with_pads->blocks.count(addr), 1u) << std::hex << addr;
  }
}

TEST(CfgRecovery, HeuristicCanBeDisabled) {
  ImageBuilder b("tableoff");
  auto& a = b.code();
  Label table = a.NewLabel();
  Label c0 = a.NewLabel();
  b.SetEntry(a.CurrentAddress());
  a.MovLabelAddress(Reg::kRcx, table);
  MemRef slot;
  slot.base = Reg::kRcx;
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRax), Operand::M(slot)));
  a.Emit(I1(Mnemonic::kJmp, 8, Operand::R(Reg::kRax)));
  a.Align(8);
  a.Bind(table);
  a.Dq(c0);
  a.Dq(c0);
  a.Bind(c0);
  a.Emit(I0(Mnemonic::kRet));

  RecoverOptions options;
  options.jump_table_heuristic = false;
  options.address_constant_heuristic = false;
  auto graph = RecoverStatic(b.Build(), options);
  ASSERT_TRUE(graph.ok());
  for (const auto& [start, block] : graph->blocks) {
    if (block.term == TermKind::kIndirectJump) {
      EXPECT_TRUE(block.indirect_targets.empty());
    }
  }
}

TEST(CfgRecovery, AddressConstantsBecomeIndirectCallCandidates) {
  ImageBuilder b("addrtaken");
  auto& a = b.code();
  Label helper = a.NewLabel();
  a.Bind(helper);
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(5)));
  a.Emit(I0(Mnemonic::kRet));
  uint64_t helper_addr = a.AddressOf(helper);

  b.SetEntry(a.CurrentAddress());
  a.MovLabelAddress(Reg::kRax, helper);  // function pointer materialization
  a.Emit(I1(Mnemonic::kCall, 8, Operand::R(Reg::kRax)));
  a.Emit(I0(Mnemonic::kRet));

  auto graph = RecoverStatic(b.Build());
  ASSERT_TRUE(graph.ok());
  EXPECT_EQ(graph->functions.count(helper_addr), 1u);
  bool candidate_found = false;
  for (const auto& [start, block] : graph->blocks) {
    if (block.term == TermKind::kIndirectCall &&
        block.indirect_targets.count(helper_addr) != 0) {
      candidate_found = true;
    }
  }
  EXPECT_TRUE(candidate_found);
}

TEST(CfgRecovery, UndecodableBytesBecomeTrapBlocks) {
  ImageBuilder b("junk");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax), Operand::I(1)));
  a.Db(static_cast<uint8_t>(0x06));  // invalid opcode in 64-bit mode
  auto graph = RecoverStatic(b.Build());
  ASSERT_TRUE(graph.ok());
  bool trap = false;
  for (const auto& [start, block] : graph->blocks) {
    trap = trap || block.term == TermKind::kTrap;
  }
  EXPECT_TRUE(trap);
}

TEST(CfgRecovery, ExternalCallsAreLabeled) {
  ImageBuilder b("ext");
  uint64_t print_addr = b.Extern("print_i64");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kMov, 8, Operand::R(Reg::kRdi), Operand::I(1)));
  a.CallAbs(print_addr);
  a.Emit(I0(Mnemonic::kRet));
  auto graph = RecoverStatic(b.Build());
  ASSERT_TRUE(graph.ok());
  bool found = false;
  for (const auto& [start, block] : graph->blocks) {
    if (block.term == TermKind::kExternalCall) {
      found = true;
      EXPECT_EQ(block.external_slot, 0u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(CfgRecovery, JsonRoundTrip) {
  ImageBuilder b("json");
  auto& a = b.code();
  Label loop = a.NewLabel();
  b.SetEntry(a.CurrentAddress());
  a.Bind(loop);
  a.Emit(I2(Mnemonic::kAdd, 4, Operand::R(Reg::kRax), Operand::I(1)));
  a.Emit(I2(Mnemonic::kCmp, 4, Operand::R(Reg::kRax), Operand::I(3)));
  a.Jcc(Cond::kL, loop);
  a.Emit(I0(Mnemonic::kRet));
  auto graph = RecoverStatic(b.Build());
  ASSERT_TRUE(graph.ok());
  graph->AddIndirectTarget(graph->blocks.begin()->second.term_address,
                           0x400123);

  auto back = ControlFlowGraph::FromJson(graph->ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->blocks.size(), graph->blocks.size());
  EXPECT_EQ(back->functions.size(), graph->functions.size());
  EXPECT_EQ(back->TotalIndirectTargets(), graph->TotalIndirectTargets());
  for (const auto& [start, block] : graph->blocks) {
    ASSERT_EQ(back->blocks.count(start), 1u);
    EXPECT_EQ(back->blocks[start].term, block.term);
    EXPECT_EQ(back->blocks[start].end, block.end);
  }
}

// A recovered graph's JSON, for the malformed-document cases below.
json::Value SmallGraphJson() {
  ImageBuilder b("json");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  a.Emit(I2(Mnemonic::kAdd, 4, Operand::R(Reg::kRax), Operand::I(1)));
  a.Emit(I0(Mnemonic::kRet));
  auto graph = RecoverStatic(b.Build());
  EXPECT_TRUE(graph.ok());
  return graph->ToJson();
}

// FromJson must refuse `doc` with an InvalidArgument naming `field`.
void ExpectRejected(const json::Value& doc, const std::string& field) {
  auto graph = ControlFlowGraph::FromJson(doc);
  ASSERT_FALSE(graph.ok()) << field;
  EXPECT_EQ(graph.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(graph.status().message().find(field), std::string::npos)
      << graph.status().ToString();
}

json::Object& FirstOf(json::Value& doc, const char* list) {
  return doc.as_object()[list].as_array().at(0).as_object();
}

TEST(CfgJson, BlockMissingEndIsRejected) {
  json::Value doc = SmallGraphJson();
  FirstOf(doc, "blocks").erase("end");
  ExpectRejected(doc, "blocks[0].end");
}

TEST(CfgJson, StringBlockStartIsRejected) {
  json::Value doc = SmallGraphJson();
  FirstOf(doc, "blocks")["start"] = json::Value("0x400000");
  ExpectRejected(doc, "blocks[0].start");
}

TEST(CfgJson, BlocksObjectIsRejected) {
  json::Value doc = SmallGraphJson();
  doc.as_object()["blocks"] = json::Value(json::Object{});
  ExpectRejected(doc, "\"blocks\"");
}

TEST(CfgJson, FunctionMissingNameIsRejected) {
  json::Value doc = SmallGraphJson();
  FirstOf(doc, "functions").erase("name");
  ExpectRejected(doc, "functions[0].name");
}

TEST(CfgRecovery, OverlappingInstructionsAreRepresentable) {
  // A jump into the middle of a multi-byte instruction: both decodings
  // coexist in the CFG (the paper's obfuscated-control-flow capability).
  ImageBuilder b("overlap");
  auto& a = b.code();
  b.SetEntry(a.CurrentAddress());
  // jmp over: the 5-byte "mov eax, imm32" whose imm bytes decode as code.
  Label inside = a.NewLabel();
  Label after = a.NewLabel();
  a.Jmp(inside);
  uint64_t mov_addr = a.CurrentAddress();
  // mov eax, 0x00c3c031: imm bytes are "xor eax,eax; ret".
  a.Emit(I2(Mnemonic::kMov, 4, Operand::R(Reg::kRax),
            Operand::I(0x00c3c031)));
  a.Bind(after);
  a.Emit(I0(Mnemonic::kRet));
  // `inside` = the imm field of the mov (mov_addr + 1 is opcode+0? opcode is
  // 1 byte B8, so imm starts at +1).
  (void)after;
  ASSERT_FALSE(a.IsBound(inside));
  // Bind `inside` retroactively is impossible; instead verify recovery from
  // an explicit extra entry at the overlapping address.
  a.Bind(inside);  // bind at current end to satisfy the assembler…
  a.Emit(I0(Mnemonic::kRet));
  Image image = b.Build();
  std::set<uint64_t> extra = {mov_addr + 1};
  auto graph = RecoverStatic(image, {}, extra);
  ASSERT_TRUE(graph.ok());
  // Both the aligned mov block and the overlapping block exist.
  EXPECT_EQ(graph->functions.count(mov_addr + 1), 1u);
}

}  // namespace
}  // namespace polynima::cfg
