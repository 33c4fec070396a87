//===- BlockReordering.cpp - Phase i ------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Removes a jump by reordering blocks when the target of the jump has only
// a single predecessor" (Table 1). If block A ends with an unconditional
// jump to L and L's only predecessor is A, the fall-through chain headed by
// L can be moved directly after A and the jump deleted.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/AnalysisCache.h"
#include "src/ir/Function.h"
#include "src/opt/Phases.h"

#include <algorithm>

using namespace pose;

namespace {

/// Returns the indices of the maximal fall-through chain starting at
/// \p Start: consecutive blocks where each falls through to the next,
/// ending at the first block that transfers control unconditionally
/// (Jump or Ret). Returns an empty vector if the chain runs into the end
/// of the function while still falling through (cannot happen in verified
/// code) or would be unbounded.
std::vector<size_t> fallThroughChain(const Function &F, size_t Start) {
  std::vector<size_t> Chain;
  for (size_t I = Start; I < F.Blocks.size(); ++I) {
    Chain.push_back(I);
    if (!Cfg::fallsThrough(F.Blocks[I]))
      return Chain;
  }
  return {};
}

} // namespace

bool BlockReorderingPhase::apply(Function &F) const {
  bool Changed = false;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    const std::shared_ptr<const Cfg> C = cfgOf(F);
    for (size_t AI = 0; AI != F.Blocks.size(); ++AI) {
      const Rtl *T = F.Blocks[AI].terminator();
      if (!T || T->Opcode != Op::Jump)
        continue;
      int LI = F.findBlock(T->Src[0].Value);
      assert(LI >= 0 && "dangling jump target");
      size_t L = static_cast<size_t>(LI);
      if (L == AI || L == AI + 1)
        continue; // Self-loop, or useless jump (phase u's business).
      if (L == 0 || C->Preds[L].size() != 1)
        continue;
      // L may not be entered by fall-through from its layout predecessor
      // (its single predecessor is A, and A jumps, so this holds unless
      // the layout predecessor *is* that jump; check structurally).
      if (Cfg::fallsThrough(F.Blocks[L - 1]))
        continue;
      std::vector<size_t> Chain = fallThroughChain(F, L);
      if (Chain.empty())
        continue;
      // The chain must be self-contained: moving it must not separate A
      // from it, and it must not contain A.
      if (std::find(Chain.begin(), Chain.end(), AI) != Chain.end())
        continue;
      // Move Chain (contiguous by construction) to sit right after A and
      // delete A's jump. A rotation of the block handles moves the whole
      // chain without copying a single instruction.
      size_t InsertAt;
      if (AI < Chain.front()) {
        F.Blocks.rotate(AI + 1, Chain.front(), Chain.back() + 1);
        InsertAt = AI + 1;
      } else {
        F.Blocks.rotate(Chain.front(), Chain.back() + 1, AI + 1);
        InsertAt = AI + 1 - Chain.size();
      }
      F.Blocks.mut(InsertAt - 1).Insts.pop_back();
      Changed = true;
      Progress = true;
      break; // Indices shifted; restart the scan.
    }
  }
  return Changed;
}
