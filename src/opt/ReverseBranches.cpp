//===- ReverseBranches.cpp - Phase r ------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Removes an unconditional jump by reversing a conditional branch
// branching over the jump" (Table 1). Pattern, in layout order:
//
//   A:  ... ; PC = IC cond, L1
//   B:  PC = L2            (single-instruction block, fall-through of A)
//   L1: ...                (the block immediately after B)
//
// becomes A: ... ; PC = IC !cond, L2, with B emptied (the implicit
// empty-block elimination then removes it).
//
//===----------------------------------------------------------------------===//

#include "src/analysis/AnalysisCache.h"
#include "src/ir/Function.h"
#include "src/opt/Phases.h"

using namespace pose;

bool ReverseBranchesPhase::apply(Function &F) const {
  bool Changed = false;
  for (size_t BI = 0; BI + 2 < F.Blocks.size(); ++BI) {
    const BasicBlock &A = F.Blocks[BI];
    const BasicBlock &B = F.Blocks[BI + 1];
    const Rtl *T = A.terminator();
    if (!T || T->Opcode != Op::Branch)
      continue;
    if (B.Insts.size() != 1 || B.Insts[0].Opcode != Op::Jump)
      continue;
    // The branch must hop exactly over B.
    if (T->Src[0].Value != F.Blocks[BI + 2].Label)
      continue;
    // B must be reached only as A's fall-through: a jump elsewhere into B
    // would change meaning when B disappears.
    if (cfgOf(F)->Preds[BI + 1].size() != 1)
      continue;
    const Operand NewTarget = B.Insts[0].Src[0];
    Rtl *MT = F.Blocks.mut(BI).terminator();
    MT->CC = invertCond(MT->CC);
    MT->Src[0] = NewTarget;
    F.Blocks.mut(BI + 1).Insts.clear();
    Changed = true;
  }
  return Changed;
}
