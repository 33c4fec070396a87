//===- Cleanup.cpp - Implicit CFG normalization ------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/opt/Cleanup.h"

#include "src/analysis/AnalysisCache.h"

using namespace pose;

namespace {

/// Retargets every Jump/Branch aimed at \p From to \p To.
void retarget(Function &F, int32_t From, int32_t To) {
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    bool Targets = false;
    for (const Rtl &I : F.Blocks[BI].Insts)
      Targets |= (I.Opcode == Op::Jump || I.Opcode == Op::Branch) &&
                 I.Src[0].Value == From;
    if (!Targets)
      continue;
    for (Rtl &I : F.Blocks.mut(BI).Insts)
      if ((I.Opcode == Op::Jump || I.Opcode == Op::Branch) &&
          I.Src[0].Value == From)
        I.Src[0] = Operand::label(To);
  }
}

bool eliminateEmptyBlocks(Function &F) {
  bool Changed = false;
  for (size_t I = 0; I < F.Blocks.size();) {
    if (!F.Blocks[I].empty() || F.Blocks.size() == 1) {
      ++I;
      continue;
    }
    // An empty block simply falls into the next one; an empty *last*
    // block is unreferenced by construction (nothing may fall off the
    // end), so it can be dropped outright.
    if (I + 1 < F.Blocks.size())
      retarget(F, F.Blocks[I].Label, F.Blocks[I + 1].Label);
    F.Blocks.eraseAt(I);
    Changed = true;
    // Re-examine the same index.
  }
  return Changed;
}

bool mergeFallThroughPairs(Function &F) {
  bool Changed = false;
  for (size_t I = 0; I + 1 < F.Blocks.size();) {
    // A must fall through unconditionally (no terminator at all).
    if (F.Blocks[I].terminator()) {
      ++I;
      continue;
    }
    // The fall-through successor must have A as its only predecessor.
    // Between merges the blocks do not change, so every examined block
    // reads the same cached Cfg.
    if (cfgOf(F)->Preds[I + 1].size() != 1) {
      ++I;
      continue;
    }
    {
      const BasicBlock &B = F.Blocks[I + 1];
      BasicBlock &A = F.Blocks.mut(I);
      A.Insts.insert(A.Insts.end(), B.Insts.begin(), B.Insts.end());
    }
    F.Blocks.eraseAt(I + 1);
    Changed = true;
    // Stay at I: A may now fall through into another mergeable block.
  }
  return Changed;
}

} // namespace

bool pose::cleanupCfg(Function &F) {
  bool Changed = false;
  // Run to a fixed point: merging can expose empty-block elimination and
  // vice versa. Functions are small; this converges in a few rounds.
  for (bool Round = true; Round;) {
    Round = false;
    Round |= eliminateEmptyBlocks(F);
    Round |= mergeFallThroughPairs(F);
    Changed |= Round;
  }
  return Changed;
}

bool pose::removeUnreachableBlocks(Function &F) {
  const std::shared_ptr<const Cfg> C = cfgOf(F);
  std::vector<bool> Reached(F.Blocks.size(), false);
  std::vector<size_t> Work{0};
  Reached[0] = true;
  while (!Work.empty()) {
    size_t B = Work.back();
    Work.pop_back();
    for (int S : C->Succs[B])
      if (!Reached[S]) {
        Reached[S] = true;
        Work.push_back(static_cast<size_t>(S));
      }
  }
  bool Changed = false;
  for (size_t I = F.Blocks.size(); I-- > 0;) {
    if (!Reached[I]) {
      F.Blocks.eraseAt(I);
      Changed = true;
    }
  }
  return Changed;
}
