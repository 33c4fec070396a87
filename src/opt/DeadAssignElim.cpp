//===- DeadAssignElim.cpp - Phase h -------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Uses global analysis to remove assignments when the assigned value is
// never used" (Table 1). Covers register assignments and compares whose
// condition code is never tested (the debris useless-jump removal leaves
// behind — an enabling interaction measured in Section 5).
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Liveness.h"
#include "src/ir/Function.h"
#include "src/opt/Phases.h"

using namespace pose;

bool DeadAssignElimPhase::apply(Function &F) const {
  // Deleting a dead assignment only shrinks liveness, so it never makes
  // another assignment live: removal is confluent and every order reaches
  // the same fixed point. Each round therefore sweeps every block against
  // one Liveness, walking backward with a running live set so chains
  // inside a block die together; live-outs made stale by deletions in
  // other blocks are only conservative, and the next round catches what
  // they kept.
  bool Changed = false;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    const Cfg C = Cfg::build(F);
    const Liveness LV(F, C);
    const size_t IC = LV.icIndex();
    for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
      BasicBlock *MB = nullptr; // Materialized on the first deletion.
      BitVector Live = LV.liveOut(BI);
      for (size_t J = F.Blocks[BI].Insts.size(); J-- > 0;) {
        const Rtl &I = MB ? MB->Insts[J] : F.Blocks[BI].Insts[J];
        bool Dead = false;
        if (!I.hasSideEffects()) {
          if (I.definesReg())
            Dead = !Live.test(I.Dst.getReg());
          else if (I.definesIC())
            Dead = !Live.test(IC);
        }
        if (!Dead) {
          Liveness::stepBackward(I, Live, IC);
          continue;
        }
        if (!MB)
          MB = &F.Blocks.mut(BI);
        MB->Insts.erase(MB->Insts.begin() + static_cast<long>(J));
        Changed = Progress = true;
      }
    }
  }
  return Changed;
}
