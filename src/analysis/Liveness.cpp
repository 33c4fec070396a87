//===- Liveness.cpp - Register liveness analysis ---------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Liveness.h"

#include "src/ir/AnalysisCounts.h"

#include <algorithm>

using namespace pose;

// Note on calls: the target's calling convention in this reproduction makes
// every register callee-saved (arguments and results are explicit operands
// of the Call RTL), so a call neither defines nor clobbers registers other
// than its explicit destination.

void Liveness::addUses(const Rtl &I, BitVector &Set, size_t IcIndex) {
  I.forEachUsedReg([&Set](RegNum R) { Set.set(R); });
  if (I.usesIC())
    Set.set(IcIndex);
}

void Liveness::stepBackward(const Rtl &I, BitVector &Set, size_t IcIndex) {
  if (I.definesReg())
    Set.reset(I.Dst.getReg());
  if (I.definesIC())
    Set.reset(IcIndex);
  addUses(I, Set, IcIndex);
}

Liveness::Liveness(const Function &F, const Cfg &C) {
  countAnalysisBuild(AnalysisKind::Liveness);
  NumRegs = std::max<size_t>(F.pseudoLimit(), FirstPseudoReg);
  const size_t NumBits = NumRegs + 1; // +1 for IC
  const size_t N = F.Blocks.size();
  LiveIn.assign(N, BitVector(NumBits));
  LiveOut.assign(N, BitVector(NumBits));

  // Iterate to a fixed point, sweeping blocks in reverse layout order
  // (close to reverse topological order for typical CFGs).
  bool Changed = true;
  BitVector Tmp(NumBits);
  while (Changed) {
    Changed = false;
    for (size_t BI = N; BI-- > 0;) {
      Tmp.clear();
      for (int S : C.Succs[BI])
        Tmp.unionWith(LiveIn[S]);
      if (Tmp != LiveOut[BI]) {
        LiveOut[BI] = Tmp;
        Changed = true;
      }
      const BasicBlock &B = F.Blocks[BI];
      for (size_t J = B.Insts.size(); J-- > 0;)
        stepBackward(B.Insts[J], Tmp, NumRegs);
      if (Tmp != LiveIn[BI]) {
        LiveIn[BI] = Tmp;
        Changed = true;
      }
    }
  }
}

std::vector<BitVector> Liveness::liveAfterEach(const Function &F,
                                               size_t Block) const {
  const BasicBlock &B = F.Blocks[Block];
  std::vector<BitVector> After(B.Insts.size(), BitVector(NumRegs + 1));
  BitVector Cur = LiveOut[Block];
  for (size_t J = B.Insts.size(); J-- > 0;) {
    After[J] = Cur;
    stepBackward(B.Insts[J], Cur, NumRegs);
  }
  return After;
}
