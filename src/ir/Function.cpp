//===- Function.cpp - Basic blocks, functions, modules -------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/ir/Function.h"

#include "src/ir/AnalysisCounts.h"

#include <algorithm>

using namespace pose;

void detail::CellRef::attach() {
  if (!C)
    C = new AnalysisCell();
}

void detail::CellRef::invalidateAttached() {
  if (C->Refs.load(std::memory_order_acquire) == 1) {
    C->clear();
    return;
  }
  release();
  C = new AnalysisCell();
}

void detail::CellRef::destroy(AnalysisCell *C) { delete C; }

void BlockList::rotate(size_t First, size_t Middle, size_t Last) {
  Cell.invalidate();
  std::rotate(H.begin() + static_cast<std::ptrdiff_t>(First),
              H.begin() + static_cast<std::ptrdiff_t>(Middle),
              H.begin() + static_cast<std::ptrdiff_t>(Last));
}

void Function::recomputeCounters() {
  RegNum MaxReg = FirstPseudoReg;
  int32_t MaxLabel = 0;
  for (const BasicBlock &B : Blocks) {
    MaxLabel = std::max(MaxLabel, B.Label + 1);
    for (const Rtl &I : B.Insts) {
      auto Visit = [&MaxReg](const Operand &O) {
        if (O.isReg())
          MaxReg = std::max(MaxReg, O.getReg() + 1);
      };
      Visit(I.Dst);
      for (const Operand &S : I.Src)
        Visit(S);
      for (const Operand &A : I.Args)
        Visit(A);
    }
  }
  Blocks.invalidateAnalyses();
  NextPseudo = MaxReg;
  NextLabel = MaxLabel;
}

Cfg Cfg::build(const Function &F) {
  countAnalysisBuild(AnalysisKind::Cfg);
  Cfg C;
  const size_t N = F.Blocks.size();
  C.Succs.resize(N);
  C.Preds.resize(N);
  for (size_t I = 0; I != N; ++I) {
    const BasicBlock &B = F.Blocks[I];
    const Rtl *T = B.terminator();
    if (T && T->Opcode == Op::Ret)
      continue;
    if (T && (T->Opcode == Op::Jump || T->Opcode == Op::Branch)) {
      int Target = F.findBlock(T->Src[0].Value);
      assert(Target >= 0 && "branch to unknown label");
      C.Succs[I].push_back(Target);
    }
    // Fall-through edge: everything but Jump/Ret continues to the next
    // block in layout order.
    if (fallsThrough(B)) {
      assert(I + 1 < N && "fall-through off the end of the function");
      int Next = static_cast<int>(I) + 1;
      // Avoid a duplicate edge when a branch targets the next block.
      if (C.Succs[I].empty() || C.Succs[I][0] != Next)
        C.Succs[I].push_back(Next);
    }
  }
  for (size_t I = 0; I != N; ++I)
    for (int S : C.Succs[I])
      C.Preds[S].push_back(static_cast<int>(I));
  return C;
}
