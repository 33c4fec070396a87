//===- DependenceDag.cpp - Intra-block dependence analysis --------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/DependenceDag.h"

#include "src/ir/Function.h"

#include <algorithm>

using namespace pose;

std::vector<std::vector<size_t>>
pose::blockDependences(const BasicBlock &B) {
  const size_t N = B.Insts.size();
  std::vector<std::vector<size_t>> Preds(N);

  // Dense block-local register indices: the registers of the block, sorted.
  std::vector<RegNum> Regs;
  for (const Rtl &I : B.Insts) {
    I.forEachUsedReg([&Regs](RegNum R) { Regs.push_back(R); });
    if (I.definesReg())
      Regs.push_back(I.Dst.getReg());
  }
  std::sort(Regs.begin(), Regs.end());
  Regs.erase(std::unique(Regs.begin(), Regs.end()), Regs.end());
  auto Index = [&Regs](RegNum R) {
    return static_cast<size_t>(std::lower_bound(Regs.begin(), Regs.end(), R) -
                               Regs.begin());
  };

  // Last writer / readers per register, tracked by scanning forward.
  std::vector<size_t> LastDef(Regs.size(), SIZE_MAX);
  std::vector<std::vector<size_t>> ReadersSinceDef(Regs.size());
  size_t LastIC = SIZE_MAX;
  std::vector<size_t> ICReadersSince;
  size_t LastMemWrite = SIZE_MAX; // Store or Call.
  std::vector<size_t> MemReadsSince;

  for (size_t J = 0; J != N; ++J) {
    const Rtl &I = B.Insts[J];
    std::vector<size_t> &P = Preds[J];
    // Control transfers stay last: every earlier instruction precedes
    // them, and nothing may move past them (they are block-final anyway).
    if (I.isControl())
      for (size_t K = 0; K != J; ++K)
        P.push_back(K);
    // RAW on registers.
    I.forEachUsedReg([&](RegNum R) {
      const size_t X = Index(R);
      if (LastDef[X] != SIZE_MAX)
        P.push_back(LastDef[X]);
      ReadersSinceDef[X].push_back(J);
    });
    // IC dependences.
    if (I.usesIC()) {
      if (LastIC != SIZE_MAX)
        P.push_back(LastIC);
      ICReadersSince.push_back(J);
    }
    if (I.definesIC()) {
      if (LastIC != SIZE_MAX)
        P.push_back(LastIC); // WAW on IC.
      for (size_t R : ICReadersSince)
        if (R != J)
          P.push_back(R); // WAR on IC.
      ICReadersSince.clear();
      LastIC = J;
    }
    // Memory dependences: loads may reorder among themselves; stores and
    // calls are ordered with everything that touches memory or has
    // observable effects.
    const bool MemWrite = I.Opcode == Op::Store || I.Opcode == Op::Call;
    const bool MemRead = I.Opcode == Op::Load;
    if (MemRead) {
      if (LastMemWrite != SIZE_MAX)
        P.push_back(LastMemWrite);
      MemReadsSince.push_back(J);
    }
    if (MemWrite) {
      if (LastMemWrite != SIZE_MAX)
        P.push_back(LastMemWrite);
      for (size_t R : MemReadsSince)
        if (R != J)
          P.push_back(R);
      MemReadsSince.clear();
      LastMemWrite = J;
    }
    // Register WAR and WAW.
    if (I.definesReg()) {
      const size_t X = Index(I.Dst.getReg());
      if (LastDef[X] != SIZE_MAX)
        P.push_back(LastDef[X]);
      for (size_t R : ReadersSinceDef[X])
        if (R != J)
          P.push_back(R);
      ReadersSinceDef[X].clear();
      LastDef[X] = J;
    }
    std::sort(P.begin(), P.end());
    P.erase(std::unique(P.begin(), P.end()), P.end());
  }
  return Preds;
}
