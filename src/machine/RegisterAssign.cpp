//===- RegisterAssign.cpp - Compulsory register assignment -----------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/machine/RegisterAssign.h"

#include "src/analysis/AnalysisCache.h"
#include "src/analysis/Liveness.h"
#include "src/ir/Function.h"
#include "src/machine/Target.h"

#include <algorithm>
#include <map>
#include <set>

using namespace pose;

namespace {

/// Inserts spill code for \p Victim: a store after every def and a load
/// into a fresh short-lived pseudo before every use.
void spillPseudo(Function &F, RegNum Victim, std::set<RegNum> &NoSpill) {
  StackSlot Slot;
  Slot.Name = "spill." + std::to_string(Victim);
  int32_t Index = F.addSlot(Slot);
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    bool Touches = false;
    for (const Rtl &I : F.Blocks[BI].Insts) {
      bool Uses = false;
      I.forEachUsedReg([&](RegNum R) { Uses |= (R == Victim); });
      Touches |= Uses || (I.definesReg() && I.Dst.getReg() == Victim);
    }
    if (!Touches)
      continue;
    BasicBlock &B = F.Blocks.mut(BI);
    for (size_t J = 0; J < B.Insts.size(); ++J) {
      Rtl &I = B.Insts[J];
      bool Uses = false;
      I.forEachUsedReg([&](RegNum R) { Uses |= (R == Victim); });
      if (Uses) {
        RegNum Tmp = F.makePseudo();
        NoSpill.insert(Tmp);
        I.forEachUseOperand([&](Operand &O) {
          if (O.getReg() == Victim)
            O = Operand::reg(Tmp);
        });
        B.Insts.insert(B.Insts.begin() + static_cast<long>(J),
                       rtl::load(Operand::reg(Tmp), Operand::slot(Index), 0));
        ++J; // Skip over the load we just inserted; I may have moved.
      }
      Rtl &Def = B.Insts[J];
      if (Def.definesReg() && Def.Dst.getReg() == Victim) {
        RegNum Tmp = F.makePseudo();
        NoSpill.insert(Tmp);
        Def.Dst = Operand::reg(Tmp);
        B.Insts.insert(B.Insts.begin() + static_cast<long>(J) + 1,
                       rtl::store(Operand::slot(Index), 0,
                                  Operand::reg(Tmp)));
        ++J;
      }
    }
  }
}

/// One coloring attempt. Returns true on success and fills \p Color;
/// otherwise sets \p SpillCandidate to a pseudo to spill.
bool tryColor(const Function &F, std::map<RegNum, RegNum> &Color,
              RegNum &SpillCandidate, const std::set<RegNum> &NoSpill) {
  const std::shared_ptr<const Liveness> LVP = livenessOf(F);
  const Liveness &LV = *LVP;

  // Interference sets, def-point construction: the destination of every
  // instruction interferes with everything live just after it.
  std::map<RegNum, std::set<RegNum>> Interf;
  std::vector<RegNum> Order; // First-def order, for deterministic results.
  auto Note = [&](RegNum R) {
    if (!Interf.count(R)) {
      Interf[R];
      Order.push_back(R);
    }
  };
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    const BasicBlock &B = F.Blocks[BI];
    std::vector<BitVector> After = LV.liveAfterEach(F, BI);
    for (size_t J = 0; J != B.Insts.size(); ++J) {
      const Rtl &I = B.Insts[J];
      I.forEachUsedReg([&](RegNum R) { Note(R); });
      if (!I.definesReg())
        continue;
      RegNum D = I.Dst.getReg();
      Note(D);
      for (RegNum R = FirstPseudoReg; R < LV.numRegs(); ++R) {
        if (R != D && After[J].test(R)) {
          Note(R);
          Interf[D].insert(R);
          Interf[R].insert(D);
        }
      }
    }
  }

  // Greedy coloring in first-appearance order; highest-degree node wins
  // the spill lottery on failure.
  for (RegNum R : Order) {
    bool Used[target::NumAllocatableRegs] = {};
    for (RegNum N : Interf[R]) {
      auto It = Color.find(N);
      if (It != Color.end())
        Used[It->second] = true;
    }
    bool Placed = false;
    for (unsigned K = 0; K != target::NumAllocatableRegs; ++K) {
      if (!Used[K]) {
        Color[R] = K;
        Placed = true;
        break;
      }
    }
    if (Placed)
      continue;
    // Pick the spillable interference-set member with the most neighbors
    // (or R itself) as the victim.
    RegNum Victim = R;
    size_t BestDegree = NoSpill.count(R) ? 0 : Interf[R].size();
    for (RegNum N : Interf[R]) {
      if (NoSpill.count(N))
        continue;
      if (Interf[N].size() > BestDegree) {
        BestDegree = Interf[N].size();
        Victim = N;
      }
    }
    assert((!NoSpill.count(Victim) || Victim != R || BestDegree > 0) &&
           "register pressure irreducible: spill temporaries collide");
    SpillCandidate = Victim;
    return false;
  }
  return true;
}

} // namespace

void pose::assignRegisters(Function &F) {
  if (F.State.RegsAssigned)
    return;

  std::set<RegNum> NoSpill;
  std::map<RegNum, RegNum> Color;
  RegNum Victim = 0;
  // Color; on failure spill one pseudo and retry. Spill temporaries have
  // single-instruction live ranges, so this terminates quickly.
  while (!tryColor(F, Color, Victim, NoSpill)) {
    Color.clear();
    spillPseudo(F, Victim, NoSpill);
  }

  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    bool HasRegs = false;
    for (const Rtl &I : F.Blocks[BI].Insts) {
      HasRegs |= I.Dst.isReg();
      I.forEachUsedReg([&](RegNum) { HasRegs = true; });
    }
    if (!HasRegs)
      continue;
    BasicBlock &B = F.Blocks.mut(BI);
    for (Rtl &I : B.Insts) {
      if (I.Dst.isReg())
        I.Dst = Operand::reg(Color.at(I.Dst.getReg()));
      I.forEachUseOperand(
          [&](Operand &O) { O = Operand::reg(Color.at(O.getReg())); });
    }
  }
  F.State.RegsAssigned = true;
}
