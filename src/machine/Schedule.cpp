//===- Schedule.cpp - Final instruction scheduling -----------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/machine/Schedule.h"

#include "src/analysis/DependenceDag.h"
#include "src/ir/Function.h"
#include "src/machine/EntryExit.h"

#include <set>
#include <vector>

using namespace pose;

namespace {

/// True when \p Consumer reads the register defined by \p Producer.
bool readsResultOf(const Rtl &Consumer, const Rtl &Producer) {
  if (!Producer.definesReg())
    return false;
  bool Reads = false;
  Consumer.forEachUsedReg([&](RegNum R) {
    Reads |= (R == Producer.Dst.getReg());
  });
  return Reads;
}

/// List-schedules one block for the single-issue, one-cycle-load-delay
/// pipeline: among ready instructions, prefer one that does not consume
/// the result of the previously issued instruction when that instruction
/// was a load. Ties break toward original order (determinism).
std::vector<size_t> scheduleBlock(const BasicBlock &B) {
  const size_t N = B.Insts.size();
  const std::vector<std::vector<size_t>> Preds = blockDependences(B);
  std::vector<int> Pending(N, 0);
  std::vector<std::vector<size_t>> Succs(N);
  for (size_t J = 0; J != N; ++J) {
    Pending[J] = static_cast<int>(Preds[J].size());
    for (size_t P : Preds[J])
      Succs[P].push_back(J);
  }
  std::set<size_t> Ready;
  for (size_t J = 0; J != N; ++J)
    if (Pending[J] == 0)
      Ready.insert(J);

  std::vector<size_t> Order;
  Order.reserve(N);
  int LastIssued = -1;
  while (!Ready.empty()) {
    size_t Best = SIZE_MAX;
    for (size_t J : Ready) {
      const bool Stalls =
          LastIssued >= 0 &&
          B.Insts[static_cast<size_t>(LastIssued)].Opcode == Op::Load &&
          readsResultOf(B.Insts[J], B.Insts[static_cast<size_t>(LastIssued)]);
      if (Stalls)
        continue;
      Best = J;
      break; // Ready is ordered ascending: first non-stalling wins.
    }
    if (Best == SIZE_MAX)
      Best = *Ready.begin(); // Everything stalls; take program order.
    Ready.erase(Best);
    Order.push_back(Best);
    LastIssued = static_cast<int>(Best);
    for (size_t S : Succs[Best])
      if (--Pending[S] == 0)
        Ready.insert(S);
  }
  assert(Order.size() == N && "dependence cycle in a basic block");
  return Order;
}

} // namespace

bool pose::scheduleFunction(Function &F) {
  bool Changed = false;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    const BasicBlock &B = F.Blocks[BI];
    if (B.Insts.size() < 3)
      continue;
    std::vector<size_t> Order = scheduleBlock(B);
    bool Identity = true;
    for (size_t J = 0; J != Order.size(); ++J)
      Identity &= (Order[J] == J);
    if (Identity)
      continue;
    std::vector<Rtl> NewInsts;
    NewInsts.reserve(B.Insts.size());
    for (size_t J : Order)
      NewInsts.push_back(B.Insts[J]);
    F.Blocks.mut(BI).Insts = std::move(NewInsts);
    Changed = true;
  }
  return Changed;
}

void pose::finalizeFunction(Function &F) {
  scheduleFunction(F);
  fixEntryExit(F);
}
