//===- SpaceStats.cpp - Per-function search-space statistics ------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/SpaceStats.h"

#include "src/analysis/AnalysisCache.h"
#include "src/analysis/Loops.h"
#include "src/ir/Function.h"

#include <algorithm>
#include <set>

using namespace pose;

SpaceStats pose::computeSpaceStats(const Function &F,
                                   const EnumerationResult &R) {
  SpaceStats S;
  S.Name = F.Name;
  S.Insts = static_cast<uint32_t>(F.instructionCount());
  S.Blocks = static_cast<uint32_t>(F.Blocks.size());
  for (const BasicBlock &B : F.Blocks)
    for (const Rtl &I : B.Insts)
      S.Branches += (I.Opcode == Op::Branch || I.Opcode == Op::Jump);
  S.Loops = static_cast<uint32_t>(loopsOf(F)->count());

  S.Stop = R.Stop;
  S.FnInstances = R.Nodes.size();
  S.AttemptedPhases = R.AttemptedPhases;
  S.MaxActiveLen = R.MaxActiveLength;

  std::set<uint64_t> CfHashes;
  S.LeafCodeSizeMin = UINT32_MAX;
  for (const DagNode &N : R.Nodes) {
    CfHashes.insert(N.CfHash);
    if (!N.isLeaf())
      continue;
    ++S.LeafInstances;
    S.LeafCodeSizeMax = std::max(S.LeafCodeSizeMax, N.CodeSize);
    S.LeafCodeSizeMin = std::min(S.LeafCodeSizeMin, N.CodeSize);
  }
  if (S.LeafInstances == 0)
    S.LeafCodeSizeMin = 0;
  S.DistinctControlFlows = CfHashes.size();
  return S;
}

uint64_t pose::naiveSpaceSize(uint32_t Levels) {
  uint64_t Total = 0;
  uint64_t LevelCount = 1;
  for (uint32_t L = 1; L <= Levels; ++L) {
    if (LevelCount > UINT64_MAX / NumPhases)
      return UINT64_MAX;
    LevelCount *= NumPhases;
    if (Total > UINT64_MAX - LevelCount)
      return UINT64_MAX;
    Total += LevelCount;
  }
  return Total;
}
