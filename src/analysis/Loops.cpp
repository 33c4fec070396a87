//===- Loops.cpp - Natural loop detection ----------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Loops.h"

#include "src/analysis/Dominators.h"
#include "src/ir/AnalysisCounts.h"

#include <algorithm>
#include <map>
#include <set>

using namespace pose;

LoopInfo::LoopInfo(const Function &F, const Cfg &C, const Dominators &D) {
  countAnalysisBuild(AnalysisKind::LoopInfo);
  const size_t N = F.Blocks.size();

  // Collect back edges: Tail -> Head where Head dominates Tail.
  std::map<int, Loop> ByHeader;
  for (size_t Tail = 0; Tail != N; ++Tail) {
    if (!D.isReachable(Tail))
      continue;
    for (int Head : C.Succs[Tail]) {
      if (!D.dominates(Head, Tail))
        continue;
      Loop &L = ByHeader[Head];
      L.Header = Head;
      L.Latches.push_back(static_cast<int>(Tail));
    }
  }

  // Compute each loop body: Header plus all blocks that reach a latch
  // without passing through Header (standard natural-loop algorithm).
  for (auto &[Header, L] : ByHeader) {
    std::set<int> Body{Header};
    std::vector<int> Work(L.Latches.begin(), L.Latches.end());
    for (int Latch : L.Latches)
      Body.insert(Latch);
    while (!Work.empty()) {
      int B = Work.back();
      Work.pop_back();
      if (B == Header)
        continue;
      for (int P : C.Preds[B]) {
        if (D.isReachable(P) && Body.insert(P).second)
          Work.push_back(P);
      }
    }
    L.Blocks.assign(Body.begin(), Body.end());
  }

  for (auto &[Header, L] : ByHeader) {
    (void)Header;
    Loops.push_back(std::move(L));
  }

  // Depth: number of loops whose body strictly contains this loop's header
  // (plus one for the loop itself).
  for (Loop &L : Loops) {
    int Depth = 0;
    for (const Loop &Other : Loops) {
      if (Other.Header != L.Header && Other.contains(L.Header))
        ++Depth;
    }
    L.Depth = Depth + 1;
  }

  // Innermost (deepest) first; ties broken by header index for determinism.
  std::sort(Loops.begin(), Loops.end(), [](const Loop &A, const Loop &B) {
    if (A.Depth != B.Depth)
      return A.Depth > B.Depth;
    return A.Header < B.Header;
  });
}
