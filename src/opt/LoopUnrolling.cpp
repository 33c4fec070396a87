//===- LoopUnrolling.cpp - Phase g --------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Loop unrolling to potentially reduce the number of comparisons and
// branches at runtime and to aid scheduling at the cost of code size
// increase" (Table 1). The unroll factor is fixed at two, as in the paper
// ("we always attempt it with a loop unroll factor of two since we are
// generating code for an embedded processor where code size can be a
// significant issue").
//
// The phase recognizes bottom-tested single-block loops — the shape loop
// inversion (j) produces — and duplicates the body so the back edge is
// taken once per two iterations. Legal only after register allocation,
// since the transformation reasons about values kept in registers
// (Section 3).
//
//===----------------------------------------------------------------------===//

#include "src/analysis/AnalysisCache.h"
#include "src/analysis/Loops.h"
#include "src/ir/Function.h"
#include "src/opt/Phases.h"

using namespace pose;

namespace {

/// Body-size bound: duplicating large bodies costs too much code size for
/// an embedded target.
constexpr size_t MaxUnrollBody = 16;

} // namespace

bool LoopUnrollingPhase::apply(Function &F) const {
  assert(F.State.RegAllocDone &&
         "loop unrolling is restricted to run after register allocation");
  bool Changed = false;
  const std::shared_ptr<const LoopInfo> LI = loopsOf(F);

  // Collect the self-loop headers first; transforming invalidates indices,
  // so re-find blocks by label afterward.
  std::vector<int32_t> Targets;
  for (const Loop &L : LI->loops()) {
    if (L.Blocks.size() != 1)
      continue;
    const BasicBlock &B = F.Blocks[static_cast<size_t>(L.Header)];
    const Rtl *T = B.terminator();
    if (!T || T->Opcode != Op::Branch || T->Src[0].Value != B.Label)
      continue;
    if (B.Insts.size() > MaxUnrollBody)
      continue;
    Targets.push_back(B.Label);
  }

  for (int32_t Label : Targets) {
    int Index = F.findBlock(Label);
    assert(Index >= 0 && "unroll target vanished");
    size_t L = static_cast<size_t>(Index);
    assert(L + 1 < F.Blocks.size() &&
           "self-loop block cannot be last (its branch falls through)");
    const int32_t ExitLabel = F.Blocks[L + 1].Label;

    // Clone the body; the clone keeps the conditional back edge to the
    // original block, whose own branch is inverted to exit directly.
    BasicBlock Clone(F.makeLabel());
    Clone.Insts = F.Blocks[L].Insts;

    Rtl &OrigBranch = F.Blocks.mut(L).Insts.back();
    OrigBranch.CC = invertCond(OrigBranch.CC);
    OrigBranch.Src[0] = Operand::label(ExitLabel);

    F.Blocks.insertAt(L + 1, std::move(Clone));
    Changed = true;
  }
  return Changed;
}
