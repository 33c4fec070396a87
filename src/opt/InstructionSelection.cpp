//===- InstructionSelection.cpp - Phase s -------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Combines pairs or triples of instructions together where the
// instructions are linked by set/use dependencies. After combining the
// effects of the instructions, it also performs constant folding and
// checks if the resulting effect is a legal instruction before committing
// to the transformation" (Table 1).
//
// Combination shapes handled (producer A, consumer B, within one block):
//   1. A: mov d, imm     B uses d          -> fold imm into B
//   2. A: mov d, s       B uses d          -> rename d to s in B
//   3. A: lea d, base    B: load/store [d] -> fold base into the access
//   4. A: <compute> d    B: mov x, d       -> retarget A to compute x
// All require that B is the only consumer of d and that nothing between A
// and B disturbs the combined effect. Shape 1 + constant folding subsumes
// the classic mov/mov/add triple: each pair collapses in turn.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/Liveness.h"
#include "src/ir/Function.h"
#include "src/machine/Target.h"
#include "src/opt/Phases.h"

#include <optional>

using namespace pose;

namespace {

/// Returns the constant-folded result of a binary op, or nullopt when the
/// fold must be abandoned (division by zero belongs to runtime, and the
/// compiler must not change *when* it traps).
std::optional<int32_t> foldBinary(Op O, int32_t A, int32_t B) {
  const uint32_t UA = static_cast<uint32_t>(A);
  const uint32_t UB = static_cast<uint32_t>(B);
  switch (O) {
  case Op::Add:
    return static_cast<int32_t>(UA + UB);
  case Op::Sub:
    return static_cast<int32_t>(UA - UB);
  case Op::Mul:
    return static_cast<int32_t>(UA * UB);
  case Op::Div:
    if (B == 0 || (A == INT32_MIN && B == -1))
      return std::nullopt;
    return A / B;
  case Op::Rem:
    if (B == 0 || (A == INT32_MIN && B == -1))
      return std::nullopt;
    return A % B;
  case Op::And:
    return A & B;
  case Op::Or:
    return A | B;
  case Op::Xor:
    return A ^ B;
  case Op::Shl:
    return static_cast<int32_t>(UA << (UB & 31));
  case Op::Shr:
    return A >> (UB & 31);
  case Op::Ushr:
    return static_cast<int32_t>(UA >> (UB & 31));
  default:
    return std::nullopt;
  }
}

/// Folds \p I in place if all value operands are immediates. Returns true
/// if \p I became a Mov of a constant.
bool constantFold(Rtl &I) {
  if (I.isBinary() && I.Src[0].isImm() && I.Src[1].isImm()) {
    std::optional<int32_t> V =
        foldBinary(I.Opcode, I.Src[0].Value, I.Src[1].Value);
    if (!V)
      return false;
    I = rtl::mov(I.Dst, Operand::imm(*V));
    return true;
  }
  if (I.Opcode == Op::Neg && I.Src[0].isImm()) {
    I = rtl::mov(I.Dst, Operand::imm(static_cast<int32_t>(
                            0u - static_cast<uint32_t>(I.Src[0].Value))));
    return true;
  }
  if (I.Opcode == Op::Not && I.Src[0].isImm()) {
    I = rtl::mov(I.Dst, Operand::imm(~I.Src[0].Value));
    return true;
  }
  return false;
}

/// Checks whether instructions in (P, Q) leave the combination of A (at P)
/// into B (at Q) valid: nothing redefines A's destination or sources, no
/// other instruction consumes A's destination, and when A reads memory no
/// intervening instruction may write it.
bool regionAllowsCombine(const BasicBlock &B, size_t P, size_t Q,
                         const Rtl &A) {
  const RegNum D = A.Dst.getReg();
  for (size_t K = P + 1; K < Q; ++K) {
    const Rtl &M = B.Insts[K];
    bool UsesD = false;
    M.forEachUsedReg([&](RegNum R) { UsesD |= (R == D); });
    if (UsesD)
      return false; // d has another consumer.
    if (M.definesReg()) {
      RegNum W = M.Dst.getReg();
      if (W == D)
        return false;
      bool Clobbers = false;
      A.forEachUsedReg([&](RegNum R) { Clobbers |= (R == W); });
      if (Clobbers)
        return false;
    }
    if (A.readsMemory() &&
        (M.Opcode == Op::Store || M.Opcode == Op::Call))
      return false;
  }
  return true;
}

/// Returns true if register \p D is consumed anywhere at or after position
/// \p Q (exclusive of the instruction at Q itself), or is live out of the
/// block; used to decide whether the producer can be deleted.
bool usedBeyond(const Function &F, const Liveness &LV, size_t BlockIndex,
                size_t Q, RegNum D) {
  const BasicBlock &B = F.Blocks[BlockIndex];
  for (size_t K = Q + 1; K < B.Insts.size(); ++K) {
    const Rtl &M = B.Insts[K];
    bool Uses = false;
    M.forEachUsedReg([&](RegNum R) { Uses |= (R == D); });
    if (Uses)
      return true;
    if (M.definesReg() && M.Dst.getReg() == D)
      return false; // Redefined before any further use.
  }
  return LV.liveOut(BlockIndex).test(D);
}

/// Substitutes operand \p From with \p To in every use position of \p I.
/// Returns the rewritten instruction.
Rtl substitute(const Rtl &I, RegNum From, const Operand &To) {
  Rtl Out = I;
  for (Operand &S : Out.Src)
    if (S.isReg() && S.getReg() == From)
      S = To;
  for (Operand &A : Out.Args)
    if (A.isReg() && A.getReg() == From)
      A = To;
  return Out;
}

/// Attempts to combine producer at \p P with consumer at \p Q in block
/// \p BI of \p F. Returns true on success (the block was rewritten).
bool tryCombine(Function &F, const Liveness &LV, size_t BI, size_t P,
                size_t Q) {
  const BasicBlock &B = F.Blocks[BI];
  const Rtl A = B.Insts[P];
  const Rtl Use = B.Insts[Q];
  if (!A.definesReg())
    return false;
  const RegNum D = A.Dst.getReg();

  bool ConsumerUsesD = false;
  Use.forEachUsedReg([&](RegNum R) { ConsumerUsesD |= (R == D); });
  if (!ConsumerUsesD)
    return false;
  if (!regionAllowsCombine(B, P, Q, A))
    return false;
  // The combined instruction replaces both; d must die with the pair.
  if (usedBeyond(F, LV, BI, Q, D) && !(Use.definesReg() &&
                                       Use.Dst.getReg() == D))
    return false;

  // Shape 4: collapse a computation into the move that copies its result.
  if (Use.Opcode == Op::Mov && Use.Src[0].isReg() &&
      Use.Src[0].getReg() == D && A.Opcode != Op::Mov) {
    // Calls keep their position (side effects); everything else migrates
    // to the move's slot. Either way the destination becomes x.
    RegNum X = Use.Dst.getReg();
    if (X != D) {
      // x must be untouched between P and Q for the retarget to be valid.
      for (size_t K = P + 1; K < Q; ++K) {
        const Rtl &M = B.Insts[K];
        bool XInvolved = false;
        M.forEachUsedReg([&](RegNum R) { XInvolved |= (R == X); });
        if (M.definesReg() && M.Dst.getReg() == X)
          XInvolved = true;
        if (XInvolved)
          return false;
      }
      // A's own sources must not include x… rewriting dst only is fine
      // even then, but then A would read x before writing it; x's value
      // here equals its value at Q only if untouched — checked above, and
      // A reading x is fine since A precedes the region.
    }
    Rtl New = A;
    New.Dst = Operand::reg(X);
    std::vector<Rtl> &MI = F.Blocks.mut(BI).Insts;
    if (A.Opcode == Op::Call) {
      MI[P] = New;
      MI.erase(MI.begin() + static_cast<long>(Q));
    } else {
      MI[Q] = New;
      MI.erase(MI.begin() + static_cast<long>(P));
    }
    return true;
  }

  // Shapes 1-3 require a deletable producer (pure value computation).
  if (A.hasSideEffects() || A.Opcode == Op::Call)
    return false;

  Rtl New = Use;
  if (A.Opcode == Op::Mov) {
    // Shapes 1 and 2: forward an immediate or another register.
    New = substitute(Use, D, A.Src[0]);
    constantFold(New);
  } else if (A.Opcode == Op::Lea &&
             (Use.Opcode == Op::Load || Use.Opcode == Op::Store) &&
             Use.Src[0].isReg() && Use.Src[0].getReg() == D) {
    // Shape 3: fold the address computation into the memory access. Only
    // the base position may take it; if d is also the stored value, the
    // combination is impossible.
    bool DElsewhere = false;
    if (Use.Opcode == Op::Store && Use.Src[2].isReg() &&
        Use.Src[2].getReg() == D)
      DElsewhere = true;
    if (DElsewhere)
      return false;
    New.Src[0] = A.Src[0];
  } else {
    return false; // No other producer shapes combine.
  }

  if (!target::isLegal(New))
    return false;
  std::vector<Rtl> &MI = F.Blocks.mut(BI).Insts;
  MI[Q] = New;
  MI.erase(MI.begin() + static_cast<long>(P));
  return true;
}

/// Performs the first combine found in block \p BI, scanning producers in
/// order. Returns true if one was made.
bool combineFirst(Function &F, const Liveness &LV, size_t BI) {
  const BasicBlock &B = F.Blocks[BI];
  for (size_t P = 0; P < B.Insts.size(); ++P) {
    if (!B.Insts[P].definesReg())
      continue;
    for (size_t Q = P + 1; Q < B.Insts.size(); ++Q) {
      if (tryCombine(F, LV, BI, P, Q))
        return true;
      // Stop extending the window once d is redefined.
      if (B.Insts[Q].definesReg() &&
          B.Insts[Q].Dst.getReg() == B.Insts[P].Dst.getReg())
        break;
    }
  }
  return false;
}

} // namespace

bool InstructionSelectionPhase::apply(Function &F) const {
  // One Cfg + Liveness serve the whole application. A combine rewrites
  // one block without touching the CFG or any block's live-in/live-out:
  // each shape only moves a def or use between P and Q, and
  // regionAllowsCombine proved nothing in between touches the moved
  // registers. So earlier blocks cannot gain a combine and LV.liveOut
  // stays exact; only the rewritten block is rescanned from its start.
  const Cfg C = Cfg::build(F);
  const Liveness LV(F, C);
  bool Changed = false;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI)
    while (combineFirst(F, LV, BI))
      Changed = true;
  return Changed;
}
