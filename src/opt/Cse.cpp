//===- Cse.cpp - Phase c --------------------------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// "Performs global analysis to eliminate fully redundant calculations,
// which also includes global constant and copy propagation" (Table 1).
// Requires register assignment (Section 3): the analysis runs over the
// target's hardware registers.
//
// Three cooperating transformations, iterated to a fixed point:
//   1. Global constant propagation — forward lattice (const/NAC) per
//      register; constant uses are rewritten into immediates where the
//      machine encoding allows (VPO keeps every RTL legal), and
//      all-constant computations fold into moves.
//   2. Local copy propagation — within a block, uses of a copied register
//      are renamed to the copy source, exposing dead moves and CSE.
//   3. Global common subexpression elimination — available-expression
//      dataflow over (dst, op, src0, src1) tuples; a recomputation whose
//      tuple is available turns into a move from the holding register (or
//      disappears when it targets the same register).
//
// None of the three changes the CFG or names a new register, so one Cfg
// and one register universe serve the whole application, and every
// per-register state is a dense array indexed by register number.
//
//===----------------------------------------------------------------------===//

#include "src/ir/Function.h"
#include "src/machine/Target.h"
#include "src/opt/Phases.h"
#include "src/support/BitVector.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <tuple>

using namespace pose;

namespace {

//===----------------------------------------------------------------------===//
// Global constant propagation
//===----------------------------------------------------------------------===//

/// Lattice value for one register: unknown-yet (Top), a constant, or
/// not-a-constant (Bottom).
struct LatticeVal {
  enum KindT : uint8_t { Top, Const, Bottom } Kind = Top;
  int32_t Value = 0;

  static LatticeVal top() { return {}; }
  static LatticeVal constant(int32_t V) { return {Const, V}; }
  static LatticeVal bottom() { return {Bottom, 0}; }

  bool operator==(const LatticeVal &O) const {
    return Kind == O.Kind && (Kind != Const || Value == O.Value);
  }
};

LatticeVal meet(const LatticeVal &A, const LatticeVal &B) {
  if (A.Kind == LatticeVal::Top)
    return B;
  if (B.Kind == LatticeVal::Top)
    return A;
  if (A.Kind == LatticeVal::Const && B.Kind == LatticeVal::Const &&
      A.Value == B.Value)
    return A;
  return LatticeVal::bottom();
}

/// Lattice value per register of the universe; Top is the default.
using RegState = std::vector<LatticeVal>;

/// One past the highest register \p F names. No part of c introduces a
/// register, so the bound holds for the whole application.
size_t registerUniverse(const Function &F) {
  size_t N = 0;
  auto Visit = [&N](const Operand &O) {
    if (O.isReg())
      N = std::max<size_t>(N, O.getReg() + 1);
  };
  for (const BasicBlock &B : F.Blocks)
    for (const Rtl &I : B.Insts) {
      Visit(I.Dst);
      for (const Operand &S : I.Src)
        Visit(S);
      for (const Operand &A : I.Args)
        Visit(A);
    }
  return N;
}

std::optional<int32_t> foldConst(Op O, int32_t A, int32_t B) {
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

/// Value of an operand under \p S, if statically known.
std::optional<int32_t> operandConst(const Operand &O, const RegState &S) {
  if (O.isImm())
    return O.Value;
  if (O.isReg()) {
    const LatticeVal &V = S[O.getReg()];
    if (V.Kind == LatticeVal::Const)
      return V.Value;
  }
  return std::nullopt;
}

/// Transfer function of one instruction for constant propagation.
void transfer(const Rtl &I, RegState &S) {
  if (!I.definesReg())
    return;
  RegNum D = I.Dst.getReg();
  if (I.Opcode == Op::Mov) {
    std::optional<int32_t> V = operandConst(I.Src[0], S);
    S[D] = V ? LatticeVal::constant(*V) : LatticeVal::bottom();
    return;
  }
  if (I.isBinary()) {
    std::optional<int32_t> A = operandConst(I.Src[0], S);
    std::optional<int32_t> B = operandConst(I.Src[1], S);
    if (A && B) {
      if (std::optional<int32_t> V = foldConst(I.Opcode, *A, *B)) {
        S[D] = LatticeVal::constant(*V);
        return;
      }
    }
    S[D] = LatticeVal::bottom();
    return;
  }
  if (I.Opcode == Op::Neg || I.Opcode == Op::Not) {
    std::optional<int32_t> A = operandConst(I.Src[0], S);
    if (A) {
      int32_t V = I.Opcode == Op::Neg
                      ? static_cast<int32_t>(0u - static_cast<uint32_t>(*A))
                      : ~*A;
      S[D] = LatticeVal::constant(V);
      return;
    }
    S[D] = LatticeVal::bottom();
    return;
  }
  S[D] = LatticeVal::bottom(); // Lea, Load, Call.
}

bool constantPropagation(Function &F, const Cfg &C, size_t NumRegs) {
  const size_t N = F.Blocks.size();
  std::vector<RegState> In(N, RegState(NumRegs)), Out(N, RegState(NumRegs));
  RegState NewIn(NumRegs), NewOut(NumRegs);
  bool Iterate = true;
  while (Iterate) {
    Iterate = false;
    for (size_t B = 0; B != N; ++B) {
      // Entry (parameters arrive in memory) and unreachable blocks know
      // nothing; elsewhere take the pointwise meet over predecessors.
      if (B == 0 || C.Preds[B].empty()) {
        std::fill(NewIn.begin(), NewIn.end(), LatticeVal::top());
      } else {
        NewIn = Out[static_cast<size_t>(C.Preds[B][0])];
        for (size_t P = 1; P != C.Preds[B].size(); ++P) {
          const RegState &Other = Out[static_cast<size_t>(C.Preds[B][P])];
          for (size_t R = 0; R != NumRegs; ++R)
            NewIn[R] = meet(NewIn[R], Other[R]);
        }
      }
      NewOut = NewIn;
      for (const Rtl &I : F.Blocks[B].Insts)
        transfer(I, NewOut);
      if (NewIn != In[B] || NewOut != Out[B]) {
        In[B] = NewIn;
        Out[B] = NewOut;
        Iterate = true;
      }
    }
  }

  // Rewrite pass: replace known-constant register uses with immediates
  // wherever the machine encoding allows, and fold all-constant ops.
  bool Changed = false;
  for (size_t B = 0; B != N; ++B) {
    RegState S = In[B];
    // Lazy COW materialization: the block body is fetched mutably only
    // when the first instruction actually rewrites.
    BasicBlock *MB = nullptr;
    const size_t NI = F.Blocks[B].Insts.size();
    for (size_t J = 0; J != NI; ++J) {
      const Rtl &I = MB ? MB->Insts[J] : F.Blocks[B].Insts[J];
      Rtl New = I;
      bool Rewrote = false;
      // Try each source position (not Args: call arguments accept
      // immediates but rewriting them obscures nothing — still do it).
      auto TryOperand = [&](Operand &O, int SrcIndex) {
        if (!O.isReg())
          return;
        const LatticeVal &V = S[O.getReg()];
        if (V.Kind != LatticeVal::Const)
          return;
        if (!target::immediateAllowed(New.Opcode, SrcIndex, V.Value))
          return;
        O = Operand::imm(V.Value);
        Rewrote = true;
      };
      for (int SI = 0; SI != 3; ++SI)
        if (New.Src[SI].isReg())
          TryOperand(New.Src[SI], SI);
      // Fold if everything became constant.
      if (New.isBinary() && New.Src[0].isImm() && New.Src[1].isImm()) {
        if (std::optional<int32_t> V =
                foldConst(New.Opcode, New.Src[0].Value, New.Src[1].Value)) {
          New = rtl::mov(New.Dst, Operand::imm(*V));
          Rewrote = true;
        }
      }
      if ((New.Opcode == Op::Neg || New.Opcode == Op::Not) &&
          New.Src[0].isImm()) {
        int32_t V = New.Opcode == Op::Neg
                        ? static_cast<int32_t>(
                              0u - static_cast<uint32_t>(New.Src[0].Value))
                        : ~New.Src[0].Value;
        New = rtl::mov(New.Dst, Operand::imm(V));
        Rewrote = true;
      }
      if (Rewrote && target::isLegal(New) && !(New == I)) {
        if (!MB)
          MB = &F.Blocks.mut(B);
        MB->Insts[J] = std::move(New);
        Changed = true;
      }
      transfer(MB ? MB->Insts[J] : F.Blocks[B].Insts[J], S);
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Local copy propagation
//===----------------------------------------------------------------------===//

bool copyPropagation(Function &F, size_t NumRegs) {
  constexpr RegNum NoCopy = ~RegNum(0);
  // CopyOf[d] = s for an active "mov d, s" (s != d), else NoCopy.
  std::vector<RegNum> CopyOf(NumRegs);
  bool Changed = false;
  for (size_t BI = 0; BI != F.Blocks.size(); ++BI) {
    std::fill(CopyOf.begin(), CopyOf.end(), NoCopy);
    BasicBlock *MB = nullptr; // Materialized on the first rewrite.
    const size_t NI = F.Blocks[BI].Insts.size();
    for (size_t J = 0; J != NI; ++J) {
      // Probe const-side whether any use reads through an active copy.
      bool Needs = false;
      (MB ? MB->Insts[J] : F.Blocks[BI].Insts[J])
          .forEachUsedReg([&](RegNum R) { Needs |= CopyOf[R] != NoCopy; });
      if (Needs) {
        if (!MB)
          MB = &F.Blocks.mut(BI);
        MB->Insts[J].forEachUseOperand([&](Operand &O) {
          if (RegNum S = CopyOf[O.getReg()]; S != NoCopy) {
            O = Operand::reg(S);
            Changed = true;
          }
        });
      }
      const Rtl &I = MB ? MB->Insts[J] : F.Blocks[BI].Insts[J];
      if (I.definesReg()) {
        // Writing W ends the copy into W and every copy out of W.
        const RegNum W = I.Dst.getReg();
        CopyOf[W] = NoCopy;
        for (RegNum &S : CopyOf)
          if (S == W)
            S = NoCopy;
        if (I.Opcode == Op::Mov && I.Src[0].isReg() &&
            I.Src[0].getReg() != W)
          CopyOf[W] = I.Src[0].getReg();
      }
    }
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// Global CSE via available (dst, op, src0, src1) tuples
//===----------------------------------------------------------------------===//

/// A pure computation whose recomputation can be elided.
struct ExprKey {
  Op Opcode;
  Operand Dst, S0, S1;

  bool operator<(const ExprKey &O) const {
    auto Tup = [](const ExprKey &E) {
      return std::tuple(static_cast<int>(E.Opcode),
                        static_cast<int>(E.Dst.Kind), E.Dst.Value,
                        static_cast<int>(E.S0.Kind), E.S0.Value,
                        static_cast<int>(E.S1.Kind), E.S1.Value);
    };
    return Tup(*this) < Tup(O);
  }
};

/// Returns the expression tuple computed by \p I, when CSE-able: pure,
/// register-writing, non-trivial (moves are copy propagation's business).
/// Self-referencing computations (destination among the sources, e.g.
/// "r4 = r4 + 1") are excluded: their tuple would describe the *new*
/// value of the source register, which is never what was computed.
std::optional<ExprKey> exprOf(const Rtl &I) {
  if (!I.definesReg())
    return std::nullopt;
  if (I.isBinary() || I.Opcode == Op::Neg || I.Opcode == Op::Not ||
      I.Opcode == Op::Lea) {
    const RegNum D = I.Dst.getReg();
    for (const Operand &S : I.Src)
      if (S.isReg() && S.getReg() == D)
        return std::nullopt;
    return ExprKey{I.Opcode, I.Dst, I.Src[0], I.Src[1]};
  }
  return std::nullopt;
}

bool cseAvailableExpressions(Function &F, const Cfg &C, size_t NumRegs) {
  constexpr uint32_t NoExpr = ~uint32_t(0);
  const size_t N = F.Blocks.size();
  // Collect the expression universe in first-occurrence order, recording
  // each instruction's expression index once for the transfer paths.
  std::vector<ExprKey> Universe;
  std::map<ExprKey, uint32_t> Index;
  std::vector<std::vector<uint32_t>> ExprAt(N);
  for (size_t B = 0; B != N; ++B) {
    ExprAt[B].reserve(F.Blocks[B].Insts.size());
    for (const Rtl &I : F.Blocks[B].Insts) {
      uint32_t K = NoExpr;
      if (std::optional<ExprKey> E = exprOf(I)) {
        auto [It, New] =
            Index.emplace(*E, static_cast<uint32_t>(Universe.size()));
        if (New)
          Universe.push_back(*E);
        K = It->second;
      }
      ExprAt[B].push_back(K);
    }
  }
  if (Universe.empty())
    return false;
  const size_t NE = Universe.size();

  // Writing register W kills every tuple that names W as its holding
  // register or a source (a generating computation re-gens after kill).
  std::vector<BitVector> KillMask(NumRegs, BitVector(NE));
  for (size_t K = 0; K != NE; ++K)
    for (const Operand *O : {&Universe[K].Dst, &Universe[K].S0,
                             &Universe[K].S1})
      if (O->isReg())
        KillMask[O->getReg()].set(K);
  auto Transfer = [&KillMask](const Rtl &I, uint32_t K, BitVector &Avail) {
    if (I.definesReg())
      Avail.subtract(KillMask[I.Dst.getReg()]);
    if (K != NoExpr)
      Avail.set(K);
  };

  // Tuple indices ordered by (op, src0, src1), ascending by index within
  // a run of equal keys: a run holds one value computed into different
  // registers.
  auto ValueKey = [&Universe](uint32_t K) {
    const ExprKey &E = Universe[K];
    return std::tuple(static_cast<int>(E.Opcode), static_cast<int>(E.S0.Kind),
                      E.S0.Value, static_cast<int>(E.S1.Kind), E.S1.Value);
  };
  auto ByValue = [&ValueKey](uint32_t A, uint32_t B) {
    return ValueKey(A) < ValueKey(B);
  };
  std::vector<uint32_t> ByValueOrder(NE);
  std::iota(ByValueOrder.begin(), ByValueOrder.end(), 0u);
  std::stable_sort(ByValueOrder.begin(), ByValueOrder.end(), ByValue);

  // Forward all-paths dataflow.
  BitVector Full(NE);
  for (size_t K = 0; K != NE; ++K)
    Full.set(K);
  std::vector<BitVector> In(N, Full), Out(N, Full);
  In[0] = BitVector(NE);
  BitVector NewIn(NE), NewOut(NE);
  bool Iterate = true;
  while (Iterate) {
    Iterate = false;
    for (size_t B = 0; B != N; ++B) {
      if (B == 0 || C.Preds[B].empty()) {
        NewIn.clear(); // Entry, or unreachable: claim nothing.
      } else {
        NewIn = Full;
        for (int P : C.Preds[B])
          NewIn.intersectWith(Out[static_cast<size_t>(P)]);
      }
      NewOut = NewIn;
      const std::vector<Rtl> &Insts = F.Blocks[B].Insts;
      for (size_t J = 0; J != Insts.size(); ++J)
        Transfer(Insts[J], ExprAt[B][J], NewOut);
      if (NewIn != In[B] || NewOut != Out[B]) {
        In[B] = NewIn;
        Out[B] = NewOut;
        Iterate = true;
      }
    }
  }

  // Rewrite: a recomputation of an available tuple vanishes (its holding
  // register already has the value); one whose (op, srcs) is available in
  // another register becomes a move from it.
  bool Changed = false;
  for (size_t B = 0; B != N; ++B) {
    BitVector &Avail = In[B]; // Consumed: In is not read again.
    BasicBlock *MB = nullptr; // Materialized on the first rewrite.
    size_t Erased = 0;
    for (size_t J0 = 0; J0 != ExprAt[B].size(); ++J0) {
      const size_t J = J0 - Erased;
      uint32_t K = ExprAt[B][J0];
      if (K != NoExpr && Avail.test(K)) {
        if (!MB)
          MB = &F.Blocks.mut(B);
        MB->Insts.erase(MB->Insts.begin() + static_cast<long>(J));
        ++Erased;
        Changed = true;
        continue;
      }
      if (K != NoExpr) {
        const auto [Lo, Hi] = std::equal_range(
            ByValueOrder.begin(), ByValueOrder.end(), K, ByValue);
        for (auto It = Lo; It != Hi; ++It) {
          const uint32_t K2 = *It;
          if (K2 == K || !Avail.test(K2))
            continue;
          if (!MB)
            MB = &F.Blocks.mut(B);
          MB->Insts[J] = rtl::mov(Universe[K].Dst, Universe[K2].Dst);
          Changed = true;
          K = NoExpr; // A move computes no tuple.
          break;
        }
      }
      Transfer(MB ? MB->Insts[J] : F.Blocks[B].Insts[J], K, Avail);
    }
  }
  return Changed;
}

} // namespace

bool CsePhase::apply(Function &F) const {
  assert(F.State.RegsAssigned &&
         "CSE requires register assignment (PhaseManager enforces this)");
  const Cfg C = Cfg::build(F);
  const size_t NumRegs = registerUniverse(F);
  bool Changed = false;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    Progress |= constantPropagation(F, C, NumRegs);
    Progress |= copyPropagation(F, NumRegs);
    Progress |= cseAvailableExpressions(F, C, NumRegs);
    Changed |= Progress;
  }
  return Changed;
}
