//===- analysis_cache_test.cpp - The per-BlockList analysis cell ----------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The analysis cell lets the sibling attempts of one enumeration entry
// share the Cfg, Liveness, Dominators and LoopInfo of their unchanged
// parent. It is only as good as its invalidation, so these tests pin:
//  - every BlockList mutator (and makePseudo) invalidates the cell;
//  - copies share the cell until one of them mutates, and the mutated
//    copy leaves the others' cell and analyses intact;
//  - cells are never attached implicitly by the accessors;
//  - a suite-wide audit: after every attempt on every DAG instance of
//    every suite function, each filled slot equals a fresh build. This is
//    what catches a write through a held BasicBlock & after a cache fill.
// The parallel test runs under TSan: cells are unlocked by design.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/AnalysisCache.h"

#include "src/analysis/Dominators.h"
#include "src/analysis/Liveness.h"
#include "src/analysis/Loops.h"
#include "src/core/Canonical.h"
#include "src/core/DagPaths.h"
#include "src/core/Enumerator.h"
#include "src/ir/AnalysisCounts.h"
#include "src/opt/PhaseManager.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

using namespace pose;
using namespace pose::testhelpers;

namespace {

/// B0 -> B1 (loop header, test) -> B2 (body) -> B1; B1 -> B3 (exit).
Function loopFunction() {
  Function F;
  F.Name = "loop";
  const size_t B0 = F.addBlock(), B1 = F.addBlock(), B2 = F.addBlock(),
               B3 = F.addBlock();
  const RegNum R = F.makePseudo();
  F.Blocks.mut(B0).Insts.push_back(rtl::mov(Operand::reg(R), Operand::imm(9)));
  F.Blocks.mut(B1).Insts.push_back(rtl::cmp(Operand::reg(R), Operand::imm(0)));
  F.Blocks.mut(B1).Insts.push_back(rtl::branch(Cond::Eq, F.Blocks[B3].Label));
  F.Blocks.mut(B2).Insts.push_back(rtl::binary(Op::Sub, Operand::reg(R),
                                               Operand::reg(R),
                                               Operand::imm(1)));
  F.Blocks.mut(B2).Insts.push_back(rtl::jump(F.Blocks[B1].Label));
  F.Blocks.mut(B3).Insts.push_back(rtl::ret(Operand::none()));
  return F;
}

void fillAll(const Function &F) {
  (void)cfgOf(F);
  (void)livenessOf(F);
  (void)dominatorsOf(F);
  (void)loopsOf(F);
}

bool allFilled(const detail::AnalysisCell *C) {
  return C && C->Graph && C->Live && C->Dom && C->Loops;
}

// Each filled slot of F's cell must equal an analysis built from scratch.
::testing::AssertionResult cellMatchesFreshBuild(const Function &F) {
  const detail::AnalysisCell *Cell = F.Blocks.analyses();
  if (!Cell)
    return ::testing::AssertionSuccess();
  const size_t N = F.Blocks.size();
  const Cfg C = Cfg::build(F);
  if (Cell->Graph &&
      (Cell->Graph->Succs != C.Succs || Cell->Graph->Preds != C.Preds))
    return ::testing::AssertionFailure() << "stale Cfg";
  if (Cell->Live) {
    const Liveness L(F, C);
    if (Cell->Live->numRegs() != L.numRegs())
      return ::testing::AssertionFailure() << "stale Liveness width";
    for (size_t B = 0; B != N; ++B)
      if (Cell->Live->liveIn(B) != L.liveIn(B) ||
          Cell->Live->liveOut(B) != L.liveOut(B))
        return ::testing::AssertionFailure() << "stale Liveness at " << B;
  }
  if (Cell->Dom || Cell->Loops) {
    const Dominators D(F, C);
    if (Cell->Dom)
      for (size_t B = 0; B != N; ++B)
        if (Cell->Dom->domSet(B) != D.domSet(B) ||
            Cell->Dom->isReachable(B) != D.isReachable(B))
          return ::testing::AssertionFailure() << "stale Dominators at " << B;
    if (Cell->Loops) {
      const LoopInfo LI(F, C, D);
      const std::vector<Loop> &A = Cell->Loops->loops(), &E = LI.loops();
      if (A.size() != E.size())
        return ::testing::AssertionFailure() << "stale LoopInfo count";
      for (size_t K = 0; K != A.size(); ++K)
        if (A[K].Header != E[K].Header || A[K].Latches != E[K].Latches ||
            A[K].Blocks != E[K].Blocks || A[K].Depth != E[K].Depth)
          return ::testing::AssertionFailure() << "stale loop " << K;
    }
  }
  return ::testing::AssertionSuccess();
}

struct Mutator {
  const char *Name;
  std::function<void(Function &)> Apply;
};

std::vector<Mutator> allMutators() {
  return {
      {"mut", [](Function &F) { (void)F.Blocks.mut(1); }},
      {"mutBack", [](Function &F) { (void)F.Blocks.mutBack(); }},
      {"push_back", [](Function &F) { F.Blocks.push_back(BasicBlock(99)); }},
      {"emplace_back", [](Function &F) { (void)F.Blocks.emplace_back(99); }},
      {"pop_back", [](Function &F) { F.Blocks.pop_back(); }},
      {"clear", [](Function &F) { F.Blocks.clear(); }},
      {"resize", [](Function &F) { F.Blocks.resize(2); }},
      {"eraseAt", [](Function &F) { F.Blocks.eraseAt(2); }},
      {"eraseRange", [](Function &F) { F.Blocks.eraseRange(1, 3); }},
      {"insertAt", [](Function &F) { F.Blocks.insertAt(1, BasicBlock(99)); }},
      {"rotate", [](Function &F) { F.Blocks.rotate(1, 2, 3); }},
      {"addBlock", [](Function &F) { (void)F.addBlock(); }},
      {"makePseudo", [](Function &F) { (void)F.makePseudo(); }},
      {"setAllocationCounters",
       [](Function &F) {
         F.setAllocationCounters(F.pseudoLimit() + 1, F.labelLimit());
       }},
      {"recomputeCounters", [](Function &F) { F.recomputeCounters(); }},
  };
}

TEST(AnalysisCache, EveryMutatorInvalidatesAPrivateCell) {
  for (const Mutator &M : allMutators()) {
    Function F = loopFunction();
    F.Blocks.attachAnalyses();
    fillAll(F);
    const detail::AnalysisCell *Before = F.Blocks.analyses();
    ASSERT_TRUE(allFilled(Before)) << M.Name;
    M.Apply(F);
    // Not shared: cleared in place.
    EXPECT_EQ(F.Blocks.analyses(), Before) << M.Name;
    EXPECT_TRUE(F.Blocks.analyses()->empty()) << M.Name;
  }
}

TEST(AnalysisCache, EveryMutatorSwapsASharedCellAndSparesTheOthers) {
  for (const Mutator &M : allMutators()) {
    Function Parent = loopFunction();
    Parent.Blocks.attachAnalyses();
    fillAll(Parent);
    const detail::AnalysisCell *Shared = Parent.Blocks.analyses();
    const std::shared_ptr<const Liveness> ParentLive = livenessOf(Parent);
    Function Child = Parent;
    ASSERT_EQ(Child.Blocks.analyses(), Shared) << M.Name;
    M.Apply(Child);
    ASSERT_NE(Child.Blocks.analyses(), nullptr) << M.Name;
    EXPECT_NE(Child.Blocks.analyses(), Shared) << M.Name;
    EXPECT_TRUE(Child.Blocks.analyses()->empty()) << M.Name;
    EXPECT_EQ(Parent.Blocks.analyses(), Shared) << M.Name;
    EXPECT_TRUE(allFilled(Shared)) << M.Name;
    EXPECT_EQ(livenessOf(Parent), ParentLive) << M.Name;
    EXPECT_TRUE(cellMatchesFreshBuild(Parent)) << M.Name;
  }
}

TEST(AnalysisCache, CopiesShareOneBuildUntilOneMutates) {
  Function Parent = loopFunction();
  Parent.Blocks.attachAnalyses();
  Function A = Parent, B = Parent;
  const AnalysisCounts Before = analysisBuildTotals();
  fillAll(A);
  fillAll(B);
  fillAll(Parent);
  const AnalysisCounts Built = analysisBuildTotals() - Before;
  EXPECT_EQ(Built.CfgBuilds, 1u);
  EXPECT_EQ(Built.LivenessBuilds, 1u);
  EXPECT_EQ(Built.DominatorsBuilds, 1u);
  EXPECT_EQ(Built.LoopInfoBuilds, 1u);
  EXPECT_EQ(cfgOf(A), cfgOf(B));

  // A mutation gives A a private cell; B and the parent keep sharing.
  const RegNum T = A.makePseudo();
  BasicBlock &Body = A.Blocks.mut(2);
  Body.Insts.insert(Body.Insts.begin(),
                    rtl::mov(Operand::reg(T), Operand::imm(1)));
  EXPECT_NE(A.Blocks.analyses(), B.Blocks.analyses());
  EXPECT_EQ(B.Blocks.analyses(), Parent.Blocks.analyses());
  EXPECT_NE(livenessOf(A), livenessOf(B));
  EXPECT_EQ(livenessOf(A)->numRegs(), livenessOf(B)->numRegs() + 1);
  EXPECT_TRUE(cellMatchesFreshBuild(A));
  EXPECT_TRUE(cellMatchesFreshBuild(B));
}

TEST(AnalysisCache, HeldAnalysisOutlivesInvalidation) {
  Function F = loopFunction();
  F.Blocks.attachAnalyses();
  const std::shared_ptr<const Cfg> Old = cfgOf(F);
  F.Blocks.insertAt(1, BasicBlock(F.makeLabel()));
  EXPECT_EQ(Old->Succs.size(), 4u);
  EXPECT_EQ(cfgOf(F)->Succs.size(), 5u);
}

TEST(AnalysisCache, AccessorsNeverAttachACell) {
  Function F = loopFunction();
  const AnalysisCounts Before = analysisBuildTotals();
  (void)cfgOf(F);
  (void)cfgOf(F);
  (void)loopsOf(F);
  EXPECT_EQ(F.Blocks.analyses(), nullptr);
  const AnalysisCounts Built = analysisBuildTotals() - Before;
  // Two direct Cfg builds, and one that loopsOf shares with its
  // Dominators.
  EXPECT_EQ(Built.CfgBuilds, 3u);
  EXPECT_EQ(Built.DominatorsBuilds, 1u);
  EXPECT_EQ(Built.LoopInfoBuilds, 1u);
}

TEST(AnalysisCache, DeepCopyKeepsTheCell) {
  Function F = loopFunction();
  F.Blocks.attachAnalyses();
  fillAll(F);
  const detail::AnalysisCell *Cell = F.Blocks.analyses();
  Function G = F.deepCopy();
  EXPECT_EQ(G.Blocks.analyses(), Cell);
  F.unshareAll();
  EXPECT_EQ(F.Blocks.analyses(), Cell);
  EXPECT_TRUE(allFilled(Cell));
}

TEST(AnalysisCache, DetachLeavesCopiesTheirCell) {
  Function F = loopFunction();
  F.Blocks.attachAnalyses();
  fillAll(F);
  Function G = F;
  const detail::AnalysisCell *Cell = F.Blocks.analyses();
  F.Blocks.detachAnalyses();
  EXPECT_EQ(F.Blocks.analyses(), nullptr);
  EXPECT_EQ(G.Blocks.analyses(), Cell);
  EXPECT_TRUE(allFilled(Cell));
}

TEST(AnalysisCache, AttemptScopesItsOwnCellToTheAttempt) {
  const PhaseManager PM;
  Function F = loopFunction();
  (void)PM.attempt(PhaseId::DeadAssignElim, F);
  EXPECT_EQ(F.Blocks.analyses(), nullptr);

  Function Parent = loopFunction();
  Parent.Blocks.attachAnalyses();
  fillAll(Parent);
  Function Work = Parent;
  // Dormant: the attempt reads the parent's analyses through the shared
  // cell and builds nothing.
  const AnalysisCounts Before = analysisBuildTotals();
  EXPECT_FALSE(PM.attempt(PhaseId::EvalOrder, Work));
  const AnalysisCounts Built = analysisBuildTotals() - Before;
  EXPECT_EQ(Built.CfgBuilds, 0u);
  EXPECT_EQ(Built.LivenessBuilds, 0u);
  EXPECT_EQ(Work.Blocks.analyses(), Parent.Blocks.analyses());
}

std::vector<Module> suiteModules() {
  std::vector<Module> Modules;
  for (const Workload &W : allWorkloads())
    Modules.push_back(compileOrDie(W.Source));
  return Modules;
}

TEST(AnalysisCacheAudit, EveryAttemptOnEveryInstanceLeavesExactCells) {
  const PhaseManager PM;
  const Enumerator E(PM, EnumeratorConfig());
  uint64_t Attempts = 0, Audited = 0;
  for (const Module &M : suiteModules()) {
    for (const Function &Root : M.Functions) {
      const EnumerationResult R = E.enumerate(Root);
      ASSERT_TRUE(R.complete()) << Root.Name;
      DagPaths(R).forEachInstance(
          Root, PM, nullptr, [&](uint32_t Id, const Function &Inst) {
            // The enumerator's scope: one fresh cell per entry, shared by
            // every sibling attempt.
            Function Parent = Inst;
            Parent.Blocks.detachAnalyses();
            Parent.Blocks.attachAnalyses();
            for (int PI = 0; PI != NumPhases; ++PI) {
              const PhaseId P = phaseByIndex(PI);
              if (!PM.isLegal(P, Parent))
                continue;
              Function Work = Parent;
              const bool Active = PM.attempt(P, Work);
              if (Active)
                (void)controlFlowHash(Work);
              ++Attempts;
              Audited += !Work.Blocks.analyses()->empty();
              ASSERT_TRUE(cellMatchesFreshBuild(Work))
                  << Root.Name << " node " << Id << " after "
                  << phaseCode(P);
            }
            ASSERT_TRUE(cellMatchesFreshBuild(Parent))
                << Root.Name << " node " << Id << " (parent)";
          });
    }
  }
  EXPECT_GT(Attempts, 100000u);
  EXPECT_GT(Audited, Attempts / 2);
}

TEST(AnalysisCache, ParallelExpansionMatchesOneThread) {
  // Under TSan this is the check that cells need no lock: each is reached
  // only from the copies of one frontier entry, on the task expanding it.
  Module M = compileOrDie(findWorkload("bitcount")->Source);
  const PhaseManager PM;
  for (const Function &F : M.Functions) {
    EnumeratorConfig One, Three;
    Three.Jobs = 3;
    const EnumerationResult A = Enumerator(PM, One).enumerate(F);
    const EnumerationResult B = Enumerator(PM, Three).enumerate(F);
    ASSERT_EQ(A.Nodes.size(), B.Nodes.size()) << F.Name;
    for (size_t I = 0; I != A.Nodes.size(); ++I) {
      EXPECT_EQ(A.Nodes[I].Hash.Crc, B.Nodes[I].Hash.Crc) << F.Name;
      EXPECT_EQ(A.Nodes[I].CfHash, B.Nodes[I].CfHash) << F.Name;
      ASSERT_EQ(A.Nodes[I].Edges.size(), B.Nodes[I].Edges.size()) << F.Name;
      for (size_t K = 0; K != A.Nodes[I].Edges.size(); ++K)
        EXPECT_EQ(A.Nodes[I].Edges[K].To, B.Nodes[I].Edges[K].To) << F.Name;
    }
    EXPECT_EQ(A.ApproxMemoryBytes, B.ApproxMemoryBytes) << F.Name;
  }
}

} // namespace
