//===- parallel_enumerator_test.cpp - Job-count differentials -----------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The enumerator's contract is "byte-identical for any job count": node
// ids, edge order, every statistic, every diagnostic, the accounted
// memory and the stop reason. This suite enforces that differentially —
// over every workload function under enumeration budgets, under paranoid
// comparison, in naive re-apply mode, with injected verifier faults, and
// for a cancellation, which like every stop is polled at level barriers —
// and checks that a deadline stop still yields a self-consistent partial
// DAG.
//
//===----------------------------------------------------------------------===//

#include "src/core/Enumerator.h"

#include "src/frontend/Compile.h"
#include "src/opt/PhaseManager.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

const char *SumSource =
    "int f(int n){int s=0;int i=0;while(i<n){s=s+i;i=i+1;}return s;}";

EnumerationResult enumerateWithJobs(const Function &F, EnumeratorConfig Cfg,
                                    unsigned Jobs) {
  Cfg.Jobs = Jobs;
  PhaseManager PM;
  Enumerator E(PM, Cfg);
  return E.enumerate(F);
}

/// Field-by-field equality of two enumeration results. EXPECT (not
/// ASSERT) per field so one mismatch shows every divergent statistic.
void expectIdentical(const EnumerationResult &A, const EnumerationResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Stop, B.Stop) << What;
  EXPECT_EQ(A.Cyclic, B.Cyclic) << What;
  EXPECT_EQ(A.AttemptedPhases, B.AttemptedPhases) << What;
  EXPECT_EQ(A.PhaseApplications, B.PhaseApplications) << What;
  EXPECT_EQ(A.MaxActiveLength, B.MaxActiveLength) << What;
  EXPECT_EQ(A.HashCollisions, B.HashCollisions) << What;
  EXPECT_EQ(A.ApproxMemoryBytes, B.ApproxMemoryBytes) << What;

  ASSERT_EQ(A.Nodes.size(), B.Nodes.size()) << What;
  for (size_t I = 0; I != A.Nodes.size(); ++I) {
    const DagNode &NA = A.Nodes[I];
    const DagNode &NB = B.Nodes[I];
    EXPECT_EQ(NA.Hash, NB.Hash) << What << " node " << I;
    EXPECT_EQ(NA.Level, NB.Level) << What << " node " << I;
    EXPECT_EQ(NA.CodeSize, NB.CodeSize) << What << " node " << I;
    EXPECT_EQ(NA.CfHash, NB.CfHash) << What << " node " << I;
    EXPECT_EQ(NA.ActiveMask, NB.ActiveMask) << What << " node " << I;
    EXPECT_EQ(NA.DormantMask, NB.DormantMask) << What << " node " << I;
    EXPECT_EQ(NA.AttemptedMask, NB.AttemptedMask) << What << " node " << I;
    EXPECT_EQ(NA.Weight, NB.Weight) << What << " node " << I;
    ASSERT_EQ(NA.Edges.size(), NB.Edges.size()) << What << " node " << I;
    for (size_t E = 0; E != NA.Edges.size(); ++E) {
      EXPECT_EQ(NA.Edges[E].Phase, NB.Edges[E].Phase)
          << What << " node " << I << " edge " << E;
      EXPECT_EQ(NA.Edges[E].To, NB.Edges[E].To)
          << What << " node " << I << " edge " << E;
    }
  }

  ASSERT_EQ(A.Levels.size(), B.Levels.size()) << What;
  for (size_t I = 0; I != A.Levels.size(); ++I) {
    EXPECT_EQ(A.Levels[I].Level, B.Levels[I].Level) << What << " level " << I;
    EXPECT_EQ(A.Levels[I].NewNodes, B.Levels[I].NewNodes)
        << What << " level " << I;
    EXPECT_EQ(A.Levels[I].ActiveSequences, B.Levels[I].ActiveSequences)
        << What << " level " << I;
    EXPECT_EQ(A.Levels[I].Attempted, B.Levels[I].Attempted)
        << What << " level " << I;
    EXPECT_EQ(A.Levels[I].Active, B.Levels[I].Active)
        << What << " level " << I;
  }

  ASSERT_EQ(A.Diagnostics.size(), B.Diagnostics.size()) << What;
  for (size_t I = 0; I != A.Diagnostics.size(); ++I) {
    EXPECT_EQ(A.Diagnostics[I].Phase, B.Diagnostics[I].Phase)
        << What << " diag " << I;
    EXPECT_EQ(A.Diagnostics[I].Func, B.Diagnostics[I].Func)
        << What << " diag " << I;
    EXPECT_EQ(A.Diagnostics[I].Message, B.Diagnostics[I].Message)
        << What << " diag " << I;
    EXPECT_EQ(A.Diagnostics[I].Application, B.Diagnostics[I].Application)
        << What << " diag " << I;
    EXPECT_EQ(A.Diagnostics[I].Injected, B.Diagnostics[I].Injected)
        << What << " diag " << I;
  }
}

/// Partial DAGs must still satisfy every structural invariant.
void expectSelfConsistent(const EnumerationResult &R) {
  for (const DagNode &N : R.Nodes) {
    uint64_t Sum = 0;
    for (const DagEdge &E : N.Edges) {
      ASSERT_LT(E.To, R.Nodes.size());
      EXPECT_LE(R.Nodes[E.To].Level, N.Level + 1);
      Sum += R.Nodes[E.To].Weight;
    }
    if (N.isLeaf()) {
      EXPECT_EQ(N.Weight, 1u);
    } else if (!R.Cyclic) {
      EXPECT_EQ(N.Weight, Sum);
    }
  }
}

/// Budgets that let small functions complete and deterministically stop
/// large ones (LevelBudget / NodeBudget are barrier-only conditions, so
/// the stopped prefix must also be byte-identical).
EnumeratorConfig cappedConfig() {
  EnumeratorConfig Cfg;
  Cfg.MaxLevelSequences = 1'000;
  Cfg.MaxTotalNodes = 8'000;
  return Cfg;
}

TEST(ParallelEnumerator, WorkloadFunctionsIdenticalAcrossJobCounts) {
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (Function &F : M.Functions) {
      EnumerationResult Seq = enumerateWithJobs(F, cappedConfig(), 1);
      for (unsigned Jobs : {2u, 4u, 8u}) {
        EnumerationResult Par = enumerateWithJobs(F, cappedConfig(), Jobs);
        expectIdentical(Seq, Par,
                        std::string(W.Name) + "/" + F.Name + " jobs=" +
                            std::to_string(Jobs));
      }
    }
  }
}

TEST(ParallelEnumerator, CompleteSpaceIdenticalAndComplete) {
  // A function whose space is exhaustively enumerable: every job count
  // must agree *and* report Complete (the budgets above may hide a run
  // that silently stops early).
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumerationResult Seq = enumerateWithJobs(F, {}, 1);
  ASSERT_EQ(Seq.Stop, StopReason::Complete);
  for (unsigned Jobs : {2u, 4u, 8u}) {
    EnumerationResult Par = enumerateWithJobs(F, {}, Jobs);
    EXPECT_EQ(Par.Stop, StopReason::Complete);
    expectIdentical(Seq, Par, "sum jobs=" + std::to_string(Jobs));
  }
}

TEST(ParallelEnumerator, ParanoidCompareIdentical) {
  // Paranoid mode keeps canonical bytes per node and counts collisions;
  // the commit must compare and record byte buffers in the same order
  // for any job count.
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg;
  Cfg.ParanoidCompare = true;
  EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
  EXPECT_EQ(Seq.HashCollisions, 0u);
  EnumerationResult Par = enumerateWithJobs(F, Cfg, 4);
  expectIdentical(Seq, Par, "paranoid");

  const Workload *W = findWorkload("bitcount");
  ASSERT_NE(W, nullptr);
  Module MW = compileOrDie(W->Source);
  EnumeratorConfig Capped = cappedConfig();
  Capped.ParanoidCompare = true;
  for (Function &FW : MW.Functions) {
    EnumerationResult S = enumerateWithJobs(FW, Capped, 1);
    EnumerationResult P = enumerateWithJobs(FW, Capped, 4);
    expectIdentical(S, P, "paranoid " + FW.Name);
  }
}

TEST(ParallelEnumerator, NaiveReapplyIdentical) {
  // Naive mode replays phase prefixes instead of storing instances, so
  // PhaseApplications > AttemptedPhases — and both counters, plus the
  // path-based memory accounting, must agree across job counts.
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg;
  Cfg.NaiveReapply = true;
  EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
  ASSERT_EQ(Seq.Stop, StopReason::Complete);
  EXPECT_GT(Seq.PhaseApplications, Seq.AttemptedPhases);
  for (unsigned Jobs : {2u, 4u}) {
    EnumerationResult Par = enumerateWithJobs(F, Cfg, Jobs);
    expectIdentical(Seq, Par, "naive jobs=" + std::to_string(Jobs));
  }
}

TEST(ParallelEnumerator, NoRegisterRemappingIdentical) {
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg = cappedConfig();
  Cfg.RemapRegisters = false;
  EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
  EnumerationResult Par = enumerateWithJobs(F, Cfg, 4);
  expectIdentical(Seq, Par, "no-remap");
}

TEST(ParallelEnumerator, InjectedFaultsIdenticalAcrossJobCounts) {
  // Fault coordinates are per-phase application ordinals. The engine
  // precomputes them in frontier order, so the same
  // application must fail, the same edge must be pruned, and the same
  // diagnostic (with the same ordinal) must surface for any job count.
  FaultPlan Plan;
  ASSERT_TRUE(FaultPlan::parse("s:1,c:2,d:3", Plan));
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg;
  Cfg.VerifyIr = true;
  Cfg.Faults = &Plan;
  EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
  EXPECT_EQ(Seq.Stop, StopReason::VerifierFailure);
  EXPECT_FALSE(Seq.Diagnostics.empty());
  for (unsigned Jobs : {2u, 4u, 8u}) {
    EnumerationResult Par = enumerateWithJobs(F, Cfg, Jobs);
    expectIdentical(Seq, Par, "faults jobs=" + std::to_string(Jobs));
  }
}

TEST(ParallelEnumerator, InjectedFaultsOnWorkloadIdentical) {
  FaultPlan Plan;
  ASSERT_TRUE(FaultPlan::parse("c:5,i:2", Plan));
  const Workload *W = findWorkload("bitcount");
  ASSERT_NE(W, nullptr);
  Module M = compileOrDie(W->Source);
  EnumeratorConfig Cfg = cappedConfig();
  Cfg.VerifyIr = true;
  Cfg.Faults = &Plan;
  for (Function &F : M.Functions) {
    EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
    EnumerationResult Par = enumerateWithJobs(F, Cfg, 4);
    expectIdentical(Seq, Par, "workload faults " + F.Name);
  }
}

TEST(ParallelEnumerator, MemoryBudgetStopIdentical) {
  // MemoryBudget is checked only at barriers with deterministic
  // accounting, so even this stop must be byte-identical.
  const Workload *W = findWorkload("sha");
  ASSERT_NE(W, nullptr);
  Module M = compileOrDie(W->Source);
  Function &F = functionNamed(M, "sha_transform");
  EnumeratorConfig Cfg;
  Cfg.MaxMemoryBytes = 50'000;
  EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
  EXPECT_EQ(Seq.Stop, StopReason::MemoryBudget);
  EnumerationResult Par = enumerateWithJobs(F, Cfg, 4);
  expectIdentical(Seq, Par, "memory budget");
}

TEST(ParallelEnumerator, PreCancelledTokenStopsWithPartialResult) {
  // Cancellation is polled at the level barrier for every job count, so
  // a token cancelled up front stops after level 1 with the same partial
  // DAG everywhere.
  StopToken Token;
  Token.requestStop();
  Module M = compileOrDie(SumSource);
  Function &F = functionNamed(M, "f");
  EnumeratorConfig Cfg;
  Cfg.Stop = &Token;
  EnumerationResult Seq = enumerateWithJobs(F, Cfg, 1);
  EXPECT_EQ(Seq.Stop, StopReason::Cancelled);
  EXPECT_FALSE(Seq.complete());
  EXPECT_EQ(Seq.Levels.size(), 2u);
  expectSelfConsistent(Seq);
  EnumerationResult Par = enumerateWithJobs(F, Cfg, 4);
  expectIdentical(Seq, Par, "pre-cancelled");
}

TEST(ParallelEnumerator, DeadlineStopsMidRunWithConsistentResult) {
  const Workload *W = findWorkload("sha");
  ASSERT_NE(W, nullptr);
  Module M = compileOrDie(W->Source);
  Function &F = functionNamed(M, "sha_transform");
  EnumeratorConfig Cfg;
  Cfg.DeadlineMs = 1;
  EnumerationResult R = enumerateWithJobs(F, Cfg, 4);
  EXPECT_EQ(R.Stop, StopReason::Deadline);
  EXPECT_FALSE(R.complete());
  EXPECT_GE(R.Nodes.size(), 1u);
  expectSelfConsistent(R);
}

} // namespace
