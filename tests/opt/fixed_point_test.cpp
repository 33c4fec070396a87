//===- fixed_point_test.cpp - Fixed-point contract of s, h and c ----------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Instruction selection, dead assignment elimination and CSE each iterate
// to a fixed point inside one application. On every DAG instance of every
// suite function, a second application right after the first must
// therefore be dormant and leave the encoded function unchanged; a round
// structure that stops one pass too early fails here. Each application
// must also build exactly the analyses its round structure promises:
// one Cfg + Liveness per application of s, one per round of h, and one
// Cfg (no Liveness) per application of c.
//
//===----------------------------------------------------------------------===//

#include "src/core/DagPaths.h"
#include "src/ir/AnalysisCounts.h"
#include "src/machine/RegisterAssign.h"
#include "src/opt/PhaseManager.h"
#include "src/store/ByteIo.h"
#include "src/store/Serialize.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

std::vector<uint8_t> encoded(const Function &F) {
  ByteWriter W;
  store::encodeFunction(W, F);
  return W.bytes();
}

/// Applies \p P directly (no implicit cleanup) and returns its outcome
/// together with the analyses it built.
std::pair<bool, AnalysisCounts> applyCounted(const Phase &P, Function &F) {
  const AnalysisCounts Before = analysisBuildTotals();
  const bool Active = P.apply(F);
  return {Active, analysisBuildTotals() - Before};
}

TEST(FixedPoint, SecondApplicationOfSHCIsDormant) {
  PhaseManager PM;
  const Enumerator E(PM, EnumeratorConfig{});
  const PhaseId Checked[] = {PhaseId::InstructionSelection,
                             PhaseId::DeadAssignElim, PhaseId::Cse};
  uint64_t Applications = 0;
  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    for (const Function &F : M.Functions) {
      const EnumerationResult R = E.enumerate(F);
      ASSERT_TRUE(R.complete()) << F.Name;
      DagPaths(R).forEachInstance(
          F, PM, nullptr, [&](uint32_t Node, const Function &Inst) {
            for (PhaseId P : Checked) {
              if (!PM.isLegal(P, Inst))
                continue;
              const std::string Where = std::string(W.Name) + "/" +
                                        F.Name + " node " +
                                        std::to_string(Node) + " phase " +
                                        phaseCode(P);
              Function Work = Inst;
              if (PM.requiresRegAssignment(P) && !Work.State.RegsAssigned)
                assignRegisters(Work);
              const auto [Active, First] = applyCounted(PM.phase(P), Work);
              const std::vector<uint8_t> Bytes = encoded(Work);
              const auto [Again, Second] = applyCounted(PM.phase(P), Work);
              ++Applications;
              EXPECT_FALSE(Again) << Where;
              EXPECT_EQ(encoded(Work), Bytes) << Where;

              // A dormant application is one round of one analysis.
              const uint64_t Liveness = P == PhaseId::Cse ? 0 : 1;
              EXPECT_EQ(Second.CfgBuilds, 1u) << Where;
              EXPECT_EQ(Second.LivenessBuilds, Liveness) << Where;
              if (P == PhaseId::DeadAssignElim) {
                EXPECT_EQ(First.LivenessBuilds, First.CfgBuilds) << Where;
                EXPECT_EQ(First.CfgBuilds > 1, Active) << Where;
              } else {
                EXPECT_EQ(First.CfgBuilds, 1u) << Where;
                EXPECT_EQ(First.LivenessBuilds, Liveness) << Where;
              }
            }
          });
    }
  }
  EXPECT_GT(Applications, 0u);
}

} // namespace
