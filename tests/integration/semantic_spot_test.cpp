//===- semantic_spot_test.cpp - Sampled semantic equivalence -------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The whole enumerated space is supposed to contain *equivalent* function
// instances (Section 2: phase ordering changes the code, never the
// semantics). The golden-space and fuzz suites check leaves; this one
// samples random interior and leaf nodes of real workload DAGs — built
// at four jobs — materializes each through DagPaths, swaps it
// into the program, and compares a full simulator run against the
// unoptimized baseline.
//
//===----------------------------------------------------------------------===//

#include "src/core/DagPaths.h"

#include "src/core/Enumerator.h"
#include "src/frontend/Compile.h"
#include "src/ir/Printer.h"
#include "src/opt/PhaseManager.h"
#include "src/sim/Interpreter.h"
#include "src/support/Rng.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

TEST(SemanticSpot, SampledDagNodesPreserveProgramBehavior) {
  PhaseManager PM;
  Rng R(2026);
  size_t TestedNodes = 0;

  for (const Workload &W : allWorkloads()) {
    Module M = compileOrDie(W.Source);
    Interpreter Sim(M);
    RunResult Base = Sim.run("main", {});
    ASSERT_TRUE(Base.Ok) << W.Name << ": " << Base.Error;

    for (Function &F : M.Functions) {
      // Keep the per-test budget sane: small functions enumerate
      // completely in milliseconds; the giants have their own suites.
      if (F.instructionCount() > 60)
        continue;
      EnumeratorConfig Cfg;
      Cfg.MaxLevelSequences = 20'000;
      Cfg.Jobs = 4;
      Enumerator E(PM, Cfg);
      EnumerationResult Res = E.enumerate(F);
      if (!Res.complete())
        continue;

      DagPaths Paths(Res);
      for (int Draw = 0; Draw != 6; ++Draw) {
        uint32_t Id = static_cast<uint32_t>(R.below(Res.Nodes.size()));
        Function Inst = Paths.materialize(F, PM, Id);
        expectVerifies(Inst);
        Sim.overrideFunction(F.Name, &Inst);
        RunResult After = Sim.run("main", {});
        Sim.overrideFunction(F.Name, nullptr);
        ASSERT_TRUE(After.Ok)
            << W.Name << "/" << F.Name << " node " << Id << ": "
            << After.Error;
        EXPECT_TRUE(Base.sameBehavior(After))
            << W.Name << "/" << F.Name << " node " << Id << "\n"
            << printFunction(Inst);
        ++TestedNodes;
      }
    }
  }
  // The sweep must have real coverage, not silently skip everything.
  EXPECT_GE(TestedNodes, 60u);
}

} // namespace
