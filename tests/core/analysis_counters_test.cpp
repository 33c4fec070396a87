//===- analysis_counters_test.cpp - Pinned analysis-build counts ----------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins how many Cfg, Liveness, Dominators and LoopInfo analyses one
// enumeration of the whole suite builds. The counts are deterministic,
// so any change that makes a phase rebuild its dataflow more (or less)
// often shows up here exactly; an intentional change updates the
// numbers. The counts must not depend
// on the job count or on timing, and counting from several threads at
// once must be race-free (this test runs under TSan).
//
//===----------------------------------------------------------------------===//

#include "src/core/Enumerator.h"
#include "src/ir/AnalysisCounts.h"
#include "src/opt/PhaseManager.h"
#include "src/workloads/Workloads.h"
#include "tests/common/Helpers.h"

#include <gtest/gtest.h>

using namespace pose;
using namespace pose::testhelpers;

namespace {

AnalysisCounts enumerateSuite(unsigned Jobs) {
  std::vector<Module> Modules;
  for (const Workload &W : allWorkloads())
    Modules.push_back(compileOrDie(W.Source));
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.Jobs = Jobs;
  const Enumerator E(PM, Cfg);
  const AnalysisCounts Before = analysisBuildTotals();
  for (const Module &M : Modules)
    for (const Function &F : M.Functions)
      EXPECT_TRUE(E.enumerate(F).complete()) << F.Name;
  return analysisBuildTotals() - Before;
}

// Recorded with an analysis cell per frontier entry: the sibling attempts
// on one instance share the Cfg, Liveness, Dominators and LoopInfo of the
// unchanged parent, and each attempt's cleanup, re-apply and control-flow
// hash reuse what it built after its own edits. Before that change the
// same enumeration built 233809 Cfgs, 52722 Livenesses, 46905 Dominators
// and 46905 LoopInfos (and, before phases s, h and c moved to one analysis
// per fixed-point round, 328923 Cfgs and 127630 Livenesses). The
// enumerator hashes the control flow of an instance only when the commit
// inserts it as a new node, so the counts are the same for every job
// count.
constexpr uint64_t CfgBuilds = 76585;
constexpr uint64_t LivenessBuilds = 35412;
constexpr uint64_t DominatorsBuilds = 24205;
constexpr uint64_t LoopInfoBuilds = 24205;

TEST(AnalysisCounters, SuiteEnumerationBuildsArePinned) {
  for (unsigned Jobs : {1u, 2u}) {
    const AnalysisCounts Counts = enumerateSuite(Jobs);
    EXPECT_EQ(Counts.CfgBuilds, CfgBuilds) << "jobs=" << Jobs;
    EXPECT_EQ(Counts.LivenessBuilds, LivenessBuilds) << "jobs=" << Jobs;
    EXPECT_EQ(Counts.DominatorsBuilds, DominatorsBuilds) << "jobs=" << Jobs;
    EXPECT_EQ(Counts.LoopInfoBuilds, LoopInfoBuilds) << "jobs=" << Jobs;
  }
}

} // namespace
