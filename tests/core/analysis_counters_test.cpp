//===- analysis_counters_test.cpp - Pinned analysis-build counts ----------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins how many Cfg and Liveness analyses one enumeration of the whole
// suite builds. The counts are deterministic, so any change that makes a
// phase rebuild its dataflow more (or less) often shows up here exactly;
// an intentional change updates the numbers. The counts must not depend
// on timing at --jobs > 1, and counting from several threads at once must
// be race-free (this test runs under TSan).
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

// Recorded with one Cfg + Liveness per application of s, one per round
// of h, and one Cfg per application of c. Before that rewrite the same
// enumeration built 328923 Cfgs and 127630 Livenesses.
constexpr uint64_t SeqCfgBuilds = 233809;
constexpr uint64_t LivenessBuilds = 52722;
// The parallel engine hashes the control flow of every active result in
// its workers, before the commit step drops same-level duplicates, so it
// builds more Cfgs than the sequential engine. Liveness is built only
// inside phases and matches exactly.
constexpr uint64_t ParCfgBuilds = 248750;

TEST(AnalysisCounters, SuiteEnumerationBuildsArePinned) {
  const AnalysisCounts Seq = enumerateSuite(1);
  EXPECT_EQ(Seq.CfgBuilds, SeqCfgBuilds);
  EXPECT_EQ(Seq.LivenessBuilds, LivenessBuilds);
  const AnalysisCounts Par = enumerateSuite(2);
  EXPECT_EQ(Par.CfgBuilds, ParCfgBuilds);
  EXPECT_EQ(Par.LivenessBuilds, LivenessBuilds);
}

} // namespace
