//===- AnalysisCounts.h - Deterministic analysis-build counters -*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Execution-only counts of how many times each dataflow analysis was
/// built. The counts are a deterministic work measure: the same
/// enumeration builds the same analyses on every machine and at every
/// --jobs value, so tests and benchmark gates can pin them exactly where
/// times need a tolerance. They never enter a fingerprint, an artifact or
/// any program output.
///
/// Each thread counts into its own slot (no shared cache line on the hot
/// path); analysisBuildTotals() sums every slot, including those of
/// threads that have already exited.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_IR_ANALYSISCOUNTS_H
#define POSE_IR_ANALYSISCOUNTS_H

#include <cstdint>

namespace pose {

/// The analyses whose constructions are counted.
enum class AnalysisKind : uint8_t { Cfg, Liveness, Dominators, LoopInfo };
constexpr int NumAnalysisKinds = 4;

/// Process-wide build totals.
struct AnalysisCounts {
  uint64_t CfgBuilds = 0;
  uint64_t LivenessBuilds = 0;
  uint64_t DominatorsBuilds = 0;
  uint64_t LoopInfoBuilds = 0;

  AnalysisCounts operator-(const AnalysisCounts &O) const {
    return {CfgBuilds - O.CfgBuilds, LivenessBuilds - O.LivenessBuilds,
            DominatorsBuilds - O.DominatorsBuilds,
            LoopInfoBuilds - O.LoopInfoBuilds};
  }
};

/// Records one build of \p K on the calling thread.
void countAnalysisBuild(AnalysisKind K);

/// Sums the builds of every thread, live or exited, so far. Take two
/// snapshots and subtract them to measure a piece of work.
AnalysisCounts analysisBuildTotals();

} // namespace pose

#endif // POSE_IR_ANALYSISCOUNTS_H
