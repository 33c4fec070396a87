//===- AnalysisCache.h - Shared per-list analyses --------------*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one way phases obtain whole-function analyses. Each accessor
/// returns the analysis of \p F's current blocks: from the analysis cell
/// attached to F.Blocks when that cell holds it, otherwise freshly built
/// (and stored in the cell, if one is attached). Functions without a cell
/// simply rebuild on every call; nothing here ever attaches one.
///
/// Correctness rests on BlockList's rule that every mutator invalidates
/// the cell. The returned shared_ptr keeps the analysis alive across such
/// an invalidation, so a phase may hold it while it edits F and read it
/// afterward as the (possibly stale) analysis of the pre-edit code.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_ANALYSIS_ANALYSISCACHE_H
#define POSE_ANALYSIS_ANALYSISCACHE_H

#include "src/ir/Function.h"

#include <memory>

namespace pose {

class Dominators;
class Liveness;
class LoopInfo;

std::shared_ptr<const Cfg> cfgOf(const Function &F);
std::shared_ptr<const Liveness> livenessOf(const Function &F);
std::shared_ptr<const Dominators> dominatorsOf(const Function &F);
std::shared_ptr<const LoopInfo> loopsOf(const Function &F);

} // namespace pose

#endif // POSE_ANALYSIS_ANALYSISCACHE_H
