//===- AnalysisCache.cpp - Cached Cfg/Liveness/Dominators/LoopInfo --------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/analysis/AnalysisCache.h"

#include "src/analysis/Dominators.h"
#include "src/analysis/Liveness.h"
#include "src/analysis/Loops.h"

using namespace pose;

namespace {

/// Returns \p Slot of \p F's cell when filled; otherwise builds the
/// analysis with \p Build and stores it there (when a cell is attached).
template <typename T, typename BuildFn>
std::shared_ptr<const T>
cached(const Function &F, std::shared_ptr<const T> detail::AnalysisCell::*Slot,
       BuildFn Build) {
  detail::AnalysisCell *Cell = F.Blocks.analyses();
  if (Cell && Cell->*Slot)
    return Cell->*Slot;
  std::shared_ptr<const T> A = Build();
  if (Cell)
    Cell->*Slot = A;
  return A;
}

} // namespace

std::shared_ptr<const Cfg> pose::cfgOf(const Function &F) {
  return cached(F, &detail::AnalysisCell::Graph,
                [&F] { return std::make_shared<const Cfg>(Cfg::build(F)); });
}

std::shared_ptr<const Liveness> pose::livenessOf(const Function &F) {
  return cached(F, &detail::AnalysisCell::Live, [&F] {
    return std::make_shared<const Liveness>(F, *cfgOf(F));
  });
}

std::shared_ptr<const Dominators> pose::dominatorsOf(const Function &F) {
  return cached(F, &detail::AnalysisCell::Dom, [&F] {
    return std::make_shared<const Dominators>(F, *cfgOf(F));
  });
}

std::shared_ptr<const LoopInfo> pose::loopsOf(const Function &F) {
  return cached(F, &detail::AnalysisCell::Loops, [&F] {
    // One Cfg serves both builds even when no cell is attached.
    const std::shared_ptr<const Cfg> C = cfgOf(F);
    const std::shared_ptr<const Dominators> D =
        cached(F, &detail::AnalysisCell::Dom,
               [&] { return std::make_shared<const Dominators>(F, *C); });
    return std::make_shared<const LoopInfo>(F, *C, *D);
  });
}
