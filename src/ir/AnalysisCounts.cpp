//===- AnalysisCounts.cpp - Deterministic analysis-build counters ---------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/ir/AnalysisCounts.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <vector>

using namespace pose;

namespace {

struct ThreadSlot;

/// Every live thread's slot plus the folded totals of exited threads.
/// Intentionally leaked so thread-exit folds never race static teardown.
struct Registry {
  std::mutex M;
  std::vector<ThreadSlot *> Live;
  uint64_t Retired[NumAnalysisKinds] = {};
};

Registry &registry() {
  static Registry *R = new Registry;
  return *R;
}

/// One thread's counts. Only the owning thread writes them; readers load
/// them atomically, so a snapshot taken mid-run is race-free.
struct ThreadSlot {
  std::atomic<uint64_t> N[NumAnalysisKinds] = {};

  ThreadSlot() {
    Registry &R = registry();
    std::lock_guard<std::mutex> L(R.M);
    R.Live.push_back(this);
  }
  ~ThreadSlot() {
    Registry &R = registry();
    std::lock_guard<std::mutex> L(R.M);
    for (int K = 0; K != NumAnalysisKinds; ++K)
      R.Retired[K] += N[K].load(std::memory_order_relaxed);
    R.Live.erase(std::find(R.Live.begin(), R.Live.end(), this));
  }
};

thread_local ThreadSlot Slot;

} // namespace

void pose::countAnalysisBuild(AnalysisKind K) {
  std::atomic<uint64_t> &C = Slot.N[static_cast<int>(K)];
  C.store(C.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

AnalysisCounts pose::analysisBuildTotals() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.M);
  uint64_t Sum[NumAnalysisKinds];
  for (int K = 0; K != NumAnalysisKinds; ++K) {
    Sum[K] = R.Retired[K];
    for (const ThreadSlot *S : R.Live)
      Sum[K] += S->N[K].load(std::memory_order_relaxed);
  }
  return {Sum[static_cast<int>(AnalysisKind::Cfg)],
          Sum[static_cast<int>(AnalysisKind::Liveness)],
          Sum[static_cast<int>(AnalysisKind::Dominators)],
          Sum[static_cast<int>(AnalysisKind::LoopInfo)]};
}
