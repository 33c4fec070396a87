//===- bench_enumerate.cpp - Enumerate-throughput gate -------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The gate for the copy-on-write hot-path memory architecture: identical
// bounded enumerations run with the default COW working copies and with
// EnumeratorConfig::DeepCopyInstances (the retained pre-COW baseline that
// deep-copies every frontier instance and pays the identical-instance
// scan per dormant attempt). Both modes produce byte-identical DAGs, so
// the ratio BM_EnumerateDeepCopy / BM_EnumerateCow is a pure memory-
// architecture speedup; check_regression.py gates it via the
// enumerate-cow-speedup entry of baseline_ratios.json.
//
// A deep-vs-COW instance copy microbenchmark isolates the mechanism.
//
// Both enumeration benchmarks also report how many Cfg and Liveness
// analyses one pass builds (cfg_builds, liveness_builds). These counts are
// deterministic, so the counters section of baseline_ratios.json gates
// them exactly.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/core/Compilers.h"
#include "src/ir/AnalysisCounts.h"

#include <benchmark/benchmark.h>

using namespace pose;
using namespace pose::bench;

namespace {

Function workloadFunction(const char *Program, const char *Name) {
  const Workload *W = findWorkload(Program);
  CompileResult R = compileMC(W->Source);
  Module &M = R.M;
  return *M.functionFor(M.findGlobal(Name));
}

/// A spread of function sizes from the suite; each enumeration is bounded
/// by the node cap below so the benchmark finishes in seconds while still
/// spending its time where real sweeps do (frontier copies + attempts).
std::vector<Function> enumerationTargets() {
  std::vector<Function> Fns;
  Fns.push_back(workloadFunction("fft", "make_sine"));
  Fns.push_back(workloadFunction("stringsearch", "bmh_search"));
  Fns.push_back(workloadFunction("sha", "sha_transform"));
  Fns.push_back(workloadFunction("crc32", "crc_of_stream"));
  return Fns;
}

constexpr uint64_t NodeCap = 1200;

/// Enumerates every target with a node cap. The cap is a deterministic
/// stop, so the DAG (and therefore the work done) is identical whichever
/// working-copy strategy is in effect.
void runEnumerate(benchmark::State &State, bool DeepCopy) {
  const std::vector<Function> Fns = enumerationTargets();
  PhaseManager PM;
  EnumeratorConfig Cfg;
  Cfg.MaxTotalNodes = NodeCap;
  Cfg.DeepCopyInstances = DeepCopy;
  const Enumerator E(PM, Cfg);
  uint64_t Nodes = 0, Attempts = 0;
  AnalysisCounts Built;
  for (auto _ : State) {
    Nodes = Attempts = 0;
    const AnalysisCounts Before = analysisBuildTotals();
    for (const Function &F : Fns) {
      EnumerationResult R = E.enumerate(F);
      Nodes += R.Nodes.size();
      Attempts += R.AttemptedPhases;
    }
    Built = analysisBuildTotals() - Before;
    benchmark::DoNotOptimize(Nodes);
  }
  State.counters["nodes"] = static_cast<double>(Nodes);
  State.counters["cfg_builds"] = static_cast<double>(Built.CfgBuilds);
  State.counters["liveness_builds"] =
      static_cast<double>(Built.LivenessBuilds);
  State.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(Nodes * State.iterations()),
      benchmark::Counter::kIsRate);
  State.counters["attempts_per_sec"] = benchmark::Counter(
      static_cast<double>(Attempts * State.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_EnumerateCow(benchmark::State &State) { runEnumerate(State, false); }
BENCHMARK(BM_EnumerateCow)->Unit(benchmark::kMillisecond);

void BM_EnumerateDeepCopy(benchmark::State &State) {
  runEnumerate(State, true);
}
BENCHMARK(BM_EnumerateDeepCopy)->Unit(benchmark::kMillisecond);

/// The mechanism in isolation: a COW working copy bumps one refcount per
/// block; a deep copy clones every block and instruction.
void BM_InstanceCopyCow(benchmark::State &State) {
  Function F = workloadFunction("sha", "sha_transform");
  for (auto _ : State) {
    Function G = F;
    benchmark::DoNotOptimize(G.Blocks.size());
  }
}
BENCHMARK(BM_InstanceCopyCow);

void BM_InstanceCopyDeep(benchmark::State &State) {
  Function F = workloadFunction("sha", "sha_transform");
  for (auto _ : State) {
    Function G = F.deepCopy();
    benchmark::DoNotOptimize(G.Blocks.size());
  }
}
BENCHMARK(BM_InstanceCopyDeep);

} // namespace

BENCHMARK_MAIN();
