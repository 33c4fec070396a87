//===- bench_micro.cpp - Microbenchmarks of the hot paths ---------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// google-benchmark microbenchmarks for the operations the exhaustive
// search spends its time in: canonicalization (hashing), phase attempts,
// liveness analysis, whole-function enumeration, and batch compilation.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "src/analysis/Liveness.h"
#include "src/core/Compilers.h"
#include "src/machine/RegisterAssign.h"
#include "src/support/Crc32.h"

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

void BM_Crc32(benchmark::State &State) {
  std::vector<uint8_t> Data(4096);
  for (size_t I = 0; I != Data.size(); ++I)
    Data[I] = static_cast<uint8_t>(I * 31);
  for (auto _ : State)
    benchmark::DoNotOptimize(crc32(Data));
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Data.size()));
}
BENCHMARK(BM_Crc32);

void BM_Canonicalize(benchmark::State &State) {
  Function F = workloadFunction("sha", "sha_transform");
  for (auto _ : State)
    benchmark::DoNotOptimize(canonicalize(F));
}
BENCHMARK(BM_Canonicalize);

void BM_Liveness(benchmark::State &State) {
  Function F = workloadFunction("dijkstra", "dijkstra");
  for (auto _ : State) {
    Cfg C = Cfg::build(F);
    Liveness LV(F, C);
    benchmark::DoNotOptimize(LV.liveOut(0));
  }
}
BENCHMARK(BM_Liveness);

void BM_AttemptInstructionSelection(benchmark::State &State) {
  Function F = workloadFunction("jpeg", "quantize_block");
  PhaseManager PM;
  for (auto _ : State) {
    Function Copy = F;
    benchmark::DoNotOptimize(
        PM.attempt(PhaseId::InstructionSelection, Copy));
  }
}
BENCHMARK(BM_AttemptInstructionSelection);

void BM_AttemptDeadAssignElim(benchmark::State &State) {
  Function F = workloadFunction("sha", "sha_transform");
  PhaseManager PM;
  for (auto _ : State) {
    Function Copy = F;
    benchmark::DoNotOptimize(PM.attempt(PhaseId::DeadAssignElim, Copy));
  }
}
BENCHMARK(BM_AttemptDeadAssignElim);

/// CSE requires register assignment; it is done once up front so the
/// loop times the phase alone.
void BM_AttemptCse(benchmark::State &State) {
  Function F = workloadFunction("sha", "sha_transform");
  assignRegisters(F);
  PhaseManager PM;
  for (auto _ : State) {
    Function Copy = F;
    benchmark::DoNotOptimize(PM.attempt(PhaseId::Cse, Copy));
  }
}
BENCHMARK(BM_AttemptCse);

void BM_BatchCompile(benchmark::State &State) {
  Function F = workloadFunction("stringsearch", "bmh_search");
  PhaseManager PM;
  for (auto _ : State) {
    Function Copy = F;
    benchmark::DoNotOptimize(batchCompile(PM, Copy));
  }
}
BENCHMARK(BM_BatchCompile);

void BM_EnumerateSmallFunction(benchmark::State &State) {
  Function F = workloadFunction("fft", "make_sine");
  PhaseManager PM;
  Enumerator E(PM, EnumeratorConfig{});
  for (auto _ : State)
    benchmark::DoNotOptimize(E.enumerate(F));
}
BENCHMARK(BM_EnumerateSmallFunction);

} // namespace

BENCHMARK_MAIN();
