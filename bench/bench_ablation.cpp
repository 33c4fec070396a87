//===- bench_ablation.cpp - Pruning-technique ablation --------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Ablation of the paper's Section 4.2.1 canonicalization: how much extra
// pruning does register remapping buy? "Although a complete live range
// register remapping might detect more instances as being equivalent …
// this approach of detecting equivalent function instances enables us to
// do more aggressive pruning of the search space." Enumerates each
// function twice — with and without register remapping — and compares
// distinct instances and attempted phases. (Label resolution cannot be
// ablated: raw label numbers carry no meaning.)
//
// Flags: --budget=N.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

using namespace pose;
using namespace pose::bench;

int main(int Argc, char **Argv) {
  EnumeratorConfig With;
  With.MaxLevelSequences = flagValue(Argc, Argv, "budget", 100'000);
  EnumeratorConfig Without = With;
  Without.RemapRegisters = false;

  PhaseManager PM;
  Enumerator EWith(PM, With), EWithout(PM, Without);

  std::printf("Ablation: identical-instance detection with vs without "
              "register remapping (Section 4.2.1)\n\n");
  std::printf("%-24s | %9s %11s | %9s %11s | %7s\n", "Function",
              "instances", "attempted", "instances", "attempted",
              "blow-up");
  std::printf("%-24s | %21s | %21s |\n", "", "     with remapping",
              "   without remapping");

  uint64_t SumWith = 0, SumWithout = 0;
  size_t Counted = 0;
  for (CompiledWorkload &W : compileAllWorkloads()) {
    for (Function &F : W.M.Functions) {
      EnumerationResult RW = EWith.enumerate(F);
      EnumerationResult RO = EWithout.enumerate(F);
      std::string Note;
      if (!RW.complete() || !RO.complete())
        Note = !RO.complete() ? " (no-remap exceeded budget)"
                            : " (exceeded budget)";
      double Blowup = static_cast<double>(RO.Nodes.size()) /
                      static_cast<double>(RW.Nodes.size());
      std::printf("%-21s(%c) | %9zu %11llu | %9zu %11llu | %6.2fx%s\n",
                  F.Name.c_str(), programTag(W.Info->Name),
                  RW.Nodes.size(),
                  static_cast<unsigned long long>(RW.AttemptedPhases),
                  RO.Nodes.size(),
                  static_cast<unsigned long long>(RO.AttemptedPhases),
                  Blowup, Note.c_str());
      if (RW.complete() && RO.complete()) {
        SumWith += RW.Nodes.size();
        SumWithout += RO.Nodes.size();
        ++Counted;
      }
    }
  }
  std::printf("\ntotals over %zu fully-enumerated functions: %llu vs %llu "
              "instances (%.2fx more without remapping)\n",
              Counted, static_cast<unsigned long long>(SumWith),
              static_cast<unsigned long long>(SumWithout),
              SumWith ? static_cast<double>(SumWithout) /
                            static_cast<double>(SumWith)
                      : 0.0);
  return 0;
}
