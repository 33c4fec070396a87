//===- Enumerate.cpp - Table 3 enumeration workloads and layer replay -----===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// enum-suite / enum-jobs2: one operation per suite function, each an
// Enumerator::enumerate with the default one-million per-level budget, at
// one or two threads. Whole passes over the suite are timed, so every run
// has the same mix of functions whatever its length.
//
// The attribution replay runs after the timed loop of a traced run: it
// walks every DAG instance and times the pieces one enumeration attempt
// is made of (COW copy, PhaseManager::attempt, canonicalize, intern) and
// the analyses phases build.
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/Bench.h"

#include "src/analysis/Dominators.h"
#include "src/analysis/Liveness.h"
#include "src/analysis/Loops.h"
#include "src/core/Canonical.h"
#include "src/core/DagPaths.h"
#include "src/core/InstanceTable.h"

using namespace pose;

namespace perfbench {

void attributionReplay(const PhaseManager &PM, const Suite &S,
                       const std::vector<EnumerationResult> &Dags,
                       const EnumLayer &Timed, Metrics &Out) {
  uint64_t PhaseNs[NumPhases] = {}, PhaseN[NumPhases] = {},
           PhaseActive[NumPhases] = {};
  uint64_t CopyNs = 0, CanonNs = 0, CanonN = 0, InternNs = 0;
  uint64_t CfgNs = 0, LiveNs = 0, DomNs = 0, LoopNs = 0, Instances = 0;
  CanonicalScratch Scratch;
  for (size_t I = 0; I != Dags.size(); ++I) {
    const EnumerationResult &R = Dags[I];
    if (R.Nodes.empty())
      continue;
    InstanceTable Table;
    uint32_t NextId = 0;
    DagPaths Paths(R);
    Paths.forEachInstance(
        S.function(S.Functions[I]), PM, nullptr,
        [&](uint32_t, const Function &Inst) {
          ++Instances;
          const Clock::time_point A0 = Clock::now();
          const Cfg G = Cfg::build(Inst);
          const Clock::time_point A1 = Clock::now();
          const Liveness L(Inst, G);
          const Clock::time_point A2 = Clock::now();
          const Dominators D(Inst, G);
          const Clock::time_point A3 = Clock::now();
          const LoopInfo LI(Inst, G, D);
          const Clock::time_point A4 = Clock::now();
          CfgNs += nsBetween(A0, A1);
          LiveNs += nsBetween(A1, A2);
          DomNs += nsBetween(A2, A3);
          LoopNs += nsBetween(A3, A4);
          for (int P = 0; P != NumPhases; ++P) {
            const PhaseId Ph = phaseByIndex(P);
            if (!PM.isLegal(Ph, Inst))
              continue;
            const Clock::time_point T0 = Clock::now();
            Function Copy = Inst;
            const Clock::time_point T1 = Clock::now();
            const bool Active = PM.attempt(Ph, Copy);
            const Clock::time_point T2 = Clock::now();
            CopyNs += nsBetween(T0, T1);
            PhaseNs[P] += nsBetween(T1, T2);
            ++PhaseN[P];
            if (!Active)
              continue;
            ++PhaseActive[P];
            const CanonicalForm CF = canonicalize(Copy, Scratch);
            const Clock::time_point T3 = Clock::now();
            Table.tryEmplace(CF.Hash, NextId++);
            const Clock::time_point T4 = Clock::now();
            CanonNs += nsBetween(T2, T3);
            InternNs += nsBetween(T3, T4);
            ++CanonN;
          }
        });
  }

  uint64_t Attempts = 0, AttemptNs = 0;
  for (int P = 0; P != NumPhases; ++P) {
    const std::string Name =
        std::string("opt.attempt.") + phaseCode(phaseByIndex(P));
    const double N = static_cast<double>(PhaseN[P]);
    Out.set(Name + ".ns", N ? static_cast<double>(PhaseNs[P]) / N : 0, "ns");
    Out.set(Name + ".active_ratio",
            N ? static_cast<double>(PhaseActive[P]) / N : 0, "ratio");
    Attempts += PhaseN[P];
    AttemptNs += PhaseNs[P];
  }
  auto Per = [](uint64_t Ns, uint64_t N) {
    return N ? static_cast<double>(Ns) / static_cast<double>(N) : 0.0;
  };
  Out.set("ir.copy.ns", Per(CopyNs, Attempts), "ns");
  Out.set("core.canonicalize.ns", Per(CanonNs, CanonN), "ns");
  Out.set("core.intern.ns", Per(InternNs, CanonN), "ns");
  Out.set("analysis.cfg.ns", Per(CfgNs, Instances), "ns");
  Out.set("analysis.liveness.ns", Per(LiveNs, Instances), "ns");
  Out.set("analysis.dominators.ns", Per(DomNs, Instances), "ns");
  Out.set("analysis.loops.ns", Per(LoopNs, Instances), "ns");

  // Thread-time per timed attempt not explained by the replayed layers:
  // enumerator bookkeeping, governor, commit barrier and, with several
  // jobs, workers idling at the barrier.
  const double Replayed = Per(CopyNs + AttemptNs + CanonNs + InternNs,
                              Attempts);
  const double Timed1 = Per(Timed.Ns, Timed.Attempts);
  Out.set("core.enumerate.residual_ns_per_attempt",
          Timed1 * static_cast<double>(Timed.Jobs) - Replayed, "ns");
}

void enumLayerMetrics(const EnumLayer &L, Metrics &Out) {
  const double Passes = static_cast<double>(std::max<uint64_t>(L.Passes, 1));
  const double A = static_cast<double>(L.Attempts);
  Out.set("core.enumerate.attempts", A / Passes, "count");
  Out.set("core.enumerate.active_ratio",
          A ? static_cast<double>(L.Active) / A : 0, "ratio");
  Out.set("core.enumerate.nodes", static_cast<double>(L.Nodes) / Passes,
          "count");
  Out.set("core.enumerate.instance_yield",
          A ? static_cast<double>(L.Nodes) / A : 0, "ratio");
  Out.set("core.enumerate.ns_per_attempt",
          A ? static_cast<double>(L.Ns) / A : 0, "ns");
  Out.set("core.enumerate.approx_memory_mb",
          static_cast<double>(L.MaxMemoryBytes) / (1024.0 * 1024.0), "MB");
}

int runEnumWorkload(const Options &O, unsigned Jobs) {
  Expected Exp;
  std::string Err;
  if (!loadExpected(O.ExpectedPath, Exp, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  PhaseManager PM;
  Checker C;
  Tracer T;
  Metrics M, Layers;

  // Set-up is the front end over the suite; repeated, median reported.
  // The host probe runs after every set-up and every operation.
  HostProbe Probe;
  Suite S;
  OpStats Setup;
  for (int Rep = 0; Rep != 50; ++Rep) {
    const Clock::time_point T0 = Clock::now();
    if (!compileSuite(S, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    Setup.add(0, T0, Clock::now());
    Probe.sample();
  }

  EnumeratorConfig Cfg;
  Cfg.Jobs = Jobs;
  const Enumerator E(PM, Cfg);
  std::mt19937_64 Rng(O.Seed);
  std::vector<size_t> Order(S.Functions.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;
  std::vector<EnumerationResult> First(S.Functions.size());
  OpStats Ops;
  EnumLayer Layer;
  Layer.Jobs = Jobs;

  // Pass 0 warms caches and the allocator; it is checked but not timed.
  // A traced run alternates untraced and traced passes.
  OpStats TracedOps;
  Clock::time_point Start;
  for (uint64_t Pass = 0;; ++Pass) {
    if (Pass == 1) {
      resetPeakRss();
      Start = Clock::now();
    }
    const bool Traced = O.Trace && Pass != 0 && Pass % 2 == 0;
    T.setEnabled(Traced);
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t I : Order) {
      const SuiteFunction &F = S.Functions[I];
      const Clock::time_point T0 = Clock::now();
      EnumerationResult R;
      {
        Scoped Sp(T, "core.enumerate", I);
        R = E.enumerate(S.function(F));
      }
      const Clock::time_point T1 = Clock::now();
      const uint64_t Ns = nsBetween(T0, T1);
      Probe.sample();

      C.attempt();
      const auto Want = Exp.Functions.find(F.Key);
      const std::string Bad = Want == Exp.Functions.end()
                                  ? std::string("no expected values")
                                  : checkEnumeration(R, Want->second);
      if (!Bad.empty())
        C.fail(F.Key + ": " + Bad);
      if (Pass == 0) {
        First[I] = std::move(R);
        continue;
      }
      (Traced ? TracedOps : Ops).add(I, T0, T1);
      if (Traced)
        Layer.add(R, Ns);
    }
    Layer.Passes += Traced;
    if (Pass != 0 && secondsSince(Start) >= O.Seconds &&
        (!O.Trace || Pass % 2 == 0))
      break;
  }
  const double PeakMb = peakRssMb() - Probe.residentMb();

  // Code quality of both Table 7 strategies, with the model trained on
  // the DAGs this run enumerated (the same DAGs compile-suite trains on).
  T.setEnabled(O.Trace);
  const CodeQuality Q =
      measureCodeQuality(PM, S, trainModel(PM, First), Exp, C, T);

  if (!O.Trace) {
    endToEndMetrics(Setup, Ops, KindSummary::Mean, Probe, PeakMb, C, Q, M);
    return finish(O, C, M, T);
  }

  compileLayerMetrics(T, 1, Q, Layers);
  traceOverhead(TracedOps, Ops, Probe, Layers);
  Layers.set("host.probe_ms", Probe.medianMs(), "ms");
  layerPass(O, PM, S, Exp, First, Layer, C, T, Layers);
  return finish(O, C, Layers, T);
}

} // namespace perfbench
