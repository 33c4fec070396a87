//===- Compile.cpp - Table 7 compile workload and code-quality pass -------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// compile-suite: one operation per program of the suite. Each operation
// runs the front end, then the fixed-order batch compiler and the Figure 8
// probabilistic compiler on separate copies of the module, then the
// entry/exit fixing. Simulation stays out of the timed operation; the
// code-quality pass after the loop runs it once per program and strategy.
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/Bench.h"

#include "src/core/Compilers.h"
#include "src/frontend/Compile.h"
#include "src/machine/EntryExit.h"
#include "src/sim/Interpreter.h"

#include <optional>

using namespace pose;

namespace perfbench {

bool compileProgram(const PhaseManager &PM, const ProbabilisticCompiler &PC,
                    const Workload &W, CompiledProgram &Out, Tracer &T,
                    uint64_t Op) {
  Scoped Root(T, "compile.program", Op);
  {
    Scoped S(T, "frontend.compile", Op);
    CompileResult R = compileMC(W.Source);
    if (!R.ok())
      return false;
    Out.Batch = R.M;
    Out.Prob = std::move(R.M);
  }
  {
    Scoped S(T, "core.compilers.batch", Op);
    for (Function &F : Out.Batch.Functions) {
      const CompileStats St = batchCompile(PM, F);
      Out.BatchAttempts += St.Attempted;
      Out.BatchActive += St.Active;
    }
  }
  {
    Scoped S(T, "core.compilers.prob", Op);
    for (Function &F : Out.Prob.Functions) {
      const CompileStats St = PC.compile(F);
      Out.ProbAttempts += St.Attempted;
      Out.ProbActive += St.Active;
    }
  }
  {
    Scoped S(T, "machine.entry_exit", Op);
    for (Function &F : Out.Batch.Functions)
      fixEntryExit(F);
    for (Function &F : Out.Prob.Functions)
      fixEntryExit(F);
  }
  return true;
}

namespace {

uint64_t codeSize(const Module &M) {
  uint64_t N = 0;
  for (const Function &F : M.Functions)
    N += F.instructionCount();
  return N;
}

RunResult simulate(const Module &M, CodeQuality &Q) {
  const Clock::time_point T0 = Clock::now();
  Interpreter Sim(M);
  RunResult R = Sim.run("main", {});
  Q.SimNs += nsBetween(T0, Clock::now());
  Q.SimDyn += R.DynamicInsts;
  ++Q.SimRuns;
  return R;
}

} // namespace

ProbabilisticCompiler trainModel(const PhaseManager &PM,
                                 const std::vector<EnumerationResult> &Dags) {
  InteractionAnalysis IA;
  for (const EnumerationResult &R : Dags)
    if (!R.Nodes.empty() && R.complete())
      IA.addFunction(R);
  return ProbabilisticCompiler(PM, IA);
}

CodeQuality measureCodeQuality(const PhaseManager &PM, const Suite &S,
                               const ProbabilisticCompiler &PC,
                               const Expected &Exp, Checker &C, Tracer &T) {
  CodeQuality Q;
  for (size_t P = 0; P != S.Programs.size(); ++P) {
    const Program &Prog = S.Programs[P];
    const std::string Name = Prog.Info->Name;
    C.attempt();
    Q.Verified.push_back(false);
    CompiledProgram CP;
    if (!compileProgram(PM, PC, *Prog.Info, CP, T, P)) {
      Q.Digests.push_back({0, 0});
      C.fail(Name + ": front end rejected the program");
      continue;
    }
    Q.Digests.push_back({moduleDigest(CP.Batch), moduleDigest(CP.Prob)});
    Q.BatchSize += codeSize(CP.Batch);
    Q.ProbSize += codeSize(CP.Prob);
    Q.BatchAttempts += CP.BatchAttempts;
    Q.BatchActive += CP.BatchActive;
    Q.ProbAttempts += CP.ProbAttempts;
    Q.ProbActive += CP.ProbActive;

    const RunResult U = simulate(Prog.M, Q);
    const RunResult B = simulate(CP.Batch, Q);
    const RunResult R = simulate(CP.Prob, Q);
    Q.BatchDyn += B.DynamicInsts;
    Q.ProbDyn += R.DynamicInsts;
    const auto Want = Exp.ReturnValues.find(Name);
    std::string Bad;
    if (!U.Ok || !B.Ok || !R.Ok)
      Bad = "simulation trapped: " + U.Error + B.Error + R.Error;
    else if (!B.sameBehavior(U))
      Bad = "batch-compiled main differs from the unoptimized program";
    else if (!R.sameBehavior(U))
      Bad = "probabilistic main differs from the unoptimized program";
    else if (Want == Exp.ReturnValues.end())
      Bad = "no recorded return value";
    else if (U.ReturnValue != Want->second)
      Bad = "main returned " + std::to_string(U.ReturnValue) +
            ", recorded " + std::to_string(Want->second);
    if (!Bad.empty()) {
      C.fail(Name + ": " + Bad);
      continue;
    }
    Q.Verified.back() = true;
  }
  return Q;
}

void compileLayerMetrics(const Tracer &T, uint64_t Passes,
                         const CodeQuality &Q, Metrics &Out) {
  const double P = static_cast<double>(std::max<uint64_t>(Passes, 1));
  auto PerPassMs = [&](const char *Span) {
    return static_cast<double>(T.totalNs(Span)) / 1e6 / P;
  };
  Out.set("frontend.compile_ms", mean(T.durationsMs("frontend.compile")),
          "ms");
  Out.set("core.compilers.batch.ms", PerPassMs("core.compilers.batch"), "ms");
  Out.set("core.compilers.batch.attempts",
          static_cast<double>(Q.BatchAttempts), "count");
  Out.set("core.compilers.batch.active", static_cast<double>(Q.BatchActive),
          "count");
  Out.set("core.compilers.prob.ms", PerPassMs("core.compilers.prob"), "ms");
  Out.set("core.compilers.prob.attempts", static_cast<double>(Q.ProbAttempts),
          "count");
  Out.set("core.compilers.prob.active", static_cast<double>(Q.ProbActive),
          "count");
  Out.set("machine.entry_exit.ms", PerPassMs("machine.entry_exit"), "ms");
  const double SimS = static_cast<double>(Q.SimNs) / 1e9;
  Out.set("sim.run_ms",
          Q.SimRuns ? SimS * 1e3 / static_cast<double>(Q.SimRuns) : 0, "ms");
  Out.set("sim.dyn_insts_per_s",
          SimS > 0 ? static_cast<double>(Q.SimDyn) / SimS : 0, "1/s");
}

int runCompileWorkload(const Options &O) {
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

  // Set-up: front end plus training the Figure 8 model on the suite
  // enumerated at one thread, as bench_table7 does. Repeated; the median
  // is reported. The host probe runs around every set-up and after every
  // operation.
  HostProbe Probe;
  Suite S;
  std::vector<EnumerationResult> Dags;
  EnumLayer Layer;
  std::optional<ProbabilisticCompiler> PC;
  OpStats Setup;
  Probe.sample(HostProbe::Nearest / 2);
  for (int Rep = 0; Rep != 3; ++Rep) {
    const Clock::time_point T0 = Clock::now();
    if (!compileSuite(S, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    Layer = EnumLayer();
    Dags = enumerateSuite(PM, S, 1, &Layer);
    PC.emplace(trainModel(PM, Dags));
    Setup.add(0, T0, Clock::now());
    Probe.sample(HostProbe::Nearest / 2);
  }

  struct OpRecord {
    size_t Program;
    uint64_t BatchDigest, ProbDigest;
    bool Ok;
  };
  std::vector<OpRecord> Ops;
  OpStats Timed;
  std::mt19937_64 Rng(O.Seed);
  std::vector<size_t> Order(S.Programs.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;

  // Pass 0 is a checked warm-up; a traced run alternates untraced and
  // traced passes.
  OpStats TracedOps;
  uint64_t TracedPasses = 0;
  Clock::time_point Start;
  for (uint64_t Pass = 0;; ++Pass) {
    if (Pass == 1) {
      resetPeakRss();
      Start = Clock::now();
    }
    const bool Traced = O.Trace && Pass != 0 && Pass % 2 == 0;
    T.setEnabled(Traced);
    std::shuffle(Order.begin(), Order.end(), Rng);
    for (size_t P : Order) {
      CompiledProgram CP;
      const Clock::time_point T0 = Clock::now();
      const bool Ok = compileProgram(PM, *PC, *S.Programs[P].Info, CP, T, P);
      const Clock::time_point T1 = Clock::now();
      Probe.sample();
      Ops.push_back({P, Ok ? moduleDigest(CP.Batch) : 0,
                     Ok ? moduleDigest(CP.Prob) : 0, Ok});
      if (Pass == 0)
        continue;
      (Traced ? TracedOps : Timed).add(P, T0, T1);
    }
    TracedPasses += Traced;
    if (Pass != 0 && secondsSince(Start) >= O.Seconds &&
        (!O.Trace || Pass % 2 == 0))
      break;
  }
  const double PeakMb = peakRssMb() - Probe.residentMb();
  T.setEnabled(false);

  // Verify: simulate one compilation per program and strategy; every
  // timed operation must have produced byte-identical modules.
  const CodeQuality Q = measureCodeQuality(PM, S, *PC, Exp, C, T);
  for (const OpRecord &R : Ops) {
    C.attempt();
    const std::string Name = S.Programs[R.Program].Info->Name;
    if (!R.Ok || !Q.Verified[R.Program])
      C.fail(Name + ": compiled program failed verification");
    else if (Q.Digests[R.Program].first != R.BatchDigest ||
             Q.Digests[R.Program].second != R.ProbDigest)
      C.fail(Name + ": compiled module differs from the verified one");
  }

  if (!O.Trace) {
    endToEndMetrics(Setup, Timed, KindSummary::Mean, Probe, PeakMb, C, Q, M);
    return finish(O, C, M, T);
  }

  // The compile counters per suite pass are the code-quality pass's,
  // which compiles the same modules.
  compileLayerMetrics(T, TracedPasses, Q, Layers);
  traceOverhead(TracedOps, Timed, Probe, Layers);
  Layers.set("host.probe_ms", Probe.medianMs(), "ms");
  layerPass(O, PM, S, Exp, Dags, Layer, C, T, Layers);
  return finish(O, C, Layers, T);
}

} // namespace perfbench
