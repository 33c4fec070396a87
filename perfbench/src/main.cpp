//===- main.cpp - pose_perfbench command line -----------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// pose_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                --expected=FILE --posed=BIN --work-dir=DIR [--trace-out=F]
// pose_perfbench --write-expected=FILE
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object with the keys correct, attempted, failed and metrics. See
// perfbench/README.md for the workloads and metrics.
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/Bench.h"

#include "src/sim/Interpreter.h"

#include <csignal>
#include <cstring>
#include <fstream>

#include <sys/prctl.h>

using namespace pose;
using namespace perfbench;

namespace perfbench {

void traceOverhead(const OpStats &Traced, const OpStats &Untraced,
                   const HostProbe &P, Metrics &Out) {
  const double UntracedMs = Untraced.meanAt(P);
  Out.set("trace.overhead_pct",
          UntracedMs > 0 ? 100.0 * (Traced.meanAt(P) / UntracedMs - 1.0) : 0,
          "%");
}

void layerPass(const Options &O, const PhaseManager &PM, const Suite &S,
               const Expected &Exp, const std::vector<EnumerationResult> &Dags,
               const EnumLayer &Layer, Checker &C, Tracer &T, Metrics &Layers,
               bool ServeDone) {
  T.setEnabled(false);
  enumLayerMetrics(Layer, Layers);
  attributionReplay(PM, S, Dags, Layer, Layers);
  if (!ServeDone && !serveProbe(O, PM, S, Exp, C, T, Layers))
    C.failRun("the serve probe could not start posed");
}

int writeExpected(const std::string &Path) {
  Suite S;
  std::string Err;
  if (!compileSuite(S, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  PhaseManager PM;
  const std::vector<EnumerationResult> Dags =
      enumerateSuite(PM, S, 1, nullptr);
  std::ofstream Out(Path);
  Out << "# Expected outputs of the suite, written by pose_perfbench "
         "--write-expected.\n"
         "# fn  program/function  instances  attempted  leaves  "
         "max-active-length  dag-digest\n"
         "# ret program  return value of the unoptimized main()\n";
  for (size_t I = 0; I != Dags.size(); ++I) {
    const EnumerationResult &R = Dags[I];
    if (!R.complete()) {
      std::fprintf(stderr, "error: %s did not enumerate completely\n",
                   S.Functions[I].Key.c_str());
      return 1;
    }
    char Digest[32];
    std::snprintf(Digest, sizeof(Digest), "%016llx",
                  static_cast<unsigned long long>(dagDigest(R)));
    Out << "fn " << S.Functions[I].Key << ' ' << R.Nodes.size() << ' '
        << R.AttemptedPhases << ' ' << R.leafCount() << ' '
        << R.MaxActiveLength << ' ' << Digest << '\n';
  }
  for (const Program &P : S.Programs) {
    Interpreter Sim(P.M);
    const RunResult R = Sim.run("main", {});
    if (!R.Ok) {
      std::fprintf(stderr, "error: %s: %s\n", P.Info->Name, R.Error.c_str());
      return 1;
    }
    Out << "ret " << P.Info->Name << ' ' << R.ReturnValue << '\n';
  }
  return Out ? 0 : 1;
}

} // namespace perfbench

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: pose_perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 --expected=FILE --posed=BIN --work-dir=DIR "
               "[--trace-out=FILE]\n"
               "       pose_perfbench --write-expected=FILE\n"
               "workloads: enum-suite enum-jobs2 compile-suite serve-enum\n",
               Why);
  return 2;
}

bool parseUint(const std::string &S, uint64_t &Out) {
  if (S.empty() || S.size() > 19)
    return false;
  Out = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    Out = Out * 10 + static_cast<uint64_t>(C - '0');
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  std::string WriteExpected;
  bool HaveSeed = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    const size_t Eq = A.find('=');
    const std::string Flag = A.substr(0, Eq);
    const std::string V = Eq == std::string::npos ? "" : A.substr(Eq + 1);
    uint64_t N = 0;
    if (Flag == "--workload")
      O.Workload = V;
    else if (Flag == "--seed" && parseUint(V, N)) {
      O.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds" && parseUint(V, N) && N > 0 && N <= 600)
      O.Seconds = static_cast<double>(N);
    else if (Flag == "--trace" && (V == "0" || V == "1")) {
      O.Trace = V == "1";
      HaveTrace = true;
    } else if (Flag == "--expected")
      O.ExpectedPath = V;
    else if (Flag == "--posed")
      O.PosedPath = V;
    else if (Flag == "--work-dir")
      O.WorkDir = V;
    else if (Flag == "--trace-out")
      O.TraceOut = V;
    else if (Flag == "--write-expected")
      WriteExpected = V;
    else
      return usage(("bad argument '" + A + "'").c_str());
  }
  if (!WriteExpected.empty())
    return writeExpected(WriteExpected);
  if (!HaveSeed || !HaveTrace || O.ExpectedPath.empty() ||
      O.PosedPath.empty() || O.WorkDir.empty())
    return usage("missing a required argument");

  // posec children of a daemon killed on a timeout are re-parented here
  // and reaped, instead of loading the next run's cores.
  ::prctl(PR_SET_CHILD_SUBREAPER, 1);
  std::signal(SIGPIPE, SIG_IGN);

  if (O.Workload == "enum-suite")
    return runEnumWorkload(O, 1);
  if (O.Workload == "enum-jobs2")
    return runEnumWorkload(O, 2);
  if (O.Workload == "compile-suite")
    return runCompileWorkload(O);
  if (O.Workload == "serve-enum")
    return runServeWorkload(O);
  return usage(("unknown workload '" + O.Workload + "'").c_str());
}
