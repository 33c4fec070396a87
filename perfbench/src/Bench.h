//===- Bench.h - Shared pieces of the repository benchmark -----*- C++ -*-===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the workloads of pose_perfbench: options, the metric
/// sink, the output checker, the in-memory span recorder and small
/// statistics helpers. Everything here lives outside the program under
/// test; the workloads only call the public functions of the pose
/// libraries and the posed socket.
///
//===----------------------------------------------------------------------===//

#ifndef POSE_PERFBENCH_BENCH_H
#define POSE_PERFBENCH_BENCH_H

#include "src/core/Compilers.h"
#include "src/core/Enumerator.h"
#include "src/ir/Function.h"
#include "src/opt/PhaseManager.h"
#include "src/workloads/Workloads.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

inline uint64_t nsBetween(Clock::time_point A, Clock::time_point B) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(B - A).count());
}

struct Options {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string ExpectedPath; ///< Expected per-function and per-program values.
  std::string PosedPath;    ///< posed binary (posec sits next to it).
  std::string WorkDir;      ///< Scratch space for stores and sockets.
  std::string TraceOut;     ///< Where the traced run writes its spans.
};

/// Linear-interpolation percentile (P in [0,1]) of unsorted samples.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  const double Rank = P * static_cast<double>(V.size() - 1);
  const size_t Lo = static_cast<size_t>(Rank);
  const size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Rank - static_cast<double>(Lo));
}

inline double mean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double S = 0;
  for (double X : V)
    S += X;
  return S / static_cast<double>(V.size());
}

/// Ordered name -> (value, unit) map printed as the result line.
class Metrics {
public:
  void set(const std::string &Name, double Value, const char *Unit) {
    Entries.push_back({Name, Value, Unit});
  }
  std::string json() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    const char *Unit;
  };
  std::vector<Entry> Entries;
};

/// Counts attempted and failed operations; every failed check is named
/// on stderr so a red run says which output was wrong.
class Checker {
public:
  void attempt() { ++Attempted; }
  /// Records one failed operation (\p What is printed once per kind).
  void fail(const std::string &What) {
    ++Failed;
    if (Reported.emplace(What, 0).second)
      std::fprintf(stderr, "check failed: %s\n", What.c_str());
  }
  /// A check that failed but is not tied to one counted operation (for
  /// example the daemon's final counters). Marks the run incorrect.
  void failRun(const std::string &What) {
    RunFailed = true;
    std::fprintf(stderr, "check failed: %s\n", What.c_str());
  }
  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return std::min(Failed, Attempted); }
  bool correct() const { return Failed == 0 && !RunFailed; }

private:
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool RunFailed = false;
  std::map<std::string, int> Reported;
};

/// One timed interval of the traced run.
struct Span {
  const char *Name;
  uint64_t StartNs;
  uint64_t EndNs;
  uint32_t Parent; ///< Index of the enclosing span, UINT32_MAX for none.
  uint64_t Op;     ///< Operation the span belongs to.
};

/// In-memory span store, written out once when the run ends. Disabled
/// recorders cost one branch per span.
class Tracer {
public:
  Tracer() : Origin(Clock::now()) {}
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span nested in the innermost open one (see Scoped).
  uint32_t begin(const char *Name, uint64_t Op) {
    if (!Enabled)
      return UINT32_MAX;
    Spans.push_back({Name, now(), 0, Open, Op});
    Open = static_cast<uint32_t>(Spans.size() - 1);
    return Open;
  }
  void end(uint32_t Id) {
    if (Id == UINT32_MAX)
      return;
    Spans[Id].EndNs = now();
    Open = Spans[Id].Parent;
  }
  /// Records an interval timed by the caller, for work that interleaves
  /// with other operations (serve requests); returns its id.
  uint32_t record(const char *Name, Clock::time_point A, Clock::time_point B,
                  uint64_t Op, uint32_t Parent = UINT32_MAX) {
    if (!Enabled)
      return UINT32_MAX;
    Spans.push_back(
        {Name, nsBetween(Origin, A), nsBetween(Origin, B), Parent, Op});
    return static_cast<uint32_t>(Spans.size() - 1);
  }

  /// Summed duration (ns) of the spans named \p Name.
  uint64_t totalNs(const char *Name) const;
  /// Durations (ms) of the spans named \p Name.
  std::vector<double> durationsMs(const char *Name) const;

  bool write(const std::string &Path) const;

private:
  uint64_t now() const { return nsBetween(Origin, Clock::now()); }
  Clock::time_point Origin;
  std::vector<Span> Spans;
  uint32_t Open = UINT32_MAX;
  bool Enabled = false;
};

/// RAII span.
class Scoped {
public:
  Scoped(Tracer &T, const char *Name, uint64_t Op)
      : T(T), Id(T.begin(Name, Op)) {}
  ~Scoped() { T.end(Id); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  Tracer &T;
  uint32_t Id;
};

/// Expected outputs kept with the benchmark (expected/suite.tsv).
struct ExpectedFunction {
  uint64_t Instances = 0;
  uint64_t Attempted = 0;
  uint64_t Leaves = 0;
  uint32_t MaxActiveLen = 0;
  uint64_t DagDigest = 0;
};
struct Expected {
  std::map<std::string, ExpectedFunction> Functions; ///< "program/function"
  std::map<std::string, int32_t> ReturnValues;        ///< program -> main()
};
bool loadExpected(const std::string &Path, Expected &E, std::string &Err);

/// The suite compiled by the front end: one module per program.
struct Program {
  const pose::Workload *Info = nullptr;
  pose::Module M;
};
struct SuiteFunction {
  size_t Program;
  size_t Index; ///< Position in the program's module.
  std::string Key; ///< "program/function"
};
struct Suite {
  std::vector<Program> Programs;
  std::vector<SuiteFunction> Functions;
  std::vector<double> CompileMs; ///< Front-end time per program.
  const pose::Function &function(const SuiteFunction &F) const {
    return Programs[F.Program].M.Functions[F.Index];
  }
};
/// Compiles every program of the suite; false (with \p Err) on a
/// front-end diagnostic.
bool compileSuite(Suite &S, std::string &Err);

/// Order-sensitive 64-bit digest of a whole DAG: nodes, edges, masks,
/// levels, weights and the summary counters.
uint64_t dagDigest(const pose::EnumerationResult &R);

/// Checks one enumeration against the expected values; returns an empty
/// string when it matches, otherwise what differed.
std::string checkEnumeration(const pose::EnumerationResult &R,
                             const ExpectedFunction &E);

/// Code quality of both Table 7 strategies over the suite, with the
/// compile counters and simulation cost measured while producing it.
struct CodeQuality {
  uint64_t BatchSize = 0, ProbSize = 0; ///< Static instructions.
  uint64_t BatchDyn = 0, ProbDyn = 0;   ///< Dynamic instructions of main.
  uint64_t BatchAttempts = 0, BatchActive = 0;
  uint64_t ProbAttempts = 0, ProbActive = 0;
  uint64_t SimNs = 0, SimDyn = 0, SimRuns = 0;
  /// Per program: printed-RTL digests of the batch and probabilistic
  /// modules, and whether their simulation matched the references.
  std::vector<std::pair<uint64_t, uint64_t>> Digests;
  std::vector<bool> Verified;
};

/// Enumeration counters summed over the timed (or set-up) enumerations.
struct EnumLayer {
  uint64_t Attempts = 0, Active = 0, Nodes = 0, Ns = 0;
  uint64_t MaxMemoryBytes = 0;
  uint64_t Passes = 0; ///< Suite passes the sums cover.
  unsigned Jobs = 1;
  void add(const pose::EnumerationResult &R, uint64_t Ns);
};

/// Enumerates every suite function with \p Jobs threads in suite order.
std::vector<pose::EnumerationResult>
enumerateSuite(const pose::PhaseManager &PM, const Suite &S, unsigned Jobs,
               EnumLayer *Layer);

/// One compile-suite operation: front end, then batch and probabilistic
/// compilation of separate copies, then entry/exit fixing.
struct CompiledProgram {
  pose::Module Batch, Prob;
  uint64_t BatchAttempts = 0, BatchActive = 0;
  uint64_t ProbAttempts = 0, ProbActive = 0;
};
bool compileProgram(const pose::PhaseManager &PM,
                    const pose::ProbabilisticCompiler &PC,
                    const pose::Workload &W, CompiledProgram &Out, Tracer &T,
                    uint64_t Op);

/// The Figure 8 model trained on the complete DAGs of \p Dags, in order.
pose::ProbabilisticCompiler
trainModel(const pose::PhaseManager &PM,
           const std::vector<pose::EnumerationResult> &Dags);

/// Compiles every program with both strategies, simulates main of the
/// unoptimized, batch and probabilistic modules and checks them against
/// each other and the recorded return values (one checked operation per
/// program).
CodeQuality measureCodeQuality(const pose::PhaseManager &PM, const Suite &S,
                               const pose::ProbabilisticCompiler &PC,
                               const Expected &Exp, Checker &C, Tracer &T);

/// Stable digest of a module's printed RTL.
uint64_t moduleDigest(const pose::Module &M);

/// Peak resident set of this process since resetPeakRss(), and of the
/// largest waited-for descendant.
void resetPeakRss();
double peakRssMb();
double childrenPeakRssMb();

void codeQualityMetrics(const CodeQuality &Q, Metrics &Out);
/// Host-speed reference: a fixed kernel of the benchmark's own code,
/// run between timed operations so that every timing can be expressed at
/// one reference speed of the host.
///
/// On a shared host the speed of allocation-heavy, pointer-chasing code
/// such as the compiler's drifts by a third and more between runs, while
/// the program does the same work. The kernel does work of that kind that
/// never changes and never touches the program's heap: it builds and
/// thins a 3000-node std::map whose nodes sit at fixed pseudo-random
/// slots of a private 16 MiB region, so its time follows the host's cost
/// of the same memory traffic. A timing divided by the host factor near
/// it (the median of the nearest probes, over NominalMs) is the time the
/// operation takes on a host where the kernel takes NominalMs.
class HostProbe {
public:
  /// Kernel time that defines the reference speed.
  static constexpr double NominalMs = 0.6;
  /// Probes whose median gives the factor at one point in time.
  static constexpr size_t Nearest = 17;

  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe &) = delete;
  HostProbe &operator=(const HostProbe &) = delete;

  /// Runs the kernel \p Times times, recording each run.
  void sample(int Times = 1);
  /// How much slower than the reference the host ran around \p At.
  double factorAt(Clock::time_point At) const;
  /// Median kernel time over the run (ms).
  double medianMs() const;
  /// What the probe adds to the resident set: all of its memory, which
  /// is touched up front.
  double residentMb() const {
    return static_cast<double>(Bytes) / (1024.0 * 1024.0);
  }

private:
  template <class T> friend struct SlotAllocator;
  struct Run {
    Clock::time_point Mid;
    double Ms;
  };
  static constexpr size_t RegionBytes = 16u << 20;
  static constexpr size_t NumSlots = RegionBytes / 64;
  static constexpr size_t MaxRuns = 1u << 16;
  void *slot();
  // One private mapping, not inherited by forked children (so it never
  // counts towards posed's resident set): the region, the slot order and
  // the recorded runs.
  size_t Bytes = 0;
  unsigned char *Region = nullptr;
  uint32_t *Slots = nullptr; ///< 64-byte slots in a fixed random order.
  Run *Runs = nullptr;       ///< In time order; at most MaxRuns kept.
  size_t NumRuns = 0;
  size_t NextSlot = 0;
  uint64_t Sink = 0;
};

/// Timed samples grouped by operation kind: one suite function, one
/// program, or one function and serve tier. Every timed pass runs each
/// kind once, so every run has the same mix.
struct OpStats {
  struct Sample {
    uint64_t Kind;
    Clock::time_point Mid; ///< Middle of the timed interval.
    double Ms;
  };
  std::vector<Sample> Samples;
  /// Records the interval from \p Start to \p End.
  void add(uint64_t Kind, Clock::time_point Start, Clock::time_point End) {
    Samples.push_back({Kind, Start + (End - Start) / 2,
                       std::chrono::duration<double, std::milli>(End - Start)
                           .count()});
  }
  /// Mean of all samples at the reference speed of \p P (ms).
  double meanAt(const HostProbe &P) const;
};

/// How a run summarizes each kind's samples, at the reference speed,
/// before percentiles are taken across kinds. The in-process workloads
/// use the mean: their kinds have few samples (enum-suite) or samples
/// that fall into a fast and a slow cluster as the host changes, where a
/// median jumps between clusters. serve-enum uses the median: a spawned
/// child that the host stalls adds outliers of many times a request.
enum class KindSummary { Mean, Median };

/// The end-to-end metrics of an untraced run, every timing at the
/// reference speed of \p P: set-up median; latency p50/p90 across the
/// kinds' summaries; throughput as the kind count over the summaries'
/// sum (one operation in flight); peak RSS; ok_rate; the code-quality
/// counts.
void endToEndMetrics(const OpStats &Setup, const OpStats &Ops,
                     KindSummary Summary, const HostProbe &P, double PeakMb,
                     const Checker &C, const CodeQuality &Q, Metrics &Out);

/// frontend, core.compilers, machine and sim metrics: times from the
/// spans in \p T (covering \p Passes suite passes), counts from \p Q.
void compileLayerMetrics(const Tracer &T, uint64_t Passes,
                         const CodeQuality &Q, Metrics &Out);
void enumLayerMetrics(const EnumLayer &L, Metrics &Out);
/// Extra time of the traced operations relative to the same untraced
/// ones, both at the reference speed of \p P, in percent.
void traceOverhead(const OpStats &Traced, const OpStats &Untraced,
                   const HostProbe &P, Metrics &Out);

/// Visits every instance of every DAG in \p Dags (indexed like
/// S.Functions; empty results are skipped) and times what one
/// enumeration attempt is made of; fills the opt, ir, core and analysis
/// metrics and the enumerator residual against \p Timed.
void attributionReplay(const pose::PhaseManager &PM, const Suite &S,
                       const std::vector<pose::EnumerationResult> &Dags,
                       const EnumLayer &Timed, Metrics &Out);

/// Drives a short fixed serve sequence on a private daemon and fills the
/// serve and store metrics; false when posed could not start.
bool serveProbe(const Options &O, const pose::PhaseManager &PM,
                const Suite &S, const Expected &Exp, Checker &C, Tracer &T,
                Metrics &Layers);

/// The per-layer measurements every traced run ends with: enumeration
/// counters, the attribution replay and, unless the workload measured
/// it already, the serve probe.
void layerPass(const Options &O, const pose::PhaseManager &PM,
               const Suite &S, const Expected &Exp,
               const std::vector<pose::EnumerationResult> &Dags,
               const EnumLayer &Layer, Checker &C, Tracer &T, Metrics &Layers,
               bool ServeDone = false);

int runEnumWorkload(const Options &O, unsigned Jobs);
int runCompileWorkload(const Options &O);
int runServeWorkload(const Options &O);
int writeExpected(const std::string &Path);

/// Prints the result line (and writes the trace); returns the exit code.
int finish(const Options &O, const Checker &C, const Metrics &M,
           const Tracer &T);

} // namespace perfbench

#endif // POSE_PERFBENCH_BENCH_H
