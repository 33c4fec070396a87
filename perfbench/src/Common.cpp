//===- Common.cpp - Shared pieces of the repository benchmark -------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/Bench.h"

#include "src/frontend/Compile.h"
#include "src/ir/Printer.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>

#include <sys/mman.h>
#include <sys/resource.h>

using namespace pose;

namespace perfbench {

std::string Metrics::json() const {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I != Entries.size(); ++I) {
    const Entry &E = Entries[I];
    const double V = std::isfinite(E.Value) ? E.Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + E.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + E.Unit + "\"}";
  }
  return Out + "}";
}

uint64_t Tracer::totalNs(const char *Name) const {
  uint64_t Ns = 0;
  for (const Span &S : Spans)
    if (std::string_view(S.Name) == Name)
      Ns += S.EndNs - S.StartNs;
  return Ns;
}

std::vector<double> Tracer::durationsMs(const char *Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (std::string_view(S.Name) == Name)
      Out.push_back(static_cast<double>(S.EndNs - S.StartNs) / 1e6);
  return Out;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream F(Path);
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    F << "{\"id\": " << I << ", \"name\": \"" << S.Name
      << "\", \"start_ns\": " << S.StartNs << ", \"end_ns\": " << S.EndNs
      << ", \"parent\": "
      << (S.Parent == UINT32_MAX ? std::string("null")
                                 : std::to_string(S.Parent))
      << ", \"op\": " << S.Op << "}\n";
  }
  return static_cast<bool>(F);
}

bool loadExpected(const std::string &Path, Expected &E, std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot read expected values from '" + Path + "'";
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream L(Line);
    std::string Kind, Key;
    L >> Kind >> Key;
    if (Kind == "fn") {
      ExpectedFunction F;
      std::string Digest;
      L >> F.Instances >> F.Attempted >> F.Leaves >> F.MaxActiveLen >> Digest;
      if (L.fail()) {
        Err = Path + ":" + std::to_string(LineNo) + ": malformed fn line";
        return false;
      }
      F.DagDigest = std::stoull(Digest, nullptr, 16);
      E.Functions[Key] = F;
    } else if (Kind == "ret") {
      int32_t V = 0;
      L >> V;
      if (L.fail()) {
        Err = Path + ":" + std::to_string(LineNo) + ": malformed ret line";
        return false;
      }
      E.ReturnValues[Key] = V;
    } else {
      Err = Path + ":" + std::to_string(LineNo) + ": unknown record '" +
            Kind + "'";
      return false;
    }
  }
  return true;
}

bool compileSuite(Suite &S, std::string &Err) {
  S = Suite();
  for (const Workload &W : allWorkloads()) {
    const Clock::time_point T0 = Clock::now();
    CompileResult R = compileMC(W.Source);
    S.CompileMs.push_back(secondsSince(T0) * 1e3);
    if (!R.ok()) {
      Err = std::string(W.Name) + ": " + R.diagText();
      return false;
    }
    Program P;
    P.Info = &W;
    P.M = std::move(R.M);
    S.Programs.push_back(std::move(P));
  }
  for (size_t P = 0; P != S.Programs.size(); ++P)
    for (size_t F = 0; F != S.Programs[P].M.Functions.size(); ++F)
      S.Functions.push_back({P, F,
                             std::string(S.Programs[P].Info->Name) + "/" +
                                 S.Programs[P].M.Functions[F].Name});
  return true;
}

namespace {
struct Fnv {
  uint64_t H = 1469598103934665603ull;
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
};
} // namespace

uint64_t dagDigest(const EnumerationResult &R) {
  Fnv D;
  D.add(R.Nodes.size());
  D.add(static_cast<uint64_t>(R.Stop));
  D.add(R.AttemptedPhases);
  D.add(R.MaxActiveLength);
  D.add(R.Cyclic);
  for (const DagNode &N : R.Nodes) {
    D.add(N.Hash.InstCount);
    D.add(N.Hash.ByteSum);
    D.add(N.Hash.Crc);
    D.add(N.Level);
    D.add(N.CodeSize);
    D.add(N.CfHash);
    D.add(N.ActiveMask);
    D.add(N.DormantMask);
    D.add(N.AttemptedMask);
    D.add(N.Weight);
    D.add(N.Edges.size());
    for (const DagEdge &E : N.Edges) {
      D.add(static_cast<uint64_t>(E.Phase));
      D.add(E.To);
    }
  }
  return D.H;
}

uint64_t moduleDigest(const Module &M) {
  Fnv D;
  for (char C : printModule(M))
    D.add(static_cast<unsigned char>(C));
  return D.H;
}

std::string checkEnumeration(const EnumerationResult &R,
                             const ExpectedFunction &E) {
  std::string Bad;
  auto Cmp = [&](const char *What, uint64_t Got, uint64_t Want) {
    if (Got != Want)
      Bad += std::string(Bad.empty() ? "" : ", ") + What + " " +
             std::to_string(Got) + " != expected " + std::to_string(Want);
  };
  if (!R.complete())
    Bad = "enumeration did not complete";
  Cmp("instances", R.Nodes.size(), E.Instances);
  Cmp("attempted", R.AttemptedPhases, E.Attempted);
  Cmp("leaves", R.leafCount(), E.Leaves);
  Cmp("max active length", R.MaxActiveLength, E.MaxActiveLen);
  if (Bad.empty() && dagDigest(R) != E.DagDigest)
    Bad = "DAG differs from the recorded single-thread DAG";
  return Bad;
}

void EnumLayer::add(const EnumerationResult &R, uint64_t RunNs) {
  Attempts += R.AttemptedPhases;
  for (const LevelStat &L : R.Levels)
    Active += L.Active;
  Nodes += R.Nodes.size();
  Ns += RunNs;
  MaxMemoryBytes = std::max(MaxMemoryBytes, R.ApproxMemoryBytes);
}

std::vector<EnumerationResult> enumerateSuite(const PhaseManager &PM,
                                              const Suite &S, unsigned Jobs,
                                              EnumLayer *Layer) {
  EnumeratorConfig Cfg;
  Cfg.Jobs = Jobs;
  Enumerator E(PM, Cfg);
  std::vector<EnumerationResult> Out;
  Out.reserve(S.Functions.size());
  if (Layer) {
    Layer->Jobs = Jobs;
    Layer->Passes = 1;
  }
  for (const SuiteFunction &F : S.Functions) {
    const Clock::time_point T0 = Clock::now();
    Out.push_back(E.enumerate(S.function(F)));
    if (Layer)
      Layer->add(Out.back(), nsBetween(T0, Clock::now()));
  }
  return Out;
}

void resetPeakRss() {
  // "5" resets the kernel's peak-RSS watermark for this process.
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0;
  struct rusage U {};
  ::getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double childrenPeakRssMb() {
  struct rusage U {};
  ::getrusage(RUSAGE_CHILDREN, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

void codeQualityMetrics(const CodeQuality &Q, Metrics &Out) {
  Out.set("prob_code_size", static_cast<double>(Q.ProbSize), "insts");
  Out.set("batch_code_size", static_cast<double>(Q.BatchSize), "insts");
  Out.set("prob_dyn_insts", static_cast<double>(Q.ProbDyn), "insts");
  Out.set("batch_dyn_insts", static_cast<double>(Q.BatchDyn), "insts");
}

namespace {
uint64_t nextKey(uint64_t &Y) {
  Y = Y * 6364136223846793005ull + 1442695040888963407ull;
  return Y >> 40;
}
} // namespace

/// Hands out the probe's slots in their fixed order; never frees.
template <class T> struct SlotAllocator {
  using value_type = T;
  HostProbe *P;
  explicit SlotAllocator(HostProbe *P) : P(P) {}
  template <class U> SlotAllocator(const SlotAllocator<U> &O) : P(O.P) {}
  T *allocate(size_t N) {
    static_assert(sizeof(T) <= 64, "a map node must fit one slot");
    if (N != 1)
      throw std::bad_alloc();
    return static_cast<T *>(P->slot());
  }
  void deallocate(T *, size_t) {}
  template <class U> bool operator==(const SlotAllocator<U> &O) const {
    return P == O.P;
  }
};

HostProbe::HostProbe()
    : Bytes(RegionBytes + NumSlots * sizeof(uint32_t) + MaxRuns * sizeof(Run)) {
  void *Map = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (Map == MAP_FAILED)
    throw std::bad_alloc();
  ::madvise(Map, Bytes, MADV_DONTFORK);
  std::memset(Map, 0, Bytes);
  Region = static_cast<unsigned char *>(Map);
  Slots = reinterpret_cast<uint32_t *>(Region + RegionBytes);
  Runs = reinterpret_cast<Run *>(Slots + NumSlots);
  for (size_t I = 0; I != NumSlots; ++I)
    Slots[I] = static_cast<uint32_t>(I);
  std::mt19937_64 Rng(0x5eed);
  std::shuffle(Slots, Slots + NumSlots, Rng);
}

HostProbe::~HostProbe() { ::munmap(Region, Bytes); }

void *HostProbe::slot() {
  const uint32_t S = Slots[NextSlot];
  NextSlot = (NextSlot + 1) % NumSlots;
  return Region + 64 * static_cast<size_t>(S);
}

void HostProbe::sample(int Times) {
  using Node = std::pair<const uint64_t, uint64_t>;
  for (int K = 0; K != Times; ++K) {
    const Clock::time_point T0 = Clock::now();
    {
      std::map<uint64_t, uint64_t, std::less<uint64_t>, SlotAllocator<Node>>
          M{SlotAllocator<Node>(this)};
      uint64_t Y = 12345;
      for (uint64_t I = 0; I != 3000; ++I) {
        M[nextKey(Y)] = I;
        if (I % 3 == 0)
          M.erase(M.begin());
      }
      Sink += M.size() + M.begin()->second;
    }
    const Clock::time_point T1 = Clock::now();
    if (NumRuns != MaxRuns)
      Runs[NumRuns++] = {T0 + (T1 - T0) / 2,
                         std::chrono::duration<double, std::milli>(T1 - T0)
                             .count()};
  }
}

double HostProbe::factorAt(Clock::time_point At) const {
  if (NumRuns == 0)
    return 1;
  // Runs are in time order: widen from the insertion point towards the
  // nearer neighbour until Nearest runs are taken.
  size_t Hi = static_cast<size_t>(
      std::lower_bound(Runs, Runs + NumRuns, At,
                       [](const Run &R, Clock::time_point T) {
                         return R.Mid < T;
                       }) -
      Runs);
  size_t Lo = Hi;
  std::vector<double> Ms;
  while (Ms.size() != Nearest && (Lo != 0 || Hi != NumRuns)) {
    const bool TakeLeft =
        Hi == NumRuns || (Lo != 0 && At - Runs[Lo - 1].Mid < Runs[Hi].Mid - At);
    Ms.push_back(TakeLeft ? Runs[--Lo].Ms : Runs[Hi++].Ms);
  }
  return percentile(std::move(Ms), 0.5) / NominalMs;
}

double HostProbe::medianMs() const {
  std::vector<double> Ms;
  for (size_t I = 0; I != NumRuns; ++I)
    Ms.push_back(Runs[I].Ms);
  return percentile(std::move(Ms), 0.5);
}

double OpStats::meanAt(const HostProbe &P) const {
  double Sum = 0;
  for (const Sample &S : Samples)
    Sum += S.Ms / P.factorAt(S.Mid);
  return Samples.empty() ? 0 : Sum / static_cast<double>(Samples.size());
}

void endToEndMetrics(const OpStats &Setup, const OpStats &Ops,
                     KindSummary Summary, const HostProbe &P, double PeakMb,
                     const Checker &C, const CodeQuality &Q, Metrics &Out) {
  std::vector<double> SetupS;
  for (const OpStats::Sample &S : Setup.Samples)
    SetupS.push_back(S.Ms / 1e3 / P.factorAt(S.Mid));
  std::map<uint64_t, std::vector<double>> ByKind;
  for (const OpStats::Sample &S : Ops.Samples)
    ByKind[S.Kind].push_back(S.Ms / P.factorAt(S.Mid));
  std::vector<double> PerKind;
  for (const auto &[Kind, Ms] : ByKind)
    PerKind.push_back(Summary == KindSummary::Mean ? mean(Ms)
                                                   : percentile(Ms, 0.5));
  double SumMs = 0;
  for (double Ms : PerKind)
    SumMs += Ms;
  Out.set("setup_s", percentile(SetupS, 0.5), "s");
  Out.set("throughput_per_s",
          SumMs > 0 ? 1e3 * static_cast<double>(PerKind.size()) / SumMs : 0,
          "1/s");
  Out.set("latency_p50_ms", percentile(PerKind, 0.5), "ms");
  Out.set("latency_p90_ms", percentile(PerKind, 0.9), "ms");
  Out.set("peak_rss_mb", PeakMb, "MB");
  Out.set("ok_rate",
          1.0 - static_cast<double>(C.failed()) /
                    static_cast<double>(std::max<uint64_t>(C.attempted(), 1)),
          "ratio");
  codeQualityMetrics(Q, Out);
}

int finish(const Options &O, const Checker &C, const Metrics &M,
           const Tracer &T) {
  if (O.Trace && !O.TraceOut.empty() && !T.write(O.TraceOut))
    std::fprintf(stderr, "warning: cannot write trace to %s\n",
                 O.TraceOut.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              C.correct() ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(
                  C.attempted(), 1)),
              static_cast<unsigned long long>(C.failed()),
              M.json().c_str());
  std::fflush(stdout);
  return 0;
}

} // namespace perfbench
