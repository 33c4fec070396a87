//===- Serve.cpp - posed round-trip workload ------------------------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//
//
// serve-enum: the benchmark starts posed --max-jobs=1 on a private, empty
// store and one client thread drives one connection over the POSESRV1
// codec with one request in flight (a closed loop), so one process at a
// time runs. The connection requests a fixed set of small functions, in
// a seed-drawn order. Per pass every function is requested three ways:
//
//   first   --workload=P --enumerate=F --budget=B            computed
//   variant the same plus --jobs=1 (execution-only)          child store hit
//   repeat  byte-identical to first                          daemon cache hit
//
// The client only sends a variant or a repeat after its first has
// completed, so which tier serves a request follows from the sequence,
// never from timing. Each pass lowers B by one: a new configuration
// fingerprint, hence a fresh computation, with the same space and stdout.
//
//===----------------------------------------------------------------------===//

#include "perfbench/src/Bench.h"

#include "src/core/Canonical.h"
#include "src/serve/Protocol.h"
#include "src/store/StoreDriver.h"

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace pose;
using namespace pose::serve;

namespace perfbench {

namespace {

constexpr int kIoTimeoutMs = 120'000;

/// Kills and reaps every process that was re-parented to this one (the
/// benchmark is a child subreaper, so posec children of a killed daemon
/// land here instead of outliving the run).
void reapOrphans() {
  const pid_t Self = ::getpid();
  for (int Round = 0; Round != 50; ++Round) {
    bool Found = false;
    if (DIR *D = ::opendir("/proc")) {
      while (dirent *E = ::readdir(D)) {
        const pid_t Pid = static_cast<pid_t>(std::atoi(E->d_name));
        if (Pid <= 0)
          continue;
        std::ifstream Stat("/proc/" + std::string(E->d_name) + "/stat");
        std::string Line;
        std::getline(Stat, Line);
        const size_t Paren = Line.rfind(')');
        if (Paren == std::string::npos)
          continue;
        std::istringstream L(Line.substr(Paren + 2));
        char State = 0;
        long PPid = 0;
        L >> State >> PPid;
        if (PPid == Self) {
          Found = true;
          ::kill(Pid, SIGKILL);
        }
      }
      ::closedir(D);
    }
    while (::waitpid(-1, nullptr, WNOHANG) > 0) {
    }
    if (!Found)
      return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

/// One client connection with its frame parser.
class Conn {
public:
  explicit Conn(int Fd) : Fd(Fd), Reader(kMaxResponsePayload) {}
  ~Conn() {
    if (Fd >= 0)
      ::close(Fd);
  }
  Conn(const Conn &) = delete;
  Conn &operator=(const Conn &) = delete;

  int fd() const { return Fd; }

  bool send(const std::vector<uint8_t> &Frame) {
    size_t Off = 0;
    while (Off < Frame.size()) {
      const ssize_t N = ::send(Fd, Frame.data() + Off, Frame.size() - Off,
                               MSG_NOSIGNAL);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0)
        return false;
      Off += static_cast<size_t>(N);
    }
    return true;
  }

  /// Reads what is available; false on EOF or error.
  bool pump() {
    uint8_t Buf[65536];
    const ssize_t N = ::read(Fd, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      return true;
    if (N <= 0)
      return false;
    Reader.feed(Buf, static_cast<size_t>(N));
    return true;
  }

  FrameReader::Status next(MsgKind &Kind, std::vector<uint8_t> &Payload,
                           std::string &Why) {
    return Reader.next(Kind, Payload, Why);
  }

  /// Blocks until one whole frame arrived (or \p TimeoutMs passed).
  bool readFrame(MsgKind &Kind, std::vector<uint8_t> &Payload,
                 std::string &Why, int TimeoutMs) {
    const Clock::time_point Deadline =
        Clock::now() + std::chrono::milliseconds(TimeoutMs);
    while (true) {
      const FrameReader::Status S = Reader.next(Kind, Payload, Why);
      if (S == FrameReader::Status::Frame)
        return true;
      if (S == FrameReader::Status::Malformed)
        return false;
      const auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            Deadline - Clock::now())
                            .count();
      pollfd P{Fd, POLLIN, 0};
      if (Left <= 0 || ::poll(&P, 1, static_cast<int>(Left)) <= 0) {
        Why = "timed out waiting for the daemon";
        return false;
      }
      if (!pump()) {
        Why = "daemon closed the connection";
        return false;
      }
    }
  }

private:
  int Fd;
  FrameReader Reader;
};

std::unique_ptr<Conn> connectTo(const std::string &Path) {
  const int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return nullptr;
  sockaddr_un A{};
  A.sun_family = AF_UNIX;
  std::strncpy(A.sun_path, Path.c_str(), sizeof(A.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) != 0) {
    ::close(Fd);
    return nullptr;
  }
  return std::make_unique<Conn>(Fd);
}

std::string tail(const std::string &Path) {
  std::ifstream In(Path);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  if (Text.size() > 600)
    Text = "..." + Text.substr(Text.size() - 600);
  while (!Text.empty() && Text.back() == '\n')
    Text.pop_back();
  return Text;
}

} // namespace

/// A private posed instance: its own directory for socket, store and log,
/// started and stopped by this process, never outliving it.
class Daemon {
public:
  Daemon() = default;
  ~Daemon() {
    if (Pid > 0) {
      ::kill(-Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
      reapOrphans();
    }
    if (!Dir.empty())
      std::filesystem::remove_all(Dir);
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  const std::string &storeDir() const { return Store; }
  const std::string &socketPath() const { return Socket; }

  bool start(const Options &O, std::string &Err) {
    std::filesystem::create_directories(O.WorkDir);
    std::string Tmpl = O.WorkDir + "/serve-XXXXXX";
    if (!::mkdtemp(Tmpl.data())) {
      Err = "cannot create a private directory under " + O.WorkDir;
      return false;
    }
    Dir = Tmpl;
    Socket = Dir + "/posed.sock";
    Store = Dir + "/store";
    Log = Dir + "/posed.log";
    if (Socket.size() >= sizeof(sockaddr_un::sun_path)) {
      Err = "socket path too long: " + Socket;
      return false;
    }
    if (::access(O.PosedPath.c_str(), X_OK) != 0) {
      Err = "no posed binary at " + O.PosedPath;
      return false;
    }
    const std::string A1 = "--socket=" + Socket, A2 = "--store=" + Store;
    const char *Argv[] = {O.PosedPath.c_str(),         A1.c_str(),
                          A2.c_str(),                  "--max-jobs=1",
                          "--request-timeout-ms=120000", nullptr};
    const pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid < 0) {
      Err = std::string("fork: ") + std::strerror(errno);
      return false;
    }
    if (Pid == 0) {
      ::setpgid(0, 0);
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(127);
      const int LogFd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (LogFd >= 0) {
        ::dup2(LogFd, 1);
        ::dup2(LogFd, 2);
      }
      ::execv(Argv[0], const_cast<char *const *>(Argv));
      ::_exit(127);
    }
    ::setpgid(Pid, Pid);

    // Ready once a Ping is answered.
    const Clock::time_point T0 = Clock::now();
    while (secondsSince(T0) < 10) {
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "posed exited during start-up: " + tail(Log);
        return false;
      }
      if (std::unique_ptr<Conn> C = connectTo(Socket)) {
        MsgKind K;
        std::vector<uint8_t> P;
        std::string Why;
        if (C->send(encodePing()) && C->readFrame(K, P, Why, 5000) &&
            K == MsgKind::Pong)
          return true;
        Err = "posed did not answer a ping: " + Why;
        return false;
      }
      // Fine-grained, so that the start-up time set-up reports is not
      // rounded up to the polling interval.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    Err = "posed did not open its socket within 10 s: " + tail(Log);
    return false;
  }

  bool stats(StatsReport &S, std::string &Err) {
    std::unique_ptr<Conn> C = connectTo(Socket);
    MsgKind K;
    std::vector<uint8_t> P;
    if (!C || !C->send(encodeStatsRequest()) ||
        !C->readFrame(K, P, Err, 5000) || K != MsgKind::StatsReport) {
      if (Err.empty())
        Err = "no stats report";
      return false;
    }
    return decodeStatsReport(P, S, Err);
  }

  /// Shutdown frame, then SIGKILL when the drain takes over 10 s. Returns
  /// false when the daemon had to be killed.
  bool stop() {
    if (Pid <= 0)
      return true;
    if (std::unique_ptr<Conn> C = connectTo(Socket)) {
      MsgKind K;
      std::vector<uint8_t> P;
      std::string Why;
      if (C->send(encodeShutdown()))
        C->readFrame(K, P, Why, 5000);
    }
    bool Clean = false;
    const Clock::time_point T0 = Clock::now();
    while (secondsSince(T0) < 10) {
      if (::waitpid(Pid, nullptr, WNOHANG) == Pid) {
        Clean = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!Clean) {
      ::kill(-Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
    Pid = -1;
    reapOrphans();
    return Clean;
  }

private:
  pid_t Pid = -1;
  std::string Dir, Socket, Store, Log;
};

namespace {

enum Tier { First = 0, Variant = 1, Repeat = 2 };
const char *const TierName[] = {"computed", "store_hit", "cached"};

struct Request {
  size_t Fn; ///< Index into the selected functions.
  Tier Kind;
};

/// Seed-drawn order of one connection's pass: every first request comes
/// before its variant and repeat.
std::vector<Request> drawSequence(const std::vector<size_t> &Fns,
                                  std::mt19937_64 &Rng) {
  std::vector<Request> Ready, Out;
  for (size_t F : Fns)
    Ready.push_back({F, First});
  while (!Ready.empty()) {
    const size_t Pick = Rng() % Ready.size();
    const Request R = Ready[Pick];
    Ready.erase(Ready.begin() + static_cast<std::ptrdiff_t>(Pick));
    Out.push_back(R);
    if (R.Kind == First) {
      Ready.push_back({R.Fn, Variant});
      Ready.push_back({R.Fn, Repeat});
    }
  }
  return Out;
}

uint64_t parseInstances(const std::string &Stdout) {
  const size_t P = Stdout.find("distinct instances: ");
  if (P == std::string::npos)
    return 0;
  return std::strtoull(Stdout.c_str() + P + 20, nullptr, 10);
}

struct ServeConfig {
  double Seconds = 10;
  uint64_t FixedPasses = 0; ///< 0: whole passes until Seconds have passed.
};

struct ServeResult {
  OpStats Ops;
  double PeakRssMb = 0;
};

/// The functions the client requests: every small space (at most 1200
/// attempted phases, about 20 ms in process) with its own canonical root,
/// so no two share a stored DAG, the \p MaxFunctions smallest of them.
/// The set, and so the work of a pass, is the same for every seed.
std::vector<size_t> selectServeFunctions(const Suite &S, const Expected &Exp,
                                         size_t MaxFunctions) {
  std::vector<std::pair<uint64_t, size_t>> Small;
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> Roots;
  for (size_t I = 0; I != S.Functions.size(); ++I) {
    const auto E = Exp.Functions.find(S.Functions[I].Key);
    if (E == Exp.Functions.end() || E->second.Attempted > 1200)
      continue;
    const HashTriple H = canonicalize(S.function(S.Functions[I])).Hash;
    if (Roots.insert({H.InstCount, H.ByteSum, H.Crc}).second)
      Small.push_back({E->second.Attempted, I});
  }
  std::sort(Small.begin(), Small.end());
  std::vector<size_t> Fns;
  for (size_t I = 0; I != Small.size() && I != MaxFunctions; ++I)
    Fns.push_back(Small[I].second);
  return Fns;
}

ServeResult driveServe(const PhaseManager &PM, const Suite &S, Daemon &D,
                       const std::vector<std::vector<size_t>> &Owners,
                       const ServeConfig &Cfg, std::mt19937_64 &Rng,
                       Checker &C, Tracer &T, Metrics *Layers,
                       HostProbe *Probe) {
  ServeResult Res;
  const size_t NConn = Owners.size();
  std::vector<std::unique_ptr<Conn>> Conns;
  for (size_t I = 0; I != NConn; ++I) {
    Conns.push_back(connectTo(D.socketPath()));
    if (!Conns.back()) {
      C.failRun("cannot connect to posed");
      return Res;
    }
  }
  // Fns: suite indices of every owned function; Owned: per connection,
  // positions in Fns.
  std::vector<size_t> Fns;
  std::vector<std::vector<size_t>> Owned(NConn);
  for (size_t I = 0; I != NConn; ++I)
    for (size_t F : Owners[I]) {
      Owned[I].push_back(Fns.size());
      Fns.push_back(F);
    }

  struct Outcome {
    size_t Fn;
    Tier Kind;
    std::string Bad;
    uint64_t Instances;
  };
  std::vector<Outcome> Outcomes;
  std::vector<std::string> Reference(Fns.size());
  std::vector<double> TierMs[3];
  std::vector<double> EncodeUs, DecodeUs;
  // Pass 0 is a checked warm-up; its round-trips are not reported.
  uint64_t Passes = 0, NextId = 1;
  double WallS = 0;
  Clock::time_point PassStart = Clock::now();
  bool Broken = false;

  while (!Broken) {
    // The host probe runs between passes, when no request is in flight.
    if (Probe)
      Probe->sample(4);
    PassStart = Clock::now();
    const bool Timed = Passes != 0;
    const std::string Budget =
        "--budget=" + std::to_string(1'000'000 - Passes);
    struct State {
      std::vector<Request> Seq;
      size_t Next = 0;
      bool Busy = false;
      Request Cur{};
      uint64_t Id = 0;
      Clock::time_point Sent, Encoded;
    };
    std::vector<State> St(NConn);
    for (size_t I = 0; I != NConn; ++I)
      St[I].Seq = drawSequence(Owned[I], Rng);

    size_t Done = 0;
    while (Done != NConn && !Broken) {
      for (size_t I = 0; I != NConn; ++I) {
        State &X = St[I];
        if (X.Busy || X.Next == X.Seq.size())
          continue;
        X.Cur = X.Seq[X.Next];
        const SuiteFunction &F = S.Functions[Fns[X.Cur.Fn]];
        RunRequest Req;
        Req.Id = X.Id = NextId++;
        Req.Args = {std::string("--workload=") + S.Programs[F.Program].Info->Name,
                    "--enumerate=" + S.function(F).Name, Budget};
        if (X.Cur.Kind == Variant)
          Req.Args.push_back("--jobs=1");
        X.Sent = Clock::now();
        const std::vector<uint8_t> Frame = encodeRunRequest(Req);
        X.Encoded = Clock::now();
        if (Timed)
          EncodeUs.push_back(
              static_cast<double>(nsBetween(X.Sent, X.Encoded)) / 1e3);
        if (!Conns[I]->send(Frame)) {
          C.failRun("cannot send a request to posed");
          Broken = true;
          break;
        }
        X.Busy = true;
      }
      if (Broken)
        break;

      std::vector<pollfd> Fds;
      std::vector<size_t> Which;
      for (size_t I = 0; I != NConn; ++I)
        if (St[I].Busy) {
          Fds.push_back({Conns[I]->fd(), POLLIN, 0});
          Which.push_back(I);
        }
      if (::poll(Fds.data(), Fds.size(), kIoTimeoutMs) <= 0) {
        C.failRun("no response from posed within 120 s");
        Broken = true;
        break;
      }
      for (size_t K = 0; K != Fds.size() && !Broken; ++K) {
        if (!(Fds[K].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        const size_t I = Which[K];
        State &X = St[I];
        if (!Conns[I]->pump()) {
          C.failRun("posed closed a connection");
          Broken = true;
          break;
        }
        MsgKind Kind;
        std::vector<uint8_t> Payload;
        std::string Why;
        const Clock::time_point D0 = Clock::now();
        const FrameReader::Status Status = Conns[I]->next(Kind, Payload, Why);
        if (Status == FrameReader::Status::NeedMore)
          continue;
        RunResponse Resp;
        const bool Decoded = Status == FrameReader::Status::Frame &&
                             Kind == MsgKind::RunResult &&
                             decodeRunResponse(Payload, Resp, Why);
        const Clock::time_point D1 = Clock::now();
        const uint32_t Span = T.record("serve.request", X.Sent, D1, X.Id);
        T.record("serve.codec.encode", X.Sent, X.Encoded, X.Id, Span);
        T.record("serve.codec.decode", D0, D1, X.Id, Span);
        if (Status == FrameReader::Status::Malformed) {
          C.failRun("malformed frame from posed: " + Why);
          Broken = true;
          break;
        }
        if (Timed) {
          const double Ms = static_cast<double>(nsBetween(X.Sent, D1)) / 1e6;
          DecodeUs.push_back(static_cast<double>(nsBetween(D0, D1)) / 1e3);
          Res.Ops.add(3 * X.Cur.Fn + X.Cur.Kind, X.Sent, D1);
          TierMs[X.Cur.Kind].push_back(Ms);
        }

        Outcome Out{X.Cur.Fn, X.Cur.Kind, "", 0};
        const std::string &Key = S.Functions[Fns[X.Cur.Fn]].Key;
        if (Kind == MsgKind::Error) {
          ErrorResponse E;
          decodeErrorResponse(Payload, E, Why);
          Out.Bad = std::string("posed refused: ") + errorCodeName(E.Code) +
                    ": " + E.Message;
        } else if (!Decoded) {
          Out.Bad = "undecodable response: " + Why;
        } else if (Resp.Id != X.Id) {
          Out.Bad = "response for another request";
        } else if (Resp.ExitCode != 0) {
          Out.Bad = "posec exited " + std::to_string(Resp.ExitCode);
        } else if (Resp.Served != (X.Cur.Kind == Repeat ? ServedFrom::Cached
                                                        : ServedFrom::Computed)) {
          Out.Bad = std::string(TierName[X.Cur.Kind]) + " request served " +
                    servedFromName(Resp.Served);
        } else if (X.Cur.Kind == Variant &&
                   Resp.Stderr.find("reusing cached DAG") == std::string::npos) {
          Out.Bad = "variant did not reuse the stored DAG";
        } else {
          std::string &Ref = Reference[X.Cur.Fn];
          if (Ref.empty())
            Ref = Resp.Stdout;
          if (Resp.Stdout != Ref)
            Out.Bad = "stdout differs between requests of one function";
          Out.Instances = parseInstances(Resp.Stdout);
        }
        if (!Out.Bad.empty())
          Out.Bad = Key + ": " + Out.Bad;
        Outcomes.push_back(std::move(Out));
        X.Busy = false;
        if (++X.Next == X.Seq.size())
          ++Done;
      }
    }
    if (Broken)
      break;
    if (Passes++ == 0)
      continue;
    WallS += secondsSince(PassStart);
    if (Cfg.FixedPasses ? Passes - 1 == Cfg.FixedPasses
                        : WallS >= Cfg.Seconds)
      break;
  }
  Conns.clear();

  // The daemon's counters must equal the designed tier counts.
  StatsReport Stats;
  std::string Err;
  const uint64_t PerPass = Fns.size();
  if (!D.stats(Stats, Err)) {
    C.failRun("no stats from posed: " + Err);
  } else if (!Broken &&
             (Stats.Computed != 2 * PerPass * Passes ||
              Stats.CacheHits != PerPass * Passes || Stats.Coalesced != 0 ||
              Stats.Shed != 0 || Stats.Errors != 0)) {
    C.failRun("posed counters differ from the designed mix: computed " +
              std::to_string(Stats.Computed) + ", cached " +
              std::to_string(Stats.CacheHits) + ", coalesced " +
              std::to_string(Stats.Coalesced));
  }

  // Instance counts against the in-process enumeration of each function.
  EnumeratorConfig ECfg;
  const Enumerator E(PM, ECfg);
  std::vector<uint64_t> InProcess(Fns.size());
  for (size_t I = 0; I != Fns.size(); ++I)
    InProcess[I] = E.enumerate(S.function(S.Functions[Fns[I]])).Nodes.size();
  for (Outcome &Out : Outcomes) {
    C.attempt();
    if (Out.Bad.empty() && Out.Instances != InProcess[Out.Fn])
      Out.Bad = S.Functions[Fns[Out.Fn]].Key + ": served " +
                std::to_string(Out.Instances) + " instances, in process " +
                std::to_string(InProcess[Out.Fn]);
    if (!Out.Bad.empty())
      C.fail(Out.Bad);
  }

  if (Layers) {
    for (int K = 0; K != 3; ++K)
      Layers->set(std::string("serve.rtt.") + TierName[K] + ".p50_ms",
                  percentile(TierMs[K], 0.5), "ms");
    Layers->set("serve.codec.encode_us", mean(EncodeUs), "us");
    Layers->set("serve.codec.decode_us", mean(DecodeUs), "us");
    // What a store-hit child spends loading its DAG, timed in process on
    // the daemon's store with the last pass's configuration.
    EnumeratorConfig Last;
    Last.MaxLevelSequences = 1'000'000 - (Passes ? Passes - 1 : 0);
    std::vector<double> LoadMs, ParseMs;
    for (size_t I = 0; I != Fns.size(); ++I) {
      const SuiteFunction &F = S.Functions[Fns[I]];
      const Clock::time_point T0 = Clock::now();
      const store::DriveResult R = store::driveEnumeration(
          PM, Last, S.function(F), D.storeDir(), false);
      LoadMs.push_back(secondsSince(T0) * 1e3);
      if (!R.Ok || R.Source != store::DriveSource::Cached)
        C.failRun(F.Key + ": DAG missing from the daemon's store");
      ParseMs.push_back(S.CompileMs[F.Program]);
    }
    const double Load = mean(LoadMs);
    Layers->set("store.load_ms", Load, "ms");
    Layers->set("serve.child_overhead_ms",
                percentile(TierMs[Variant], 0.5) - Load - mean(ParseMs), "ms");
    Layers->set("serve.daemon.computed", static_cast<double>(Stats.Computed),
                "count");
    Layers->set("serve.daemon.coalesced",
                static_cast<double>(Stats.Coalesced), "count");
    Layers->set("serve.daemon.cached", static_cast<double>(Stats.CacheHits),
                "count");
    Layers->set("serve.daemon.shed", static_cast<double>(Stats.Shed),
                "count");
    Layers->set("serve.daemon.errors", static_cast<double>(Stats.Errors),
                "count");
  }
  if (!D.stop())
    std::fprintf(stderr, "warning: posed did not drain within 10 s; killed\n");
  Res.PeakRssMb = childrenPeakRssMb();
  return Res;
}

} // namespace

bool serveProbe(const Options &O, const PhaseManager &PM, const Suite &S,
                const Expected &Exp, Checker &C, Tracer &T, Metrics &Layers) {
  // Fixed and small: the six smallest functions, two timed passes.
  std::mt19937_64 Rng(O.Seed);
  const std::vector<std::vector<size_t>> Owners = {
      selectServeFunctions(S, Exp, 6)};
  Daemon D;
  std::string Err;
  if (!D.start(O, Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return false;
  }
  ServeConfig Cfg;
  Cfg.FixedPasses = 2;
  driveServe(PM, S, D, Owners, Cfg, Rng, C, T, &Layers, nullptr);
  return true;
}

int runServeWorkload(const Options &O) {
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
  std::mt19937_64 Rng(O.Seed);

  // Set-up: front end, function draw, daemon start until it answers a
  // ping. Repeated; every start but the last is stopped again. The host
  // probe runs after every set-up and between passes.
  HostProbe Probe;
  Suite S;
  std::vector<std::vector<size_t>> Owners; // One connection's functions.
  OpStats Setup;
  std::unique_ptr<Daemon> D;
  for (int Rep = 0; Rep != 20; ++Rep) {
    if (D)
      D->stop();
    D = std::make_unique<Daemon>();
    const Clock::time_point T0 = Clock::now();
    if (!compileSuite(S, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    Owners = {selectServeFunctions(S, Exp, SIZE_MAX)};
    if (!D->start(O, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    Setup.add(0, T0, Clock::now());
    Probe.sample();
  }
  if (Owners[0].size() < 8) {
    std::fprintf(stderr, "error: only %zu small functions with distinct "
                         "roots in the suite\n",
                 Owners[0].size());
    return 1;
  }

  // A traced run first serves half its time untraced, then half traced on
  // a fresh daemon, and compares their mean round-trips.
  ServeConfig Cfg;
  Cfg.Seconds = O.Trace ? O.Seconds / 2 : O.Seconds;
  OpStats Untraced;
  if (O.Trace) {
    Untraced =
        driveServe(PM, S, *D, Owners, Cfg, Rng, C, T, nullptr, &Probe).Ops;
    D = std::make_unique<Daemon>();
    if (!D->start(O, Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    T.setEnabled(true);
  }
  const ServeResult R = driveServe(PM, S, *D, Owners, Cfg, Rng, C, T,
                                   O.Trace ? &Layers : nullptr, &Probe);
  D.reset();

  // Code quality, with the model trained on the in-process enumeration
  // of the suite.
  EnumLayer Layer;
  const std::vector<EnumerationResult> Dags = enumerateSuite(PM, S, 2, &Layer);
  const CodeQuality Q =
      measureCodeQuality(PM, S, trainModel(PM, Dags), Exp, C, T);

  if (!O.Trace) {
    endToEndMetrics(Setup, R.Ops, KindSummary::Median, Probe, R.PeakRssMb, C,
                    Q, M);
    return finish(O, C, M, T);
  }

  compileLayerMetrics(T, 1, Q, Layers);
  traceOverhead(R.Ops, Untraced, Probe, Layers);
  Layers.set("host.probe_ms", Probe.medianMs(), "ms");
  layerPass(O, PM, S, Exp, Dags, Layer, C, T, Layers, /*ServeDone=*/true);
  return finish(O, C, Layers, T);
}

} // namespace perfbench
