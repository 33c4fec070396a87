//===- Enumerator.cpp - Exhaustive phase order space enumeration --------------===//
//
// Part of POSE. MIT license.
//
//===----------------------------------------------------------------------===//

#include "src/core/Enumerator.h"

#include "src/core/InstanceTable.h"
#include "src/ir/Function.h"
#include "src/opt/PhaseManager.h"
#include "src/support/ThreadPool.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

using namespace pose;

namespace {

/// Frontier memory accounting. Instances use copy-on-write storage, so
/// blocks (and slot vectors) shared across frontier entries must be
/// charged once — but the key has to be *content*, never an address:
/// pointer sharing does not survive a checkpoint resume, and the
/// accounting is part of the byte-identical determinism contract across
/// job counts and interrupted runs. Content hashing is deterministic
/// by construction; a (vanishingly rare) 64-bit collision merely
/// undercounts the approximate charge and does so identically everywhere.
uint64_t footprintMix(uint64_t H, uint64_t V) {
  H ^= V;
  return H * 0x100000001B3ull;
}

uint64_t blockContentKey(const BasicBlock &B) {
  uint64_t H = 0xCBF29CE484222325ull;
  H = footprintMix(H, static_cast<uint32_t>(B.Label));
  H = footprintMix(H, B.Insts.size());
  auto Mix = [&H](const Operand &O) {
    H = footprintMix(H, (static_cast<uint64_t>(O.Kind) << 32) |
                            static_cast<uint32_t>(O.Value));
  };
  for (const Rtl &I : B.Insts) {
    H = footprintMix(H, (static_cast<uint64_t>(I.Opcode) << 8) |
                            static_cast<uint64_t>(I.CC));
    Mix(I.Dst);
    for (const Operand &S : I.Src)
      Mix(S);
    H = footprintMix(H, I.Args.size());
    for (const Operand &A : I.Args)
      Mix(A);
  }
  return H;
}

uint64_t slotContentKey(const SlotList &Slots) {
  uint64_t H = 0x84222325CBF29CE4ull;
  H = footprintMix(H, Slots.size());
  for (const StackSlot &S : Slots) {
    for (char C : S.Name)
      H = footprintMix(H, static_cast<uint8_t>(C));
    H = footprintMix(H, static_cast<uint32_t>(S.SizeWords));
    H = footprintMix(H, (S.IsArray ? 2u : 0u) | (S.IsParam ? 1u : 0u));
  }
  return H;
}

/// Distinct-content sets for one frontier's worth of accounting; reset at
/// every level barrier (the previous frontier's charge is released
/// wholesale there).
struct FootprintDedup {
  std::unordered_set<uint64_t> Blocks;
  std::unordered_set<uint64_t> Slots;
};

/// Approximate heap footprint of one frontier entry, charging each
/// distinct block/slot-vector payload once per frontier. Deterministic by
/// construction (derived from instruction/slot content, never from the
/// allocator).
uint64_t entryFootprint(const FrontierEntry &E, FootprintDedup &Seen) {
  uint64_t Bytes = sizeof(FrontierEntry) + sizeof(Function) +
                   E.Instance.Blocks.size() * sizeof(void *) +
                   E.Path.size() * sizeof(PhaseId);
  if (E.Instance.Slots.size() &&
      Seen.Slots.insert(slotContentKey(E.Instance.Slots)).second)
    Bytes += E.Instance.Slots.size() * sizeof(StackSlot);
  for (const BasicBlock &B : E.Instance.Blocks)
    if (Seen.Blocks.insert(blockContentKey(B)).second)
      Bytes += sizeof(BasicBlock) + B.Insts.size() * sizeof(Rtl);
  return Bytes;
}

/// Exact instance equality, allocation counters included. The deep-copy
/// baseline mode's working-copy reuse depends on it: an attempt that
/// reports dormant can still have mutated the copy (PhaseManager::attempt performs the implicit
/// register assignment before phases that require it, and a phase may
/// allocate a pseudo or label it never uses), and a reused copy that
/// silently diverged from its parent would corrupt every later attempt on
/// the same frontier entry.
bool identicalInstance(const Function &A, const Function &B) {
  if (A.pseudoLimit() != B.pseudoLimit() ||
      A.labelLimit() != B.labelLimit() || !(A.State == B.State) ||
      A.NumParams != B.NumParams || A.ReturnsValue != B.ReturnsValue ||
      A.Blocks.size() != B.Blocks.size() || A.Slots.size() != B.Slots.size())
    return false;
  for (size_t I = 0; I != A.Slots.size(); ++I) {
    const StackSlot &SA = A.Slots[I], &SB = B.Slots[I];
    if (SA.SizeWords != SB.SizeWords || SA.IsArray != SB.IsArray ||
        SA.IsParam != SB.IsParam || SA.Name != SB.Name)
      return false;
  }
  for (size_t I = 0; I != A.Blocks.size(); ++I) {
    const BasicBlock &BA = A.Blocks[I], &BB = B.Blocks[I];
    if (BA.Label != BB.Label || BA.Insts.size() != BB.Insts.size())
      return false;
    for (size_t J = 0; J != BA.Insts.size(); ++J)
      if (BA.Insts[J] != BB.Insts[J])
        return false;
  }
  return true;
}

/// "Len": the largest active sequence length is the longest path in the
/// DAG (cross edges can make it exceed the BFS depth). Valid only when
/// the space is acyclic.
uint32_t longestPathLength(const EnumerationResult &R) {
  const size_t N = R.Nodes.size();
  std::vector<uint32_t> InDegree(N, 0), Dist(N, 0);
  for (const DagNode &Nd : R.Nodes)
    for (const DagEdge &E : Nd.Edges)
      ++InDegree[E.To];
  std::vector<uint32_t> Ready;
  for (size_t I = 0; I != N; ++I)
    if (InDegree[I] == 0)
      Ready.push_back(static_cast<uint32_t>(I));
  uint32_t Longest = 0;
  while (!Ready.empty()) {
    uint32_t Id = Ready.back();
    Ready.pop_back();
    for (const DagEdge &E : R.Nodes[Id].Edges) {
      if (Dist[E.To] < Dist[Id] + 1) {
        Dist[E.To] = Dist[Id] + 1;
        Longest = std::max(Longest, Dist[E.To]);
      }
      if (--InDegree[E.To] == 0)
        Ready.push_back(E.To);
    }
  }
  return Longest;
}

} // namespace

EnumerationResult
Enumerator::enumerate(const Function &Root,
                      EnumerationCheckpoint *Checkpoint) const {
  return run(Root, nullptr, Checkpoint);
}

EnumerationResult
Enumerator::resume(const Function &Root, EnumerationCheckpoint From,
                   EnumerationCheckpoint *Checkpoint) const {
  // An unfilled checkpoint resumes as a fresh run, so callers can use one
  // code path whether or not a prior session left state behind.
  if (!From.Valid)
    return enumerate(Root, Checkpoint);
  return run(Root, &From, Checkpoint);
}

//===----------------------------------------------------------------------===//
// The level-synchronous engine
//===----------------------------------------------------------------------===//
//
// Within one BFS level every frontier entry expands independently: the
// phases it attempts depend only on its own state. So the expensive part
// of an entry (phase application + canonicalization) runs on any pool
// thread into a private buffer, consulting the concurrent instance table
// for read-only hits. Buffers are then committed in exact frontier order
// by a streaming cursor: whichever thread finishes entry I marks it done
// under the commit mutex and commits entries from the cursor for as long
// as the next one is done, freeing each buffer as it goes. Node ids, edge
// order, statistics and memory charges are all assigned by the commit, in
// that order, so the DAG is byte-identical for any thread count; with no
// pool threads (Jobs == 1) every entry is committed right after its own
// expansion.
//
// Two details need care:
//  * FaultPlan coordinates ("fail the Nth application of P") must not
//    depend on which worker wins a race. Attempts are predictable from
//    pre-level state (legal && !incoming), so per-entry application
//    numbers are precomputed as prefix sums and passed to
//    PhaseGuard::attemptNth.
//  * Every stop condition — the level and node budgets and the governor's
//    deadline, memory budget and cancellation — is evaluated only at the
//    level barrier, when the DAG is self-consistent.

namespace {

/// One buffered active edge discovered by a worker.
struct ActiveResult {
  PhaseId P = PhaseId::BranchChaining;
  /// Resolved target when the instance hit the table (a node committed at
  /// an earlier level, or earlier in this one); UINT32_MAX when the
  /// commit must intern it.
  uint32_t KnownTarget = UINT32_MAX;
  PhaseState State{};
  /// The unresolved instance. The commit hashes its control flow if it is
  /// new and, in prefix-sharing mode, moves it into the next frontier.
  Function Instance;
  CanonicalForm CF;
};

/// Everything one worker produced for one frontier entry.
struct TaskResult {
  uint16_t DormantBits = 0;
  uint16_t AttemptedBits = 0;
  uint64_t Attempted = 0;
  uint64_t PhaseApplications = 0;
  std::vector<ActiveResult> Active;
  std::vector<PhaseDiagnostic> Diags;
};

} // namespace

EnumerationResult Enumerator::run(const Function &Root,
                                  EnumerationCheckpoint *From,
                                  EnumerationCheckpoint *Out) const {
  EnumerationResult R;
  ResourceGovernor Gov;
  Gov.setDeadline(Config.DeadlineMs);
  Gov.setMemoryBudget(Config.MaxMemoryBytes);
  Gov.setStopToken(Config.Stop);
  InstanceTable Table;
  ThreadPool Pool(std::max(Config.Jobs, 1u) - 1);

  // Seals the result: resolves the stop reason (a run that finished but
  // pruned edges after rollbacks is not the complete space) and weights
  // the — possibly partial — DAG.
  auto Finish = [&](StopReason Why) {
    if (Why == StopReason::Complete && !R.Diagnostics.empty())
      Why = StopReason::VerifierFailure;
    R.Stop = Why;
    R.ApproxMemoryBytes = Gov.chargedBytes();
    computeWeights(R);
  };

  // Per-phase application counts so far, in frontier order (the FaultPlan
  // coordinate space). Persisted across levels and checkpoints.
  uint64_t AppCount[NumPhases] = {};
  const PhaseGuard::Options GuardOpts{Config.VerifyIr, Config.Faults};

  std::vector<FrontierEntry> Frontier;
  uint64_t FrontierBytes = 0;
  uint32_t Level = 0;

  // Captures the continuation for a transient stop: the pending frontier,
  // the level counter, the application numbering, and (paranoid mode) the
  // canonical bytes. Call after Finish() so Partial carries the final stop
  // reason and weights.
  auto Capture = [&](std::vector<FrontierEntry> &&Pending,
                     uint64_t PendingBytes) {
    if (!Out)
      return;
    Out->Valid = true;
    Out->Partial = R;
    Out->Frontier = std::move(Pending);
    Out->LevelCounter = Level;
    for (int P = 0; P != NumPhases; ++P)
      Out->AppCount[P] = AppCount[P];
    Out->FrontierBytes = PendingBytes;
    Out->Paranoid = Config.ParanoidCompare;
    // The checkpoint codec predates the arena: flatten the hash-consed
    // spans back into per-node byte vectors so the serialized format is
    // unchanged (arena storage is an in-memory representation only).
    Out->NodeBytes.clear();
    if (Config.ParanoidCompare) {
      Out->NodeBytes.reserve(R.Nodes.size());
      for (uint32_t I = 0; I != R.Nodes.size(); ++I) {
        ByteSpan S = Table.bytesFor(I);
        Out->NodeBytes.emplace_back(S.Data, S.Data + S.Size);
      }
    }
  };

  // Resolves a canonical form to its node on the commit path. A table hit
  // the worker already made (\p Known) or a triple already present is only
  // checked byte-for-byte in paranoid mode; a new triple becomes the next
  // node id at the current level, and only then pays for hashing the
  // control flow of \p F.
  auto Intern = [&](uint32_t Known, const CanonicalForm &CF,
                    const Function &F) -> std::pair<uint32_t, bool> {
    uint32_t Id = Known;
    bool Inserted = false;
    if (Id == UINT32_MAX)
      std::tie(Id, Inserted) =
          Table.tryEmplace(CF.Hash, static_cast<uint32_t>(R.Nodes.size()));
    if (!Inserted) {
      if (Config.ParanoidCompare && !(Table.bytesFor(Id) == CF.Bytes))
        ++R.HashCollisions;
      return {Id, false};
    }
    DagNode N;
    N.Hash = CF.Hash;
    N.Level = Level;
    N.CodeSize = CF.Hash.InstCount;
    N.CfHash = controlFlowHash(F);
    R.Nodes.push_back(N);
    Gov.charge(sizeof(DagNode) + CF.Bytes.size());
    if (Config.ParanoidCompare)
      Table.recordBytes(Id, CF.Bytes);
    return {Id, true};
  };

  if (From) {
    // Continue from the checkpoint barrier: the node hashes rebuild the
    // instance table, the saved frontier becomes the working frontier,
    // and the governor re-charges exactly what was accounted at capture.
    R = std::move(From->Partial);
    for (uint32_t I = 0; I != R.Nodes.size(); ++I)
      Table.tryEmplace(R.Nodes[I].Hash, I);
    if (Config.ParanoidCompare)
      for (uint32_t I = 0;
           I != R.Nodes.size() && I != From->NodeBytes.size(); ++I)
        Table.recordBytes(I, From->NodeBytes[I]);
    Frontier = std::move(From->Frontier);
    Level = From->LevelCounter;
    FrontierBytes = From->FrontierBytes;
    Gov.charge(R.ApproxMemoryBytes);
    for (int P = 0; P != NumPhases; ++P)
      AppCount[P] = From->AppCount[P];
    // A still-violated limit (e.g. resuming under the same memory budget)
    // must stop here, exactly where the interrupted run stopped.
    if (StopReason Why = Gov.check(); Why != StopReason::Complete) {
      Finish(Why);
      if (isResumableStop(Why))
        Capture(std::move(Frontier), FrontierBytes);
      return R;
    }
  } else {
    Function RootCopy = Root;
    Intern(UINT32_MAX,
           canonicalize(RootCopy, Config.ParanoidCompare,
                        Config.RemapRegisters),
           RootCopy);
    FrontierEntry E;
    E.Node = 0;
    E.Instance = RootCopy;
    E.State = RootCopy.State;
    FootprintDedup Seen;
    FrontierBytes = entryFootprint(E, Seen);
    Gov.charge(FrontierBytes);
    Frontier.push_back(std::move(E));
    LevelStat L0;
    L0.Level = 0;
    L0.NewNodes = 1;
    L0.ActiveSequences = 1;
    R.Levels.push_back(L0);
  }

  while (!Frontier.empty()) {
    ++Level;
    LevelStat LS;
    LS.Level = Level;

    const size_t N = Frontier.size();

    // Precompute the application number every would-be attempt gets in
    // frontier order: entry I attempts phase P iff P is legal for its
    // state and not on an incoming edge (a node is expanded exactly once
    // per run, so no mask is ever partially resolved at level start).
    std::vector<uint64_t> Base(N * NumPhases);
    for (size_t I = 0; I != N; ++I)
      for (int PI = 0; PI != NumPhases; ++PI) {
        Base[I * NumPhases + PI] = AppCount[PI];
        if (PM.isLegal(phaseByIndex(PI), Frontier[I].State) &&
            !(Frontier[I].IncomingMask & (1u << PI)))
          ++AppCount[PI];
      }

    // Commit state, all guarded by CommitMutex. Next-level frontier keyed
    // by node id (merging sequence counts and incoming-phase masks when
    // several edges reach the same instance).
    std::mutex CommitMutex;
    std::vector<TaskResult> Results(N);
    std::vector<uint8_t> Done(N, 0);
    size_t Cursor = 0;
    bool Broken = false;
    std::unordered_map<uint32_t, size_t> NextIndex;
    std::vector<FrontierEntry> Next;

    // Commits entry I's buffer; false on a broken internal invariant.
    auto Commit = [&](size_t I) {
      const FrontierEntry &E = Frontier[I];
      TaskResult &T = Results[I];
      R.Nodes[E.Node].DormantMask |= T.DormantBits;
      R.Nodes[E.Node].AttemptedMask |= T.AttemptedBits;
      R.AttemptedPhases += T.Attempted;
      R.PhaseApplications += T.PhaseApplications;
      LS.Attempted += T.Attempted;
      for (ActiveResult &A : T.Active) {
        const uint16_t Bit =
            static_cast<uint16_t>(1u << static_cast<int>(A.P));
        ++LS.Active;
        auto [Child, IsNew] = Intern(A.KnownTarget, A.CF, A.Instance);
        R.Nodes[E.Node].ActiveMask |= Bit;
        R.Nodes[E.Node].Edges.push_back({A.P, Child});
        Gov.charge(sizeof(DagEdge));
        if (IsNew) {
          FrontierEntry NE;
          NE.Node = Child;
          if (Config.NaiveReapply) {
            NE.Path = E.Path;
            NE.Path.push_back(A.P);
          } else {
            NE.Instance = std::move(A.Instance);
            NE.Instance.Blocks.detachAnalyses();
          }
          NE.State = A.State;
          NE.IncomingMask = Bit;
          NE.Parent = E.Node;
          NE.ViaPhase = A.P;
          NE.Sequences = E.Sequences;
          NextIndex[Child] = Next.size();
          Next.push_back(std::move(NE));
        } else if (R.Nodes[Child].Level == Level) {
          // Rediscovered at the current level before expansion: merge the
          // sequence counts and the known-dormant information.
          auto It = NextIndex.find(Child);
          if (It == NextIndex.end()) {
            // Broken internal invariant (a same-level node must be in
            // the next frontier). Surface it as a diagnosed partial
            // result instead of reading garbage.
            PhaseDiagnostic D;
            D.Phase = A.P;
            D.Func = Root.Name;
            D.Message =
                "internal error: same-level node missing from the frontier";
            R.Diagnostics.push_back(std::move(D));
            return false;
          }
          Next[It->second].IncomingMask |= Bit;
          Next[It->second].Sequences += E.Sequences;
        }
        // Otherwise: a cross edge to an earlier-level node, which is
        // already expanded; nothing to enqueue. Any cycle this may close
        // is detected during weight computation.
      }
      for (PhaseDiagnostic &D : T.Diags)
        R.Diagnostics.push_back(std::move(D));
      return true;
    };

    Pool.parallelFor(N, [&](size_t I) {
      FrontierEntry &E = Frontier[I];
      TaskResult &T = Results[I];
      PhaseGuard Guard(PM, GuardOpts);
      // Per-thread scratch: canonicalization of every attempt this thread
      // ever runs reuses the same remap arrays and byte buffer.
      static thread_local CanonicalScratch Scratch;
      // Copy-on-write mode (the default): every attempt starts from a
      // fresh working copy, which is a refcounted handle copy of the
      // parent's blocks — a dormant attempt unshares nothing, an active
      // one materializes only the blocks it rewrote. The deep-copy
      // baseline (Config.DeepCopyInstances) retains the old protocol: one
      // deep copy serves consecutive attempts and is rebuilt only after a
      // phase consumed it (active) or mutated it while reporting dormant.
      // Naive mode replays the whole prefix from the root.
      //
      // The entry carries one analysis cell for the length of its
      // expansion. Every working copy shares it until the copy mutates,
      // so the Cfg, Liveness, Dominators and LoopInfo of the unchanged
      // parent are built at most once across all sibling attempts; an
      // active child keeps its own cell only until the commit moves it
      // into the next frontier.
      E.Instance.Blocks.attachAnalyses();
      Function Work;
      bool WorkValid = false;
      for (int PI = 0; PI != NumPhases; ++PI) {
        PhaseId P = phaseByIndex(PI);
        const uint16_t Bit = static_cast<uint16_t>(1u << PI);
        // Illegal phases count as dormant, and so does the phase that just
        // produced this node: no phase succeeds twice consecutively.
        if (!PM.isLegal(P, E.State) || (E.IncomingMask & Bit)) {
          T.DormantBits |= Bit;
          continue;
        }

        if (Config.NaiveReapply) {
          Work = Root;
          WorkValid = false;
          for (PhaseId Prev : E.Path) {
            PM.attempt(Prev, Work);
            ++T.PhaseApplications;
          }
        } else if (!Config.DeepCopyInstances) {
          Work = E.Instance;
        } else if (!WorkValid) {
          Work = E.Instance.deepCopy();
          WorkValid = true;
        }

        ++T.Attempted;
        ++T.PhaseApplications;
        T.AttemptedBits |= Bit;
        PhaseGuard::Outcome Out =
            Guard.attemptNth(P, Work, Base[I * NumPhases + PI] + 1);
        if (Out != PhaseGuard::Outcome::Active) {
          // Dormant — or rolled back after a verifier failure, which
          // prunes the edge and ends this branch of the space the same
          // way (the diagnostic is recorded in the guard).
          T.DormantBits |= Bit;
          if (Config.DeepCopyInstances && WorkValid &&
              !identicalInstance(Work, E.Instance))
            WorkValid = false;
          continue;
        }
        // The phase consumed the working copy either way; the next attempt
        // on this entry starts from a fresh copy of the parent.
        WorkValid = false;
        ActiveResult A;
        A.P = P;
        A.CF = canonicalize(Work, Scratch, Config.ParanoidCompare,
                            Config.RemapRegisters);
        if (std::optional<uint32_t> Hit = Table.lookup(A.CF.Hash)) {
          A.KnownTarget = *Hit;
        } else {
          A.State = Work.State;
          A.Instance = std::move(Work);
        }
        T.Active.push_back(std::move(A));
      }
      T.Diags = Guard.takeDiagnostics();
      E.Instance.Blocks.detachAnalyses();

      std::lock_guard<std::mutex> Lock(CommitMutex);
      Done[I] = 1;
      for (; !Broken && Cursor != N && Done[Cursor]; ++Cursor) {
        Broken = !Commit(Cursor);
        Results[Cursor] = TaskResult();
      }
    });
    if (Broken) {
      Finish(StopReason::InternalError);
      return R;
    }

    LS.NewNodes = Next.size();
    uint64_t NextBytes = 0;
    {
      FootprintDedup Seen;
      for (const FrontierEntry &E : Next) {
        LS.ActiveSequences += E.Sequences;
        NextBytes += entryFootprint(E, Seen);
      }
    }
    if (LS.Attempted || LS.NewNodes)
      R.Levels.push_back(LS);
    if (!Next.empty())
      R.MaxActiveLength = Level;

    // Level barrier: the expanded frontier is released, the next one
    // charged, and every stop condition polled while the DAG is in a
    // self-consistent state.
    Gov.release(FrontierBytes);
    Gov.charge(NextBytes);
    FrontierBytes = NextBytes;

    StopReason Why = StopReason::Complete;
    if (LS.ActiveSequences > Config.MaxLevelSequences)
      Why = StopReason::LevelBudget;
    else if (R.Nodes.size() > Config.MaxTotalNodes)
      Why = StopReason::NodeBudget;
    else
      Why = Gov.check();
    if (Why != StopReason::Complete) {
      Finish(Why);
      if (isResumableStop(Why))
        Capture(std::move(Next), NextBytes);
      return R;
    }
    Frontier = std::move(Next);
  }

  Finish(StopReason::Complete);
  // Keep the BFS depth when the space is cyclic.
  if (!R.Cyclic)
    R.MaxActiveLength = longestPathLength(R);
  return R;
}

void pose::computeWeights(EnumerationResult &R) {
  const size_t N = R.Nodes.size();
  // Kahn's algorithm on reversed edges: process nodes whose children are
  // all weighted.
  std::vector<uint32_t> PendingChildren(N, 0);
  std::vector<std::vector<uint32_t>> Parents(N);
  for (size_t I = 0; I != N; ++I) {
    PendingChildren[I] = static_cast<uint32_t>(R.Nodes[I].Edges.size());
    for (const DagEdge &E : R.Nodes[I].Edges)
      Parents[E.To].push_back(static_cast<uint32_t>(I));
  }
  std::vector<uint32_t> Ready;
  for (size_t I = 0; I != N; ++I)
    if (PendingChildren[I] == 0)
      Ready.push_back(static_cast<uint32_t>(I));
  size_t Processed = 0;
  while (!Ready.empty()) {
    uint32_t Id = Ready.back();
    Ready.pop_back();
    ++Processed;
    DagNode &Node = R.Nodes[Id];
    if (Node.isLeaf()) {
      Node.Weight = 1;
    } else {
      Node.Weight = 0;
      for (const DagEdge &E : Node.Edges)
        Node.Weight += R.Nodes[E.To].Weight;
    }
    for (uint32_t P : Parents[Id])
      if (--PendingChildren[P] == 0)
        Ready.push_back(P);
  }
  if (Processed != N) {
    // Cycle: give unprocessed nodes weight 1 so downstream statistics
    // stay finite, and flag the result.
    R.Cyclic = true;
    for (size_t I = 0; I != N; ++I)
      if (PendingChildren[I] != 0 && R.Nodes[I].Weight == 0)
        R.Nodes[I].Weight = 1;
  }
}
