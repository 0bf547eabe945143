//===- harness/Experiment.cpp ---------------------------------------------===//

#include "harness/Experiment.h"

#include "harness/Journal.h"
#include "harness/JsonReader.h"
#include "harness/JsonWriter.h"
#include "harness/Subprocess.h"
#include "harness/Supervisor.h"
#include "harness/ThreadPool.h"
#include "obs/Obs.h"
#include "obs/StatRegistry.h"
#include "obs/Tracer.h"
#include "support/BuildInfo.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Shutdown.h"
#include "support/Status.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <ostream>
#include <sstream>
#include <thread>
#include <unordered_map>

using namespace spf;
using namespace spf::harness;

const char *harness::prefetchSourcesName(PrefetchSources S) {
  switch (S) {
  case PrefetchSources::Unset:
    return "";
  case PrefetchSources::None:
    return "none";
  case PrefetchSources::SwOnly:
    return "sw";
  case PrefetchSources::HwOnly:
    return "hw";
  case PrefetchSources::Combined:
    return "combined";
  }
  return "";
}

std::optional<PrefetchSources>
harness::parsePrefetchSources(const std::string &S) {
  if (S == "none")
    return PrefetchSources::None;
  if (S == "sw")
    return PrefetchSources::SwOnly;
  if (S == "hw")
    return PrefetchSources::HwOnly;
  if (S == "combined")
    return PrefetchSources::Combined;
  return std::nullopt;
}

unsigned ExperimentPlan::add(ExperimentCell Cell) {
  Cells.push_back(std::move(Cell));
  return static_cast<unsigned>(Cells.size() - 1);
}

std::vector<unsigned> ExperimentPlan::addSweep(
    const std::vector<const workloads::WorkloadSpec *> &Specs,
    const std::vector<workloads::Algorithm> &Algos,
    const std::vector<sim::MachineConfig> &Machines,
    const workloads::WorkloadConfig &Config, const std::string &Group,
    bool CheckReturnValues) {
  std::vector<unsigned> Added;
  for (const sim::MachineConfig &M : Machines) {
    for (const workloads::WorkloadSpec *Spec : Specs) {
      std::optional<unsigned> BaselineIdx;
      std::vector<unsigned> SpecCells;
      for (workloads::Algorithm A : Algos) {
        ExperimentCell C;
        C.Group = Group;
        C.Spec = Spec;
        C.Opt.Machine = M;
        C.Opt.Algo = A;
        C.Opt.Config = Config;
        unsigned Idx = add(std::move(C));
        if (A == workloads::Algorithm::Baseline)
          BaselineIdx = Idx;
        SpecCells.push_back(Idx);
        Added.push_back(Idx);
      }
      if (CheckReturnValues && BaselineIdx)
        for (unsigned Idx : SpecCells)
          if (Idx != *BaselineIdx)
            Cells[Idx].CheckAgainst = BaselineIdx;
    }
  }
  return Added;
}

std::vector<unsigned> ExperimentPlan::addModeSweep(
    const std::vector<const workloads::WorkloadSpec *> &Specs,
    const std::vector<PrefetchSources> &Modes,
    const std::vector<sim::MachineConfig> &Machines,
    const workloads::WorkloadConfig &Config, const std::string &Group,
    bool CheckReturnValues) {
  std::vector<unsigned> Added;
  for (const sim::MachineConfig &M : Machines) {
    for (const workloads::WorkloadSpec *Spec : Specs) {
      std::optional<unsigned> NoneIdx;
      std::vector<unsigned> SpecCells;
      for (PrefetchSources Mode : Modes) {
        if (Mode == PrefetchSources::Unset)
          continue; // Not a runnable mode: only the classic sweep is Unset.
        ExperimentCell C;
        C.Group = Group;
        C.Spec = Spec;
        C.Opt.Machine = M;
        // The mode decides both halves: whether the compile inserts
        // software prefetches, and whether the machine's hardware
        // prefetcher (of whatever configured kind) is armed.
        C.Opt.Machine.HwPrefetchEnabled = Mode == PrefetchSources::HwOnly ||
                                          Mode == PrefetchSources::Combined;
        C.Opt.Algo = (Mode == PrefetchSources::SwOnly ||
                      Mode == PrefetchSources::Combined)
                         ? workloads::Algorithm::InterIntra
                         : workloads::Algorithm::Baseline;
        C.Opt.Config = Config;
        C.Mode = Mode;
        unsigned Idx = add(std::move(C));
        if (Mode == PrefetchSources::None)
          NoneIdx = Idx;
        SpecCells.push_back(Idx);
        Added.push_back(Idx);
      }
      if (CheckReturnValues && NoneIdx)
        for (unsigned Idx : SpecCells)
          if (Idx != *NoneIdx)
            Cells[Idx].CheckAgainst = NoneIdx;
    }
  }
  return Added;
}

namespace {

/// Exponential backoff before retry \p Attempt of cell \p Cell: base
/// 50ms doubling per attempt, capped at 1s, plus deterministic seeded
/// jitter so a burst of colliding retries de-synchronizes the same way
/// every run. SPF_NO_BACKOFF (set by ctest) disables the sleep entirely;
/// the fault schedule is unaffected either way — backoff only shapes
/// wall clock, never which attempt streams fire.
void backoffBeforeRetry(unsigned Cell, unsigned Attempt) {
  static const bool Disabled = support::envFlagSet("SPF_NO_BACKOFF");
  if (Disabled || Attempt == 0)
    return;
  uint64_t BaseMs = 50ull << (Attempt - 1);
  if (BaseMs > 1000)
    BaseMs = 1000;
  SplitMix64 Rng(0xb0ff5eedULL ^ ((uint64_t(Cell) << 8) | Attempt));
  uint64_t Ms = BaseMs + Rng.nextBelow(BaseMs / 2 + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(Ms));
}

/// "workload [ALGO, machine]" — the tag used in Failures and Quarantine.
/// Mode-sweep cells append the prefetch-source facet, which is what
/// distinguishes e.g. the None cell from the HwOnly cell (same workload,
/// same algorithm, same machine name).
std::string cellTag(const ExperimentCell &C) {
  std::string Tag = C.Spec->Name + " [" +
                    workloads::algorithmName(C.Opt.Algo) + ", " +
                    C.Opt.Machine.Name;
  if (C.Mode != PrefetchSources::Unset)
    Tag += std::string(", mode=") + prefetchSourcesName(C.Mode);
  // Adaptive-run facets: an adaptation sweep runs the same workload /
  // algorithm / machine several times, differing only in these.
  if (C.Opt.Epochs > 1)
    Tag += ", epochs=" + std::to_string(C.Opt.Epochs);
  if (C.Opt.GcVariant != vm::GcVariant::SlidingCompact)
    Tag += std::string(", gc=") + vm::gcVariantName(C.Opt.GcVariant);
  if (C.Opt.PhaseChange)
    Tag += ", phase";
  if (C.Opt.Governor)
    Tag += ", governor";
  return Tag + "]";
}

/// FNV-1a over the per-site stats, as a 16-hex-digit string. A compact
/// per-cell fingerprint of the full load-site attribution: two runs with
/// equal hashes had bit-identical per-site miss profiles, which is how
/// the golden byte-compare and the CI report diffs cover site stats
/// without emitting every site as a JSON row.
std::string siteStatsHash(const std::vector<sim::SiteStats> &Sites) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    for (unsigned B = 0; B < 8; ++B) {
      H ^= (V >> (B * 8)) & 0xff;
      H *= 1099511628211ull;
    }
  };
  for (const sim::SiteStats &S : Sites) {
    Mix(S.Loads);
    Mix(S.L1Misses);
    Mix(S.L2Misses);
    Mix(S.DtlbMisses);
  }
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// Top-K load sites by stall-cycle attribution, descending (ties broken
/// by site id, so the ordering — and the report bytes — are
/// deterministic). Feeds the report's top_sites key; RetireLocked
/// precomputes it before streaming aggregation frees Run.Sites, so
/// streamed and in-memory sweeps emit identical tables.
constexpr size_t TopSitesK = 8;
std::vector<std::pair<uint32_t, sim::SiteStats>>
topStallSites(const std::vector<sim::SiteStats> &Sites) {
  std::vector<std::pair<uint32_t, sim::SiteStats>> Out;
  for (uint32_t I = 0; I != Sites.size(); ++I)
    if (Sites[I].StallCycles)
      Out.emplace_back(I, Sites[I]);
  std::sort(Out.begin(), Out.end(), [](const auto &A, const auto &B) {
    if (A.second.StallCycles != B.second.StallCycles)
      return A.second.StallCycles > B.second.StallCycles;
    return A.first < B.first;
  });
  if (Out.size() > TopSitesK)
    Out.resize(TopSitesK);
  return Out;
}

} // namespace

ExperimentResult harness::runPlan(const ExperimentPlan &Plan,
                                  unsigned Jobs) {
  return runPlan(Plan, Jobs, RunPlanOptions());
}

ExperimentResult harness::runPlan(const ExperimentPlan &Plan, unsigned Jobs,
                                  const RunPlanOptions &Opts) {
  const bool Isolated = Opts.Isolate.Enabled;
  if (Jobs == 0)
    Jobs = defaultJobs();

  ExperimentResult Result;
  Result.Cells.resize(Plan.size());
  Result.Isolated = Isolated;

  obs::Span PlanSpan("run-plan", "harness");
  PlanSpan.noteU64("cells", Plan.size());
  PlanSpan.noteU64("jobs", Jobs);
  PlanSpan.note("isolated", Isolated ? "true" : "false");

  // Durable journal: load the previous run's records first when
  // resuming (refusing on a plan mismatch), then open for appending.
  std::optional<RunJournal> Journal;
  std::vector<std::optional<CellResult>> Grafted(Plan.size());
  std::atomic<unsigned> Appended{0};
  if (!Opts.Journal.Path.empty()) {
    Result.JournalPath = Opts.Journal.Path;
    Journal.emplace(Opts.Journal.Path);
    std::string Error;
    if (Opts.Journal.Resume && !Journal->load(Plan, Grafted, &Error)) {
      Result.Failures.push_back("journal: " + Error);
      return Result;
    }
    if (!Journal->openForAppend(Plan, /*Fresh=*/!Opts.Journal.Resume,
                                &Error)) {
      Result.Failures.push_back("journal: " + Error);
      return Result;
    }
    for (const std::optional<CellResult> &G : Grafted)
      if (G)
        ++Result.JournalGrafted;
  }

  // Shared-state audit: the workload registry is a function-local static
  // whose one-time construction builds every spec. The init is
  // thread-safe (C++11 magic statics), but force it here so workers never
  // contend on first use and spec pointers are stable before the sweep.
  (void)workloads::allWorkloads();

  // Chaos configuration is read once; every cell derives its own injector
  // stream from (plan index, attempt), so the fault schedule — and hence
  // every result — is independent of worker count and task interleaving.
  const support::FaultConfig Faults = support::FaultConfig::fromEnv();
  const double TimeoutSec = cellTimeoutSeconds();
  constexpr unsigned MaxTransientAttempts = 3;

  // Resource governor: every stop source (shutdown signal, global sweep
  // deadline, external stop) latches exactly once with a reason. After
  // the latch, no new cell or retry attempt is admitted; in-flight
  // supervised workers drain against the grace window and are then
  // group-killed; in-process cells run to completion (they cannot be
  // safely interrupted mid-simulation). Cells that never ran are marked
  // Skipped — quarantined but not failed, and never journaled, so a
  // --resume of the same journal finishes the sweep.
  const GovernorOptions &Gov = Opts.Governor;
  const auto SweepStart = std::chrono::steady_clock::now();
  std::atomic<bool> StopLatch{false};
  std::mutex StopMu;
  std::string StopReason;
  auto CheckStop = [&]() -> bool {
    if (StopLatch.load(std::memory_order_relaxed))
      return true;
    std::string Reason;
    if (Gov.Graceful && support::shutdownRequested())
      Reason = "signal " + std::to_string(support::shutdownSignal());
    else if (Gov.SweepDeadlineSec > 0 &&
             std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           SweepStart)
                     .count() >= Gov.SweepDeadlineSec)
      Reason = "sweep deadline";
    else if (Gov.ExternalStop && Gov.ExternalStop())
      Reason = "external stop";
    else
      return false;
    std::lock_guard<std::mutex> Lock(StopMu);
    if (!StopLatch.load(std::memory_order_relaxed)) {
      StopReason = Reason;
      obs::Tracer::instance().instant("sweep-stop", {{"reason", Reason}});
      StopLatch.store(true, std::memory_order_relaxed);
    }
    return true;
  };
  const bool Governed =
      Gov.Graceful || Gov.SweepDeadlineSec > 0 || Gov.ExternalStop != nullptr;
  const double GraceSec = support::shutdownGraceSeconds();

  // Execution sharing: cells with equal execution signatures form one
  // group that interprets once and simulates every member's machine
  // (workloads::runWorkloadGroup). Groups are a function of the plan, so
  // which cell leads — and which come back Replayed — never depends on
  // scheduling. Cells run alone when an execution fault site is armed
  // (chaos must exercise every cell's own attempts), under isolation or
  // streaming (one worker / one retirement per cell), and when grafted
  // from the journal. Groups are listed in leader (plan) order.
  const bool Streaming = Opts.Stream.Enabled;
  const bool Share =
      !Isolated && !Streaming && !Faults.anyExecutionSiteEnabled();
  std::vector<std::vector<unsigned>> Groups;
  {
    std::unordered_map<std::string, size_t> GroupOf;
    for (unsigned I = 0, E = static_cast<unsigned>(Plan.size()); I != E;
         ++I) {
      const ExperimentCell &C = Plan.cells()[I];
      std::string Sig = Share && !Grafted[I]
                            ? workloads::executionSignature(*C.Spec, C.Opt)
                            : std::string();
      if (!Sig.empty()) {
        auto [It, New] = GroupOf.try_emplace(std::move(Sig), Groups.size());
        if (!New) {
          Groups[It->second].push_back(I);
          continue;
        }
      }
      Groups.push_back({I});
    }
  }
  PlanSpan.noteU64("groups", Groups.size());

  // Runs one group in process. The attempt verdict is shared by every
  // member: they are one execution.
  auto RunGroup = [&](const std::vector<unsigned> &G) {
    const unsigned Lead = G.front();
    const ExperimentCell &C = Plan.cells()[Lead];
    std::vector<workloads::RunOptions> Members;
    for (unsigned I : G) {
      Members.push_back(Plan.cells()[I].Opt);
      Members.back().TimeoutSeconds = TimeoutSec;
    }

    obs::Span CellSpan("cell", "harness");
    CellSpan.noteU64("index", Lead);
    CellSpan.note("tag", cellTag(C));
    CellSpan.noteU64("members", G.size());

    CellResult Verdict;
    std::vector<workloads::RunResult> Runs;
    for (unsigned Attempt = 0; Attempt < MaxTransientAttempts; ++Attempt) {
      if (Attempt > 0 && Governed && CheckStop()) {
        // Interrupted between attempts: leave the cell un-run (Skipped),
        // never half-retried — --resume gives it its full attempt budget.
        Verdict.Skipped = true;
        Verdict.Error = "sweep interrupted";
        break;
      }
      backoffBeforeRetry(Lead, Attempt);
      ++Verdict.Attempts;
      if (Attempt > 0)
        obs::Tracer::instance().instant(
            "retry", {{"tag", cellTag(C)},
                      {"attempt", std::to_string(Attempt + 1)}});
      // Each attempt builds a private Heap/Module, compiles with a
      // private CompileManager, and simulates on private MemorySystems:
      // groups share nothing mutable, so any schedule yields identical
      // stats.
      support::FaultInjector Injector(
          Faults, (uint64_t(Lead) << 8) | uint64_t(Attempt));
      support::FaultScope Scope(Injector);
      try {
        if (SPF_FAULT_POINT(support::FaultSite::CellExec))
          throw support::TransientFault("injected cell fault");
        Runs = workloads::runWorkloadGroup(*C.Spec, Members);
        Verdict.Ran = true;
        Verdict.Failed = Verdict.TimedOut = Verdict.Transient = false;
        Verdict.Error.clear();
        break;
      } catch (const support::TransientFault &E) {
        // Expected under chaos: re-roll with the next attempt's stream.
        Verdict.Transient = true;
        Verdict.Error = E.what();
      } catch (const support::CellTimeout &E) {
        Verdict.TimedOut = true;
        Verdict.Error = E.what();
        break; // Retrying a deterministic simulation cannot get faster.
      } catch (const std::exception &E) {
        Verdict.Failed = true;
        Verdict.Error = E.what();
        break;
      }
    }
    for (size_t K = 0; K != G.size(); ++K) {
      CellResult &Cell = Result.Cells[G[K]];
      Cell = Verdict;
      if (Verdict.Ran)
        Cell.Run = std::move(Runs[K]);
    }
  };

  // Supervised execution: one freshly exec'd worker per attempt, hard
  // rlimit caps in the child, a wall-clock deadline + SIGKILL here. The
  // worker mirrors the in-process attempt semantics (same fault-stream
  // salt, same exception classification), so per-cell statistics are
  // bit-identical between the two modes; the supervisor only has to
  // classify deaths the worker could not report itself.
  auto RunCellSupervised = [&](unsigned I) {
    CellResult &Cell = Result.Cells[I];
    // The hard deadline leaves the cooperative watchdog room to fire
    // first and deliver a clean "timeout" record; only a worker that
    // cannot even reach a checkpoint is killed from outside.
    const double Deadline = TimeoutSec > 0 ? TimeoutSec * 2 + 10 : 0.0;
    support::WorkerLimits Limits;
    Limits.MemBytes = Opts.Isolate.CellMemMb << 20;
    Limits.CpuSec =
        TimeoutSec > 0 ? static_cast<uint64_t>(TimeoutSec * 2) + 5 : 0;

    // Shutdown hookup: the worker wait polls the governor's stop latch,
    // drains the worker for the grace window, then group-SIGKILLs it.
    StopPolicy SP;
    SP.GraceSec = GraceSec;
    if (Governed)
      SP.Stop = [&CheckStop] { return CheckStop(); };

    for (unsigned Attempt = 0; Attempt < MaxTransientAttempts; ++Attempt) {
      if (Attempt > 0 && Governed && CheckStop()) {
        Cell.Skipped = true;
        Cell.Error = "sweep interrupted";
        return;
      }
      backoffBeforeRetry(I, Attempt);
      ++Cell.Attempts;
      obs::Span WorkerSpan("worker-attempt", "harness");
      WorkerSpan.noteU64("cell", I);
      WorkerSpan.noteU64("attempt", Attempt + 1);
      SpawnOutcome Out =
          runWorkerProcess(Opts.Isolate.WorkerCommand(I, Attempt), Limits,
                           Deadline, Governed ? &SP : nullptr);
      WorkerSpan.end();
      if (Out.SpawnFailed) {
        Cell.Failed = true;
        Cell.Error = Out.SpawnError;
        return;
      }
      if (Out.ShutdownKilled) {
        // The sweep is ending and the worker did not drain in time: the
        // cell never produced a result through no fault of its own.
        Cell.Skipped = true;
        Cell.Error = "sweep interrupted";
        return;
      }

      // A clean worker always ends its pipe output with one record
      // line; anything else is a death to classify from the status.
      CellResult Rec;
      bool HaveRec = false;
      size_t Pos = Out.Output.find("{\"worker\":\"spf-cell-v1\"");
      if (Pos != std::string::npos) {
        size_t End = Out.Output.find('\n', Pos);
        std::string Line = Out.Output.substr(
            Pos, End == std::string::npos ? std::string::npos : End - Pos);
        if (std::unique_ptr<JsonValue> V = JsonValue::parse(Line)) {
          HaveRec = parseCellRecord(V->get("record"), Rec);
          // Spans buffered in the worker cross the fork boundary on the
          // record line; graft them (with the worker's own pid) so the
          // merged trace shows one lane per worker process.
          if (obs::Tracer::instance().active() && V->has("spans"))
            obs::Tracer::instance().import(
                obs::Tracer::parseEventsJson(V->get("spans")));
        }
      }

      if (Out.DeadlineKilled) {
        // Even the cooperative watchdog never ran: the worker was wedged
        // somewhere no checkpoint reaches. No retry — a deterministic
        // simulation will wedge identically.
        Cell.Crashed = true;
        Cell.DeadlineKilled = true;
        Cell.Signal = Out.Signal;
        Cell.ExitStatus = Out.ExitCode;
        Cell.Error = "worker exceeded the supervisor hard deadline";
        return;
      }

      if (HaveRec && Out.ExitCode == 0 && Out.Signal == 0 &&
          (Rec.Ran || Rec.Transient || Rec.TimedOut || Rec.Failed)) {
        // Graft the worker's attempt verdict, preserving the attempt
        // count and the sticky transient flag exactly like the
        // in-process loop does.
        unsigned Attempts = Cell.Attempts;
        bool PrevTransient = Cell.Transient;
        Cell = std::move(Rec);
        Cell.Attempts = Attempts;
        Cell.Transient = Cell.Transient || PrevTransient;
        if (Cell.Ran || Cell.TimedOut || Cell.Failed)
          return;
        continue; // Transient: re-roll with the next attempt's stream.
      }

      // Crashed: fatal signal, nonzero exit, or no parseable record.
      // Retried — an injected crash re-rolls on the next attempt's
      // stream, and a real one at least gets a second chance before the
      // cell is quarantined.
      Cell.Crashed = true;
      Cell.Signal = Out.Signal;
      Cell.ExitStatus = Out.ExitCode;
      if (Out.Signal != 0)
        Cell.Error = "worker killed by signal " + std::to_string(Out.Signal);
      else if (Out.ExitCode != 0)
        Cell.Error = "worker exited with status " +
                     std::to_string(Out.ExitCode);
      else
        Cell.Error = "worker delivered no result record";
    }
  };

  auto Dispatch = [&](const std::vector<unsigned> &G) {
    const unsigned Lead = G.front();
    if (Grafted[Lead]) {
      // Journaled by a previous run of this plan (always a group of
      // one): graft, don't re-run. Move + release so a resumed sweep
      // does not hold two copies of every grafted record.
      obs::Tracer::instance().instant(
          "journal-graft", {{"tag", cellTag(Plan.cells()[Lead])}});
      Result.Cells[Lead] = std::move(*Grafted[Lead]);
      Grafted[Lead].reset();
      return;
    }
    if (Governed && CheckStop()) {
      for (unsigned I : G) {
        Result.Cells[I].Skipped = true;
        Result.Cells[I].Error = "sweep interrupted";
      }
      return;
    }
    if (Isolated)
      RunCellSupervised(Lead);
    else
      RunGroup(G);
    for (unsigned I : G) {
      if (!Journal || !Result.Cells[I].Ran)
        continue;
      // The journal's disk I/O runs under its own per-cell fault stream
      // (salt disjoint from the attempt salts 0..2) so disk-write /
      // disk-sync chaos reaches the append path without perturbing the
      // cell's own execution.
      support::FaultInjector JournalInjector(Faults,
                                             (uint64_t(I) << 8) | 0x7fu);
      support::FaultScope JournalScope(JournalInjector);
      Journal->append(Plan, I, Result.Cells[I]);
      Appended.fetch_add(1, std::memory_order_relaxed);
    }
  };

  // Streaming aggregation: cells are admitted through a bounded window
  // and retired strictly in plan order; retirement optionally writes the
  // full record to the --cells-out stream, then folds the heavy per-cell
  // payloads into the two scalars the report needs and frees them, so
  // peak resident cells is O(jobs + window), not O(plan). Streaming
  // runs every cell as its own group, so groups and cells coincide here.
  const unsigned PlanN = static_cast<unsigned>(Plan.size());
  std::mutex StreamMu;
  std::condition_variable StreamCv;
  unsigned NextRetire = 0;
  std::vector<unsigned char> DoneFlags;
  std::ofstream CellsOut;
  bool CellsOutOk = false;
  uint64_t PeakResident = 0;
  uint64_t StreamedCount = 0;
  uint64_t StreamWriteFailures = 0;
  const unsigned Window = std::max(2 * Jobs, 4u);
  if (Streaming) {
    DoneFlags.assign(PlanN, 0);
    if (!Opts.Stream.CellsOutPath.empty()) {
      CellsOut.open(Opts.Stream.CellsOutPath,
                    std::ios::binary | std::ios::trunc);
      if (!CellsOut) {
        Result.Failures.push_back("cells-out: cannot open " +
                                  Opts.Stream.CellsOutPath + " for writing");
        return Result;
      }
      // Header mirrors the journal's, so one reader handles both.
      char HashBuf[24];
      std::snprintf(HashBuf, sizeof(HashBuf), "%016llx",
                    static_cast<unsigned long long>(journalPlanHash(Plan)));
      std::ostringstream OS;
      JsonWriter J(OS);
      J.beginObject();
      J.key("cells_out").value("spf-cells-v1");
      J.key("plan_hash").value(std::string(HashBuf));
      J.key("cells").value(static_cast<uint64_t>(PlanN));
      J.endObject();
      OS << '\n';
      CellsOut << OS.str();
      CellsOutOk = static_cast<bool>(CellsOut);
      if (!CellsOutOk)
        ++StreamWriteFailures;
    }
  }

  // Caller holds StreamMu. Writes the cell's full record to the stream,
  // then folds: per-site stats reduce to (count, hash) — exactly what
  // writeJsonReport emits — and the heavy vectors are freed.
  auto RetireLocked = [&](unsigned I) {
    CellResult &Cell = Result.Cells[I];
    if (CellsOutOk) {
      std::ostringstream OS;
      JsonWriter J(OS);
      J.beginObject();
      J.key("key").value(journalCellKey(Plan, I));
      J.key("cell").value(static_cast<uint64_t>(I));
      J.key("record");
      writeCellRecordJson(J, Cell);
      J.endObject();
      OS << '\n';
      CellsOut << OS.str();
      if (!CellsOut) {
        // ENOSPC/EIO on the stream: stop writing, count the loss, keep
        // the sweep going — the report's folded values are unaffected.
        CellsOutOk = false;
        ++StreamWriteFailures;
      } else {
        ++StreamedCount;
      }
    }
    Cell.FoldedSiteCount = Cell.Run.Sites.size();
    Cell.FoldedSiteHash = siteStatsHash(Cell.Run.Sites);
    if (Plan.cells()[I].Opt.TimelineEvery && Cell.TopSites.empty())
      Cell.TopSites = topStallSites(Cell.Run.Sites);
    Cell.SitesFolded = true;
    std::vector<sim::SiteStats>().swap(Cell.Run.Sites);
    Cell.Run.Decisions.clear();
    Cell.Run.Decisions.shrink_to_fit();
    Cell.Run.Prefetch.Loops.clear();
    Cell.Run.Prefetch.Loops.shrink_to_fit();
  };

  // Admission is deadlock-free for any Jobs: the ThreadPool starts tasks
  // in FIFO submission (= plan) order, so the smallest unfinished index
  // is always running or next to start, and it never waits (I <
  // NextRetire + Window holds when I == NextRetire). Everything the
  // window blocks is a *larger* index on another thread.
  auto DispatchStreamed = [&](const std::vector<unsigned> &G) {
    const unsigned I = G.front();
    if (Streaming) {
      std::unique_lock<std::mutex> Lock(StreamMu);
      StreamCv.wait(Lock, [&] { return I < NextRetire + Window; });
      uint64_t Resident = uint64_t(I) + 1 - NextRetire;
      if (Resident > PeakResident)
        PeakResident = Resident;
    }
    Dispatch(G);
    if (Streaming) {
      std::lock_guard<std::mutex> Lock(StreamMu);
      DoneFlags[I] = 1;
      while (NextRetire < PlanN && DoneFlags[NextRetire])
        RetireLocked(NextRetire++);
      StreamCv.notify_all();
    }
  };

  if (Jobs <= 1 || Groups.size() <= 1) {
    for (const std::vector<unsigned> &G : Groups)
      DispatchStreamed(G);
  } else {
    ThreadPool Pool(Jobs);
    for (const std::vector<unsigned> &G : Groups)
      Pool.async([&DispatchStreamed, &G] { DispatchStreamed(G); });
    Pool.wait();
  }
  if (CellsOut.is_open()) {
    CellsOut.flush();
    if (!CellsOut && CellsOutOk)
      ++StreamWriteFailures;
    CellsOut.close();
  }
  Result.CellsStreamed = StreamedCount;
  Result.PeakResidentCells = Streaming ? PeakResident : PlanN;
  Result.JournalAppended = Appended.load();
  if (Journal) {
    // Records that hit the degraded-append path never landed in the
    // file: report what is actually durable.
    Result.JournalDegraded = Journal->degraded();
    Result.JournalAppendFailures = Journal->appendFailures();
    Result.JournalSyncFailures = Journal->syncFailures();
    if (Result.JournalAppended >= Result.JournalAppendFailures)
      Result.JournalAppended -=
          static_cast<unsigned>(Result.JournalAppendFailures);
  }
  Result.Interrupted = StopLatch.load(std::memory_order_relaxed);
  if (Result.Interrupted) {
    std::lock_guard<std::mutex> Lock(StopMu);
    Result.InterruptReason = StopReason;
  }

  // Correctness verdicts and quarantine, in plan order (deterministic
  // regardless of the completion schedule above).
  for (unsigned I = 0, E = static_cast<unsigned>(Plan.size()); I != E;
       ++I) {
    const ExperimentCell &C = Plan.cells()[I];
    const CellResult &Cell = Result.Cells[I];
    std::string Tag = cellTag(C);

    if (!Cell.Ran) {
      // The cell never produced a result. Injected transient faults,
      // contained worker crashes, and interruption skips are the
      // chaos/isolation/governance machinery working as intended —
      // quarantine only; a timeout, a supervisor deadline kill, or a
      // real exception is also a Failure.
      QuarantineRecord Q;
      Q.CellIndex = I;
      Q.Tag = Tag;
      if (Cell.Skipped)
        Q.Kind = "skipped";
      else if (Cell.TimedOut)
        Q.Kind = "timeout";
      else if (Cell.Crashed)
        Q.Kind = "crashed";
      else if (Cell.Transient)
        Q.Kind = "faulted";
      else
        Q.Kind = "error";
      Q.Attempts = Cell.Attempts;
      Q.Signal = Cell.Signal;
      Q.ExitStatus = Cell.ExitStatus;
      Q.Error = Cell.Error;
      Result.Quarantine.push_back(std::move(Q));
      if (Cell.Skipped)
        ++Result.CellsSkipped; // Not a Failure: --resume re-runs it.
      else if (Cell.TimedOut)
        Result.Failures.push_back(Tag + ": timed out (" + Cell.Error + ")");
      else if (Cell.DeadlineKilled)
        Result.Failures.push_back(Tag + ": " + Cell.Error);
      else if (!Cell.Crashed && !Cell.Transient)
        Result.Failures.push_back(Tag + ": failed (" + Cell.Error + ")");
      continue; // No result: nothing to check, nothing to compare.
    }

    if (Cell.Attempts > 1) {
      // Succeeded after transient retries: record it, keep the result.
      QuarantineRecord Q;
      Q.CellIndex = I;
      Q.Tag = Tag;
      Q.Kind = "retried";
      Q.Attempts = Cell.Attempts;
      Q.Error = Cell.Error;
      Result.Quarantine.push_back(std::move(Q));
    }

    const workloads::RunResult &Run = Cell.Run;
    if (!Run.SelfCheckOk)
      Result.Failures.push_back(Tag + ": workload self-check failed");
    if (C.CheckAgainst && Result.Cells[*C.CheckAgainst].Ran &&
        Run.ReturnValue != Result.Cells[*C.CheckAgainst].Run.ReturnValue)
      Result.Failures.push_back(
          Tag + ": computed a different result than its baseline run");
  }

  // Registry bookkeeping, harvested once per plan after the (possibly
  // parallel) run — deterministic because it only reads the finished
  // per-cell verdicts.
  if (obs::enabled()) {
    obs::StatRegistry &S = obs::stats();
    S.counter("spf_cells_total").inc(Plan.size());
    for (const CellResult &Cell : Result.Cells) {
      S.counter("spf_cell_attempts_total").inc(Cell.Attempts);
      if (Cell.Ran)
        S.counter("spf_cells_ran_total").inc();
      if (Cell.Run.Replayed)
        S.counter("spf_cells_replayed_total").inc();
      if (Cell.Crashed)
        S.counter("spf_cells_crashed_total").inc();
      if (Cell.TimedOut)
        S.counter("spf_cells_timeout_total").inc();
      if (Cell.Skipped)
        S.counter("spf_cells_skipped_total").inc();
    }
    S.counter("spf_cells_quarantined_total").inc(Result.Quarantine.size());
    S.counter("spf_journal_grafts_total").inc(Result.JournalGrafted);
    if (Result.Interrupted)
      S.gauge("spf_sweep_interrupted").set(1);
    if (Streaming) {
      S.counter("spf_stream_cells_total").inc(Result.CellsStreamed);
      S.gauge("spf_stream_peak_resident_cells")
          .set(static_cast<int64_t>(Result.PeakResidentCells));
      if (StreamWriteFailures)
        S.counter("spf_stream_write_failures_total").inc(StreamWriteFailures);
    }
  }
  return Result;
}

void harness::writeJsonReport(std::ostream &OS, const ExperimentPlan &Plan,
                              const ExperimentResult &Result, double Scale,
                              unsigned Jobs) {
  JsonWriter J(OS);
  J.beginObject();
  J.key("schema").value("spf-sweep-v2");
  // Build/run provenance: which binary produced this report, and in
  // which process. Consumers diffing reports across runs must ignore
  // this section (run_id differs by construction).
  J.key("provenance");
  support::writeProvenanceJson(J);
  J.key("scale").value(Scale);
  J.key("jobs").value(static_cast<uint64_t>(Jobs));
  J.key("ok").value(Result.ok());
  // Interruption verdict: a partial report from a graceful shutdown or
  // sweep-deadline stop is valid JSON with every key below — consumers
  // check `interrupted` (and benches exit with the distinct code 3).
  J.key("interrupted").value(Result.Interrupted);
  J.key("interrupt_reason").value(Result.InterruptReason);
  J.key("cells_skipped").value(static_cast<uint64_t>(Result.CellsSkipped));

  J.key("cells").beginArray();
  for (unsigned I = 0, E = static_cast<unsigned>(Plan.size()); I != E;
       ++I) {
    const ExperimentCell &C = Plan.cells()[I];
    const CellResult &Cell = Result.Cells[I];
    const workloads::RunResult &R = Cell.Run;
    J.beginObject();
    J.key("group").value(C.Group);
    J.key("workload").value(C.Spec->Name);
    J.key("machine").value(C.Opt.Machine.Name);
    J.key("algorithm").value(workloads::algorithmName(C.Opt.Algo));
    // Prefetch-source facet (mode-sweep cells only): which sources were
    // armed, and the effective hardware prefetcher kind. Classic-sweep
    // cells omit both keys, keeping their records byte-identical to the
    // pre-facet schema (the committed golden report pins this).
    if (C.Mode != PrefetchSources::Unset) {
      J.key("prefetch_mode").value(prefetchSourcesName(C.Mode));
      J.key("hw_prefetch")
          .value(sim::hwPrefetchKindName(C.Opt.Machine.effectiveHwPrefetch()));
    }
    J.key("ran").value(Result.Cells[I].Ran);
    J.key("attempts").value(static_cast<uint64_t>(Result.Cells[I].Attempts));
    J.key("cycles").value(R.CompiledCycles);
    J.key("retired").value(R.Exec.Retired);
    J.key("prefetch_related").value(R.Exec.PrefetchRelated);
    J.key("gc_runs").value(R.Exec.GcRuns);
    J.key("loads").value(R.Mem.Loads);
    J.key("stores").value(R.Mem.Stores);
    J.key("l1_load_misses").value(R.Mem.L1LoadMisses);
    J.key("l1_store_misses").value(R.Mem.L1StoreMisses);
    J.key("l2_load_misses").value(R.Mem.L2LoadMisses);
    J.key("dtlb_load_misses").value(R.Mem.DtlbLoadMisses);
    // Hierarchy-shape-dependent counters, emitted only when the machine
    // can distinguish them: llc_load_misses duplicates l2_load_misses on
    // a two-level machine, and page walks exist only on walked-TLB
    // machines. Legacy (two-level, flat-TLB) records stay byte-identical.
    if (C.Opt.Machine.numLevels() > 2)
      J.key("llc_load_misses").value(R.Mem.LlcLoadMisses);
    if (C.Opt.Machine.Walk == sim::TlbWalk::Walked) {
      J.key("page_walks").value(R.Mem.PageWalks);
      J.key("page_walk_cycles").value(R.Mem.PageWalkCycles);
    }
    J.key("cycles_stalled_on_loads").value(R.Mem.CyclesStalledOnLoads);
    J.key("sw_prefetches_issued").value(R.Mem.SwPrefetchesIssued);
    J.key("sw_prefetches_cancelled").value(R.Mem.SwPrefetchesCancelled);
    J.key("guarded_loads").value(R.Mem.GuardedLoads);
    J.key("guarded_load_faults").value(R.Mem.GuardedLoadFaults);
    // RPT hardware-prefetcher effectiveness — only machines whose
    // effective prefetcher is the RPT can populate these, so only they
    // carry the keys (classic reports stay byte-identical). Accuracy is
    // useful / resolved fills; fills still resident at end of run are
    // unresolved and excluded.
    if (C.Opt.Machine.effectiveHwPrefetch() == sim::HwPrefetchKind::Rpt) {
      J.key("rpt_prefetches_issued").value(R.Mem.RptPrefetchesIssued);
      J.key("rpt_prefetches_useful").value(R.Mem.RptPrefetchesUseful);
      J.key("rpt_prefetches_late").value(R.Mem.RptPrefetchesLate);
      J.key("rpt_prefetches_unused").value(R.Mem.RptPrefetchesUnused);
      uint64_t RptResolved = R.Mem.RptPrefetchesUseful +
                             R.Mem.RptPrefetchesLate +
                             R.Mem.RptPrefetchesUnused;
      J.key("rpt_accuracy")
          .value(RptResolved ? static_cast<double>(R.Mem.RptPrefetchesUseful) /
                                   static_cast<double>(RptResolved)
                             : 0.0);
    }
    // Epoch/GC-variant/governor facets, conditional on the cell having
    // asked for them — single-epoch classic cells stay byte-identical.
    if (C.Opt.Epochs > 1)
      J.key("epochs").value(static_cast<uint64_t>(C.Opt.Epochs));
    if (C.Opt.GcVariant != vm::GcVariant::SlidingCompact)
      J.key("gc_variant").value(vm::gcVariantName(C.Opt.GcVariant));
    if (C.Opt.PhaseChange)
      J.key("phase_change").value(true);
    if (C.Opt.Epochs > 1 || C.Opt.Governor)
      J.key("gc_collections").value(R.GcCollections);
    if (C.Opt.Governor) {
      J.key("governor").value(true);
      J.key("governor_quarantined")
          .value(static_cast<uint64_t>(R.GovernorQuarantined));
      J.key("governor_retunes")
          .value(static_cast<uint64_t>(R.GovernorRetunes));
      J.key("governor_reinspections")
          .value(static_cast<uint64_t>(R.GovernorReinspections));
      J.key("sw_prefetches_useful").value(R.Mem.SwPrefetchesUseful);
      J.key("sw_prefetches_late").value(R.Mem.SwPrefetchesLate);
      J.key("sw_prefetches_unused").value(R.Mem.SwPrefetchesUnused);
    }
    J.key("spec_loads").value(R.Prefetch.CodeGen.SpecLoads);
    J.key("prefetches").value(R.Prefetch.CodeGen.Prefetches);
    J.key("jit_total_us").value(R.JitTotalUs);
    J.key("jit_prefetch_us").value(R.JitPrefetchUs);
    J.key("return_value").value(R.ReturnValue);
    J.key("self_check_ok").value(R.SelfCheckOk);
    // Folded cells (streaming aggregation) freed R.Sites at retirement;
    // the pre-fold values are byte-identical to the in-memory path's.
    J.key("load_sites").value(Cell.SitesFolded
                                  ? Cell.FoldedSiteCount
                                  : static_cast<uint64_t>(R.Sites.size()));
    J.key("site_stats_hash")
        .value(Cell.SitesFolded ? Cell.FoldedSiteHash
                                : siteStatsHash(R.Sites));
    // Cycle-accounting facets, conditional on the cell sampling a
    // timeline — classic sweeps carry none of these keys and stay
    // byte-identical. cycle_breakdown is the CPI stack: every simulated
    // cycle charged to exactly one category, summing to `cycles`. The
    // GC-pause share is split out of compute here at the report layer
    // (each collection charges exactly one tick(exec::GcPauseTicks) in
    // the interpreter, so the split is exact, not an estimate).
    if (C.Opt.TimelineEvery) {
      auto WriteAcctKeys = [&](const sim::CycleAccounting &A) {
        for (size_t L = 0; L != A.Level.size(); ++L)
          J.key("l" + std::to_string(L + 1)).value(A.Level[L]);
        J.key("wait").value(A.Wait);
        J.key("mem_penalty").value(A.MemPenalty);
        J.key("translation").value(A.Translation);
        J.key("guard_fault").value(A.GuardFault);
        J.key("prefetch_issue").value(A.PrefetchIssue);
      };
      uint64_t GcPause =
          R.GcCollections * exec::GcPauseTicks * C.Opt.Machine.ComputeCycles;
      if (GcPause > R.Acct.Compute)
        GcPause = R.Acct.Compute;
      J.key("cycle_breakdown").beginObject();
      J.key("compute").value(R.Acct.Compute - GcPause);
      J.key("gc_pause").value(GcPause);
      WriteAcctKeys(R.Acct);
      J.key("total").value(R.Acct.total());
      J.endObject();
      J.key("timeline").beginArray();
      for (const obs::TimelineSample &S : R.Timeline) {
        J.beginObject();
        J.key("event").value(S.EventIndex);
        if (S.Boundary)
          J.key("boundary").value(true);
        J.key("cycles").value(S.Cycles);
        J.key("compute").value(S.Acct.Compute);
        WriteAcctKeys(S.Acct);
        J.key("loads").value(S.Loads);
        J.key("sw_issued").value(S.SwIssued);
        J.key("sw_useful").value(S.SwUseful);
        J.key("sw_late").value(S.SwLate);
        J.key("sw_unused").value(S.SwUnused);
        J.endObject();
      }
      J.endArray();
      std::vector<std::pair<uint32_t, sim::SiteStats>> TopLocal;
      if (!Cell.SitesFolded)
        TopLocal = topStallSites(R.Sites);
      const std::vector<std::pair<uint32_t, sim::SiteStats>> &Top =
          Cell.SitesFolded ? Cell.TopSites : TopLocal;
      J.key("top_sites").beginArray();
      for (const auto &P : Top) {
        J.beginObject();
        J.key("site").value(static_cast<uint64_t>(P.first));
        J.key("loads").value(P.second.Loads);
        J.key("stall_cycles").value(P.second.StallCycles);
        J.key("l1_misses").value(P.second.L1Misses);
        J.key("l2_misses").value(P.second.L2Misses);
        J.key("dtlb_misses").value(P.second.DtlbMisses);
        J.endObject();
      }
      J.endArray();
    }
    // Execution bookkeeping: whether the cell's statistics came from a
    // shared execution, and the wall time of its interpretation —
    // consumers comparing reports must ignore interpret_us.
    J.key("replayed").value(R.Replayed);
    J.key("interpret_us").value(R.InterpretUs);
    J.endObject();
  }
  J.endArray();

  J.key("isolated").value(Result.Isolated);
  J.key("journal").beginObject();
  J.key("enabled").value(!Result.JournalPath.empty());
  J.key("path").value(Result.JournalPath);
  J.key("grafted").value(static_cast<uint64_t>(Result.JournalGrafted));
  J.key("appended").value(static_cast<uint64_t>(Result.JournalAppended));
  J.key("degraded").value(Result.JournalDegraded);
  J.key("append_failures").value(Result.JournalAppendFailures);
  J.key("sync_failures").value(Result.JournalSyncFailures);
  J.endObject();

  J.key("failures").beginArray();
  for (const std::string &F : Result.Failures)
    J.value(F);
  J.endArray();

  J.key("quarantine").beginArray();
  for (const QuarantineRecord &Q : Result.Quarantine) {
    J.beginObject();
    J.key("cell").value(static_cast<uint64_t>(Q.CellIndex));
    J.key("tag").value(Q.Tag);
    J.key("kind").value(Q.Kind);
    J.key("attempts").value(static_cast<uint64_t>(Q.Attempts));
    J.key("signal").value(static_cast<int64_t>(Q.Signal));
    J.key("exit_status").value(static_cast<int64_t>(Q.ExitStatus));
    J.key("error").value(Q.Error);
    J.endObject();
  }
  J.endArray();

  // Registry snapshot (counters/gauges/histograms) — only when the
  // observability hooks are on, so disabled-mode reports carry no
  // schedule-dependent extras. Cross-run diffs must ignore it (its
  // wall-clock histograms are scheduling artifacts).
  if (obs::enabled()) {
    J.key("stats");
    obs::stats().writeJson(J);
  }

  J.endObject();
  OS << '\n';
}
