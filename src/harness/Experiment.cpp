//===- harness/Experiment.cpp ---------------------------------------------===//

#include "harness/Experiment.h"

#include "harness/JsonWriter.h"
#include "harness/ThreadPool.h"
#include "obs/DecisionLog.h"
#include "obs/Tracer.h"
#include "support/BuildInfo.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <tuple>

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
/// deterministic). Feeds the report's top_sites key.
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

ExperimentResult harness::runPlan(const ExperimentPlan &Plan, unsigned Jobs,
                                  const RunPlanOptions &Opts) {
  if (Jobs == 0)
    Jobs = defaultJobs();

  ExperimentResult Result;
  Result.Cells.resize(Plan.size());

  obs::Span PlanSpan("run-plan", "harness");
  PlanSpan.noteU64("cells", Plan.size());
  PlanSpan.noteU64("jobs", Jobs);

  // Shared-state audit: the workload registry is a function-local static
  // whose one-time construction builds every spec. The init is
  // thread-safe (C++11 magic statics), but force it here so workers never
  // contend on first use and spec pointers are stable before the sweep.
  (void)workloads::allWorkloads();

  // Execution sharing. Cells can share an execution only within a
  // partner set: the cells of one workload, config, epochs and phase
  // change. GC variants may differ: the group's execution splits by
  // variant at each epoch boundary. Governed cells share until their
  // governor acts, then re-run alone (workloads::runSharedExecution).
  // Sets are listed in the plan order of their first cell.
  const std::vector<ExperimentCell> &Cells = Plan.cells();
  std::vector<std::vector<unsigned>> Sets;
  {
    using PartnerKey = std::tuple<const workloads::WorkloadSpec *, double,
                                  uint64_t, uint64_t, unsigned, bool>;
    std::map<PartnerKey, size_t> SetOf;
    for (unsigned I = 0, E = static_cast<unsigned>(Plan.size()); I != E;
         ++I) {
      const workloads::RunOptions &O = Cells[I].Opt;
      auto [It, New] = SetOf.try_emplace(
          PartnerKey(Cells[I].Spec, O.Config.Scale, O.Config.Seed,
                     O.Config.HeapBytes, O.Epochs, O.PhaseChange),
          Sets.size());
      if (New)
        Sets.emplace_back();
      Sets[It->second].push_back(I);
    }
  }
  PlanSpan.noteU64("partner_sets", Sets.size());

  // Once the stop hook fires, no further group runs.
  std::atomic<bool> Stopped{false};

  // On Jobs > 1 workers each partner set, each branch it splits into and
  // each member that leaves it is a task of its own; at Jobs=1
  // everything runs in order on the calling thread, a set's leavers
  // right after it.
  std::optional<ThreadPool> Pool;
  if (Jobs > 1)
    Pool.emplace(Jobs);

  // Runs one group in process. The verdict is shared by every member
  // that stayed: they are one execution. Returns the plan indices of the
  // members that left it; each runs again alone, as a task of its own
  // the moment it leaves when there are workers.
  std::function<std::vector<unsigned>(const std::vector<unsigned> &)>
      RunGroup = [&](const std::vector<unsigned> &G) {
        const unsigned Lead = G.front();
        const ExperimentCell &C = Plan.cells()[Lead];
        CellResult Verdict;
        if (Stopped.load(std::memory_order_relaxed) ||
            (Opts.Governor.ExternalStop && Opts.Governor.ExternalStop())) {
          Stopped.store(true, std::memory_order_relaxed);
          Verdict.Error = "stopped before it ran";
          for (unsigned I : G)
            Result.Cells[I] = Verdict;
          return std::vector<unsigned>{};
        }

        std::vector<workloads::RunOptions> Members;
        for (unsigned I : G)
          Members.push_back(Plan.cells()[I].Opt);

        obs::Span CellSpan("cell", "harness");
        CellSpan.noteU64("index", Lead);
        CellSpan.note("tag", cellTag(C));
        CellSpan.noteU64("members", G.size());

        std::mutex LeftLock;
        std::vector<unsigned> Left;
        workloads::ExecutionTasks Tasks;
        Tasks.OnLeave = [&](size_t K) {
          {
            std::lock_guard<std::mutex> L(LeftLock);
            Left.push_back(G[K]);
          }
          if (Pool)
            Pool->async([&RunGroup, I = G[K]] { RunGroup({I}); });
        };
        if (Pool)
          Tasks.Spawn = [&Pool](std::function<void()> Task) {
            Pool->async(std::move(Task));
          };

        // The execution builds a private Heap/Module, compiles with
        // private CompileManagers, and simulates on private
        // MemorySystems: groups share nothing mutable, so any schedule
        // yields identical stats.
        workloads::SharedExecution Run;
        try {
          Run = workloads::runSharedExecution(*C.Spec, Members, Tasks);
          Verdict.Ran = true;
        } catch (const std::exception &E) {
          Verdict.Failed = true;
          Verdict.Error = E.what();
        }
        std::sort(Left.begin(), Left.end());
        for (size_t K = 0; K != G.size(); ++K) {
          if (std::binary_search(Left.begin(), Left.end(), G[K]))
            continue; // Its own run reports it.
          CellResult &Cell = Result.Cells[G[K]];
          Cell = Verdict;
          if (Verdict.Ran)
            Cell.Run = std::move(Run.Results[K]);
        }
        return Left;
      };

  // One group per partner set: workloads::runSharedExecution builds its
  // world once, runs the prefetch pass once per distinct configuration
  // into one union program, interprets it once and simulates every
  // member's (machine, owner) pair. The lowest plan index leads, so which
  // cells come back Replayed depends on the plan and on the governors'
  // verdicts alone.
  for (const std::vector<unsigned> &Set : Sets) {
    auto RunSet = [&RunGroup, &Pool, &Set] {
      for (unsigned I : RunGroup(Set))
        if (!Pool)
          RunGroup({I});
    };
    if (Pool)
      Pool->async(RunSet);
    else
      RunSet();
  }
  if (Pool)
    Pool->wait();

  // Correctness verdicts and quarantine, in plan order (deterministic
  // regardless of the completion schedule above).
  for (unsigned I = 0, E = static_cast<unsigned>(Plan.size()); I != E;
       ++I) {
    const ExperimentCell &C = Plan.cells()[I];
    const CellResult &Cell = Result.Cells[I];
    std::string Tag = cellTag(C);

    if (!Cell.Ran) {
      // No result: nothing to check, nothing to compare.
      QuarantineRecord Q;
      Q.CellIndex = I;
      Q.Tag = Tag;
      Q.Error = Cell.Error;
      Result.Quarantine.push_back(std::move(Q));
      Result.Failures.push_back(Tag + ": failed (" + Cell.Error + ")");
      continue;
    }

    const workloads::RunResult &Run = Cell.Run;
    if (!Run.SelfCheckOk)
      Result.Failures.push_back(Tag + ": workload self-check failed");
    if (C.CheckAgainst && Result.Cells[*C.CheckAgainst].Ran &&
        Run.ReturnValue != Result.Cells[*C.CheckAgainst].Run.ReturnValue)
      Result.Failures.push_back(
          Tag + ": computed a different result than its baseline run");
  }
  return Result;
}

void harness::writeJsonReport(std::ostream &OS, const ExperimentPlan &Plan,
                              const ExperimentResult &Result, double Scale,
                              unsigned Jobs) {
  JsonWriter J(OS);
  J.beginObject();
  J.key("schema").value("spf-sweep-v4");
  // Build/run provenance: which binary produced this report, and in
  // which process. Consumers diffing reports across runs must ignore
  // this section (run_id differs by construction).
  J.key("provenance");
  support::writeProvenanceJson(J);
  J.key("scale").value(Scale);
  J.key("jobs").value(static_cast<uint64_t>(Jobs));
  J.key("ok").value(Result.ok());

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
      J.key("governor_reinspections")
          .value(static_cast<uint64_t>(R.GovernorReinspections));
      J.key("sw_prefetches_useful").value(R.Mem.SwPrefetchesUseful);
      J.key("sw_prefetches_late").value(R.Mem.SwPrefetchesLate);
      J.key("sw_prefetches_unused").value(R.Mem.SwPrefetchesUnused);
    }
    J.key("spec_loads").value(R.Prefetch.CodeGen.SpecLoads);
    J.key("prefetches").value(R.Prefetch.CodeGen.Prefetches);
    J.key("return_value").value(R.ReturnValue);
    J.key("self_check_ok").value(R.SelfCheckOk);
    J.key("load_sites").value(static_cast<uint64_t>(R.Sites.size()));
    J.key("site_stats_hash").value(siteStatsHash(R.Sites));
    // Cycle attribution, on every cell. cycle_breakdown is the CPI
    // stack: every simulated cycle charged to exactly one category,
    // summing to `cycles`. The GC-pause share is split out of compute
    // here at the report layer (each collection charges exactly one
    // tick(exec::GcPauseTicks) in the interpreter, so the split is
    // exact, not an estimate). top_sites lists the load sites that
    // stalled longest.
    const sim::CycleAccounting &A = R.Acct;
    uint64_t GcPause = std::min(
        R.GcCollections * exec::GcPauseTicks * C.Opt.Machine.ComputeCycles,
        A.Compute);
    J.key("cycle_breakdown").beginObject();
    J.key("compute").value(A.Compute - GcPause);
    J.key("gc_pause").value(GcPause);
    for (size_t L = 0; L != A.Level.size(); ++L)
      J.key("l" + std::to_string(L + 1)).value(A.Level[L]);
    J.key("wait").value(A.Wait);
    J.key("mem_penalty").value(A.MemPenalty);
    J.key("translation").value(A.Translation);
    J.key("guard_fault").value(A.GuardFault);
    J.key("prefetch_issue").value(A.PrefetchIssue);
    J.key("total").value(A.total());
    J.endObject();
    J.key("top_sites").beginArray();
    for (const auto &[Site, S] : topStallSites(R.Sites)) {
      J.beginObject();
      J.key("site").value(static_cast<uint64_t>(Site));
      J.key("loads").value(S.Loads);
      J.key("stall_cycles").value(S.StallCycles);
      J.key("l1_misses").value(S.L1Misses);
      J.key("l2_misses").value(S.L2Misses);
      J.key("dtlb_misses").value(S.DtlbMisses);
      J.endObject();
    }
    J.endArray();
    // Why the cell's code looks as it does: the prefetch pass's decisions
    // (LDG edges, inspected strides, planner verdicts, emitted prefetches)
    // and the governor's epoch verdicts, in the order they were made. A
    // cell with none (every BASELINE cell) carries no key.
    if (!R.Decisions.empty()) {
      J.key("decisions").beginArray();
      for (const obs::DecisionEvent &D : R.Decisions)
        obs::writeDecisionJson(J, D);
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

  J.key("failures").beginArray();
  for (const std::string &F : Result.Failures)
    J.value(F);
  J.endArray();

  J.key("quarantine").beginArray();
  for (const QuarantineRecord &Q : Result.Quarantine) {
    J.beginObject();
    J.key("cell").value(static_cast<uint64_t>(Q.CellIndex));
    J.key("tag").value(Q.Tag);
    J.key("kind").value("error");
    J.key("error").value(Q.Error);
    J.endObject();
  }
  J.endArray();

  J.endObject();
  OS << '\n';
}
