//===- harness/Supervisor.cpp ---------------------------------------------===//

#include "harness/Supervisor.h"

#include "harness/Journal.h"
#include "harness/JsonWriter.h"
#include "harness/Subprocess.h"
#include "obs/Tracer.h"
#include "support/Env.h"
#include "support/FaultInjection.h"
#include "support/Process.h"
#include "support/Status.h"

#include <cstdlib>
#include <sstream>

using namespace spf;
using namespace spf::harness;

double harness::cellTimeoutSeconds() {
  return support::envDouble("SPF_CELL_TIMEOUT", 0.0, 0.0);
}

uint64_t harness::cellMemMbFromEnv() {
  return support::envU64("SPF_CELL_MEM_MB", 0);
}

namespace {

unsigned parseWorkerUnsigned(const char *Flag, const char *S) {
  char *End = nullptr;
  unsigned long V = std::strtoul(S, &End, 10);
  if (End == S || *End != '\0')
    support::envConfigError(Flag, S, "expected an unsigned integer");
  return static_cast<unsigned>(V);
}

} // namespace

std::optional<WorkerRequest> harness::parseWorkerRequest(int Argc,
                                                         char **Argv) {
  WorkerRequest Req;
  bool Found = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NextValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc)
        support::envConfigError(Flag, "", "missing value");
      return Argv[++I];
    };
    if (A == "--run-cell") {
      std::string V = NextValue("--run-cell");
      size_t Colon = V.find(':');
      if (Colon == std::string::npos)
        support::envConfigError("--run-cell", V.c_str(),
                                "expected PLANSEQ:CELL");
      Req.PlanSeq =
          parseWorkerUnsigned("--run-cell", V.substr(0, Colon).c_str());
      Req.Cell =
          parseWorkerUnsigned("--run-cell", V.substr(Colon + 1).c_str());
      Found = true;
    } else if (A == "--cell-attempt") {
      Req.Attempt =
          parseWorkerUnsigned("--cell-attempt", NextValue("--cell-attempt"));
    } else if (A == "--result-fd") {
      Req.ResultFd = static_cast<int>(
          parseWorkerUnsigned("--result-fd", NextValue("--result-fd")));
    }
  }
  if (!Found)
    return std::nullopt;
  return Req;
}

std::vector<std::string> harness::workerArgv(const std::string &SelfPath,
                                             int Argc, char **Argv,
                                             unsigned PlanSeq, unsigned Cell,
                                             unsigned Attempt) {
  std::vector<std::string> Out;
  Out.reserve(static_cast<size_t>(Argc) + 6);
  Out.push_back(SelfPath);
  for (int I = 1; I < Argc; ++I)
    Out.push_back(Argv[I]);
  Out.push_back("--run-cell");
  Out.push_back(std::to_string(PlanSeq) + ":" + std::to_string(Cell));
  Out.push_back("--cell-attempt");
  Out.push_back(std::to_string(Attempt));
  Out.push_back("--result-fd");
  Out.push_back(std::to_string(WorkerResultFd));
  return Out;
}

void harness::runCellWorker(const ExperimentPlan &Plan,
                            const WorkerRequest &Req) {
  CellResult Cell;
  obs::Span WorkerSpan("worker-cell", "harness");
  WorkerSpan.noteU64("cell", Req.Cell);
  WorkerSpan.noteU64("attempt", Req.Attempt);
  if (Req.Cell >= Plan.size()) {
    Cell.Failed = true;
    Cell.Error = "worker cell index out of range";
  } else {
    const support::FaultConfig Faults = support::FaultConfig::fromEnv();
    const ExperimentCell &C = Plan.cells()[Req.Cell];
    workloads::RunOptions Opt = C.Opt;
    Opt.TimeoutSeconds = cellTimeoutSeconds();

    Cell.Attempts = 1;
    // Identical salt to the in-process attempt loop: supervised chaos
    // fires at exactly the same points as in-process chaos.
    support::FaultInjector Injector(
        Faults, (uint64_t(Req.Cell) << 8) | uint64_t(Req.Attempt));
    support::FaultScope Scope(Injector);
    support::maybeInjectCrash(); // The only armed `crash` site.
    try {
      if (SPF_FAULT_POINT(support::FaultSite::CellExec))
        throw support::TransientFault("injected cell fault");
      Cell.Run = workloads::runWorkload(*C.Spec, Opt);
      Cell.Ran = true;
    } catch (const support::TransientFault &E) {
      Cell.Transient = true;
      Cell.Error = E.what();
    } catch (const support::CellTimeout &E) {
      Cell.TimedOut = true;
      Cell.Error = E.what();
    } catch (const std::exception &E) {
      Cell.Failed = true;
      Cell.Error = E.what();
    }
  }

  WorkerSpan.end();

  std::ostringstream OS;
  JsonWriter J(OS);
  J.beginObject();
  J.key("worker").value("spf-cell-v1");
  J.key("record");
  writeCellRecordJson(J, Cell);
  // Ship the worker's buffered spans back on the record line: the
  // supervisor import()s them (with this process's real pid) so the
  // merged Chrome trace shows one lane per worker process.
  if (obs::Tracer::instance().active()) {
    J.key("spans");
    obs::Tracer::writeEventsJson(J, obs::Tracer::instance().drain());
  }
  J.endObject();
  OS << '\n';
  const std::string Line = OS.str();
  support::writeAllFd(Req.ResultFd, Line.data(), Line.size());
  // _Exit: a worker whose heap is mid-simulation has nothing worth
  // destructing, and a throwing destructor must not turn a clean record
  // into a crash report.
  std::_Exit(0);
}
