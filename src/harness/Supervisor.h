//===- harness/Supervisor.h - Supervised (out-of-process) cells -*- C++ -*-===//
///
/// \file
/// The worker half of the harness's supervised execution mode. In
/// `--isolate` mode the driver (see runPlan in Experiment.h) re-executes
/// its own binary per cell attempt with a hidden flag triple
///
///   --run-cell PLANSEQ:CELL --cell-attempt A --result-fd FD
///
/// The child rebuilds the identical plan (same argv minus the hidden
/// flags, deterministic plan construction), runs exactly one attempt of
/// the named cell with the same per-(cell, attempt) fault-stream salt
/// the in-process path would use, writes one line
///
///   {"worker":"spf-cell-v1","record":{...cell record...}}
///
/// to the result fd, and exits 0. Everything else — SIGSEGV, SIGABRT,
/// rlimit kills, a wedge past the supervisor deadline — is classified by
/// the supervisor from the wait status, which is the whole point: no
/// cooperation from the worker is required for containment.
///
/// The `crash` fault site is armed here and only here: an in-process run
/// never evaluates it, so `SPF_FAULTS=all:...` stays safe without
/// isolation while `--isolate` turns injected aborts into quarantine
/// entries.
///
//===----------------------------------------------------------------------===//

#ifndef SPF_HARNESS_SUPERVISOR_H
#define SPF_HARNESS_SUPERVISOR_H

#include "harness/Experiment.h"

#include <optional>
#include <string>
#include <vector>

namespace spf {
namespace harness {

/// The parsed hidden worker flags.
struct WorkerRequest {
  unsigned PlanSeq = 0; ///< Which plan of a multi-plan binary.
  unsigned Cell = 0;    ///< Plan index of the cell to run.
  unsigned Attempt = 0; ///< Attempt number (fault-stream salt).
  int ResultFd = 3;     ///< Where the record line goes.
};

/// Recognizes the hidden worker flags in \p argv; nullopt for a normal
/// (supervisor or plain) invocation. Malformed worker flags exit 2 —
/// they are never user input, so any malformation is a driver bug.
std::optional<WorkerRequest> parseWorkerRequest(int Argc, char **Argv);

/// Builds the worker argv for one (cell, attempt): \p SelfPath plus the
/// original \p Argc/\p Argv arguments (so the child rebuilds the same
/// plan) plus the hidden flags. \p PlanSeq distinguishes plans in
/// binaries that run several.
std::vector<std::string> workerArgv(const std::string &SelfPath, int Argc,
                                    char **Argv, unsigned PlanSeq,
                                    unsigned Cell, unsigned Attempt);

/// Runs one attempt of cell \p Req.Cell of \p Plan, emits the record
/// line on \p Req.ResultFd, and exits without running destructors
/// (the process is disposable; unwinding a half-built heap buys
/// nothing). Mirrors the in-process attempt semantics exactly: same
/// fault-stream salt, same exception classification.
[[noreturn]] void runCellWorker(const ExperimentPlan &Plan,
                                const WorkerRequest &Req);

/// Per-cell wall-clock budget from SPF_CELL_TIMEOUT (seconds; unset or
/// 0 = off). Malformed values fail fast (support/Env.h).
double cellTimeoutSeconds();

/// Per-worker address-space cap in MiB from SPF_CELL_MEM_MB (0 = none).
uint64_t cellMemMbFromEnv();

} // namespace harness
} // namespace spf

#endif // SPF_HARNESS_SUPERVISOR_H
