//===--- Cli.h - lockinfer command-line parsing -----------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line parsing for the lockinfer tool, split out of main() so
/// tests can drive it. Options are described by a single table (spec,
/// value arity, help text); the parser and the usage text are both
/// generated from it. Values are accepted as either a separate argument
/// ("--jobs 4") or attached with '=' ("--jobs=4").
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_DRIVER_CLI_H
#define LOCKIN_DRIVER_CLI_H

#include <cstdio>
#include <string>

namespace lockin {
namespace cli {

struct CliOptions {
  unsigned K = 3;
  unsigned Jobs = 0;
  bool Run = false;
  bool GlobalLock = false;
  /// Contention-adaptive hybrid runtime during --run: start on the
  /// inferred locks, let the policy engine rebias/stripe/migrate.
  bool Adaptive = false;
  unsigned AdaptiveEpochMs = 50; ///< policy epoch period for --adaptive
  /// Run the concurrency checker after inference and print its JSON
  /// report to stdout (after the transformed-program report).
  bool Check = false;
  /// MHP-driven lock elision (InferenceOptions::ElideNeverParallel).
  bool ElideNeverParallel = false;
  bool Quiet = false;
  bool TimePasses = false;
  bool Stats = false;
  bool ProfileLocks = false;
  bool Help = false;
  /// Deterministic-scheduling knobs forwarded to the interpreter during
  /// --run (InterpOptions::InjectYields / YieldSeed).
  bool InjectYields = false;
  unsigned YieldSeed = 1;
  std::string TraceOut;   ///< Chrome trace JSON path; empty = no tracing
  std::string MetricsOut; ///< metrics JSON path; "-" = stdout, empty = off
  /// Structured-log threshold: debug|info|warn|error|off.
  std::string LogLevel = "info";
  std::string Path;

  /// Daemon mode (--serve): listen instead of compiling a file. The
  /// missing-input-file check is skipped when set.
  bool Serve = false;
  std::string Socket;              ///< unix socket path for --serve
  int Port = -1;                   ///< loopback TCP port; -1 = no TCP
  unsigned ServiceWorkers = 2;     ///< analyze worker threads
  unsigned QueueDepth = 32;        ///< bounded analyze queue
  unsigned RequestTimeoutMs = 0;   ///< per-request deadline; 0 = none
  unsigned CacheCapacity = 65536;  ///< summary-cache entries; 0 disables
  unsigned CacheShards = 16;       ///< summary-cache mutex+LRU shards
  unsigned EventLoops = 2;         ///< epoll event-loop threads
  unsigned MaxInflight = 0;        ///< global analyze cap; 0 = queue only
  unsigned TenantQuota = 0;        ///< per-tenant inflight cap; 0 = none
  unsigned ReadTimeoutMs = 0;      ///< mid-frame read deadline; 0 = none
  /// Flight-recorder JSON dump path, written at drain (--serve only).
  std::string FlightRecordOut;
  /// Completed-request summaries the flight recorder retains.
  unsigned FlightCapacity = 256;
};

/// Strict base-10 unsigned parse; rejects empty, trailing junk, overflow.
bool parseUnsigned(const char *Text, unsigned &Out);

/// Prints the generated option table.
void usage(std::FILE *To);

/// Parses \p Argv (argv[0] is skipped) into \p Out. Returns true on
/// success; on failure prints a diagnostic to stderr. --help short-
/// circuits the missing-input check.
bool parseArgs(int Argc, const char *const *Argv, CliOptions &Out);

} // namespace cli
} // namespace lockin

#endif // LOCKIN_DRIVER_CLI_H
