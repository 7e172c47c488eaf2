//===--- Cli.cpp - lockinfer command-line parsing ------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"

#include <cstdlib>
#include <cstring>

using namespace lockin;
using namespace lockin::cli;

bool cli::parseUnsigned(const char *Text, unsigned &Out) {
  if (!Text || !*Text)
    return false;
  char *End = nullptr;
  unsigned long Value = std::strtoul(Text, &End, 10);
  if (End == Text || *End != '\0' || Value > 0xffffffffUL)
    return false;
  Out = static_cast<unsigned>(Value);
  return true;
}

namespace {

bool setString(std::string &Out, const char *Value) {
  if (!Value || !*Value)
    return false;
  Out = Value;
  return true;
}

struct OptionSpec {
  const char *Short;     ///< e.g. "-k", or nullptr
  const char *Long;      ///< e.g. "--jobs", or nullptr
  const char *ValueName; ///< non-null iff the option takes a value
  const char *Help;
  bool (*Apply)(CliOptions &, const char *Value);
};

const OptionSpec Options[] = {
    {"-k", nullptr, "N", "expression-lock depth limit (default 3)",
     [](CliOptions &O, const char *V) { return parseUnsigned(V, O.K); }},
    {"-j", "--jobs", "N",
     "analysis worker threads; 0 = hardware concurrency (default), 1 = "
     "serial",
     [](CliOptions &O, const char *V) { return parseUnsigned(V, O.Jobs); }},
    {nullptr, "--run", nullptr, "execute the program in the interpreter",
     [](CliOptions &O, const char *) { return O.Run = true; }},
    {nullptr, "--global-lock", nullptr,
     "run with one global lock instead of the inferred locks",
     [](CliOptions &O, const char *) { return O.GlobalLock = true; }},
    {nullptr, "--adaptive", nullptr,
     "run with the contention-adaptive hybrid runtime (RW biasing, "
     "striped escalation, STM migration)",
     [](CliOptions &O, const char *) { return O.Adaptive = true; }},
    {nullptr, "--adaptive-epoch-ms", "N",
     "policy epoch period for --adaptive in ms (default 50)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.AdaptiveEpochMs);
     }},
    {nullptr, "--check", nullptr,
     "run the concurrency checker (races, atomicity, lock order) and "
     "print its JSON report",
     [](CliOptions &O, const char *) { return O.Check = true; }},
    {nullptr, "--elide-never-parallel", nullptr,
     "elide lock acquisition for sections whose conflicts can never run "
     "in parallel (MHP-proven)",
     [](CliOptions &O, const char *) { return O.ElideNeverParallel = true; }},
    {nullptr, "--quiet", nullptr, "suppress the transformed-program report",
     [](CliOptions &O, const char *) { return O.Quiet = true; }},
    {nullptr, "--time-passes", nullptr,
     "print per-pass wall times to stderr after compiling",
     [](CliOptions &O, const char *) { return O.TimePasses = true; }},
    {nullptr, "--stats", nullptr,
     "print analysis counters (SCCs, summaries, caches) to stderr",
     [](CliOptions &O, const char *) { return O.Stats = true; }},
    {nullptr, "--trace-out", "FILE",
     "write a Chrome trace-event JSON of the compile + run to FILE",
     [](CliOptions &O, const char *V) { return setString(O.TraceOut, V); }},
    {nullptr, "--metrics-out", "FILE",
     "write the metrics registry as JSON to FILE ('-' = stdout)",
     [](CliOptions &O, const char *V) {
       return setString(O.MetricsOut, V);
     }},
    {nullptr, "--log-level", "LEVEL",
     "structured-log threshold: debug|info|warn|error|off (default info)",
     [](CliOptions &O, const char *V) {
       if (!V)
         return false;
       for (const char *L : {"debug", "info", "warn", "error", "off"})
         if (std::strcmp(V, L) == 0) {
           O.LogLevel = V;
           return true;
         }
       return false;
     }},
    {nullptr, "--profile-locks", nullptr,
     "profile lock contention during --run and print the table",
     [](CliOptions &O, const char *) { return O.ProfileLocks = true; }},
    {nullptr, "--inject-yields", nullptr,
     "inject seeded scheduler yields at shared accesses during --run",
     [](CliOptions &O, const char *) { return O.InjectYields = true; }},
    {nullptr, "--yield-seed", "N",
     "seed for --inject-yields scheduling (default 1)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.YieldSeed);
     }},
    {nullptr, "--serve", nullptr,
     "run as the analysis daemon (needs --socket and/or --port)",
     [](CliOptions &O, const char *) { return O.Serve = true; }},
    {nullptr, "--socket", "PATH", "unix socket path for --serve",
     [](CliOptions &O, const char *V) { return setString(O.Socket, V); }},
    {nullptr, "--port", "N",
     "loopback TCP port for --serve (0 = ephemeral, printed on stdout)",
     [](CliOptions &O, const char *V) {
       unsigned P;
       if (!parseUnsigned(V, P) || P > 65535)
         return false;
       O.Port = static_cast<int>(P);
       return true;
     }},
    {nullptr, "--service-workers", "N",
     "analyze worker threads for --serve (default 2)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.ServiceWorkers) && O.ServiceWorkers > 0;
     }},
    {nullptr, "--queue-depth", "N",
     "bounded analyze queue for --serve; full = overloaded (default 32)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.QueueDepth) && O.QueueDepth > 0;
     }},
    {nullptr, "--request-timeout-ms", "N",
     "per-request deadline for --serve; 0 = none (default)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.RequestTimeoutMs);
     }},
    {nullptr, "--cache-capacity", "N",
     "summary-cache entries for --serve; 0 disables (default 65536)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.CacheCapacity);
     }},
    {nullptr, "--cache-shards", "N",
     "summary-cache mutex+LRU shards for --serve (default 16)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.CacheShards) && O.CacheShards > 0;
     }},
    {nullptr, "--event-loops", "N",
     "epoll event-loop threads for --serve (default 2)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.EventLoops) && O.EventLoops > 0;
     }},
    {nullptr, "--max-inflight", "N",
     "global cap on queued+running analyze jobs for --serve; 0 = only "
     "--queue-depth caps (default)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.MaxInflight);
     }},
    {nullptr, "--tenant-quota", "N",
     "per-tenant inflight analyze cap for --serve; 0 = unlimited (default)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.TenantQuota);
     }},
    {nullptr, "--read-timeout-ms", "N",
     "mid-frame read deadline for --serve (slow-loris defense); 0 = none "
     "(default)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.ReadTimeoutMs);
     }},
    {nullptr, "--flightrecord-out", "FILE",
     "write the flight-recorder dump as JSON at drain (--serve)",
     [](CliOptions &O, const char *V) {
       return setString(O.FlightRecordOut, V);
     }},
    {nullptr, "--flightrecord-capacity", "N",
     "completed-request summaries the flight recorder keeps (default 256)",
     [](CliOptions &O, const char *V) {
       return parseUnsigned(V, O.FlightCapacity) && O.FlightCapacity > 0;
     }},
    {nullptr, "--help", nullptr, "show this help",
     [](CliOptions &O, const char *) { return O.Help = true; }},
};

const OptionSpec *findOption(const char *Arg, size_t Len) {
  for (const OptionSpec &Spec : Options)
    if ((Spec.Short && std::strlen(Spec.Short) == Len &&
         std::strncmp(Arg, Spec.Short, Len) == 0) ||
        (Spec.Long && std::strlen(Spec.Long) == Len &&
         std::strncmp(Arg, Spec.Long, Len) == 0))
      return &Spec;
  return nullptr;
}

} // namespace

void cli::usage(std::FILE *To) {
  std::fputs("usage: lockinfer [options] file.atom\noptions:\n", To);
  for (const OptionSpec &Spec : Options) {
    char Flags[48];
    std::snprintf(Flags, sizeof(Flags), "%s%s%s %s",
                  Spec.Short ? Spec.Short : "",
                  Spec.Short && Spec.Long ? ", " : "",
                  Spec.Long ? Spec.Long : "",
                  Spec.ValueName ? Spec.ValueName : "");
    std::fprintf(To, "  %-24s %s\n", Flags, Spec.Help);
  }
}

bool cli::parseArgs(int Argc, const char *const *Argv, CliOptions &Out) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (Arg[0] != '-') {
      if (!Out.Path.empty()) {
        std::fprintf(stderr, "error: multiple input files ('%s' and '%s')\n",
                     Out.Path.c_str(), Arg);
        return false;
      }
      Out.Path = Arg;
      continue;
    }
    // "--opt=value" attaches the value; "--opt value" takes the next arg.
    const char *Eq = std::strchr(Arg, '=');
    size_t NameLen = Eq ? static_cast<size_t>(Eq - Arg) : std::strlen(Arg);
    const OptionSpec *Spec = findOption(Arg, NameLen);
    if (!Spec) {
      std::fprintf(stderr, "error: unknown option '%.*s'\n",
                   static_cast<int>(NameLen), Arg);
      return false;
    }
    const char *Value = nullptr;
    if (Spec->ValueName) {
      if (Eq) {
        Value = Eq + 1;
      } else {
        if (I + 1 >= Argc) {
          std::fprintf(stderr, "error: option '%s' requires a value\n", Arg);
          return false;
        }
        Value = Argv[++I];
      }
    } else if (Eq) {
      std::fprintf(stderr, "error: option '%.*s' takes no value\n",
                   static_cast<int>(NameLen), Arg);
      return false;
    }
    if (!Spec->Apply(Out, Value)) {
      std::fprintf(stderr, "error: invalid value '%s' for option '%.*s'\n",
                   Value ? Value : "", static_cast<int>(NameLen), Arg);
      return false;
    }
  }
  if (Out.Help)
    return true;
  if (Out.Serve) {
    if (Out.Socket.empty() && Out.Port < 0) {
      std::fprintf(stderr,
                   "error: --serve needs --socket PATH and/or --port N\n");
      return false;
    }
    if (!Out.Path.empty()) {
      std::fprintf(stderr, "error: --serve takes no input file\n");
      return false;
    }
    return true;
  }
  if (Out.Path.empty()) {
    std::fprintf(stderr, "error: no input file\n");
    return false;
  }
  return true;
}
