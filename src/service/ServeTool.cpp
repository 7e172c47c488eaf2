//===--- ServeTool.cpp - lockinfer --serve entry point --------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
//
// tool::runServe, declared in driver/Tool.h but defined here: the daemon
// pulls in the service library, which the driver library must not depend
// on (the dependency runs the other way).
//
//===----------------------------------------------------------------------===//

#include "driver/Tool.h"
#include "obs/Log.h"
#include "service/Server.h"

#include <cstdio>

using namespace lockin;

int tool::runServe(const cli::CliOptions &Opts) {
  service::ServerOptions SO;
  SO.UnixSocketPath = Opts.Socket;
  SO.TcpPort = Opts.Port;
  SO.Workers = Opts.ServiceWorkers;
  SO.QueueDepth = Opts.QueueDepth;
  SO.RequestTimeoutMs = Opts.RequestTimeoutMs;
  SO.CacheCapacity = Opts.CacheCapacity;
  SO.CacheShards = Opts.CacheShards;
  SO.DefaultK = Opts.K;
  SO.DefaultJobs = Opts.Jobs ? Opts.Jobs : 1;
  SO.FlightCapacity = Opts.FlightCapacity;
  SO.EventLoops = Opts.EventLoops;
  SO.MaxInflight = Opts.MaxInflight;
  SO.TenantQuota = Opts.TenantQuota;
  SO.ReadTimeoutMs = Opts.ReadTimeoutMs;

  service::Server Server(SO);
  std::string Err;
  if (!Server.start(Err)) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    if constexpr (obs::kEnabled)
      obs::log()
          .event(obs::LogLevel::Error, "service.start_failed")
          .str("error", Err);
    return 1;
  }
  Server.installSignalHandlers();

  // Readiness line for scripts: printed (and flushed) only once the
  // listeners are bound, with the resolved ephemeral port.
  if (!Opts.Socket.empty())
    std::printf("lockin-serve: listening on %s\n", Opts.Socket.c_str());
  if (Opts.Port >= 0)
    std::printf("lockin-serve: listening on 127.0.0.1:%d\n", Server.port());
  std::fflush(stdout);
  if constexpr (obs::kEnabled)
    obs::log()
        .event(obs::LogLevel::Info, "service.listening")
        .str("socket", Opts.Socket)
        .num("port", Opts.Port >= 0 ? static_cast<uint64_t>(Server.port())
                                    : 0)
        .num("workers", SO.Workers)
        .num("queue_depth", SO.QueueDepth)
        .num("event_loops", SO.EventLoops)
        .num("max_inflight", SO.MaxInflight)
        .num("tenant_quota", SO.TenantQuota);

  Server.run();

  // Drain-time telemetry: dump the flight recorder through the log and
  // (optionally) to a JSON file, then write the --metrics-out /
  // --trace-out snapshots that one-shot runs write at process exit — so
  // a SIGTERM'd daemon is not blind (the snapshots used to be lost).
  int Rc = 0;
  if constexpr (obs::kEnabled) {
    Server.flightRecorder().dump(obs::log(), "drain", /*MinGapNs=*/0);
    obs::log()
        .event(obs::LogLevel::Info, "service.drained")
        .num("requests_served", Server.requestsServed());
  }
  if (!Opts.FlightRecordOut.empty() &&
      !support::writeJsonFile(Opts.FlightRecordOut,
                              Server.flightRecorder().toJson()))
    Rc = 1;
  if (int DrainRc = drainObsOutputs(Opts))
    Rc = DrainRc;

  std::printf("lockin-serve: drained after %llu requests\n",
              static_cast<unsigned long long>(Server.requestsServed()));
  std::fflush(stdout);
  return Rc;
}
