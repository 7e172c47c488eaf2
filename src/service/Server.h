//===--- Server.h - Analysis-as-a-service daemon ----------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lockin daemon: accepts connections on a unix socket and/or a
/// loopback TCP port, speaks the length-prefixed JSON protocol of
/// service/Protocol.h, and serves `analyze` requests from a shared
/// IncrementalAnalyzer backed by the sharded content-hashed SummaryCache.
///
/// Threading model: one accept thread (the caller of run()), N event-loop
/// threads (service/EventLoop.h) each owning an epoll set of non-blocking
/// connections, and a fixed worker pool executing `analyze` jobs from a
/// bounded queue. Cheap ops (ping/stats/invalidate/metrics/flightrecord/
/// shutdown) run inline on the loop thread; an analyze job carries its
/// connection's reply slot to the worker, which answers through that
/// connection's loop. The expected
/// responses for the golden and fuzz corpora are recorded in
/// tests/golden/service_replay.jsonl, which the torture suite replays.
///
/// Admission control, applied before a job enters the queue:
///   - bounded queue: a full queue answers `{"ok":false,"error":
///     "overloaded"}` immediately — backpressure instead of buffering;
///   - MaxInflight: a global cap on queued+running analyze jobs;
///   - TenantQuota: a per-tenant inflight cap (tenant = the request's
///     "tenant" field, defaulting to the connection's peer label).
/// Every overload response carries "retryAfterMs", an EWMA-based estimate
/// of when capacity frees up, and a "reason" ("queue"/"inflight"/
/// "tenant").
///
/// Deadline shedding: a job whose deadline already passed when a worker
/// dequeues it is shed without analyzing — `{"ok":false,"error":
/// "timeout","timedOut":true,"shed":true}` and the `service.shed`
/// counter. Per-request timeout inside analysis is unchanged: the
/// deadline is stamped at read time, checked cooperatively between
/// pipeline phases, and answers `"error":"timeout"`.
///
/// Graceful drain (SIGTERM or a `shutdown` request): stop accepting,
/// half-close every connection's read side so no new frames are read,
/// let every request already read finish and flush its response, then
/// stop the workers. Zero in-flight requests are dropped — the drain
/// test in tests/test_service.cpp asserts exactly this.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_SERVICE_SERVER_H
#define LOCKIN_SERVICE_SERVER_H

#include "obs/RequestTelemetry.h"
#include "service/EventLoop.h"
#include "service/Incremental.h"
#include "service/Protocol.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace lockin {
namespace service {

struct ServerOptions {
  /// Unix-domain socket path; empty = no unix listener.
  std::string UnixSocketPath;
  /// Loopback TCP port; -1 = no TCP listener, 0 = ephemeral (read the
  /// bound port back with Server::port()).
  int TcpPort = -1;
  /// Analyze worker threads.
  unsigned Workers = 2;
  /// Bounded analyze queue; a full queue answers "overloaded".
  unsigned QueueDepth = 32;
  /// Per-request deadline in milliseconds; 0 disables.
  unsigned RequestTimeoutMs = 0;
  /// SummaryCache capacity in sections; 0 disables caching.
  size_t CacheCapacity = 1 << 16;
  /// SummaryCache mutex+LRU shards (clamped to [1, capacity]).
  size_t CacheShards = 16;
  /// Defaults applied when an analyze request omits k / jobs.
  unsigned DefaultK = 3;
  unsigned DefaultJobs = 1;
  /// Arms the request-scoped telemetry (phase spans, per-request
  /// histograms, flight records, per-request debug logs). Forced off in
  /// LOCKIN_OBS=OFF builds; bench_service turns it off at runtime to
  /// measure the armed-vs-dormant overhead in one binary.
  bool Telemetry = true;
  /// Completed-request summaries the flight recorder retains.
  size_t FlightCapacity = 256;

  /// Event-loop threads (min 1).
  unsigned EventLoops = 2;
  /// Global cap on queued+running analyze jobs; 0 = only QueueDepth caps.
  unsigned MaxInflight = 0;
  /// Per-tenant cap on queued+running analyze jobs; 0 = unlimited.
  unsigned TenantQuota = 0;
  /// Mid-frame read deadline (slow-loris defense); 0 disables. Idle
  /// connections between frames are never timed out.
  unsigned ReadTimeoutMs = 0;
  /// Test-only syscall fault injection for the event loops.
  std::shared_ptr<FaultInjector> Faults;
};

class Server : public EventLoopHandler {
public:
  explicit Server(ServerOptions Opts);
  ~Server();
  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the listeners and starts the worker pool and event loops.
  /// False + Err on failure (nothing keeps running).
  bool start(std::string &Err);

  /// Accept loop; returns only after a full drain (SIGTERM, shutdown
  /// request, or requestShutdown()) has completed: every in-flight
  /// request answered, every thread joined.
  void run();

  /// Triggers the drain from another thread (tests, embedders).
  void requestShutdown();

  /// Installs SIGTERM + SIGINT handlers that trigger this server's drain
  /// through the wakeup eventfd (async-signal-safe: the handler only
  /// writes one counter increment). At most one server per process may
  /// install handlers.
  void installSignalHandlers();

  /// The bound TCP port (after start(); 0 if no TCP listener).
  int port() const { return BoundTcpPort; }

  IncrementalAnalyzer &analyzer() { return Analyzer; }
  SummaryCache &cache() { return Cache; }
  obs::FlightRecorder &flightRecorder() { return Flight; }

  /// Requests fully answered (response flushed), across all ops.
  uint64_t requestsServed() const {
    return Served.load(std::memory_order_relaxed);
  }

  // EventLoopHandler (loop threads call these):
  void onFrame(EventLoop &Loop, uint64_t ConnId, uint64_t Seq,
               std::string Frame, const std::string &Peer) override;
  void onResponseDone(std::unique_ptr<obs::RequestContext> Ctx, bool Aborted,
                      bool Counted) override;
  void onShutdownOp() override;

private:
  /// Where an analyze response goes: the (ConnId, Seq) slot on the loop
  /// that read the request's frame.
  struct ReplyTo {
    EventLoop *Loop = nullptr;
    uint64_t ConnId = 0;
    uint64_t Seq = 0;
  };

  struct Job {
    Json Request;
    uint64_t DeadlineNs = 0; ///< obs::nowNs() time; 0 = no deadline
    std::string Tenant;
    ReplyTo Reply;
    /// Telemetry carrier; null when telemetry is off. Travels with the
    /// job so the queue wait is part of the request's phase record.
    std::unique_ptr<obs::RequestContext> Ctx;
  };

  void acceptLoop();
  /// Admission control + enqueue; rejections reply synchronously.
  void submitAnalyze(Json Request, const std::string &Peer, ReplyTo To);
  /// Sends an analyze response and its telemetry context (null when the
  /// request was rejected at admission: the context was finalized there).
  static void reply(const ReplyTo &To, const Json &Response,
                    std::unique_ptr<obs::RequestContext> Ctx);
  /// Every op except analyze/check, answered on the calling thread.
  Json dispatchInline(const Json &Request, bool &IsShutdown);
  Json handleAnalyze(const Json &Request, uint64_t DeadlineNs,
                     obs::RequestContext *Ctx);
  Json handleStats();
  Json handleInvalidate(const Json &Request);
  Json handleMetrics();
  Json handleFlightRecord();
  void workerLoop();
  void beginDrain();
  void wake();
  /// "retryAfterMs" for overload/shed responses: EWMA analyze cost times
  /// the backlog depth per worker, clamped to [1ms, 60s].
  unsigned retryAfterMsEstimate() const;

  bool telemetryOn() const { return obs::kEnabled && Opts.Telemetry; }
  /// Rolls a finished request into histograms, the per-request trace
  /// track, the flight recorder, and the debug log.
  void finishRequest(obs::RequestContext &Ctx);
  /// Terminal accounting for a request's context: outcome patch-up
  /// (aborted writes), finishRequest, and the flight-recorder dumps.
  void finalizeRequest(std::unique_ptr<obs::RequestContext> Ctx,
                       bool Aborted);

  ServerOptions Opts;
  SummaryCache Cache;
  IncrementalAnalyzer Analyzer;

  int UnixFd = -1;
  int TcpFd = -1;
  int BoundTcpPort = 0;
  int WakeFd = -1; ///< eventfd: signal handler / requestShutdown -> accept

  std::atomic<bool> Draining{false};
  std::atomic<uint64_t> Served{0};
  std::atomic<uint64_t> NextRequestId{1};
  std::atomic<uint64_t> EwmaAnalyzeNs{0};
  obs::FlightRecorder Flight;

  std::mutex QueueMu;
  std::condition_variable QueueCv;
  std::deque<Job> Queue;
  bool StopWorkers = false;
  std::vector<std::thread> Workers;
  /// Queued + running analyze jobs (mutated under QueueMu; read racily
  /// by retryAfterMsEstimate).
  std::atomic<unsigned> Inflight{0};
  std::unordered_map<std::string, unsigned> TenantInflight; ///< QueueMu

  std::vector<std::unique_ptr<EventLoop>> Loops;
  size_t NextLoopIdx = 0; ///< accept thread only

  uint64_t StartNs = 0; ///< obs::nowNs() at start(); uptime origin
};

/// Parses "none" / "global" / "inferred"; false on anything else.
bool parseAtomicMode(std::string_view Text, AtomicMode &Mode);

} // namespace service
} // namespace lockin

#endif // LOCKIN_SERVICE_SERVER_H
