//===--- Server.cpp - Analysis-as-a-service daemon ------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <poll.h>
#include <sstream>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace lockin;
using namespace lockin::service;

namespace {

/// The installing server's wakeup eventfd; the handler may only do
/// async-signal-safe work, so it adds 1 to the counter and returns.
std::atomic<int> GSignalFd{-1};

void signalWake(int Fd) {
  uint64_t One = 1;
  // Best effort; a saturated counter already means a wakeup is pending.
  (void)!::write(Fd, &One, sizeof(One));
}

void onTermSignal(int) {
  int Fd = GSignalFd.load(std::memory_order_relaxed);
  if (Fd >= 0)
    signalWake(Fd);
}

void closeFd(int &Fd) {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

/// Sets every member of the object \p From on \p To, in order.
void appendMembers(Json &To, const Json &From) {
  for (const auto &[Name, Value] : From.members())
    To.set(Name, Value);
}

/// Counts a request as service.requests.<op> for the ops the server
/// answers; any other op string counts as "unknown" (an empty one as
/// "bad"), so clients cannot grow the registry by inventing ops.
void countOp(const std::string &Op) {
  static const char *const Known[] = {
      "analyze", "check", "ping", "stats", "metrics", "flightrecord",
      "debug/flightrecord", "invalidate", "shutdown"};
  const char *Name = Op.empty() ? "bad" : "unknown";
  for (const char *K : Known)
    if (Op == K)
      Name = K;
  obs::metrics().counter(std::string("service.requests.") + Name).inc();
}

} // namespace

bool lockin::service::parseAtomicMode(std::string_view Text,
                                      AtomicMode &Mode) {
  if (Text == "none")
    Mode = AtomicMode::None;
  else if (Text == "global")
    Mode = AtomicMode::GlobalLock;
  else if (Text == "inferred")
    Mode = AtomicMode::Inferred;
  else
    return false;
  return true;
}

Server::Server(ServerOptions Opts)
    : Opts(std::move(Opts)),
      Cache(this->Opts.CacheCapacity, this->Opts.CacheShards),
      Analyzer(Cache), Flight(this->Opts.FlightCapacity) {}

Server::~Server() {
  // Event loops block in their poller; a server that was started but
  // never drained (start() failure paths, odd test teardowns) must still
  // destruct — beginDrain is idempotent and a no-op on exited loops.
  for (auto &L : Loops)
    L->beginDrain();
  Loops.clear(); // EventLoop dtors join their threads
  if (WakeFd >= 0 && GSignalFd.load(std::memory_order_relaxed) == WakeFd)
    GSignalFd.store(-1, std::memory_order_relaxed);
  closeFd(UnixFd);
  closeFd(TcpFd);
  closeFd(WakeFd);
  if (!Opts.UnixSocketPath.empty())
    ::unlink(Opts.UnixSocketPath.c_str());
}

bool Server::start(std::string &Err) {
  if (Opts.UnixSocketPath.empty() && Opts.TcpPort < 0) {
    Err = "no listener configured (need a socket path or a TCP port)";
    return false;
  }
  WakeFd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (WakeFd < 0) {
    Err = std::string("eventfd: ") + std::strerror(errno);
    return false;
  }

  if (!Opts.UnixSocketPath.empty()) {
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Opts.UnixSocketPath.size() >= sizeof(Addr.sun_path)) {
      Err = "socket path too long: " + Opts.UnixSocketPath;
      return false;
    }
    std::strncpy(Addr.sun_path, Opts.UnixSocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    UnixFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (UnixFd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    ::unlink(Opts.UnixSocketPath.c_str());
    if (::bind(UnixFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        ::listen(UnixFd, 256) != 0) {
      Err = "bind " + Opts.UnixSocketPath + ": " + std::strerror(errno);
      return false;
    }
  }

  if (Opts.TcpPort >= 0) {
    TcpFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (TcpFd < 0) {
      Err = std::string("socket: ") + std::strerror(errno);
      return false;
    }
    int One = 1;
    ::setsockopt(TcpFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(static_cast<uint16_t>(Opts.TcpPort));
    if (::bind(TcpFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        ::listen(TcpFd, 256) != 0) {
      Err = "bind port " + std::to_string(Opts.TcpPort) + ": " +
            std::strerror(errno);
      return false;
    }
    socklen_t Len = sizeof(Addr);
    if (::getsockname(TcpFd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
      BoundTcpPort = ntohs(Addr.sin_port);
  }

  // Pre-register the service-tier counters so a metrics scrape (or the
  // CI Prometheus checker) sees them even before the first shed/abort.
  for (const char *Name :
       {"service.shed", "service.overloaded", "service.aborted",
        "service.requests_aborted", "service.read_timeouts",
        "service.loop.wakeups", "service.loop.events", "service.loop.frames",
        "service.loop.batches", "service.connections", "service.timeouts",
        "service.resubmits_served"})
    obs::metrics().counter(Name);

  unsigned NumLoops = std::max(1u, Opts.EventLoops);
  for (unsigned I = 0; I < NumLoops; ++I) {
    EventLoop::Config C;
    C.Index = I;
    C.ReadTimeoutMs = Opts.ReadTimeoutMs;
    C.Faults = Opts.Faults;
    auto L = std::make_unique<EventLoop>(std::move(C), *this);
    if (!L->start(Err)) {
      for (auto &Started : Loops)
        Started->beginDrain();
      Loops.clear();
      return false;
    }
    Loops.push_back(std::move(L));
  }

  StartNs = obs::nowNs();
  unsigned NumWorkers = Opts.Workers ? Opts.Workers : 1;
  Workers.reserve(NumWorkers);
  for (unsigned I = 0; I < NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  return true;
}

void Server::installSignalHandlers() {
  GSignalFd.store(WakeFd, std::memory_order_relaxed);
  struct sigaction SA{};
  SA.sa_handler = onTermSignal;
  sigemptyset(&SA.sa_mask);
  SA.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &SA, nullptr);
  ::sigaction(SIGINT, &SA, nullptr);
  // A peer vanishing mid-write must not kill the daemon.
  ::signal(SIGPIPE, SIG_IGN);
}

void Server::wake() { signalWake(WakeFd); }

void Server::requestShutdown() {
  beginDrain();
  wake();
}

void Server::onShutdownOp() { requestShutdown(); }

void Server::beginDrain() {
  bool Expected = false;
  if (!Draining.compare_exchange_strong(Expected, true))
    return;
  if constexpr (obs::kEnabled)
    obs::log()
        .event(obs::LogLevel::Info, "service.drain_begin")
        .num("requests_served", requestsServed());
  for (auto &L : Loops)
    L->beginDrain();
}

void Server::run() {
  acceptLoop();

  // Drain phase 1: every in-flight request finishes (workers are still
  // running) and its response flushes before the loops exit.
  for (auto &L : Loops)
    L->beginDrain(); // idempotent; covers requestShutdown-less exits
  for (auto &L : Loops)
    L->join();

  // Drain phase 2: the queue is necessarily empty now (every enqueued
  // job replied before its connection wound down), so the workers can
  // stop.
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    StopWorkers = true;
  }
  QueueCv.notify_all();
  for (std::thread &T : Workers)
    T.join();
  Workers.clear();

  closeFd(UnixFd);
  closeFd(TcpFd);
  if (!Opts.UnixSocketPath.empty())
    ::unlink(Opts.UnixSocketPath.c_str());
}

void Server::acceptLoop() {
  while (!Draining.load(std::memory_order_acquire)) {
    pollfd Fds[3];
    nfds_t N = 0;
    Fds[N++] = pollfd{WakeFd, POLLIN, 0};
    int UnixSlot = -1, TcpSlot = -1;
    if (UnixFd >= 0) {
      UnixSlot = static_cast<int>(N);
      Fds[N++] = pollfd{UnixFd, POLLIN, 0};
    }
    if (TcpFd >= 0) {
      TcpSlot = static_cast<int>(N);
      Fds[N++] = pollfd{TcpFd, POLLIN, 0};
    }
    int Rc = ::poll(Fds, N, -1);
    if (Rc < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (Fds[0].revents & POLLIN) {
      // Signal or requestShutdown: reset the counter, start the drain.
      uint64_t Count;
      (void)!::read(WakeFd, &Count, sizeof(Count));
      beginDrain();
      break;
    }
    for (int Slot : {UnixSlot, TcpSlot}) {
      if (Slot < 0 || !(Fds[Slot].revents & POLLIN))
        continue;
      int Client = ::accept(Fds[Slot].fd, nullptr, nullptr);
      if (Client < 0)
        continue;
      obs::metrics().counter("service.connections").inc();
      std::string Peer = (Slot == UnixSlot ? "unix:" : "tcp:") +
                         std::to_string(Client);
      if constexpr (obs::kEnabled)
        obs::log()
            .event(obs::LogLevel::Debug, "service.connect")
            .str("peer", Peer);
      Loops[NextLoopIdx++ % Loops.size()]->adoptConnection(
          Client, std::move(Peer));
    }
  }
}

//===----------------------------------------------------------------------===//
// Frame dispatch and response retirement
//===----------------------------------------------------------------------===//

void Server::onFrame(EventLoop &Loop, uint64_t ConnId, uint64_t Seq,
                     std::string Frame, const std::string &Peer) {
  Json Request;
  std::string Err;
  if (!Json::parse(Frame, Request, Err)) {
    // Answer with the parse error, then drop the connection: framing is
    // unrecoverable after a malformed payload.
    if constexpr (obs::kEnabled)
      obs::log()
          .event(obs::LogLevel::Warn, "service.bad_frame")
          .str("peer", Peer)
          .str("error", Err);
    EventLoop::Response R;
    R.ConnId = ConnId;
    R.Seq = Seq;
    R.Frame = frameJson(errorResponse(Err));
    R.Counted = false;
    R.CloseAfter = true;
    Loop.sendResponse(std::move(R));
    return;
  }
  std::string Op = Request.getString("op", "");
  countOp(Op);
  if (Op == "analyze" || Op == "check") {
    submitAnalyze(std::move(Request), Peer, ReplyTo{&Loop, ConnId, Seq});
    return;
  }
  bool IsShutdown = false;
  Json Resp = dispatchInline(Request, IsShutdown);
  EventLoop::Response R;
  R.ConnId = ConnId;
  R.Seq = Seq;
  R.Frame = frameJson(Resp);
  R.CloseAfter = IsShutdown;
  R.ShutdownAfter = IsShutdown;
  Loop.sendResponse(std::move(R));
}

void Server::onResponseDone(std::unique_ptr<obs::RequestContext> Ctx,
                            bool Aborted, bool Counted) {
  if (!Aborted && Counted)
    Served.fetch_add(1, std::memory_order_relaxed);
  finalizeRequest(std::move(Ctx), Aborted);
}

//===----------------------------------------------------------------------===//
// Cheap inline ops, admission control, the worker pool
//===----------------------------------------------------------------------===//

Json Server::dispatchInline(const Json &Request, bool &IsShutdown) {
  std::string Op = Request.getString("op", "");
  if (Op == "ping")
    return Json::object(
        {{"ok", Json::boolean(true)}, {"pong", Json::boolean(true)}});
  if (Op == "stats")
    return handleStats();
  if (Op == "metrics")
    return handleMetrics();
  if (Op == "flightrecord" || Op == "debug/flightrecord")
    return handleFlightRecord();
  if (Op == "invalidate")
    return handleInvalidate(Request);
  if (Op == "shutdown") {
    IsShutdown = true;
    return Json::object(
        {{"ok", Json::boolean(true)}, {"draining", Json::boolean(true)}});
  }
  return errorResponse("unknown op: " + Op);
}

unsigned Server::retryAfterMsEstimate() const {
  uint64_t Ewma = EwmaAnalyzeNs.load(std::memory_order_relaxed);
  unsigned W = Opts.Workers ? Opts.Workers : 1;
  unsigned Busy = Inflight.load(std::memory_order_relaxed);
  uint64_t PerJobMs = Ewma / 1'000'000ull;
  if (PerJobMs == 0)
    PerJobMs = 1;
  uint64_t Est = PerJobMs * (uint64_t(Busy) / W + 1);
  return static_cast<unsigned>(std::min<uint64_t>(Est, 60'000));
}

void Server::reply(const ReplyTo &To, const Json &Response,
                   std::unique_ptr<obs::RequestContext> Ctx) {
  EventLoop::Response R;
  R.ConnId = To.ConnId;
  R.Seq = To.Seq;
  R.Frame = frameJson(Response);
  R.Ctx = std::move(Ctx);
  To.Loop->sendResponse(std::move(R));
}

void Server::submitAnalyze(Json Request, const std::string &Peer,
                           ReplyTo To) {
  // "check" is analyze + the concurrency checker: same queue, same
  // worker path, same backpressure; handleAnalyze reads the op back out
  // of the request to set AnalyzeParams::Check.
  uint64_t DeadlineNs =
      Opts.RequestTimeoutMs
          ? obs::nowNs() + uint64_t(Opts.RequestTimeoutMs) * 1'000'000ull
          : 0;

  std::unique_ptr<obs::RequestContext> Ctx;
  if (telemetryOn()) {
    Ctx = std::make_unique<obs::RequestContext>(
        NextRequestId.fetch_add(1, std::memory_order_relaxed), Peer,
        Request.getString("op", "analyze"));
    Ctx->Unit = Request.getString("unit", "");
  }
  std::string Tenant = Request.getString("tenant", "");
  if (Tenant.empty())
    Tenant = Peer; // default: one quota bucket per connection

  // Admission control, cheapest check first. Rejections answer
  // immediately — backpressure instead of unbounded buffering.
  const char *Reject = nullptr;
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    if (Queue.size() >= Opts.QueueDepth) {
      Reject = "queue";
    } else if (Opts.MaxInflight &&
               Inflight.load(std::memory_order_relaxed) >=
                   Opts.MaxInflight) {
      Reject = "inflight";
    } else if (Opts.TenantQuota) {
      auto It = TenantInflight.find(Tenant);
      if (It != TenantInflight.end() && It->second >= Opts.TenantQuota)
        Reject = "tenant";
    }
    if (!Reject) {
      Inflight.fetch_add(1, std::memory_order_relaxed);
      if (Opts.TenantQuota)
        ++TenantInflight[Tenant];
      Job J;
      J.Request = std::move(Request);
      J.DeadlineNs = DeadlineNs;
      J.Tenant = std::move(Tenant);
      if (Ctx)
        Ctx->begin(obs::ReqPhase::Queue);
      J.Ctx = std::move(Ctx);
      J.Reply = To;
      Queue.push_back(std::move(J));
    }
  }
  if (!Reject) {
    QueueCv.notify_one();
    return;
  }

  obs::metrics().counter("service.overloaded").inc();
  if (std::strcmp(Reject, "tenant") == 0)
    obs::metrics().counter("service.overloaded.tenant").inc();
  unsigned Retry = retryAfterMsEstimate();
  if constexpr (obs::kEnabled) {
    if (Ctx) {
      // The rejection is the whole life of this request: its queue wait
      // is the read-to-rejection interval, which the flight record and
      // the dump below surface.
      uint64_t Now = obs::nowNs();
      Ctx->setSpan(obs::ReqPhase::Queue, Ctx->startNs(),
                   std::max<uint64_t>(1, Now - Ctx->startNs()));
      Ctx->Outcome = "overloaded";
      obs::log()
          .event(obs::LogLevel::Warn, "service.overloaded")
          .num("req", Ctx->id())
          .str("unit", Ctx->Unit)
          .str("peer", Ctx->Peer)
          .str("reason", Reject)
          .num("queue_depth", Opts.QueueDepth)
          .num("retry_after_ms", Retry)
          .num("queue_wait_ns", Ctx->phaseNs(obs::ReqPhase::Queue));
      finishRequest(*Ctx);
      Flight.dump(obs::log(), "overload");
      Ctx.reset(); // finalized here; the reply carries no context
    }
  }
  Json R = errorResponse("overloaded");
  R.set("retryAfterMs", Json::integer(static_cast<int64_t>(Retry)));
  R.set("reason", Json::string(Reject));
  reply(To, R, nullptr);
}

void Server::workerLoop() {
  while (true) {
    Job J;
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [this] { return StopWorkers || !Queue.empty(); });
      if (Queue.empty())
        return; // StopWorkers and drained
      J = std::move(Queue.front());
      Queue.pop_front();
    }
    if (J.Ctx)
      J.Ctx->end(obs::ReqPhase::Queue);

    Json Response;
    bool Shed = J.DeadlineNs && obs::nowNs() > J.DeadlineNs;
    if (Shed) {
      // Deadline already blown while queued: shed before burning a
      // worker on an answer the client has given up on.
      obs::metrics().counter("service.shed").inc();
      unsigned Retry = retryAfterMsEstimate();
      Response = errorResponse("timeout");
      Response.set("timedOut", Json::boolean(true));
      Response.set("shed", Json::boolean(true));
      Response.set("retryAfterMs",
                   Json::integer(static_cast<int64_t>(Retry)));
      if constexpr (obs::kEnabled) {
        if (J.Ctx) {
          J.Ctx->Outcome = "shed";
          obs::log()
              .event(obs::LogLevel::Warn, "service.shed")
              .num("req", J.Ctx->id())
              .str("unit", J.Ctx->Unit)
              .str("peer", J.Ctx->Peer)
              .num("queue_ns", J.Ctx->phaseNs(obs::ReqPhase::Queue))
              .num("retry_after_ms", Retry);
        }
      }
    } else {
      uint64_t T0 = obs::nowNs();
      Response = handleAnalyze(J.Request, J.DeadlineNs, J.Ctx.get());
      uint64_t Dur = obs::nowNs() - T0;
      obs::metrics().histogram("service.analyze_ns").record(Dur);
      obs::tracer().span(obs::EventKind::PassSpan, T0, Dur,
                         obs::tracer().internName("service.analyze"));
      uint64_t Prev = EwmaAnalyzeNs.load(std::memory_order_relaxed);
      EwmaAnalyzeNs.store(Prev ? (Prev * 7 + Dur) / 8 : Dur,
                          std::memory_order_relaxed);
    }

    {
      std::lock_guard<std::mutex> Lock(QueueMu);
      Inflight.fetch_sub(1, std::memory_order_relaxed);
      if (Opts.TenantQuota) {
        auto It = TenantInflight.find(J.Tenant);
        if (It != TenantInflight.end() && --It->second == 0)
          TenantInflight.erase(It);
      }
    }
    reply(J.Reply, Response, std::move(J.Ctx));
  }
}

Json Server::handleAnalyze(const Json &Request, uint64_t DeadlineNs,
                           obs::RequestContext *Ctx) {
  auto Fail = [&](const std::string &Msg) {
    if (Ctx)
      Ctx->Outcome = "error";
    return errorResponse(Msg);
  };
  std::string Unit = Request.getString("unit", "");
  if (Unit.empty())
    return Fail("analyze: missing \"unit\"");
  const Json *Source = Request.get("source");
  if (!Source || Source->kind() != Json::Kind::String)
    return Fail("analyze: missing \"source\"");

  AnalyzeParams Params;
  Params.K = static_cast<unsigned>(Request.getUint("k", Opts.DefaultK));
  Params.Jobs =
      static_cast<unsigned>(Request.getUint("jobs", Opts.DefaultJobs));
  Params.Force = Request.getBool("force", false);
  Params.Run = Request.getBool("run", false);
  Params.Check = Request.getString("op", "") == "check" ||
                 Request.getBool("check", false);
  Params.ElideNeverParallel = Request.getBool("elideNeverParallel", false);
  Params.InjectYields = Request.getBool("injectYields", false);
  Params.YieldSeed = Request.getUint("yieldSeed", 1);
  Params.DeadlineNs = DeadlineNs;
  Params.Telemetry = Ctx;
  std::string ModeText = Request.getString("mode", "inferred");
  if (!parseAtomicMode(ModeText, Params.RunMode))
    return Fail("analyze: bad mode \"" + ModeText + "\"");

  AnalyzeOutcome Out = Analyzer.analyze(Unit, Source->asString(), Params);
  if (Ctx) {
    Ctx->CacheHits = Out.CacheHits;
    Ctx->CacheMisses = Out.CacheMisses;
    Ctx->DirtyCone = static_cast<uint32_t>(Out.DirtyConeSections.size());
    Ctx->Sections = Out.Sections;
  }

  Json R = Json::object();
  R.set("ok", Json::boolean(Out.Ok));
  if (Out.TimedOut) {
    obs::metrics().counter("service.timeouts").inc();
    if constexpr (obs::kEnabled) {
      if (Ctx) {
        Ctx->Outcome = "timeout";
        obs::log()
            .event(obs::LogLevel::Warn, "service.timeout")
            .num("req", Ctx->id())
            .str("unit", Ctx->Unit)
            .str("peer", Ctx->Peer)
            .num("timeout_ms", Opts.RequestTimeoutMs)
            .num("queue_ns", Ctx->phaseNs(obs::ReqPhase::Queue));
      }
    }
    R.set("error", Json::string("timeout"));
    R.set("timedOut", Json::boolean(true));
    return R;
  }
  if (!Out.Ok) {
    if (Ctx)
      Ctx->Outcome = "error";
    R.set("error", Json::string(Out.Error));
    return R;
  }
  R.set("report", Json::string(std::move(Out.Report)));
  R.set("sections", Json::integer(Out.Sections));
  R.set("cacheHits", Json::integer(Out.CacheHits));
  R.set("cacheMisses", Json::integer(Out.CacheMisses));
  Json &Reanalyzed = R.set("reanalyzed", Json::array());
  for (uint32_t Id : Out.Reanalyzed)
    Reanalyzed.push(Json::integer(Id));
  R.set("hadSnapshot", Json::boolean(Out.HadSnapshot));
  if (Out.HadSnapshot) {
    R.set("dirtyFunctions", Json::integer(Out.DirtyFunctions));
    R.set("dirtySccs", Json::integer(Out.DirtySccs));
    Json &Cone = R.set("dirtyConeSections", Json::array());
    for (uint32_t Id : Out.DirtyConeSections)
      Cone.push(Json::integer(Id));
  }
  if (Out.Checked || Out.CheckCacheHit) {
    // The report is embedded as a JSON object (not a string) so clients
    // consume it structurally.
    R.set("check", std::move(Out.CheckJson));
    R.set("checkCached", Json::boolean(Out.CheckCacheHit));
    obs::metrics().counter("check.reports").add(Out.Checked ? 1 : 0);
    obs::metrics().counter("check.mhp_pairs").add(Out.CheckMhpPairs);
    obs::metrics().counter("check.elided_sections").add(Out.CheckElided);
  }
  if (Out.RanProgram) {
    R.set("runOk", Json::boolean(Out.RunOk));
    if (!Out.RunOk)
      R.set("runError", Json::string(Out.RunError));
    R.set("mainResult", Json::integer(Out.MainResult));
    R.set("totalSteps", Json::integer(static_cast<int64_t>(Out.TotalSteps)));
  }
  if (Out.FromSnapshot)
    obs::metrics().counter("service.resubmits_served").inc();
  obs::metrics().counter("service.sections_served").add(Out.Sections);
  obs::metrics().counter("service.sections_reanalyzed")
      .add(Out.Reanalyzed.size());
  return R;
}

Json Server::handleStats() {
  SummaryCache::Stats S = Cache.stats();
  return Json::object(
      {{"ok", Json::boolean(true)},
       {"cache", Json::object({{"hits", Json::uinteger(S.Hits)},
                               {"misses", Json::uinteger(S.Misses)},
                               {"insertions", Json::uinteger(S.Insertions)},
                               {"evictions", Json::uinteger(S.Evictions)},
                               {"invalidations",
                                Json::uinteger(S.Invalidations)},
                               {"entries", Json::uinteger(S.Entries)},
                               {"capacity", Json::uinteger(S.Capacity)},
                               {"shards", Json::uinteger(Cache.numShards())}})},
       {"units", Json::uinteger(Analyzer.numUnits())},
       {"resubmitsServed", Json::uinteger(Analyzer.resubmitsServed())},
       {"requestsServed", Json::uinteger(requestsServed())},
       {"workers", Json::integer(Opts.Workers)},
       {"queueDepth", Json::integer(Opts.QueueDepth)},
       {"eventLoops", Json::uinteger(Loops.size())},
       {"maxInflight", Json::integer(Opts.MaxInflight)},
       {"tenantQuota", Json::integer(Opts.TenantQuota)},
       {"inflight", Json::integer(Inflight.load(std::memory_order_relaxed))},
       {"uptimeMs", Json::uinteger((obs::nowNs() - StartNs) / 1'000'000ull)}});
}

Json Server::handleInvalidate(const Json &Request) {
  obs::metrics().counter("service.invalidations").inc();
  std::string Unit = Request.getString("unit", "");
  if (Unit.empty()) {
    Analyzer.invalidateAll();
    return Json::object(
        {{"ok", Json::boolean(true)}, {"scope", Json::string("all")}});
  }
  bool Known = Analyzer.invalidateUnit(Unit);
  return Json::object({{"ok", Json::boolean(true)},
                       {"scope", Json::string("unit")},
                       {"known", Json::boolean(Known)}});
}

void Server::finalizeRequest(std::unique_ptr<obs::RequestContext> Ctx,
                             bool Aborted) {
  if (!Ctx)
    return;
  if constexpr (!obs::kEnabled)
    return;
  if (Aborted) {
    // The peer vanished before its response flushed; the analysis result
    // is discarded but the request's telemetry still lands, marked so.
    Ctx->Outcome = "aborted";
    obs::metrics().counter("service.requests_aborted").inc();
    obs::log()
        .event(obs::LogLevel::Warn, "service.request_aborted")
        .num("req", Ctx->id())
        .str("unit", Ctx->Unit)
        .str("peer", Ctx->Peer)
        .str("op", Ctx->Op);
  }
  finishRequest(*Ctx);
  if (Ctx->Outcome == "timeout" || Ctx->Outcome == "shed")
    Flight.dump(obs::log(), "timeout");
  else if (Aborted)
    Flight.dump(obs::log(), "abort");
}

void Server::finishRequest(obs::RequestContext &Ctx) {
  if constexpr (!obs::kEnabled)
    return;
  uint64_t Total = obs::nowNs() - Ctx.startNs();
  obs::MetricsRegistry &M = obs::metrics();
  using obs::ReqPhase;
  if (Ctx.span(ReqPhase::Queue).StartNs)
    M.histogram("service.queue_ns").record(Ctx.phaseNs(ReqPhase::Queue));
  M.histogram("service.total_ns").record(Total);
  static const struct {
    ReqPhase P;
    const char *Metric;
  } PhaseMetrics[] = {
      {ReqPhase::Parse, "service.phase.parse_ns"},
      {ReqPhase::Fingerprint, "service.phase.fingerprint_ns"},
      {ReqPhase::Analyze, "service.phase.analyze_ns"},
      {ReqPhase::Render, "service.phase.render_ns"},
  };
  for (const auto &PM : PhaseMetrics)
    if (Ctx.span(PM.P).StartNs)
      M.histogram(PM.Metric).record(Ctx.phaseNs(PM.P));

  // Per-request track in the Chrome trace: one row per request id on
  // pid 3, one span per phase that ran.
  obs::Tracer &T = obs::tracer();
  if (T.enabled()) {
    for (unsigned I = 0; I < obs::kNumReqPhases; ++I) {
      const obs::PhaseSpan &S = Ctx.span(static_cast<ReqPhase>(I));
      if (S.StartNs)
        T.span(obs::EventKind::RequestPhaseSpan, S.StartNs, S.DurNs,
               Ctx.id(), static_cast<uint32_t>(Ctx.id()),
               static_cast<uint8_t>(I));
    }
  }

  Flight.record(Ctx, Total);

  obs::Logger &L = obs::log();
  if (L.enabled(obs::LogLevel::Debug))
    L.event(obs::LogLevel::Debug, "service.request")
        .num("req", Ctx.id())
        .str("op", Ctx.Op)
        .str("unit", Ctx.Unit)
        .str("peer", Ctx.Peer)
        .str("outcome", Ctx.Outcome)
        .num("total_ns", Total)
        .num("queue_ns", Ctx.phaseNs(ReqPhase::Queue))
        .num("parse_ns", Ctx.phaseNs(ReqPhase::Parse))
        .num("fingerprint_ns", Ctx.phaseNs(ReqPhase::Fingerprint))
        .num("analyze_ns", Ctx.phaseNs(ReqPhase::Analyze))
        .num("render_ns", Ctx.phaseNs(ReqPhase::Render))
        .num("cache_hits", Ctx.CacheHits)
        .num("cache_misses", Ctx.CacheMisses)
        .num("dirty_cone", Ctx.DirtyCone)
        .num("sections", Ctx.Sections);
}

Json Server::handleMetrics() {
  Json R = Json::object();
  R.set("ok", Json::boolean(true));
  std::ostringstream Prom;
  obs::metrics().writePrometheus(Prom);
  R.set("prometheus", Json::string(Prom.str()));
  appendMembers(R, obs::metrics().toJson());
  R.set("telemetry", Json::boolean(telemetryOn()));
  return R;
}

Json Server::handleFlightRecord() {
  Json R = Json::object();
  R.set("ok", Json::boolean(true));
  R.set("telemetry", Json::boolean(telemetryOn()));
  appendMembers(R, Flight.toJson());
  return R;
}
