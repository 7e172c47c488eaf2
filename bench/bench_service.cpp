//===--- bench_service.cpp - Daemon cold/warm load benchmark -------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Closed-loop load generator for the analysis daemon. Boots an
/// in-process Server on a unix socket, drives it with concurrent client
/// threads (one outstanding request per client), and measures the
/// `analyze` latency distribution in three phases:
///
///   cold  — every request carries force=true, so the full inference
///           runs each time (the exact code path of a cache miss);
///   warm  — normal requests against the primed cache: every section is
///           served from its content-hashed summary;
///   edit  — one request whose source flips a constant in one worker,
///           re-analyzing only the dirty SCC cone.
///
/// The workload is built to be inference-dominated (many sections whose
/// bodies loop over shared pointer chains and a mutually recursive
/// helper pair), because that is the regime the cache targets: the
/// irreducible warm cost is the front half (parse → points-to) plus
/// fingerprinting.
///
/// On top of the closed-loop phases, an **open-loop sweep** drives the
/// epoll service tier the way real load arrives: requests are fired on a
/// fixed schedule (offered rate), pipelined over a pool of connections
/// WITHOUT waiting for responses, and each latency is measured from the
/// request's *scheduled* arrival time — so queueing delay is charged to
/// the server, not silently absorbed by a blocked client (no coordinated
/// omission). The sweep first calibrates the warm closed-loop saturation
/// throughput, then offers fractions of it (0.25x .. 2x). The 2x leg is
/// the graceful-degradation probe: the daemon must shed (answer
/// "overloaded" / deadline-shed) rather than let accepted latency run
/// away — CI gates on shed>0 and bounded accepted p99 there.
///
/// Emits BENCH_service.json (schema 3) with p50/p95/p99/mean latency,
/// throughput, the cold/warm speedup, whether warm output stayed
/// byte-identical to cold — the acceptance gate is identical=true (the
/// speedup is recorded; it sits around 3-4x now that interning made
/// cold inference cheaper) — the open-loop latency-vs-offered-load
/// curve with per-rate shed counts and the speedup of the saturation
/// rate over the thread-per-connection-era 9 rps baseline, plus the
/// request-telemetry view: a per-phase (queue/parse/fingerprint/
/// analyze/render) latency breakdown scraped from the daemon's own
/// `metrics` op, and the telemetry overhead measured by running the
/// warm leg against two daemons in alternating batches, one with
/// ServerOptions::Telemetry off and one with it on (budget: <= 5%;
/// recorded, not gated).
///
/// Usage: bench_service [--quick] [--out PATH]
///
//===----------------------------------------------------------------------===//

#include "obs/Log.h"
#include "service/Client.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/Server.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lockin;
using namespace lockin::service;

namespace {

/// Inference-heavy synthetic program: \p Workers worker functions of
/// \p SectionsPer atomic sections each; every section loops \p Depth
/// times over \p Chains shared list heads, calling an iterative walker
/// and a mutually recursive helper pair. \p Salt lands in one worker's
/// body so edits dirty exactly that function.
std::string generate(unsigned Workers, unsigned SectionsPer, unsigned Chains,
                     unsigned Depth, int Salt) {
  std::string S = "struct node { node* next; int val; int aux; };\n";
  for (unsigned C = 0; C < Chains; ++C)
    S += "node* head" + std::to_string(C) + ";\n";
  S += "int gsum;\n"
       "int walk(node* p, int n) {\n"
       "  int s = 0;\n"
       "  while (p != null) { s = s + p->val; p->aux = s; p = p->next; }\n"
       "  return s + n;\n"
       "}\n"
       "int recB(node* p, int n) { if (n <= 0) { return 0; } "
       "if (p == null) { return n; } p->val = n; "
       "return recA(p->next, n - 1); }\n"
       "int recA(node* p, int n) { if (n <= 0) { return 0; } "
       "if (p == null) { return n; } gsum = gsum + p->val; "
       "return recB(p->next, n - 1); }\n";
  for (unsigned W = 0; W < Workers; ++W) {
    S += "void worker" + std::to_string(W) + "() {\n";
    for (unsigned M = 0; M < SectionsPer; ++M) {
      // Nested loops force extra abstract-interpretation fixpoint rounds
      // per section at constant statement count: the inference cost per
      // section rises while the front half (parse → points-to), which
      // scales with source bytes, stays put — this is what makes the
      // workload inference-dominated.
      S += "  atomic {\n    int t = " +
           std::to_string(W == 0 && M == 0 ? Salt : 0) +
           ";\n    int i = 0;\n    while (i < " + std::to_string(Depth) +
           ") {\n      int j = 0;\n      while (j < " +
           std::to_string(Depth) + ") {\n        int q = 0;\n"
           "        while (q < " + std::to_string(Depth) + ") {\n"
           "          int r = 0;\n          while (r < " +
           std::to_string(Depth) + ") {\n";
      for (unsigned C = 0; C < Chains; ++C) {
        std::string H = "head" + std::to_string((C + W + M) % Chains);
        S += "            t = t + walk(" + H + ", r);\n";
        S += "            t = t + recA(" + H + ", 3);\n";
        S += "            if (" + H + " != null) { " + H + "->val = t; " + H +
             "->next->aux = t; }\n";
      }
      S += "            r = r + 1;\n          }\n          q = q + 1;\n"
           "        }\n        j = j + 1;\n      }\n"
           "      i = i + 1;\n    }\n    gsum = gsum + t;\n  }\n";
    }
    S += "}\n";
  }
  S += "int main() {\n";
  for (unsigned C = 0; C < Chains; ++C) {
    std::string H = "head" + std::to_string(C);
    S += "  " + H + " = new node;\n  " + H + "->next = new node;\n";
  }
  for (unsigned W = 0; W < Workers; ++W)
    S += "  spawn worker" + std::to_string(W) + "();\n";
  S += "  return 0;\n}\n";
  return S;
}

struct PhaseStats {
  std::vector<double> LatenciesMs;
  double WallSeconds = 0;
  unsigned Errors = 0;
  std::string Report; // one representative report for identity checks

  double quantile(double Q) const {
    if (LatenciesMs.empty())
      return 0;
    std::vector<double> Sorted = LatenciesMs;
    std::sort(Sorted.begin(), Sorted.end());
    size_t Idx = static_cast<size_t>(Q * (Sorted.size() - 1) + 0.5);
    return Sorted[Idx];
  }
  double mean() const {
    if (LatenciesMs.empty())
      return 0;
    double Sum = 0;
    for (double L : LatenciesMs)
      Sum += L;
    return Sum / LatenciesMs.size();
  }
  double throughput() const {
    return WallSeconds > 0 ? LatenciesMs.size() / WallSeconds : 0;
  }
};

/// Closed loop: \p Clients threads, each sending \p PerClient analyze
/// requests for \p Source (same unit — that is the daemon's real usage
/// pattern) and recording each round-trip latency.
PhaseStats runPhase(const std::string &SocketPath, const std::string &Source,
                    unsigned Clients, unsigned PerClient, bool Force) {
  PhaseStats Stats;
  std::mutex Mu;
  auto Wall0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < Clients; ++T) {
    Threads.emplace_back([&] {
      Client Conn;
      std::string Err;
      if (!Conn.connectUnix(SocketPath, Err)) {
        std::lock_guard<std::mutex> Lock(Mu);
        ++Stats.Errors;
        return;
      }
      for (unsigned I = 0; I < PerClient; ++I) {
        Json Request = Json::object({{"op", Json::string("analyze")},
                                     {"unit", Json::string("bench.atom")},
                                     {"source", Json::string(Source)},
                                     {"jobs", Json::integer(1)}});
        if (Force)
          Request.set("force", Json::boolean(true));
        Json Response;
        auto T0 = std::chrono::steady_clock::now();
        bool CallOk = Conn.call(Request, Response, Err);
        double Ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - T0)
                        .count();
        std::lock_guard<std::mutex> Lock(Mu);
        if (!CallOk || !Response.getBool("ok", false)) {
          ++Stats.Errors;
          continue;
        }
        Stats.LatenciesMs.push_back(Ms);
        if (Stats.Report.empty())
          Stats.Report = Response.getString("report", "");
      }
    });
  }
  for (std::thread &T : Threads)
    T.join();
  Stats.WallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - Wall0)
                          .count();
  return Stats;
}

Json phaseJson(const PhaseStats &Stats) {
  return Json::object(
      {{"requests", Json::uinteger(Stats.LatenciesMs.size())},
       {"errors", Json::integer(Stats.Errors)},
       {"p50_ms", Json::number(Stats.quantile(0.5))},
       {"p95_ms", Json::number(Stats.quantile(0.95))},
       {"p99_ms", Json::number(Stats.quantile(0.99))},
       {"mean_ms", Json::number(Stats.mean())},
       {"throughput_rps", Json::number(Stats.throughput())}});
}

/// Scrapes the daemon's `metrics` op and lifts the request-phase
/// histograms (service.queue_ns, service.phase.*_ns, service.total_ns)
/// into {phase: {count, p50_ms, p95_ms, p99_ms}}.
Json scrapePhaseBreakdown(const std::string &SocketPath) {
  Json Out = Json::object();
  Client Conn;
  std::string Err;
  Json Response;
  if (!Conn.connectUnix(SocketPath, Err) ||
      !Conn.call(Json::object({{"op", Json::string("metrics")}}), Response,
                 Err) ||
      !Response.getBool("ok", false)) {
    std::fprintf(stderr, "bench_service: metrics scrape: %s\n", Err.c_str());
    return Out;
  }
  const Json *Hists = Response.get("histograms");
  if (!Hists)
    return Out;
  const std::pair<const char *, const char *> Phases[] = {
      {"queue", "service.queue_ns"},
      {"parse", "service.phase.parse_ns"},
      {"fingerprint", "service.phase.fingerprint_ns"},
      {"analyze", "service.phase.analyze_ns"},
      {"render", "service.phase.render_ns"},
      {"total", "service.total_ns"},
  };
  for (const auto &[Label, Metric] : Phases) {
    const Json *H = Hists->get(Metric);
    if (!H)
      continue;
    Out.set(Label,
            Json::object({{"count", Json::uinteger(H->getUint("count", 0))},
                          {"p50_ms", Json::number(H->getUint("p50", 0) / 1e6)},
                          {"p95_ms", Json::number(H->getUint("p95", 0) / 1e6)},
                          {"p99_ms",
                           Json::number(H->getUint("p99", 0) / 1e6)}}));
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Open-loop load generator
//===----------------------------------------------------------------------===//

/// One connection of the open-loop pool: a writer fires frames at their
/// scheduled times without waiting for responses (the responses come
/// back in order on the same socket), a reader matches them up and
/// charges each response against its request's *scheduled* time.
struct OpenLoopConn {
  int Fd = -1;
  std::vector<std::chrono::steady_clock::time_point> Schedule;
  std::vector<double> AcceptedMs; ///< latency of ok responses
  unsigned Ok = 0, Overloaded = 0, Shed = 0, Errors = 0;

  bool connect(const std::string &Path) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return false;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
    return ::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                     sizeof(Addr)) == 0;
  }
  ~OpenLoopConn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  void writerLoop(const std::string &Wire) {
    for (const auto &At : Schedule) {
      std::this_thread::sleep_until(At); // past-due = fire immediately
      size_t Off = 0;
      while (Off < Wire.size()) {
        ssize_t W =
            ::send(Fd, Wire.data() + Off, Wire.size() - Off, MSG_NOSIGNAL);
        if (W < 0) {
          if (errno == EINTR)
            continue;
          return;
        }
        Off += static_cast<size_t>(W);
      }
    }
  }

  void readerLoop() {
    for (const auto &At : Schedule) {
      Json Resp;
      std::string Err;
      if (readJson(Fd, Resp, Err) != 1) {
        ++Errors;
        return; // transport broke; remaining responses are lost
      }
      double Ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - At)
                      .count();
      if (Resp.getBool("ok", false)) {
        ++Ok;
        AcceptedMs.push_back(Ms);
      } else if (Resp.getString("error", "") == "overloaded") {
        ++Overloaded;
      } else if (Resp.getBool("shed", false) ||
                 Resp.getBool("timedOut", false)) {
        ++Shed;
      } else {
        ++Errors;
      }
    }
  }
};

struct OpenLoopResult {
  double OfferedRps = 0, Fraction = 0, WallSeconds = 0;
  unsigned Sent = 0, Ok = 0, Overloaded = 0, Shed = 0, Errors = 0;
  std::vector<double> AcceptedMs;

  double quantile(double Q) const {
    if (AcceptedMs.empty())
      return 0;
    std::vector<double> Sorted = AcceptedMs;
    std::sort(Sorted.begin(), Sorted.end());
    size_t Idx = static_cast<size_t>(Q * (Sorted.size() - 1) + 0.5);
    return Sorted[Idx];
  }
  double mean() const {
    double Sum = 0;
    for (double L : AcceptedMs)
      Sum += L;
    return AcceptedMs.empty() ? 0 : Sum / AcceptedMs.size();
  }
};

/// Offers \p Rps requests/second for \p Seconds (request i scheduled at
/// i/Rps, round-robin over \p NumConns pipelined connections).
OpenLoopResult runOpenLoop(const std::string &SocketPath,
                           const std::string &RequestWire, double Rps,
                           double Seconds, unsigned NumConns) {
  OpenLoopResult R;
  R.OfferedRps = Rps;
  unsigned Total = std::max(1u, static_cast<unsigned>(Rps * Seconds));
  std::vector<std::unique_ptr<OpenLoopConn>> Conns;
  for (unsigned C = 0; C < NumConns; ++C) {
    auto Conn = std::make_unique<OpenLoopConn>();
    if (!Conn->connect(SocketPath)) {
      std::fprintf(stderr, "bench_service: open-loop connect failed\n");
      return R;
    }
    Conns.push_back(std::move(Conn));
  }
  // Start 20ms out so every writer thread is up before the first slot.
  auto T0 = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
  for (unsigned I = 0; I < Total; ++I)
    Conns[I % NumConns]->Schedule.push_back(
        T0 + std::chrono::nanoseconds(
                 static_cast<int64_t>(I * 1e9 / Rps)));

  std::vector<std::thread> Threads;
  for (auto &Conn : Conns) {
    Threads.emplace_back([&Conn, &RequestWire] {
      Conn->writerLoop(RequestWire);
    });
    Threads.emplace_back([&Conn] { Conn->readerLoop(); });
  }
  for (std::thread &T : Threads)
    T.join();
  R.WallSeconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();
  R.Sent = Total;
  for (auto &Conn : Conns) {
    R.Ok += Conn->Ok;
    R.Overloaded += Conn->Overloaded;
    R.Shed += Conn->Shed;
    R.Errors += Conn->Errors;
    R.AcceptedMs.insert(R.AcceptedMs.end(), Conn->AcceptedMs.begin(),
                        Conn->AcceptedMs.end());
  }
  return R;
}

Json openLoopRateJson(const OpenLoopResult &R) {
  return Json::object(
      {{"offered_rps", Json::number(R.OfferedRps)},
       {"fraction_of_saturation", Json::number(R.Fraction)},
       {"sent", Json::integer(R.Sent)},
       {"ok", Json::integer(R.Ok)},
       {"overloaded", Json::integer(R.Overloaded)},
       {"shed", Json::integer(R.Shed)},
       {"errors", Json::integer(R.Errors)},
       {"achieved_rps",
        Json::number(R.WallSeconds > 0 ? R.Ok / R.WallSeconds : 0)},
       {"accepted_p50_ms", Json::number(R.quantile(0.5))},
       {"accepted_p95_ms", Json::number(R.quantile(0.95))},
       {"accepted_p99_ms", Json::number(R.quantile(0.99))},
       {"accepted_mean_ms", Json::number(R.mean())}});
}

} // namespace

int main(int Argc, char **Argv) {
  // Policy decisions are logged at info; keep them off the bench output.
  obs::log().setLevel(obs::LogLevel::Warn);
  bool Quick = false;
  std::string OutPath = "BENCH_service.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0) {
      Quick = true;
    } else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc) {
      OutPath = Argv[++I];
    } else {
      std::fprintf(stderr, "usage: bench_service [--quick] [--out PATH]\n");
      return 2;
    }
  }

  const unsigned Workers = Quick ? 8 : 24;
  const unsigned SectionsPer = Quick ? 8 : 12;
  const unsigned Chains = Quick ? 6 : 10;
  const unsigned Depth = 8;
  // The cold/warm latency phases run a single client so latency is pure
  // service time (no queue wait, no cross-request cache/allocator
  // contention); a separate concurrent phase measures throughput.
  const unsigned Clients = 2;
  const unsigned ColdRequests = Quick ? 4 : 8;
  const unsigned WarmRequests = Quick ? 20 : 40;
  std::string Source = generate(Workers, SectionsPer, Chains, Depth, 0);
  std::string Edited = generate(Workers, SectionsPer, Chains, Depth, 1);

  ServerOptions Opts;
  Opts.UnixSocketPath =
      "/tmp/lockin_bench_" + std::to_string(::getpid()) + ".sock";
  Opts.Workers = 2;
  Opts.QueueDepth = Clients * 2;
  std::string Err;

  std::printf("bench_service: %u workers x %u sections, %u chains, "
              "depth %u (%zu source bytes)\n",
              Workers, SectionsPer, Chains, Depth, Source.size());

  // Two daemons, one process: the measured daemon (telemetry on, the
  // default) and a baseline with request telemetry off (no contexts, no
  // phase spans, no flight records). The warm legs run as alternating
  // batches against both so allocator warm-up and machine noise hit
  // them evenly — a sequential A-then-B comparison systematically
  // flatters whichever leg runs second.
  ServerOptions OffOpts = Opts;
  OffOpts.UnixSocketPath += ".off";
  OffOpts.Telemetry = false;
  Server OffDaemon(OffOpts);
  if (!OffDaemon.start(Err)) {
    std::fprintf(stderr, "bench_service: %s\n", Err.c_str());
    return 1;
  }
  std::thread OffRunner([&OffDaemon] { OffDaemon.run(); });

  Server Daemon(Opts);
  if (!Daemon.start(Err)) {
    std::fprintf(stderr, "bench_service: %s\n", Err.c_str());
    return 1;
  }
  std::thread Runner([&Daemon] { Daemon.run(); });

  // Cold: forced full inference on every request.
  PhaseStats Cold = runPhase(Opts.UnixSocketPath, Source, /*Clients=*/1,
                             ColdRequests, /*Force=*/true);
  std::printf("cold: %zu requests, p50 %.1f ms, p99 %.1f ms, %.1f req/s\n",
              Cold.LatenciesMs.size(), Cold.quantile(0.5),
              Cold.quantile(0.99), Cold.throughput());
  // Prime the baseline daemon with the same forced-cold sequence so
  // both caches (and both daemons' first-touch costs) are paid before
  // the measured warm legs.
  runPhase(OffOpts.UnixSocketPath, Source, /*Clients=*/1, ColdRequests,
           /*Force=*/true);

  // Warm: the cold phases primed every section summary. Alternate
  // batches between the two daemons, flipping the order each rep.
  PhaseStats Warm, WarmOff;
  const unsigned WarmReps = 5;
  const unsigned WarmBatch = std::max(1u, WarmRequests / WarmReps);
  auto Merge = [](PhaseStats &Into, const PhaseStats &From) {
    Into.LatenciesMs.insert(Into.LatenciesMs.end(),
                            From.LatenciesMs.begin(),
                            From.LatenciesMs.end());
    Into.WallSeconds += From.WallSeconds;
    Into.Errors += From.Errors;
    if (Into.Report.empty())
      Into.Report = From.Report;
  };
  for (unsigned Rep = 0; Rep < WarmReps; ++Rep) {
    auto OnBatch = [&] {
      Merge(Warm, runPhase(Opts.UnixSocketPath, Source, /*Clients=*/1,
                           WarmBatch, /*Force=*/false));
    };
    auto OffBatch = [&] {
      Merge(WarmOff, runPhase(OffOpts.UnixSocketPath, Source,
                              /*Clients=*/1, WarmBatch, /*Force=*/false));
    };
    if (Rep % 2) {
      OnBatch();
      OffBatch();
    } else {
      OffBatch();
      OnBatch();
    }
  }
  OffDaemon.requestShutdown();
  OffRunner.join();
  std::printf("warm: %zu requests, p50 %.1f ms, p99 %.1f ms, %.1f req/s\n",
              Warm.LatenciesMs.size(), Warm.quantile(0.5),
              Warm.quantile(0.99), Warm.throughput());
  std::printf("warm (telemetry off): %zu requests, p50 %.1f ms, "
              "mean %.2f ms\n",
              WarmOff.LatenciesMs.size(), WarmOff.quantile(0.5),
              WarmOff.mean());

  // Concurrent warm: closed loop with as many clients as daemon workers.
  PhaseStats WarmConc = runPhase(Opts.UnixSocketPath, Source, Clients,
                                 WarmRequests / Clients, /*Force=*/false);
  std::printf("warm x%u clients: %zu requests, p50 %.1f ms, %.1f req/s\n",
              Clients, WarmConc.LatenciesMs.size(), WarmConc.quantile(0.5),
              WarmConc.throughput());

  // Edit: one constant flipped in worker0 — only its SCC cone re-runs.
  Json EditResponse;
  double EditMs = 0;
  {
    Client Conn;
    if (!Conn.connectUnix(Opts.UnixSocketPath, Err)) {
      std::fprintf(stderr, "bench_service: %s\n", Err.c_str());
      return 1;
    }
    auto T0 = std::chrono::steady_clock::now();
    if (!Conn.analyze("bench.atom", Edited, EditResponse, Err)) {
      std::fprintf(stderr, "bench_service: edit analyze: %s\n", Err.c_str());
      return 1;
    }
    EditMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - T0)
                 .count();
  }
  std::printf("edit: %.1f ms, %llu dirty functions, hits %llu, misses %llu\n",
              EditMs,
              static_cast<unsigned long long>(
                  EditResponse.getUint("dirtyFunctions", 0)),
              static_cast<unsigned long long>(
                  EditResponse.getUint("cacheHits", 0)),
              static_cast<unsigned long long>(
                  EditResponse.getUint("cacheMisses", 0)));

  // Per-phase breakdown from the daemon's own live telemetry, scraped
  // before the drain (the exact path a dashboard would use).
  Json Phases = scrapePhaseBreakdown(Opts.UnixSocketPath);

  Daemon.requestShutdown();
  Runner.join();

  // ---- Open-loop sweep: latency vs offered load on a fresh daemon ----
  // A light unit (warm hits dominated by parse + fingerprint) so the
  // sweep probes the service tier — event loops, admission control,
  // queue — rather than raw inference cost.
  ServerOptions LoadOpts;
  LoadOpts.UnixSocketPath = Opts.UnixSocketPath + ".load";
  LoadOpts.Workers = 2;
  LoadOpts.EventLoops = 2;
  LoadOpts.QueueDepth = 64;
  LoadOpts.RequestTimeoutMs = 1000; // deep-backlog requests are shed
  Server LoadDaemon(LoadOpts);
  if (!LoadDaemon.start(Err)) {
    std::fprintf(stderr, "bench_service: %s\n", Err.c_str());
    return 1;
  }
  std::thread LoadRunner([&LoadDaemon] { LoadDaemon.run(); });

  std::string LoadSource = generate(2, 2, 2, 2, 0);
  // Calibrate: warm closed-loop saturation with a few clients (the first
  // requests prime the cache; their cold cost is amortized away by the
  // request count).
  PhaseStats Calib = runPhase(LoadOpts.UnixSocketPath, LoadSource,
                              /*Clients=*/4, Quick ? 60 : 200,
                              /*Force=*/false);
  double SatRps = Calib.throughput();
  const double BaselineRps = 9.0; // thread-per-connection-era warm rps
  std::printf("open-loop calibration: saturation %.0f req/s "
              "(%.0fx the %.0f rps thread-per-connection baseline)\n",
              SatRps, SatRps / BaselineRps, BaselineRps);

  std::string LoadWire;
  appendFrame(LoadWire,
              Json::object({{"op", Json::string("analyze")},
                            {"unit", Json::string("bench.atom")},
                            {"source", Json::string(LoadSource)},
                            {"jobs", Json::integer(1)}})
                  .str());

  const unsigned LoadConns = 8;
  std::vector<double> Fractions =
      Quick ? std::vector<double>{0.5, 1.0, 2.0}
            : std::vector<double>{0.25, 0.5, 0.75, 1.0, 1.5, 2.0};
  std::vector<OpenLoopResult> Sweep;
  for (double Frac : Fractions) {
    double Rate = std::max(1.0, SatRps * Frac);
    double Secs = std::min(Quick ? 1.0 : 2.5, 20000.0 / Rate);
    OpenLoopResult R =
        runOpenLoop(LoadOpts.UnixSocketPath, LoadWire, Rate, Secs,
                    LoadConns);
    R.Fraction = Frac;
    std::printf("open-loop %.2fx (%.0f req/s): ok %u, overloaded %u, "
                "shed %u, errors %u, accepted p50 %.1f ms p99 %.1f ms\n",
                Frac, Rate, R.Ok, R.Overloaded, R.Shed, R.Errors,
                R.quantile(0.5), R.quantile(0.99));
    Sweep.push_back(std::move(R));
  }
  LoadDaemon.requestShutdown();
  LoadRunner.join();

  bool Identical = !Cold.Report.empty() && Cold.Report == Warm.Report;
  double Speedup = Warm.mean() > 0 ? Cold.mean() / Warm.mean() : 0;
  std::printf("speedup (mean cold / mean warm): %.1fx, identical: %s\n",
              Speedup, Identical ? "true" : "false");
  double OverheadPct =
      WarmOff.mean() > 0 ? (Warm.mean() / WarmOff.mean() - 1.0) * 100.0 : 0;
  std::printf("telemetry overhead (warm mean on vs off): %+.1f%%\n",
              OverheadPct);

  Json Root = Json::object(
      {{"schema", Json::integer(3)},
       {"config",
        Json::object({{"quick", Json::boolean(Quick)},
                      {"workers", Json::integer(Workers)},
                      {"sections_per_worker", Json::integer(SectionsPer)},
                      {"chains", Json::integer(Chains)},
                      {"depth", Json::integer(Depth)},
                      {"clients", Json::integer(Clients)},
                      {"source_bytes", Json::uinteger(Source.size())},
                      {"daemon_workers", Json::integer(Opts.Workers)}})},
       {"cold", phaseJson(Cold)},
       {"warm", phaseJson(Warm)},
       {"warm_concurrent", phaseJson(WarmConc)},
       {"edit",
        Json::object(
            {{"latency_ms", Json::number(EditMs)},
             {"dirty_functions",
              Json::uinteger(EditResponse.getUint("dirtyFunctions", 0))},
             {"cache_hits",
              Json::uinteger(EditResponse.getUint("cacheHits", 0))},
             {"cache_misses",
              Json::uinteger(EditResponse.getUint("cacheMisses", 0))}})}});
  Json &OpenLoop = Root.set(
      "open_loop",
      Json::object(
          {{"saturation_rps", Json::number(SatRps)},
           {"baseline_rps", Json::number(BaselineRps)},
           {"speedup_vs_baseline",
            Json::number(BaselineRps > 0 ? SatRps / BaselineRps : 0)},
           {"connections", Json::integer(LoadConns)},
           {"daemon_event_loops", Json::integer(LoadOpts.EventLoops)},
           {"daemon_workers", Json::integer(LoadOpts.Workers)},
           {"queue_depth", Json::integer(LoadOpts.QueueDepth)}}));
  Json &Rates = OpenLoop.set("rates", Json::array());
  for (const OpenLoopResult &R : Sweep)
    Rates.push(openLoopRateJson(R));
  Root.set("phases", std::move(Phases));
  Root.set("telemetry",
           Json::object({{"warm_off_mean_ms", Json::number(WarmOff.mean())},
                         {"warm_on_mean_ms", Json::number(Warm.mean())},
                         {"overhead_pct", Json::number(OverheadPct)}}));
  Root.set("speedup", Json::number(Speedup));
  Root.set("identical", Json::boolean(Identical));

  if (!support::writeJsonFile(OutPath, Root))
    return 1;
  std::printf("wrote %s\n", OutPath.c_str());

  if (Cold.Errors || Warm.Errors || WarmConc.Errors || WarmOff.Errors ||
      !Identical) {
    std::fprintf(stderr, "bench_service: FAILED (errors or divergence)\n");
    return 1;
  }
  return 0;
}
