//===--- test_service_torture.cpp - Protocol torture + differential tests ------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adversarial tests for the daemon's async service tier:
///
///  - Protocol torture against the epoll event loops: frames delivered
///    one byte at a time, hostile oversized length prefixes (rejected
///    before any allocation, same message as the blocking path), garbage
///    and truncated JSON, pipelined interleaved requests on a single
///    connection (responses must come back in request order), and a
///    slow-loris peer that starts a frame and stalls (read deadline).
///  - Resource stability: connection churn leaks no fds and spawns no
///    threads (the whole point of the event-loop model).
///  - Recorded replay: every golden and fuzz-corpus input is replayed
///    cold then warm through the server with --event-loops 1/2/4, and
///    every response must be byte-identical to its line in
///    tests/golden/service_replay.jsonl.
///  - Fault injection: EAGAIN storms and 5-byte short writes must not
///    corrupt responses; a peer that dies mid-write must abort cleanly
///    (telemetry records the abort) without wedging the loop.
///  - Sharded summary cache: per-shard counters sum to the global stats
///    under a concurrent 8-tenant hammer (run under TSan in CI).
///
//===----------------------------------------------------------------------===//

#include "infer/SummaryCache.h"
#include "obs/Obs.h"
#include "service/Client.h"
#include "service/Incremental.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <dirent.h>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lockin;
using namespace lockin::service;

namespace {

std::string tortureSocketPath(const std::string &Tag) {
  return "/tmp/lockin_torture_" + std::to_string(::getpid()) + "_" + Tag +
         ".sock";
}

std::string smallProgram() {
  return "int counter;\n"
         "void bump() { atomic { counter = counter + 1; } }\n"
         "int main() { spawn bump(); bump(); return 0; }\n";
}

Json opRequest(const std::string &Op) {
  return Json::object({{"op", Json::string(Op)}});
}

Json analyzeRequest(const std::string &Unit, const std::string &Source) {
  return Json::object({{"op", Json::string("analyze")},
                       {"unit", Json::string(Unit)},
                       {"source", Json::string(Source)},
                       {"jobs", Json::integer(1)}});
}

struct RunningServer {
  Server S;
  std::thread Thread;
  bool Started = false;

  explicit RunningServer(ServerOptions Opts) : S(std::move(Opts)) {
    std::string Err;
    Started = S.start(Err);
    EXPECT_TRUE(Started) << Err;
    if (Started)
      Thread = std::thread([this] { S.run(); });
  }
  ~RunningServer() {
    if (Started) {
      S.requestShutdown();
      Thread.join();
    }
  }
};

/// A raw (frame-level) connection, for feeding the server byte streams a
/// well-behaved Client never produces.
struct RawConn {
  int Fd = -1;

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
  ~RawConn() {
    if (Fd >= 0)
      ::close(Fd);
  }

  bool sendAll(const void *Data, size_t N) {
    const char *P = static_cast<const char *>(Data);
    while (N) {
      ssize_t W = ::send(Fd, P, N, MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return false;
      }
      P += W;
      N -= static_cast<size_t>(W);
    }
    return true;
  }

  bool sendFrame(const std::string &Payload) {
    std::string Wire;
    appendFrame(Wire, Payload);
    return sendAll(Wire.data(), Wire.size());
  }

  /// Sends the frame one byte at a time, yielding between bytes so each
  /// lands in its own read() on the loop side.
  bool sendFrameByteByByte(const std::string &Payload) {
    std::string Wire;
    appendFrame(Wire, Payload);
    for (char C : Wire) {
      if (!sendAll(&C, 1))
        return false;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return true;
  }

  /// Reads one response frame; empty optional-style: false on EOF/error.
  bool readResponse(Json &Out, std::string &Err) {
    return readJson(Fd, Out, Err) == 1;
  }

  /// True if the server closed the connection (clean EOF next read).
  bool atEof() {
    char B;
    ssize_t N;
    do
      N = ::recv(Fd, &B, 1, 0);
    while (N < 0 && errno == EINTR);
    return N == 0;
  }

  /// True if the server dropped the connection, cleanly (FIN) or not: an
  /// abort that closes with our frame still unread makes the kernel send
  /// RST, so the client sees ECONNRESET instead of EOF.
  bool droppedByPeer() {
    char B;
    ssize_t N;
    do
      N = ::recv(Fd, &B, 1, 0);
    while (N < 0 && errno == EINTR);
    return N == 0 || (N < 0 && errno == ECONNRESET);
  }
};

int countOpenFds() {
  int N = 0;
  DIR *D = ::opendir("/proc/self/fd");
  if (!D)
    return -1;
  while (::readdir(D))
    ++N;
  ::closedir(D);
  return N - 1; // minus the dirfd itself
}

int countThreads() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("Threads:", 0) == 0)
      return std::atoi(Line.c_str() + 8);
  return -1;
}

//===----------------------------------------------------------------------===//
// Protocol torture
//===----------------------------------------------------------------------===//

TEST(ServiceTorture, OneByteAtATimeFramesAssembleCorrectly) {
  std::string Path = tortureSocketPath("bytewise");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  RawConn C;
  ASSERT_TRUE(C.connect(Path));
  // A cheap op and a full analyze, both dripped byte by byte.
  ASSERT_TRUE(C.sendFrameByteByByte("{\"op\":\"ping\"}"));
  Json Resp;
  std::string Err;
  ASSERT_TRUE(C.readResponse(Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("pong", false));

  ASSERT_TRUE(
      C.sendFrameByteByByte(analyzeRequest("drip.atom", smallProgram()).str()));
  ASSERT_TRUE(C.readResponse(Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("ok", false)) << Resp.getString("error", "");
  EXPECT_FALSE(Resp.getString("report", "").empty());
}

TEST(ServiceTorture, OversizedLengthPrefixRejectedLikeBlockingPath) {
  std::string Path = tortureSocketPath("oversized");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  RawConn C;
  ASSERT_TRUE(C.connect(Path));
  // A header promising MaxFrameBytes+1. The body is never sent; the
  // server must answer (and close) from the prefix alone — no allocation,
  // no waiting for bytes that will never come.
  uint32_t Huge = MaxFrameBytes + 1;
  unsigned char Header[4] = {
      static_cast<unsigned char>(Huge >> 24),
      static_cast<unsigned char>(Huge >> 16),
      static_cast<unsigned char>(Huge >> 8),
      static_cast<unsigned char>(Huge)};
  ASSERT_TRUE(C.sendAll(Header, sizeof(Header)));

  Json Resp;
  std::string Err;
  ASSERT_TRUE(C.readResponse(Resp, Err)) << Err;
  EXPECT_FALSE(Resp.getBool("ok", true));
  // Identical wording to the blocking readFrame path.
  EXPECT_NE(Resp.getString("error", "").find("frame too large"),
            std::string::npos)
      << Resp.getString("error", "");
  EXPECT_NE(Resp.getString("error", "").find(std::to_string(Huge)),
            std::string::npos);
  EXPECT_TRUE(C.atEof()); // framing is unrecoverable: connection dropped
}

TEST(ServiceTorture, GarbageAndTruncatedJsonGetErrorThenClose) {
  std::string Path = tortureSocketPath("garbage");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  for (const std::string &Bad :
       {std::string("not json at all {{{"), std::string("{\"op\":\"ana"),
        std::string("{\"op\":\"analyze\",}"),
        std::string("\x01\x00\x02\x03", 4)}) {
    RawConn C;
    ASSERT_TRUE(C.connect(Path));
    ASSERT_TRUE(C.sendFrame(Bad));
    Json Resp;
    std::string Err;
    ASSERT_TRUE(C.readResponse(Resp, Err)) << Err;
    EXPECT_FALSE(Resp.getBool("ok", true));
    EXPECT_FALSE(Resp.getString("error", "").empty());
    EXPECT_TRUE(C.atEof());
  }

  // The error conversations above must not have poisoned the server.
  Client Good;
  std::string Err;
  ASSERT_TRUE(Good.connectUnix(Path, Err)) << Err;
  Json Resp;
  ASSERT_TRUE(Good.call(analyzeRequest("after.atom", smallProgram()), Resp,
                        Err))
      << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
}

TEST(ServiceTorture, PipelinedRequestsAnswerInOrder) {
  std::string Path = tortureSocketPath("pipeline");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  // One worker: the two pipelined analyzes must run back to back, so the
  // second one's cache-hit assertion cannot race the first's inserts.
  Opts.Workers = 1;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  RawConn C;
  ASSERT_TRUE(C.connect(Path));
  // One burst, no reads in between: a slow analyze, a cheap inline ping,
  // another analyze, stats. The inline ops complete instantly on the loop
  // thread but must still flush AFTER the analyze before them.
  std::string Burst;
  appendFrame(Burst, analyzeRequest("p0.atom", smallProgram()).str());
  appendFrame(Burst, "{\"op\":\"ping\"}");
  appendFrame(Burst, analyzeRequest("p1.atom", smallProgram()).str());
  appendFrame(Burst, "{\"op\":\"stats\"}");
  ASSERT_TRUE(C.sendAll(Burst.data(), Burst.size()));

  Json R0, R1, R2, R3;
  std::string Err;
  ASSERT_TRUE(C.readResponse(R0, Err)) << Err;
  ASSERT_TRUE(C.readResponse(R1, Err)) << Err;
  ASSERT_TRUE(C.readResponse(R2, Err)) << Err;
  ASSERT_TRUE(C.readResponse(R3, Err)) << Err;
  EXPECT_FALSE(R0.getString("report", "").empty()); // analyze p0
  EXPECT_TRUE(R1.getBool("pong", false));           // ping
  EXPECT_FALSE(R2.getString("report", "").empty()); // analyze p1
  EXPECT_NE(R3.get("cache"), nullptr);              // stats
  // Second analyze of the identical source is a full cache hit.
  EXPECT_GT(R2.getInt("cacheHits", 0), 0);
}

TEST(ServiceTorture, SlowLorisMidFrameHitsReadDeadline) {
  std::string Path = tortureSocketPath("loris");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.ReadTimeoutMs = 60;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  // An idle connection BETWEEN frames is never timed out...
  Client Idle;
  std::string Err;
  ASSERT_TRUE(Idle.connectUnix(Path, Err)) << Err;
  Json Resp;
  ASSERT_TRUE(Idle.call(opRequest("ping"), Resp, Err)) << Err;
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  ASSERT_TRUE(Idle.call(opRequest("ping"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("pong", false));

  // ...but a peer that starts a frame and stalls is cut off with an
  // error response.
  RawConn Loris;
  ASSERT_TRUE(Loris.connect(Path));
  unsigned char TwoHeaderBytes[2] = {0, 0};
  ASSERT_TRUE(Loris.sendAll(TwoHeaderBytes, 2));
  ASSERT_TRUE(Loris.readResponse(Resp, Err)) << Err;
  EXPECT_FALSE(Resp.getBool("ok", true));
  EXPECT_EQ(Resp.getString("error", ""), "read timeout");
  EXPECT_TRUE(Loris.atEof());

  // The loop is intact for well-behaved peers.
  ASSERT_TRUE(Idle.call(opRequest("ping"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("pong", false));
}

//===----------------------------------------------------------------------===//
// Resource stability
//===----------------------------------------------------------------------===//

TEST(ServiceTorture, ConnectionChurnLeaksNoFdsAndSpawnsNoThreads) {
  std::string Path = tortureSocketPath("churn");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  // Warm up (lets lazily created fds/threads appear), then baseline.
  for (int I = 0; I < 3; ++I) {
    Client C;
    std::string Err;
    ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
    Json Resp;
    ASSERT_TRUE(C.call(analyzeRequest("warm.atom", smallProgram()), Resp,
                       Err))
        << Err;
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  int FdsBefore = countOpenFds();
  int ThreadsBefore = countThreads();
  ASSERT_GT(FdsBefore, 0);
  ASSERT_GT(ThreadsBefore, 0);

  // Churn: clean conversations, abrupt disconnects, torture frames.
  for (int I = 0; I < 25; ++I) {
    {
      Client C;
      std::string Err;
      ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
      Json Resp;
      ASSERT_TRUE(C.call(analyzeRequest("churn.atom", smallProgram()), Resp,
                         Err))
          << Err;
    }
    {
      RawConn R;
      ASSERT_TRUE(R.connect(Path));
      R.sendFrame("garbage{{{");
      // Dropped without reading the error response.
    }
    {
      RawConn R;
      ASSERT_TRUE(R.connect(Path));
      // Half a header, then gone.
      unsigned char Half[2] = {0, 0};
      R.sendAll(Half, 2);
    }
  }

  // The loops close peers asynchronously; poll until stable.
  int FdsAfter = -1;
  for (int Tries = 0; Tries < 100; ++Tries) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    FdsAfter = countOpenFds();
    if (FdsAfter <= FdsBefore)
      break;
  }
  EXPECT_LE(FdsAfter, FdsBefore);
  // Thread-per-connection would have spawned ~75 threads here.
  EXPECT_EQ(countThreads(), ThreadsBefore);
}

//===----------------------------------------------------------------------===//
// Byte identity against the recorded replay
//===----------------------------------------------------------------------===//

std::vector<std::pair<std::string, std::string>> corpusInputs() {
  std::vector<std::pair<std::string, std::string>> Inputs; // (name, source)
  for (const char *Dir : {LOCKIN_TEST_DIR "/golden",
                          LOCKIN_TEST_DIR "/fuzz-corpus"}) {
    DIR *D = ::opendir(Dir);
    if (!D)
      continue;
    while (dirent *E = ::readdir(D)) {
      std::string Name = E->d_name;
      if (Name.size() < 5 || Name.substr(Name.size() - 5) != ".atom")
        continue;
      std::ifstream In(std::string(Dir) + "/" + Name);
      std::stringstream SS;
      SS << In.rdbuf();
      Inputs.emplace_back(Name, SS.str());
    }
    ::closedir(D);
  }
  std::sort(Inputs.begin(), Inputs.end());
  return Inputs;
}

/// Replays the corpus through one server config: cold analyze + warm
/// re-analyze per input, one connection, serialized. Returns every
/// response's exact serialized text.
std::vector<std::string> replayCorpus(ServerOptions Opts,
                                      const std::string &Tag) {
  std::string Path = tortureSocketPath("diff_" + Tag);
  Opts.UnixSocketPath = Path;
  RunningServer RS(Opts);
  EXPECT_TRUE(RS.Started);
  std::vector<std::string> Out;
  if (!RS.Started)
    return Out;

  Client C;
  std::string Err;
  EXPECT_TRUE(C.connectUnix(Path, Err)) << Err;
  for (const auto &[Name, Source] : corpusInputs()) {
    for (int Round = 0; Round < 2; ++Round) { // cold, then warm
      Json Resp;
      EXPECT_TRUE(C.call(analyzeRequest(Name, Source), Resp, Err))
          << Tag << " " << Name << ": " << Err;
      Out.push_back(Resp.str());
    }
  }
  return Out;
}

/// The expected replay, one serialized response per line in replayCorpus
/// order. It was recorded from the daemon's former thread-per-connection
/// server. On a mismatch the test writes the actual replay into its
/// working directory; when the change is intended, copy that file over.
const char *const kRecordedReplay =
    LOCKIN_TEST_DIR "/golden/service_replay.jsonl";

TEST(ServiceTorture, EventLoopMatchesRecordedReplay) {
  ASSERT_FALSE(corpusInputs().empty());
  std::vector<std::string> Expected;
  {
    std::ifstream In(kRecordedReplay, std::ios::binary);
    ASSERT_TRUE(In) << "cannot read " << kRecordedReplay;
    for (std::string Line; std::getline(In, Line);)
      Expected.push_back(Line);
  }
  ASSERT_FALSE(Expected.empty());

  for (unsigned Loops : {1u, 2u, 4u}) {
    std::string Tag = "el" + std::to_string(Loops);
    ServerOptions O;
    O.EventLoops = Loops;
    std::vector<std::string> Got = replayCorpus(O, Tag);
    if (Got != Expected) {
      std::filesystem::path Actual = std::filesystem::current_path() /
                                     ("service_replay." + Tag + ".jsonl");
      std::ofstream Out(Actual, std::ios::binary);
      for (const std::string &Line : Got)
        Out << Line << '\n';
      ADD_FAILURE() << Tag << ": replay differs from " << kRecordedReplay
                    << "; actual replay written to " << Actual.string();
    }
    ASSERT_EQ(Got.size(), Expected.size()) << Tag;
    for (size_t I = 0; I < Got.size(); ++I)
      EXPECT_EQ(Got[I], Expected[I]) << Tag << " response " << I;
  }
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(ServiceTorture, ShortWritesAndEagainStormsDoNotCorruptResponses) {
  std::string Path = tortureSocketPath("shortwrite");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.Faults = std::make_shared<FaultInjector>();
  // Every write is capped at 5 bytes and every third one pretends the
  // socket buffer is full — the response crosses the partial-write +
  // EPOLLOUT re-arm path hundreds of times.
  auto Calls = std::make_shared<std::atomic<unsigned>>(0);
  Opts.Faults->ShortWriteBytes = 5;
  Opts.Faults->Fail = [Calls](const char *Op, int) -> int {
    if (std::strcmp(Op, "write") == 0 &&
        Calls->fetch_add(1, std::memory_order_relaxed) % 3 == 2)
      return EAGAIN;
    return 0;
  };
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
  Json Resp;
  ASSERT_TRUE(C.call(analyzeRequest("sw.atom", smallProgram()), Resp, Err))
      << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
  std::string Cold = Resp.getString("report", "");
  EXPECT_FALSE(Cold.empty());
  EXPECT_GT(Calls->load(), 10u); // the injector really was in the path

  // Same response content as an unfaulted warm call — reassembled intact.
  ASSERT_TRUE(C.call(analyzeRequest("sw.atom", smallProgram()), Resp, Err))
      << Err;
  EXPECT_EQ(Resp.getString("report", ""), Cold);
}

TEST(ServiceTorture, MidWriteDisconnectAbortsWithoutWedgingLoop) {
  std::string Path = tortureSocketPath("midwrite");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.EventLoops = 1; // one loop: a wedge would be visible immediately
  Opts.Faults = std::make_shared<FaultInjector>();
  auto Armed = std::make_shared<std::atomic<bool>>(false);
  Opts.Faults->Fail = [Armed](const char *Op, int) -> int {
    if (std::strcmp(Op, "write") == 0 &&
        Armed->exchange(false, std::memory_order_relaxed))
      return ECONNRESET; // one shot: the peer died mid-write
    return 0;
  };
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  uint64_t ServedBefore = RS.S.requestsServed();
  {
    Client Victim;
    std::string Err;
    ASSERT_TRUE(Victim.connectUnix(Path, Err)) << Err;
    Armed->store(true);
    Json Resp;
    // The response write hits ECONNRESET: the connection is aborted and
    // the call fails at transport level — but must not hang.
    EXPECT_FALSE(
        Victim.call(analyzeRequest("victim.atom", smallProgram()), Resp,
                    Err));
  }
  // An aborted response is never counted as served.
  EXPECT_EQ(RS.S.requestsServed(), ServedBefore);

  // The single loop survived and serves the next connection normally.
  Client Next;
  std::string Err;
  ASSERT_TRUE(Next.connectUnix(Path, Err)) << Err;
  Json Resp;
  ASSERT_TRUE(Next.call(analyzeRequest("next.atom", smallProgram()), Resp,
                        Err))
      << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));

  if constexpr (obs::kEnabled) {
    // The aborted request's telemetry still landed, marked as such.
    ASSERT_TRUE(Next.call(opRequest("flightrecord"), Resp, Err)) << Err;
    bool SawAborted = false;
    const Json *Records = Resp.get("records");
    ASSERT_NE(Records, nullptr);
    for (const Json &R : Records->items())
      SawAborted = SawAborted || R.getString("outcome", "") == "aborted";
    EXPECT_TRUE(SawAborted);
  }
}

TEST(ServiceTorture, ReadFaultAbortsConnectionButNotServer) {
  std::string Path = tortureSocketPath("readfault");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.Faults = std::make_shared<FaultInjector>();
  auto Armed = std::make_shared<std::atomic<bool>>(false);
  Opts.Faults->Fail = [Armed](const char *Op, int) -> int {
    if (std::strcmp(Op, "read") == 0 &&
        Armed->exchange(false, std::memory_order_relaxed))
      return ECONNRESET;
    return 0;
  };
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  {
    RawConn C;
    ASSERT_TRUE(C.connect(Path));
    Armed->store(true);
    C.sendFrame("{\"op\":\"ping\"}"); // the read of this frame "fails"
    EXPECT_TRUE(C.droppedByPeer());   // connection aborted
  }
  Client Next;
  std::string Err;
  ASSERT_TRUE(Next.connectUnix(Path, Err)) << Err;
  Json Resp;
  ASSERT_TRUE(Next.call(opRequest("ping"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("pong", false));
}

//===----------------------------------------------------------------------===//
// Sharded summary cache under concurrency
//===----------------------------------------------------------------------===//

TEST(ShardedCache, PerShardCountersSumToGlobalStats) {
  SummaryCache C(256, 8);
  ASSERT_EQ(C.numShards(), 8u);

  SectionSummary S;
  S.setText("acquireAll(g)");
  for (uint64_t K = 0; K < 500; ++K)
    C.insert(K * 0x9e3779b9ull + 1, S);
  SectionSummary Out;
  unsigned Hits = 0;
  for (uint64_t K = 0; K < 500; ++K)
    Hits += C.lookup(K * 0x9e3779b9ull + 1, Out) ? 1 : 0;
  EXPECT_GT(Hits, 0u);

  SummaryCache::Stats Total = C.stats();
  SummaryCache::Stats Summed;
  size_t CapacitySum = 0;
  for (size_t I = 0; I < C.numShards(); ++I) {
    SummaryCache::Stats SS = C.shardStats(I);
    Summed.Hits += SS.Hits;
    Summed.Misses += SS.Misses;
    Summed.Insertions += SS.Insertions;
    Summed.Evictions += SS.Evictions;
    Summed.Invalidations += SS.Invalidations;
    Summed.Entries += SS.Entries;
    CapacitySum += SS.Capacity;
  }
  EXPECT_EQ(Summed.Hits, Total.Hits);
  EXPECT_EQ(Summed.Misses, Total.Misses);
  EXPECT_EQ(Summed.Insertions, Total.Insertions);
  EXPECT_EQ(Summed.Evictions, Total.Evictions);
  EXPECT_EQ(Summed.Entries, Total.Entries);
  EXPECT_EQ(CapacitySum, Total.Capacity); // shares partition the capacity
  EXPECT_EQ(Total.Capacity, 256u);

  // Keys actually spread: with 500 keys and 8 shards, every shard should
  // have seen traffic.
  for (size_t I = 0; I < C.numShards(); ++I)
    EXPECT_GT(C.shardStats(I).Insertions, 0u) << "shard " << I;
}

TEST(ShardedCache, SingleShardReproducesLegacyLru) {
  // Shards=1 must behave exactly like the pre-sharding cache: strict
  // global LRU order across all keys.
  SummaryCache C(2, 1);
  ASSERT_EQ(C.numShards(), 1u);
  SectionSummary S;
  S.setText("x");
  C.insert(1, S);
  C.insert(2, S);
  SectionSummary Out;
  EXPECT_TRUE(C.lookup(1, Out)); // refresh 1; LRU tail is now 2
  C.insert(3, S);                // evicts 2
  EXPECT_TRUE(C.lookup(1, Out));
  EXPECT_FALSE(C.lookup(2, Out));
  EXPECT_TRUE(C.lookup(3, Out));
}

TEST(ShardedCache, EightTenantHammerKeepsCountersConsistent) {
  // Run under TSan in CI: 8 tenants hammering lookups/inserts/erases on
  // an 8-shard cache, then the sharding invariant must still hold.
  SummaryCache C(128, 8);
  std::vector<std::thread> Tenants;
  std::atomic<uint64_t> LocalHits{0};
  for (unsigned T = 0; T < 8; ++T) {
    Tenants.emplace_back([&C, &LocalHits, T] {
      SectionSummary S;
      S.setText("locks for tenant " + std::to_string(T));
      SectionSummary Out;
      for (unsigned I = 0; I < 400; ++I) {
        uint64_t Key = (T * 131 + I * 7) % 200; // overlapping key space
        if (I % 3 == 0)
          C.insert(Key, S);
        else if (I % 17 == 5)
          C.erase(Key);
        else if (C.lookup(Key, Out))
          LocalHits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &T : Tenants)
    T.join();

  SummaryCache::Stats Total = C.stats();
  uint64_t SummedHits = 0, SummedMisses = 0;
  size_t SummedEntries = 0;
  for (size_t I = 0; I < C.numShards(); ++I) {
    SummedHits += C.shardStats(I).Hits;
    SummedMisses += C.shardStats(I).Misses;
    SummedEntries += C.shardStats(I).Entries;
  }
  EXPECT_EQ(SummedHits, Total.Hits);
  EXPECT_EQ(SummedMisses, Total.Misses);
  EXPECT_EQ(SummedEntries, Total.Entries);
  EXPECT_EQ(Total.Hits, LocalHits.load());
  EXPECT_LE(Total.Entries, 128u);
}

TEST(ShardedCache, EightTenantServerStressSumsHitCounters) {
  // End-to-end: 8 tenants against one daemon with an 8-shard cache and
  // the split Incremental mutex domains (check-report cache vs snapshot
  // publication). Run under TSan in CI.
  std::string Path = tortureSocketPath("tenants");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.Workers = 4;
  Opts.EventLoops = 2;
  Opts.CacheShards = 8;
  Opts.QueueDepth = 64;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  std::vector<std::thread> Tenants;
  std::atomic<unsigned> Ok{0};
  for (unsigned T = 0; T < 8; ++T) {
    Tenants.emplace_back([&, T] {
      Client C;
      std::string Err;
      ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
      for (unsigned I = 0; I < 6; ++I) {
        Json Req = analyzeRequest(
            "tenant" + std::to_string(T) + ".atom", smallProgram());
        Req.set("tenant", Json::string('t' + std::to_string(T)));
        if (I == 3) // exercise the check-report cache domain too
          Req.set("op", Json::string("check"));
        if (I == 5) { // and snapshot invalidation racing other tenants
          Json Inv = Json::object();
          Inv.set("op", Json::string("invalidate"));
          Inv.set("unit",
                  Json::string("tenant" + std::to_string(T) + ".atom"));
          Json IR;
          ASSERT_TRUE(C.call(Inv, IR, Err)) << Err;
        }
        Json Resp;
        ASSERT_TRUE(C.call(Req, Resp, Err)) << Err;
        if (Resp.getBool("ok", false))
          Ok.fetch_add(1);
      }
    });
  }
  for (std::thread &T : Tenants)
    T.join();
  EXPECT_EQ(Ok.load(), 48u);

  SummaryCache &Cache = RS.S.cache();
  EXPECT_EQ(Cache.numShards(), 8u);
  SummaryCache::Stats Total = Cache.stats();
  uint64_t SummedHits = 0;
  for (size_t I = 0; I < Cache.numShards(); ++I)
    SummedHits += Cache.shardStats(I).Hits;
  EXPECT_EQ(SummedHits, Total.Hits);
  EXPECT_GT(Total.Hits, 0u); // identical sources hit across tenants
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

std::string slowTortureProgram() {
  // Same shape as test_service.cpp's slowProgram(8, 8): enough sections
  // over aliased pointer chains that one analyze takes milliseconds even
  // when the content-hash cache is warm — the admission tests need the
  // first job of a pipelined burst to still be inflight microseconds
  // later when the next frame is dispatched.
  std::string S = "struct node { node* next; int val; int aux; };\n"
                  "node* h0;\nnode* h1;\nnode* h2;\nnode* h3;\nint gsum;\n"
                  "int walk(node* p, int n) {\n"
                  "  int s = 0;\n"
                  "  while (p != null) { s = s + p->val; p->aux = s; "
                  "p = p->next; }\n"
                  "  return s + n;\n"
                  "}\n";
  const char *Heads[4] = {"h0", "h1", "h2", "h3"};
  for (unsigned W = 0; W < 8; ++W) {
    S += "void worker" + std::to_string(W) + "() {\n";
    for (unsigned M = 0; M < 8; ++M) {
      S += "  atomic {\n    int t = 0;\n    int i = 0;\n"
           "    while (i < 6) {\n";
      for (unsigned C = 0; C < 4; ++C) {
        const char *H = Heads[(C + W + M) % 4];
        S += std::string("      t = t + walk(") + H + ", i);\n";
        S += std::string("      if (") + H + " != null) { " + H +
             "->val = t; }\n";
      }
      S += "      i = i + 1;\n    }\n    gsum = gsum + t;\n  }\n";
    }
    S += "}\n";
  }
  S += "int main() {\n  h0 = new node;\n  h1 = new node;\n"
       "  h2 = new node;\n  h3 = new node;\n";
  for (unsigned W = 0; W < 8; ++W)
    S += "  spawn worker" + std::to_string(W) + "();\n";
  S += "  return 0;\n}\n";
  return S;
}

TEST(AdmissionControl, TenantQuotaRejectsHogWithRetryAfter) {
  std::string Path = tortureSocketPath("quota");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.Workers = 1;
  Opts.QueueDepth = 16; // roomy queue: only the quota can reject
  Opts.TenantQuota = 1;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  // Two analyze frames for the same tenant in one pipelined burst: the
  // loop thread admits the first (tenant inflight hits the quota of 1)
  // and then, nanoseconds later on the same thread, must reject the
  // second — no timing window, the first job cannot have finished.
  std::string Slow = slowTortureProgram();
  Json Hog0 = analyzeRequest("hog0.atom", Slow);
  Hog0.set("tenant", Json::string("hog"));
  Json Hog1 = analyzeRequest("hog1.atom", Slow);
  Hog1.set("tenant", Json::string("hog"));
  RawConn C;
  ASSERT_TRUE(C.connect(Path));
  std::string Burst;
  appendFrame(Burst, Hog0.str());
  appendFrame(Burst, Hog1.str());
  ASSERT_TRUE(C.sendAll(Burst.data(), Burst.size()));

  Json First, Second;
  std::string Err;
  ASSERT_TRUE(C.readResponse(First, Err)) << Err;
  ASSERT_TRUE(C.readResponse(Second, Err)) << Err;
  EXPECT_TRUE(First.getBool("ok", false)) << First.getString("error", "");
  EXPECT_EQ(Second.getString("error", ""), "overloaded");
  EXPECT_EQ(Second.getString("reason", ""), "tenant");
  EXPECT_GT(Second.getInt("retryAfterMs", 0), 0);

  // A different tenant is untouched by the hog's quota.
  Client Other;
  ASSERT_TRUE(Other.connectUnix(Path, Err)) << Err;
  Json Req = analyzeRequest("other.atom", smallProgram());
  Req.set("tenant", Json::string("polite"));
  Json Resp;
  ASSERT_TRUE(Other.call(Req, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
}

TEST(AdmissionControl, MaxInflightCapsGlobalConcurrency) {
  std::string Path = tortureSocketPath("inflight");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.Workers = 2;
  Opts.QueueDepth = 16;
  Opts.MaxInflight = 1;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  // Three pipelined analyze frames: the first is admitted and pins the
  // global inflight count at the cap; the loop thread rejects the other
  // two at admission before the worker can possibly finish the first.
  std::string Slow = slowTortureProgram();
  RawConn C;
  ASSERT_TRUE(C.connect(Path));
  std::string Burst;
  for (int I = 0; I < 3; ++I)
    appendFrame(Burst,
                analyzeRequest("mi" + std::to_string(I) + ".atom", Slow)
                    .str());
  ASSERT_TRUE(C.sendAll(Burst.data(), Burst.size()));

  std::string Err;
  Json First;
  ASSERT_TRUE(C.readResponse(First, Err)) << Err;
  EXPECT_TRUE(First.getBool("ok", false)) << First.getString("error", "");
  for (int I = 0; I < 2; ++I) {
    Json Resp;
    ASSERT_TRUE(C.readResponse(Resp, Err)) << Err;
    EXPECT_EQ(Resp.getString("error", ""), "overloaded");
    EXPECT_EQ(Resp.getString("reason", ""), "inflight");
    EXPECT_GT(Resp.getInt("retryAfterMs", 0), 0);
  }
}

} // namespace
