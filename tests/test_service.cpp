//===--- test_service.cpp - Analysis service and incremental cache tests -------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service stack, bottom up:
///
///  - Json: round trips, escape handling, strict parse errors.
///  - Protocol: frame round trips over a socketpair, oversized-frame and
///    mid-frame-EOF rejection.
///  - SummaryCache: LRU eviction, recency refresh, invalidation
///    accounting, the capacity-0 kill switch.
///  - IncrementalAnalyzer: warm output byte-identical to a cold
///    Compilation::report(); a single-function edit re-analyzes exactly
///    the dirty SCC cone (the edited function's SCC plus upward-reachable
///    callers) while untouched sections stay cached; whitespace/comment
///    edits hit fully; invalidation and force paths; identical
///    resubmits served from the unit snapshot, and every way out of that
///    fast path (evicted or erased keys, changed k, force/check/run,
///    invalidation).
///  - Server: end-to-end request/response over a unix socket, cold/warm
///    accounting, backpressure under a full queue, per-request timeouts,
///    and the SIGTERM drain completing every in-flight request.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "driver/Compiler.h"
#include "infer/SummaryCache.h"
#include "lang/Parser.h"
#include "obs/Obs.h"
#include "service/Client.h"
#include "service/Fingerprint.h"
#include "service/Incremental.h"
#include "service/Json.h"
#include "service/Protocol.h"
#include "service/Server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <algorithm>
#include <cctype>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <string>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace lockin;
using namespace lockin::service;
using lockin::test::goldenDir;
using lockin::test::readFile;

namespace {

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

Json parseOk(const std::string &Text) {
  Json Out;
  std::string Err;
  EXPECT_TRUE(Json::parse(Text, Out, Err)) << Text << ": " << Err;
  return Out;
}

bool parseFails(const std::string &Text) {
  Json Out;
  std::string Err;
  return !Json::parse(Text, Out, Err);
}

TEST(Json, RoundTripsScalarsAndContainers) {
  Json O = Json::object();
  O.set("op", Json::string("analyze"));
  O.set("k", Json::integer(3));
  O.set("force", Json::boolean(false));
  O.set("ratio", Json::number(0.5));
  O.set("nothing", Json::null());
  Json Arr = Json::array();
  Arr.push(Json::integer(1));
  Arr.push(Json::integer(2));
  O.set("ids", std::move(Arr));

  std::string Text = O.str();
  // Insertion order is preserved, so serialization is deterministic.
  EXPECT_EQ(Text.find("\"op\""), 1u);
  Json Back = parseOk(Text);
  EXPECT_EQ(Back.getString("op", ""), "analyze");
  EXPECT_EQ(Back.getInt("k", 0), 3);
  EXPECT_FALSE(Back.getBool("force", true));
  EXPECT_DOUBLE_EQ(Back.get("ratio")->asDouble(), 0.5);
  EXPECT_TRUE(Back.get("nothing")->isNull());
  ASSERT_EQ(Back.get("ids")->items().size(), 2u);
  EXPECT_EQ(Back.get("ids")->items()[1].asInt(), 2);
  // Second round trip is a fixpoint.
  EXPECT_EQ(parseOk(Text).str(), Text);
}

TEST(Json, EscapesRoundTrip) {
  std::string Nasty = "line1\nline2\ttab \"quoted\" back\\slash \x01 end";
  Json O = Json::object();
  O.set("s", Json::string(Nasty));
  EXPECT_EQ(parseOk(O.str()).getString("s", ""), Nasty);

  // Unicode escapes, including a surrogate pair (U+1F600).
  EXPECT_EQ(parseOk("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
  EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(), "\xf0\x9f\x98\x80");

  // Escapes at the ends and between runs of plain bytes.
  EXPECT_EQ(Json::string("").str(), "\"\"");
  EXPECT_EQ(Json::string("\"ab\\cd\x1f").str(), "\"\\\"ab\\\\cd\\u001f\"");
  EXPECT_EQ(parseOk("\"\\nab\\u0041cd\\t\"").asString(), "\nabAcd\t");
}

TEST(Json, NumbersKeepIntegerExactness) {
  EXPECT_EQ(parseOk("9007199254740993").asInt(), 9007199254740993ll);
  EXPECT_EQ(parseOk("-42").asInt(), -42);
  Json D = parseOk("2.5e1");
  EXPECT_TRUE(D.kind() == Json::Kind::Double);
  EXPECT_DOUBLE_EQ(D.asDouble(), 25.0);
}

TEST(Json, StrictParseRejections) {
  EXPECT_TRUE(parseFails(""));
  EXPECT_TRUE(parseFails("{"));
  EXPECT_TRUE(parseFails("{\"a\":1,}"));
  EXPECT_TRUE(parseFails("{} trailing"));
  EXPECT_TRUE(parseFails("'single'"));
  EXPECT_TRUE(parseFails("{\"a\" 1}"));
  EXPECT_TRUE(parseFails("\"\\x41\""));
  // Raw control bytes are rejected mid-run too, and a run may not end
  // the input.
  EXPECT_TRUE(parseFails("\"abc\x01" "def\""));
  EXPECT_TRUE(parseFails("\"abc\ndef\""));
  EXPECT_TRUE(parseFails("\"abc"));
  // Depth bomb: past the parser's MaxDepth.
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  EXPECT_TRUE(parseFails(Deep));
}

/// The escape of one byte, from a table independent of the escaper.
std::string tableEscape(unsigned char C) {
  static const std::string Short[0x20] = {
      "\\u0000", "\\u0001", "\\u0002", "\\u0003", "\\u0004", "\\u0005",
      "\\u0006", "\\u0007", "\\b",     "\\t",     "\\n",     "\\u000b",
      "\\f",     "\\r",     "\\u000e", "\\u000f", "\\u0010", "\\u0011",
      "\\u0012", "\\u0013", "\\u0014", "\\u0015", "\\u0016", "\\u0017",
      "\\u0018", "\\u0019", "\\u001a", "\\u001b", "\\u001c", "\\u001d",
      "\\u001e", "\\u001f"};
  if (C < 0x20)
    return Short[C];
  if (C == '"')
    return "\\\"";
  if (C == '\\')
    return "\\\\";
  return std::string(1, static_cast<char>(C));
}

/// \p S as a JSON literal, escaped byte by byte through the table.
std::string tableLiteral(std::string_view S) {
  std::string Out = "\"";
  for (char C : S)
    Out += tableEscape(static_cast<unsigned char>(C));
  return Out + "\"";
}

/// \p S escapes to exactly its table literal, after a kept prefix, and the
/// literal parses back to \p S. Returns false (once reported) on a miss,
/// so sweeps stop at the first failure.
bool escapesExactly(const std::string &S) {
  std::string Out = "x:";
  appendJsonString(Out, S);
  std::string Want = "x:" + tableLiteral(S);
  EXPECT_EQ(Out, Want);
  Json Back;
  std::string Err;
  bool Parsed = Json::parse(std::string_view(Out).substr(2), Back, Err);
  EXPECT_TRUE(Parsed) << Err;
  bool Same = Parsed && Back.kind() == Json::Kind::String &&
              Back.asString() == S;
  EXPECT_TRUE(Same) << "round trip of a " << S.size() << "-byte string";
  return Out == Want && Same;
}

/// The parse error of \p Text, or "" when it parses.
std::string parseError(const std::string &Text) {
  Json Out;
  std::string Err;
  return Json::parse(Text, Out, Err) ? "" : Err;
}

TEST(JsonKernel, EveryByteAtEveryOffsetEscapesByTheTable) {
  for (size_t Len = 1; Len <= 40; ++Len)
    for (size_t Off = 0; Off < Len && Off < 16; ++Off)
      for (unsigned B = 0; B <= 0xff; ++B) {
        std::string S(Len, 'a');
        S[Off] = static_cast<char>(B);
        ASSERT_TRUE(escapesExactly(S))
            << "byte " << B << " at " << Off << " of " << Len;
      }
}

TEST(JsonKernel, NearMissesRightAfterAHitAreCopied) {
  // A SWAR borrow out of a true hit can flag the byte above it; these are
  // the bytes one step from a hit in each mask, and the high-bit bytes.
  const unsigned char Hits[] = {0x00, 0x1f, '\n', '"', '\\'};
  const unsigned char Misses[] = {0x20, 0x21, 0x23, 0x5b, 0x5d,
                                  0x7f, 0x80, 0xff};
  for (unsigned char Hit : Hits)
    for (unsigned char Miss : Misses)
      for (size_t Off = 0; Off < 16; ++Off) {
        std::string S(Off, 'a');
        S += static_cast<char>(Hit);
        S += std::string(9, static_cast<char>(Miss));
        S += "tail";
        ASSERT_TRUE(escapesExactly(S))
            << "hit " << unsigned(Hit) << ", miss " << unsigned(Miss)
            << " at " << Off;
      }
}

TEST(JsonKernel, RawControlBytesAreRejectedInWordsAndTail) {
  // Contents of up to 24 bytes put a control byte at offsets 0-17 both
  // inside an 8-byte step and in the byte tail after the last full step.
  for (size_t Len = 1; Len <= 24; ++Len)
    for (size_t Off = 0; Off < Len && Off < 18; ++Off)
      for (char C : {'\x00', '\x01', '\n', '\x1f'}) {
        std::string Text = '"' + std::string(Len, 'a') + "\"";
        Text[1 + Off] = C;
        ASSERT_EQ(parseError(Text), "raw control character in string")
            << "byte " << int(C) << " at " << Off << " of " << Len;
      }
}

TEST(JsonKernel, UnterminatedStringsFailAtEveryLength) {
  for (size_t Len = 0; Len <= 17; ++Len) {
    std::string Open = '"' + std::string(Len, 'a');
    EXPECT_EQ(parseError(Open), "unterminated string") << Len;
    EXPECT_EQ(parseError(Open + "\\n"), "unterminated string") << Len;
    EXPECT_EQ(parseError(Open + "\\"), "unterminated escape") << Len;
  }
}

TEST(JsonKernel, LongPlainAndAllEscapeStrings) {
  std::string Plain(1 << 20, 'p');
  for (size_t I = 0; I < Plain.size(); I += 97)
    Plain[I] = static_cast<char>('A' + I % 26);
  EXPECT_TRUE(escapesExactly(Plain));

  // Every byte escapes, most of them to six: the escaper's margin runs out
  // and its buffer grows, as does the parser's.
  std::string Escapes(64 << 10, '\0');
  for (size_t I = 0; I < Escapes.size(); ++I)
    Escapes[I] = "\x01\"\\\n\x1f"[I % 5];
  EXPECT_TRUE(escapesExactly(Escapes));
}

//===----------------------------------------------------------------------===//
// Protocol framing
//===----------------------------------------------------------------------===//

struct SocketPair {
  int Fd[2];
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fd), 0); }
  ~SocketPair() {
    ::close(Fd[0]);
    ::close(Fd[1]);
  }
};

TEST(Protocol, FrameRoundTrip) {
  SocketPair SP;
  // Payloads larger than the kernel socket buffer must be written from a
  // separate thread or the single-threaded write would block forever.
  std::string Big(1 << 20, 'x');
  for (const std::string &Payload : {std::string("{\"op\":\"ping\"}"),
                                     std::string(""), Big}) {
    std::thread Writer([&] {
      std::string WErr;
      EXPECT_TRUE(writeFrame(SP.Fd[0], Payload, WErr)) << WErr;
    });
    std::string Got, Err;
    EXPECT_EQ(readFrame(SP.Fd[1], Got, Err), 1) << Err;
    EXPECT_EQ(Got, Payload);
    Writer.join();
  }
}

TEST(Protocol, JsonRoundTripAndCleanEof) {
  SocketPair SP;
  std::string Err;
  Json Msg = Json::object();
  Msg.set("op", Json::string("stats"));
  ASSERT_TRUE(writeJson(SP.Fd[0], Msg, Err)) << Err;
  Json Got;
  ASSERT_EQ(readJson(SP.Fd[1], Got, Err), 1) << Err;
  EXPECT_EQ(Got.getString("op", ""), "stats");

  ::shutdown(SP.Fd[0], SHUT_WR);
  EXPECT_EQ(readJson(SP.Fd[1], Got, Err), 0); // EOF at a frame boundary
}

TEST(Protocol, RejectsOversizedFrame) {
  SocketPair SP;
  // Hand-crafted header claiming 1 GiB.
  unsigned char Header[4] = {0x40, 0x00, 0x00, 0x00};
  ASSERT_EQ(::write(SP.Fd[0], Header, 4), 4);
  std::string Got, Err;
  EXPECT_EQ(readFrame(SP.Fd[1], Got, Err), -1);
  EXPECT_NE(Err.find("too large"), std::string::npos);
}

TEST(Protocol, EofMidFrameIsAnError) {
  SocketPair SP;
  unsigned char Header[4] = {0, 0, 0, 10}; // promises 10 bytes
  ASSERT_EQ(::write(SP.Fd[0], Header, 4), 4);
  ASSERT_EQ(::write(SP.Fd[0], "abc", 3), 3); // delivers 3
  ::shutdown(SP.Fd[0], SHUT_WR);
  std::string Got, Err;
  EXPECT_EQ(readFrame(SP.Fd[1], Got, Err), -1);
}

//===----------------------------------------------------------------------===//
// SummaryCache
//===----------------------------------------------------------------------===//

SectionSummary summary(const std::string &Text) {
  SectionSummary S;
  S.setText(Text);
  S.Census.FineRW = 1;
  return S;
}

TEST(SummaryCache, LruEvictionAndRecencyRefresh) {
  SummaryCache Cache(2);
  Cache.insert(1, summary("one"));
  Cache.insert(2, summary("two"));

  // Touch 1 so 2 becomes the LRU victim.
  SectionSummary Out;
  ASSERT_TRUE(Cache.lookup(1, Out));
  EXPECT_EQ(Out.text(), "one");
  Cache.insert(3, summary("three"));

  EXPECT_TRUE(Cache.lookup(1, Out));
  EXPECT_FALSE(Cache.lookup(2, Out));
  EXPECT_TRUE(Cache.lookup(3, Out));

  SummaryCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Insertions, 3u);
  EXPECT_EQ(S.Evictions, 1u);
  EXPECT_EQ(S.Entries, 2u);
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 1u);
}

TEST(SummaryCache, EraseAndClearCountAsInvalidations) {
  SummaryCache Cache(8);
  Cache.insert(1, summary("a"));
  Cache.insert(2, summary("b"));
  Cache.erase(1);
  Cache.erase(1); // absent: no double count
  SectionSummary Out;
  EXPECT_FALSE(Cache.lookup(1, Out));
  Cache.clear();
  EXPECT_FALSE(Cache.lookup(2, Out));
  SummaryCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Invalidations, 2u);
  EXPECT_EQ(S.Entries, 0u);
}

TEST(SummaryCache, IdenticalTextsSharePooledStorage) {
  SummaryCache Cache(8);
  Cache.insert(1, summary("same"));
  Cache.insert(2, summary("same"));
  Cache.insert(3, summary("other"));
  SectionSummary A, B, C;
  ASSERT_TRUE(Cache.lookup(1, A));
  ASSERT_TRUE(Cache.lookup(2, B));
  ASSERT_TRUE(Cache.lookup(3, C));
  EXPECT_EQ(A.LocksText.get(), B.LocksText.get());
  EXPECT_NE(A.LocksText.get(), C.LocksText.get());
  EXPECT_EQ(Cache.stats().TextPoolHits, 1u);
}

TEST(SummaryCache, TextPoolStaysBoundedUnderDistinctTexts) {
  SummaryCache Cache(64);
  for (uint64_t I = 0; I < 100000; ++I)
    Cache.insert(I, summary("text " + std::to_string(I)));
  SummaryCache::Stats S = Cache.stats();
  EXPECT_EQ(S.Entries, 64u);
  EXPECT_EQ(S.Evictions, 100000u - 64u);
  EXPECT_LE(S.PooledTexts, 64u);

  // Replacing an entry's text and erasing entries prune the pool too.
  Cache.insert(99999, summary("replacement"));
  for (uint64_t I = 100000 - 64; I < 100000 - 32; ++I)
    Cache.erase(I);
  S = Cache.stats();
  EXPECT_EQ(S.Entries, 32u);
  EXPECT_EQ(S.PooledTexts, 32u);
  Cache.clear();
  EXPECT_EQ(Cache.stats().PooledTexts, 0u);
}

TEST(SummaryCache, CapacityZeroDisables) {
  SummaryCache Cache(0);
  Cache.insert(1, summary("a"));
  SectionSummary Out;
  EXPECT_FALSE(Cache.lookup(1, Out));
  EXPECT_EQ(Cache.stats().Entries, 0u);
}

//===----------------------------------------------------------------------===//
// IncrementalAnalyzer
//===----------------------------------------------------------------------===//

/// Two independent worker sections plus a helper chain under the first:
/// main spawns wa (section #0, reaching fa → fb) and wd (section #1,
/// touching its own structure only).
std::string coneProgram(int FbConstant) {
  std::string S = R"(struct node { node* next; int val; };
node* ha;
node* hd;

int fb(node* p) {
  if (p == null) { return 0; }
  p->val = p->val + )" + std::to_string(FbConstant) +
                  R"(;
  return fb(p->next);
}

int fa(node* p) {
  int r = fb(p);
  return r + 1;
}

void wa() {
  atomic { fa(ha); }
}

void wd() {
  atomic { hd->val = hd->val + 1; }
}

int main() {
  ha = new node;
  hd = new node;
  spawn wa();
  spawn wd();
  return 0;
}
)";
  return S;
}

std::string oneShotReport(const std::string &Source) {
  CompileOptions Options;
  Options.Jobs = 1;
  std::unique_ptr<Compilation> C = compile(Source, Options);
  EXPECT_TRUE(C->ok()) << C->diagnostics().str();
  return C->report();
}

TEST(Incremental, WarmOutputByteIdenticalToCold) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  std::string Source = coneProgram(1);

  AnalyzeOutcome Cold = An.analyze("u", Source, P);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_EQ(Cold.CacheHits, 0u);
  EXPECT_EQ(Cold.CacheMisses, 2u);
  EXPECT_FALSE(Cold.HadSnapshot);
  EXPECT_EQ(Cold.Report, oneShotReport(Source));

  AnalyzeOutcome Warm = An.analyze("u", Source, P);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_EQ(Warm.CacheHits, 2u);
  EXPECT_EQ(Warm.CacheMisses, 0u);
  EXPECT_TRUE(Warm.Reanalyzed.empty());
  EXPECT_TRUE(Warm.HadSnapshot);
  EXPECT_EQ(Warm.DirtyFunctions, 0u);
  EXPECT_EQ(Warm.Report, Cold.Report);
}

TEST(Incremental, EditReanalyzesExactlyTheDirtyCone) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;

  AnalyzeOutcome First = An.analyze("u", coneProgram(1), P);
  ASSERT_TRUE(First.Ok) << First.Error;
  ASSERT_EQ(First.Sections, 2u);

  // Change fb's increment: only fb's body hash moves, so the dirty cone
  // is fb's SCC plus its upward closure (fa, wa, main) — section #0.
  // wd's section is outside the cone and must be served from cache.
  std::string Edited = coneProgram(2);
  AnalyzeOutcome Second = An.analyze("u", Edited, P);
  ASSERT_TRUE(Second.Ok) << Second.Error;
  EXPECT_TRUE(Second.HadSnapshot);
  EXPECT_EQ(Second.DirtyFunctions, 1u);
  EXPECT_EQ(Second.CacheHits, 1u);
  EXPECT_EQ(Second.CacheMisses, 1u);
  ASSERT_EQ(Second.Reanalyzed.size(), 1u);
  EXPECT_EQ(Second.Reanalyzed[0], 0u);
  // The predicted re-analysis set (call-graph invalidation rule) matches
  // what the cache actually missed.
  EXPECT_EQ(Second.DirtyConeSections, Second.Reanalyzed);
  // And the mixed hit/miss report is still byte-identical to cold.
  EXPECT_EQ(Second.Report, oneShotReport(Edited));
}

TEST(Incremental, WhitespaceAndCommentEditsHitFully) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  ASSERT_TRUE(An.analyze("u", coneProgram(1), P).Ok);

  // Same program modulo trivia: normalized-IR hashing must not miss.
  std::string Trivia = "// a comment\n\n" + coneProgram(1) + "\n   \n";
  AnalyzeOutcome Out = An.analyze("u", Trivia, P);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_EQ(Out.DirtyFunctions, 0u);
  EXPECT_EQ(Out.CacheHits, 2u);
  EXPECT_EQ(Out.CacheMisses, 0u);
}

TEST(Incremental, InvalidateUnitDropsItsSections) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  ASSERT_TRUE(An.analyze("u", coneProgram(1), P).Ok);
  ASSERT_EQ(An.numUnits(), 1u);

  EXPECT_TRUE(An.invalidateUnit("u"));
  EXPECT_FALSE(An.invalidateUnit("u")); // already gone
  EXPECT_EQ(An.numUnits(), 0u);

  AnalyzeOutcome Out = An.analyze("u", coneProgram(1), P);
  ASSERT_TRUE(Out.Ok);
  EXPECT_EQ(Out.CacheHits, 0u);
  EXPECT_EQ(Out.CacheMisses, 2u);
}

TEST(Incremental, ForceBypassesLookups) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  ASSERT_TRUE(An.analyze("u", coneProgram(1), P).Ok);

  AnalyzeParams Forced = P;
  Forced.Force = true;
  AnalyzeOutcome Out = An.analyze("u", coneProgram(1), Forced);
  ASSERT_TRUE(Out.Ok);
  EXPECT_EQ(Out.CacheHits, 0u);
  EXPECT_EQ(Out.CacheMisses, 2u);
  EXPECT_EQ(Out.Report, oneShotReport(coneProgram(1)));
}

TEST(Incremental, RunExecutesTheProgram) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  P.Run = true;
  P.InjectYields = true;
  P.YieldSeed = 7;
  AnalyzeOutcome Out = An.analyze("u", coneProgram(1), P);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  ASSERT_TRUE(Out.RanProgram);
  EXPECT_TRUE(Out.RunOk) << Out.RunError;
  EXPECT_EQ(Out.MainResult, 0);
  EXPECT_GT(Out.TotalSteps, 0u);
}

TEST(Incremental, CheckRunsColdServesWarmFromReportCache) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  P.Check = true;

  // Cold: the checker actually runs and its JSON report is captured.
  AnalyzeOutcome Cold = An.analyze("u", coneProgram(1), P);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_TRUE(Cold.Checked);
  EXPECT_FALSE(Cold.CheckCacheHit);
  EXPECT_TRUE(Cold.CheckJson.isObject());
  EXPECT_GT(Cold.CheckMhpPairs, 0u);

  // Warm, unchanged module: the cached report is served verbatim without
  // re-running the checker.
  AnalyzeOutcome Warm = An.analyze("u", coneProgram(1), P);
  ASSERT_TRUE(Warm.Ok) << Warm.Error;
  EXPECT_FALSE(Warm.Checked);
  EXPECT_TRUE(Warm.CheckCacheHit);
  EXPECT_EQ(Warm.CheckJson.str(), Cold.CheckJson.str());
  EXPECT_EQ(Warm.CheckFindings, Cold.CheckFindings);
  EXPECT_EQ(Warm.CheckMhpPairs, Cold.CheckMhpPairs);

  // An edited body moves the module fingerprint: the cache entry is
  // stale, so the checker re-runs against the new module.
  AnalyzeOutcome Edited = An.analyze("u", coneProgram(2), P);
  ASSERT_TRUE(Edited.Ok) << Edited.Error;
  EXPECT_TRUE(Edited.Checked);
  EXPECT_FALSE(Edited.CheckCacheHit);

  // Flipping the elision flag is part of the fingerprint too.
  AnalyzeParams Elide = P;
  Elide.ElideNeverParallel = true;
  AnalyzeOutcome Flipped = An.analyze("u", coneProgram(2), Elide);
  ASSERT_TRUE(Flipped.Ok) << Flipped.Error;
  EXPECT_TRUE(Flipped.Checked);
  EXPECT_FALSE(Flipped.CheckCacheHit);

  // Invalidation drops the check entry alongside the snapshot.
  ASSERT_TRUE(An.invalidateUnit("u"));
  AnalyzeOutcome Fresh = An.analyze("u", coneProgram(2), Elide);
  ASSERT_TRUE(Fresh.Ok) << Fresh.Error;
  EXPECT_TRUE(Fresh.Checked);
  EXPECT_FALSE(Fresh.CheckCacheHit);
}

TEST(Incremental, CompileErrorsAreReported) {
  SummaryCache Cache(16);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  AnalyzeOutcome Out = An.analyze("u", "int main( { return 0; }", P);
  EXPECT_FALSE(Out.Ok);
  EXPECT_FALSE(Out.Error.empty());
  EXPECT_EQ(An.numUnits(), 0u); // failed runs publish no snapshot
}

/// The cache keys of \p Source's sections by section id: what the
/// analyzer computes, and snapshots, for the same source and k.
std::vector<uint64_t> sectionKeys(const std::string &Source, unsigned K) {
  CompileOptions Options;
  Options.K = K;
  Options.Jobs = 1;
  Options.InferLocks = false;
  std::unique_ptr<Compilation> C = compile(Source, Options);
  EXPECT_TRUE(C->ok()) << C->diagnostics().str();
  ModuleFingerprint FP(C->module(), C->callGraph(), C->pointsTo());
  std::vector<uint64_t> Keys(C->module().numAtomicSections());
  for (const auto &F : C->module().functions()) {
    const auto &Atomics = F->atomicSections();
    for (unsigned Ord = 0; Ord < Atomics.size(); ++Ord)
      Keys[Atomics[Ord]->sectionId()] = FP.sectionKey(F.get(), Ord, K);
  }
  return Keys;
}

/// Two sections that share no cache key with coneProgram's.
const char *OtherProgram = R"(struct cell { int v; };
cell* g;

void w() {
  atomic { g->v = g->v + 2; }
}

void x() {
  atomic { g->v = g->v * 3; }
}

int main() {
  g = new cell;
  spawn w();
  spawn x();
  return 0;
}
)";

TEST(Incremental, IdenticalResubmitServedFromSnapshot) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  std::string Source = coneProgram(1);
  AnalyzeOutcome Cold = An.analyze("u", Source, P);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_FALSE(Cold.FromSnapshot);
  EXPECT_EQ(An.resubmitsServed(), 0u);

  SummaryCache::Stats Before = Cache.stats();
  AnalyzeOutcome Out = An.analyze("u", Source, P);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_TRUE(Out.FromSnapshot);
  EXPECT_EQ(An.resubmitsServed(), 1u);
  EXPECT_EQ(Out.Report, oneShotReport(Source));
  EXPECT_EQ(Out.Sections, 2u);
  EXPECT_EQ(Out.CacheHits, Out.Sections);
  EXPECT_EQ(Out.CacheMisses, 0u);
  EXPECT_TRUE(Out.Reanalyzed.empty());
  EXPECT_TRUE(Out.DirtyConeSections.empty());
  EXPECT_TRUE(Out.HadSnapshot);
  EXPECT_EQ(Out.DirtyFunctions, 0u);
  EXPECT_EQ(Out.DirtySccs, 0u);

  // The probe counts (and refreshes) every key exactly once.
  SummaryCache::Stats After = Cache.stats();
  EXPECT_EQ(After.Hits - Before.Hits, Out.Sections);
  EXPECT_EQ(After.Misses, Before.Misses);
  EXPECT_EQ(After.Insertions, Before.Insertions);
}

TEST(Incremental, ResubmitAfterEvictionReanalyzesTheMissingSections) {
  // Room for three entries: the second unit's two sections evict the
  // first unit's least recent one, section #0 (inserted first).
  SummaryCache Cache(3);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  std::string Source = coneProgram(1);
  ASSERT_TRUE(An.analyze("u", Source, P).Ok);
  ASSERT_TRUE(An.analyze("v", OtherProgram, P).Ok);
  ASSERT_EQ(Cache.stats().Evictions, 1u);

  SummaryCache::Stats Before = Cache.stats();
  AnalyzeOutcome Out = An.analyze("u", Source, P);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_FALSE(Out.FromSnapshot);
  EXPECT_EQ(An.resubmitsServed(), 0u);
  EXPECT_EQ(Out.CacheHits, 1u);
  EXPECT_EQ(Out.CacheMisses, 1u);
  EXPECT_EQ(Out.Reanalyzed, std::vector<uint32_t>{0});
  EXPECT_EQ(Out.DirtyFunctions, 0u);
  EXPECT_EQ(Out.Report, oneShotReport(Source));
  // The full path reused the probe: each key counted once.
  SummaryCache::Stats After = Cache.stats();
  EXPECT_EQ(After.Hits - Before.Hits, 1u);
  EXPECT_EQ(After.Misses - Before.Misses, 1u);

  // Re-analyzing put the section back: the next resubmit is served.
  AnalyzeOutcome Again = An.analyze("u", Source, P);
  EXPECT_TRUE(Again.FromSnapshot);
  EXPECT_EQ(Again.Report, Out.Report);
}

/// The unit lockbench's daemon workload serves: serviceUnit{4, 4, 2, 4}
/// with every salt 1. Four workers of four sections each loop over two
/// shared lists through a walker and a mutually recursive helper pair.
std::string benchServiceUnit() {
  const unsigned Workers = 4, SectionsPer = 4, Chains = 2;
  std::string S = "struct node { node* next; int val; int aux; };\n"
                  "node* head0;\nnode* head1;\nint gsum;\n"
                  "int walk(node* p, int n) {\n  int s = 0;\n"
                  "  while (p != null) { s = s + p->val; p->aux = s; "
                  "p = p->next; }\n  return s + n;\n}\n"
                  "int recB(node* p, int n) { if (n <= 0) { return 0; } "
                  "if (p == null) { return n; } p->val = n; "
                  "return recA(p->next, n - 1); }\n"
                  "int recA(node* p, int n) { if (n <= 0) { return 0; } "
                  "if (p == null) { return n; } gsum = gsum + p->val; "
                  "return recB(p->next, n - 1); }\n";
  for (unsigned W = 0; W < Workers; ++W) {
    S += "void worker" + std::to_string(W) + "() {\n";
    for (unsigned M = 0; M < SectionsPer; ++M) {
      S += std::string("  atomic {\n    int t = ") + (M == 0 ? "1" : "0") +
           ";\n    int i = 0;\n    while (i < 4) {\n      int j = 0;\n"
           "      while (j < 4) {\n        int q = 0;\n"
           "        while (q < 4) {\n          int r = 0;\n"
           "          while (r < 4) {\n";
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
  S += "int main() {\n"
       "  head0 = new node;\n  head0->next = new node;\n"
       "  head1 = new node;\n  head1->next = new node;\n";
  for (unsigned W = 0; W < Workers; ++W)
    S += "  spawn worker" + std::to_string(W) + "();\n";
  S += "  return 0;\n}\n";
  return S;
}

TEST(Incremental, SectionKeysArePinned) {
  // A key that moves here would silently turn every warm daemon cache
  // cold, so the derivation may only change together with
  // KeyFormatVersion.
  struct Case {
    std::string Name;
    std::string Source;
    std::vector<uint64_t> Keys;
  };
  const Case Cases[] = {
      {"mutual3",
       readFile(goldenDir() + "mutual3.atom"),
       {0x225bfac659cd6352ull, 0x487ff2e29b05f9b0ull}},
      {"ptrchain",
       readFile(goldenDir() + "ptrchain.atom"),
       {0x2f240784b56526b8ull}},
      {"selfrec",
       readFile(goldenDir() + "selfrec.atom"),
       {0xffb9d2f166880984ull, 0xcd9c2f7457295954ull}},
      {"bench unit",
       benchServiceUnit(),
       {0xe9539536cf9f79daull, 0x4f38077e14491b9aull, 0xd3ba52f4ef657425ull,
        0x4da8fa8558574750ull, 0xb671a68030e88287ull, 0x15b39025be110d14ull,
        0xdab5afc5765a86fdull, 0x8ff5319b7deb1645ull, 0x01ae2b8681bf06f0ull,
        0xf14db38af5511cd4ull, 0xf9bfbfd8521e7e54ull, 0x444156250d671e18ull,
        0x8c78527af0a34216ull, 0x959c4cbb8a2e2552ull, 0x3bce411ce49bfedeull,
        0x36371116577bb275ull}},
  };
  for (const Case &C : Cases)
    EXPECT_EQ(sectionKeys(C.Source, 3), C.Keys) << C.Name;
}

TEST(Incremental, ResubmitAfterEraseReanalyzesTheErasedSection) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  std::string Source = coneProgram(1);
  ASSERT_TRUE(An.analyze("u", Source, P).Ok);

  std::vector<uint64_t> Keys = sectionKeys(Source, P.K);
  ASSERT_EQ(Keys.size(), 2u);
  Cache.erase(Keys[1]);
  AnalyzeOutcome Out = An.analyze("u", Source, P);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_FALSE(Out.FromSnapshot);
  EXPECT_EQ(Out.CacheHits, 1u);
  EXPECT_EQ(Out.Reanalyzed, std::vector<uint32_t>{1});
  EXPECT_EQ(Out.Report, oneShotReport(Source));
}

TEST(Incremental, ChangedKForceCheckAndRunTakeTheFullPath) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  std::string Source = coneProgram(1);
  ASSERT_TRUE(An.analyze("u", Source, P).Ok);

  AnalyzeParams OtherK = P;
  OtherK.K = P.K + 1;
  AnalyzeOutcome Out = An.analyze("u", Source, OtherK);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_FALSE(Out.FromSnapshot);
  EXPECT_EQ(Out.CacheMisses, 2u); // k is part of every key

  // Back to the original k: the snapshot now holds the other k, so this
  // runs the full path too, all hits.
  Out = An.analyze("u", Source, P);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_FALSE(Out.FromSnapshot);
  EXPECT_EQ(Out.CacheHits, 2u);

  for (bool AnalyzeParams::*Flag :
       {&AnalyzeParams::Force, &AnalyzeParams::Check, &AnalyzeParams::Run}) {
    AnalyzeParams Q = P;
    Q.*Flag = true;
    Out = An.analyze("u", Source, Q);
    ASSERT_TRUE(Out.Ok) << Out.Error;
    EXPECT_FALSE(Out.FromSnapshot);
    EXPECT_EQ(Out.CacheMisses, 2u);
    EXPECT_EQ(Out.Report, oneShotReport(Source));
  }
  EXPECT_EQ(An.resubmitsServed(), 0u);

  // A plain request after them is served.
  Out = An.analyze("u", Source, P);
  EXPECT_TRUE(Out.FromSnapshot);
  EXPECT_EQ(Out.Report, oneShotReport(Source));
}

TEST(Incremental, ConcurrentResubmitsAndEditsOfOneUnitStayByteIdentical) {
  // Snapshot publication races the fast path's reads: two threads keep
  // resubmitting one version while two others flip the unit between two
  // versions. Whichever snapshot a request sees, its report must be the
  // cold report of its own source.
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  const std::string Sources[2] = {coneProgram(1), coneProgram(2)};
  const std::string Expected[2] = {oneShotReport(Sources[0]),
                                   oneShotReport(Sources[1])};
  std::atomic<unsigned> Wrong{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      AnalyzeParams P;
      P.Jobs = 1;
      for (unsigned I = 0; I < 20; ++I) {
        unsigned V = T < 2 ? 0 : (T + I) % 2;
        AnalyzeOutcome Out = An.analyze("u", Sources[V], P);
        if (!Out.Ok || Out.Report != Expected[V])
          Wrong.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Wrong.load(), 0u);
}

TEST(Incremental, InvalidationDropsTheStoredSourceAndReport) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  std::string Source = coneProgram(1);

  ASSERT_TRUE(An.analyze("u", Source, P).Ok);
  ASSERT_TRUE(An.invalidateUnit("u"));
  AnalyzeOutcome Out = An.analyze("u", Source, P);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_FALSE(Out.FromSnapshot);
  EXPECT_FALSE(Out.HadSnapshot);
  EXPECT_EQ(Out.CacheMisses, 2u);

  An.invalidateAll();
  Out = An.analyze("u", Source, P);
  ASSERT_TRUE(Out.Ok) << Out.Error;
  EXPECT_FALSE(Out.FromSnapshot);
  EXPECT_FALSE(Out.HadSnapshot);
  EXPECT_EQ(Out.CacheMisses, 2u);
  EXPECT_EQ(Out.Report, oneShotReport(Source));
  EXPECT_EQ(An.resubmitsServed(), 0u);
}

/// One worker function with three sections, a second with one, and a
/// constant outside every section: w's sections are #0-#2, v's is #3.
std::string sectionsProgram(int A, int B, int C, int Outside) {
  return "struct node { node* next; int val; };\n"
         "node* ha;\nnode* hb;\n"
         "int helper(node* p) { return p->val + 1; }\n"
         "void w() {\n  int x = " + std::to_string(Outside) + ";\n"
         "  atomic { ha->val = " + std::to_string(A) + " + x; }\n"
         "  atomic { hb->val = helper(hb) + " + std::to_string(B) + "; }\n"
         "  atomic { ha->next = hb; hb->val = " + std::to_string(C) + "; }\n"
         "}\n"
         "void v() {\n  atomic { hb->val = 44; }\n}\n"
         "int main() {\n  ha = new node;\n  hb = new node;\n"
         "  spawn w();\n  spawn v();\n  return 0;\n}\n";
}

/// Analyzes \p Before then \p After as one unit and checks that the
/// second answer equals a cold compile and that the cache missed exactly
/// the sections the snapshot's keys predicted; returns the misses.
std::vector<uint32_t> editMisses(const std::string &Before,
                                 const std::string &After) {
  SummaryCache Cache(1024);
  IncrementalAnalyzer An(Cache);
  AnalyzeParams P;
  P.Jobs = 1;
  AnalyzeOutcome First = An.analyze("u", Before, P);
  EXPECT_TRUE(First.Ok) << First.Error;
  AnalyzeOutcome Second = An.analyze("u", After, P);
  EXPECT_TRUE(Second.Ok) << Second.Error;
  EXPECT_EQ(Second.Report, oneShotReport(After));
  EXPECT_EQ(Second.DirtyConeSections, Second.Reanalyzed);
  return Second.Reanalyzed;
}

TEST(Incremental, OneSectionEditMissesExactlyThatSection) {
  EXPECT_EQ(editMisses(sectionsProgram(11, 22, 33, 1),
                       sectionsProgram(11, 23, 33, 1)),
            std::vector<uint32_t>{1});
  EXPECT_EQ(editMisses(sectionsProgram(11, 22, 33, 1),
                       sectionsProgram(11, 22, 34, 1)),
            std::vector<uint32_t>{2});
}

TEST(Incremental, EditOutsideEverySectionMissesAllOfItsFunctionsSections) {
  EXPECT_EQ(editMisses(sectionsProgram(11, 22, 33, 1),
                       sectionsProgram(11, 22, 33, 2)),
            (std::vector<uint32_t>{0, 1, 2}));
}

TEST(Incremental, EditInARecursiveSccMissesTheWholeScc) {
  auto Program = [](int Value) {
    return "struct node { node* next; int val; };\nnode* h;\n"
           "int f(node* p, int n) {\n  if (n <= 0) { return 0; }\n"
           "  atomic { p->val = " + std::to_string(Value) + "; }\n"
           "  return g(p->next, n - 1);\n}\n"
           "int g(node* p, int n) {\n  if (n <= 0) { return 0; }\n"
           "  atomic { p->val = 2; }\n  return f(p, n - 1);\n}\n"
           "void top() {\n  atomic { h->val = f(h, 3); }\n}\n"
           "void other() {\n  atomic { h->next = null; }\n}\n"
           "int main() {\n  h = new node;\n  spawn top();\n"
           "  spawn other();\n  return 0;\n}\n";
  };
  // f and g form one SCC: both their sections miss, and so does top's,
  // which calls into it; other's does not.
  EXPECT_EQ(editMisses(Program(1), Program(5)),
            (std::vector<uint32_t>{0, 1, 2}));
}

TEST(Incremental, NestedSectionsMissWithTheirTopLevelSection) {
  auto Program = [](int Outer, int Inner, int Other) {
    return "struct node { node* next; int val; };\nnode* ha;\nnode* hb;\n"
           "void w() {\n  atomic {\n    ha->val = " + std::to_string(Outer) +
           ";\n    atomic { hb->val = " + std::to_string(Inner) +
           "; }\n  }\n  atomic { hb->next = ha; ha->val = " +
           std::to_string(Other) + "; }\n}\n"
           "int main() {\n  ha = new node;\n  hb = new node;\n"
           "  spawn w();\n  return 0;\n}\n";
  };
  EXPECT_EQ(editMisses(Program(1, 2, 3), Program(1, 9, 3)),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(editMisses(Program(1, 2, 3), Program(9, 2, 3)),
            (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(editMisses(Program(1, 2, 3), Program(1, 2, 9)),
            std::vector<uint32_t>{2});
}

TEST(Incremental, ShadowedNamesDoNotShareKeys) {
  // The section's text is the same in every variant; which `p` it binds
  // is not. Each incremental answer must equal its cold compile, also
  // when the other variant's entries are resident.
  const std::string Head = "struct node { node* next; int val; };\n"
                           "node* g1;\nnode* g2;\n"
                           "void w(int c) {\n  node* p = g1;\n";
  const std::string Tail = "}\nint main() {\n  g1 = new node;\n"
                           "  g2 = new node;\n  spawn w(1);\n"
                           "  return 0;\n}\n";
  const std::string Section = "atomic { p->val = 7; }";
  const std::string Pairs[][2] = {
      // The section moved into the scope of the shadowing declaration.
      {Head + "  if (c == 1) {\n    node* p = g2;\n    p->val = 5;\n  }\n  " +
           Section + "\n" + Tail,
       Head + "  if (c == 1) {\n    node* p = g2;\n    p->val = 5;\n    " +
           Section + "\n  }\n" + Tail},
      // An uninitialized shadow prints no IR: only where it is declared
      // differs.
      {Head + "  if (c == 1) {\n    node* p;\n    " + Section + "\n  }\n" +
           Tail,
       Head + "  if (c == 1) {\n    " + Section + "\n    node* p;\n  }\n" +
           Tail},
      // The same text writes the address-taken outer x (which needs a
      // lock) or the private inner one (which does not).
      {Head + "  int x = 0;\n  int* q = &x;\n  int y = 1;\n"
              "  if (c == 1) {\n    int x = 2;\n    atomic { x = y; }\n  }\n"
              "  *q = 3;\n" + Tail,
       Head + "  int x = 0;\n  int* q = &x;\n  int y = 1;\n"
              "  if (c == 1) {\n    atomic { x = y; }\n    int x = 2;\n  }\n"
              "  *q = 3;\n" + Tail},
      // Both at once: the whole printed IR is the same, so only the
      // region signature (every variable's cell, in declaration order)
      // tells the two apart.
      {Head + "  int x = 0;\n  int* q = &x;\n  int y = 1;\n"
              "  if (c == 1) {\n    int x;\n    atomic { x = y; }\n  }\n"
              "  *q = 3;\n" + Tail,
       Head + "  int x = 0;\n  int* q = &x;\n  int y = 1;\n"
              "  if (c == 1) {\n    atomic { x = y; }\n    int x;\n  }\n"
              "  *q = 3;\n" + Tail},
  };
  for (const auto &Pair : Pairs) {
    editMisses(Pair[0], Pair[1]);
    editMisses(Pair[1], Pair[0]);
    SummaryCache Cache(1024);
    IncrementalAnalyzer An(Cache);
    AnalyzeParams P;
    P.Jobs = 1;
    for (const std::string &Source : {Pair[0], Pair[1], Pair[0], Pair[1]}) {
      AnalyzeOutcome Out = An.analyze("u", Source, P);
      ASSERT_TRUE(Out.Ok) << Out.Error;
      EXPECT_EQ(Out.Report, oneShotReport(Source));
    }
  }
}

/// The byte offset of the first integer literal inside each `atomic`
/// block of \p Source, in source order (npos for a block without one).
/// Comments are skipped; the programs scanned are the repository's own.
std::vector<size_t> firstLiteralPerSection(const std::string &Source) {
  std::vector<size_t> Out;
  std::vector<std::pair<size_t, int>> Open; // (index in Out, brace depth)
  int Depth = 0;
  bool AwaitBrace = false;
  for (size_t I = 0; I < Source.size(); ++I) {
    char C = Source[I];
    if (C == '/' && I + 1 < Source.size() && Source[I + 1] == '/') {
      I = Source.find('\n', I);
      if (I == std::string::npos)
        break;
      continue;
    }
    if (C == '/' && I + 1 < Source.size() && Source[I + 1] == '*') {
      I = Source.find("*/", I + 2) + 1;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t J = I;
      while (J < Source.size() &&
             (std::isalnum(static_cast<unsigned char>(Source[J])) ||
              Source[J] == '_'))
        ++J;
      if (Source.compare(I, J - I, "atomic") == 0)
        AwaitBrace = true;
      I = J - 1;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      for (auto &[Idx, D] : Open)
        if (Out[Idx] == std::string::npos)
          Out[Idx] = I;
      while (I + 1 < Source.size() &&
             std::isdigit(static_cast<unsigned char>(Source[I + 1])))
        ++I;
      continue;
    }
    if (C == '{') {
      ++Depth;
      if (AwaitBrace) {
        Open.emplace_back(Out.size(), Depth);
        Out.push_back(std::string::npos);
        AwaitBrace = false;
      }
    } else if (C == '}') {
      if (!Open.empty() && Open.back().second == Depth)
        Open.pop_back();
      --Depth;
    }
  }
  return Out;
}

TEST(Incremental, EveryOneConstantSectionEditEqualsTheColdCompile) {
  std::vector<std::string> Paths;
  for (const char *Dir : {"/golden", "/fuzz-corpus"})
    for (const auto &E : std::filesystem::directory_iterator(
             std::string(LOCKIN_TEST_DIR) + Dir))
      if (E.path().extension() == ".atom")
        Paths.push_back(E.path().string());
  std::sort(Paths.begin(), Paths.end());
  ASSERT_GE(Paths.size(), 14u);

  unsigned Edits = 0;
  for (const std::string &Path : Paths) {
    const std::string Source = readFile(Path);
    SummaryCache Cache(4096);
    IncrementalAnalyzer An(Cache);
    AnalyzeParams P;
    P.Jobs = 1;
    for (size_t At : firstLiteralPerSection(Source)) {
      if (At == std::string::npos)
        continue;
      ASSERT_TRUE(An.analyze(Path, Source, P).Ok) << Path;
      size_t End = At;
      while (End < Source.size() &&
             std::isdigit(static_cast<unsigned char>(Source[End])))
        ++End;
      std::string Edited = Source;
      Edited.replace(At, End - At,
                     std::to_string(std::stoll(Source.substr(At, End - At)) +
                                    1000));
      AnalyzeOutcome Out = An.analyze(Path, Edited, P);
      ASSERT_TRUE(Out.Ok) << Path << " @" << At << ": " << Out.Error;
      EXPECT_EQ(Out.Report, oneShotReport(Edited)) << Path << " @" << At;
      EXPECT_EQ(Out.Reanalyzed, Out.DirtyConeSections) << Path << " @" << At;
      EXPECT_FALSE(Out.Reanalyzed.empty()) << Path << " @" << At;
      EXPECT_LT(Out.Reanalyzed.size(), Out.Sections + 1u);
      ++Edits;
    }
  }
  EXPECT_GE(Edits, 10u);
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

std::string testSocketPath(const std::string &Tag) {
  return "/tmp/lockin_test_" + std::to_string(::getpid()) + "_" + Tag +
         ".sock";
}

/// A big, inference-heavy program (many sections over shared helpers) so
/// requests take long enough to observe queue and drain behavior.
std::string slowProgram(unsigned Workers, unsigned SectionsPer) {
  std::string S = "struct node { node* next; int val; int aux; };\n"
                  "node* h0;\nnode* h1;\nnode* h2;\nnode* h3;\nint gsum;\n"
                  "int walk(node* p, int n) {\n"
                  "  int s = 0;\n"
                  "  while (p != null) { s = s + p->val; p->aux = s; "
                  "p = p->next; }\n"
                  "  return s + n;\n"
                  "}\n";
  const char *Heads[4] = {"h0", "h1", "h2", "h3"};
  for (unsigned W = 0; W < Workers; ++W) {
    S += "void worker" + std::to_string(W) + "() {\n";
    for (unsigned M = 0; M < SectionsPer; ++M) {
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
  for (unsigned W = 0; W < Workers; ++W)
    S += "  spawn worker" + std::to_string(W) + "();\n";
  S += "  return 0;\n}\n";
  return S;
}

struct RunningServer {
  Server S;
  std::thread Thread;

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
  bool Started = false;
};

Json analyzeRequest(const std::string &Unit, const std::string &Source) {
  return Json::object({{"op", Json::string("analyze")},
                       {"unit", Json::string(Unit)},
                       {"source", Json::string(Source)},
                       {"jobs", Json::integer(1)}});
}

Json opRequest(const char *Op) {
  return Json::object({{"op", Json::string(Op)}});
}

TEST(Server, EndToEndColdWarmInvalidate) {
  std::string Path = testSocketPath("e2e");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.Workers = 2;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;

  Json Resp;
  ASSERT_TRUE(C.call(opRequest("ping"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
  EXPECT_TRUE(Resp.getBool("pong", false));

  std::string Source = coneProgram(1);
  ASSERT_TRUE(C.call(analyzeRequest("u.atom", Source), Resp, Err)) << Err;
  ASSERT_TRUE(Resp.getBool("ok", false))
      << Resp.getString("error", "");
  EXPECT_EQ(Resp.getUint("cacheHits", 99), 0u);
  EXPECT_EQ(Resp.getUint("cacheMisses", 99), 2u);
  std::string ColdReport = Resp.getString("report", "");
  EXPECT_EQ(ColdReport, oneShotReport(Source));

  // Warm: same unit, same bytes — all hits, byte-identical.
  ASSERT_TRUE(C.call(analyzeRequest("u.atom", Source), Resp, Err)) << Err;
  ASSERT_TRUE(Resp.getBool("ok", false));
  EXPECT_EQ(Resp.getUint("cacheHits", 99), 2u);
  EXPECT_EQ(Resp.getUint("cacheMisses", 99), 0u);
  EXPECT_EQ(Resp.getString("report", ""), ColdReport);

  ASSERT_TRUE(C.call(opRequest("stats"), Resp, Err)) << Err;
  ASSERT_TRUE(Resp.getBool("ok", false));
  const Json *CacheStats = Resp.get("cache");
  ASSERT_NE(CacheStats, nullptr);
  EXPECT_EQ(CacheStats->getUint("hits", 0), 2u);
  EXPECT_EQ(CacheStats->getUint("entries", 0), 2u);
  EXPECT_EQ(Resp.getUint("units", 0), 1u);
  EXPECT_EQ(Resp.getUint("resubmitsServed", 99), 1u);

  // Invalidate the unit; the next analyze is cold again.
  Json Inval = opRequest("invalidate");
  Inval.set("unit", Json::string("u.atom"));
  ASSERT_TRUE(C.call(Inval, Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
  EXPECT_TRUE(Resp.getBool("known", false));

  ASSERT_TRUE(C.call(analyzeRequest("u.atom", Source), Resp, Err)) << Err;
  ASSERT_TRUE(Resp.getBool("ok", false));
  EXPECT_EQ(Resp.getUint("cacheHits", 99), 0u);
  EXPECT_EQ(Resp.getUint("cacheMisses", 99), 2u);

  // Unknown op gets a structured error, and the connection survives.
  ASSERT_TRUE(C.call(opRequest("frobnicate"), Resp, Err)) << Err;
  EXPECT_FALSE(Resp.getBool("ok", true));
  ASSERT_TRUE(C.call(opRequest("ping"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
}

TEST(Server, TooDeepNestIsDiagnosedAndTheDaemonKeepsServing) {
  std::string Path = testSocketPath("deep");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.Workers = 1;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
  Json Resp;
  std::string Deep = "int main() { int x; x = " + std::string(200000, '(') +
                     "1" + std::string(200000, ')') + "; return x; }";
  ASSERT_TRUE(C.call(analyzeRequest("deep.atom", Deep), Resp, Err)) << Err;
  EXPECT_FALSE(Resp.getBool("ok", true));
  EXPECT_NE(Resp.getString("error", "").find(
                "nesting too deep (limit " +
                std::to_string(Parser::MaxNestingDepth) + ")"),
            std::string::npos)
      << Resp.getString("error", "");

  ASSERT_TRUE(C.call(opRequest("ping"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("pong", false));

  std::string Source = coneProgram(1);
  ASSERT_TRUE(C.call(analyzeRequest("u.atom", Source), Resp, Err)) << Err;
  ASSERT_TRUE(Resp.getBool("ok", false)) << Resp.getString("error", "");
  EXPECT_EQ(Resp.getString("report", ""), oneShotReport(Source));
}

TEST(Server, ShutdownRequestDrains) {
  std::string Path = testSocketPath("shutdown");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  std::thread Runner([&S] { S.run(); });

  Client C;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
  Json Resp;
  ASSERT_TRUE(C.call(opRequest("shutdown"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
  EXPECT_TRUE(Resp.getBool("draining", false));
  Runner.join(); // run() returns — the drain completed
  EXPECT_EQ(S.requestsServed(), 1u);
}

TEST(Server, MalformedFrameGetsErrorResponse) {
  std::string Path = testSocketPath("badjson");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
  // Raw frame holding junk: the daemon answers with an error and then
  // closes (framing is unrecoverable after a malformed payload).
  Json Resp;
  ASSERT_TRUE(C.call(Json::string("not an object }{"), Resp, Err)) << Err;
  EXPECT_FALSE(Resp.getBool("ok", true));

  // Analyze with a missing field is a per-request error; the connection
  // stays usable because the frame itself was well-formed.
  Client C2;
  ASSERT_TRUE(C2.connectUnix(Path, Err)) << Err;
  Json NoSource = Json::object();
  NoSource.set("op", Json::string("analyze"));
  NoSource.set("unit", Json::string("u"));
  ASSERT_TRUE(C2.call(NoSource, Resp, Err)) << Err;
  EXPECT_FALSE(Resp.getBool("ok", true));
  ASSERT_TRUE(C2.call(opRequest("ping"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
}

TEST(Server, BackpressureAnswersOverloaded) {
  std::string Path = testSocketPath("backpressure");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.Workers = 1;
  Opts.QueueDepth = 1;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  // Four analyze frames in one pipelined burst on one connection. The
  // loop thread dispatches them back to back, microseconds apart; the
  // first always finds the queue empty, and one worker cannot finish two
  // multi-millisecond analyses inside that window, so with one queue slot
  // at least one later frame must be told "overloaded". No sleeps, no
  // racing client threads.
  std::string Slow = slowProgram(8, 8);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Fd, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, Path.c_str(), sizeof(Addr.sun_path) - 1);
  ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)),
            0);
  std::string Burst;
  for (unsigned I = 0; I < 4; ++I)
    appendFrame(Burst,
                analyzeRequest("slow" + std::to_string(I) + ".atom", Slow)
                    .str());
  ASSERT_EQ(::send(Fd, Burst.data(), Burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Burst.size()));

  unsigned OkCount = 0, OverloadedCount = 0;
  for (unsigned I = 0; I < 4; ++I) {
    Json Resp;
    std::string Err;
    ASSERT_EQ(readJson(Fd, Resp, Err), 1) << Err;
    if (Resp.getBool("ok", false))
      ++OkCount;
    else if (Resp.getString("error", "") == "overloaded")
      ++OverloadedCount;
    if (I == 0) {
      EXPECT_TRUE(Resp.getBool("ok", false)) << Resp.getString("error", "");
    }
  }
  ::close(Fd);
  EXPECT_GE(OkCount, 1u);
  EXPECT_GE(OverloadedCount, 1u);
  EXPECT_EQ(OkCount + OverloadedCount, 4u);

  if constexpr (obs::kEnabled) {
    // Every rejection left an "overloaded" flight record carrying the
    // read-to-rejection queue wait.
    Client C;
    std::string Err;
    ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
    Json Resp;
    ASSERT_TRUE(C.call(opRequest("flightrecord"), Resp, Err)) << Err;
    const Json *Records = Resp.get("records");
    ASSERT_NE(Records, nullptr);
    unsigned OverloadRecords = 0;
    for (const Json &R : Records->items())
      if (R.getString("outcome", "") == "overloaded") {
        ++OverloadRecords;
        const Json *Phases = R.get("phases_ns");
        ASSERT_NE(Phases, nullptr);
        EXPECT_GT(Phases->getUint("queue", 0), 0u);
      }
    EXPECT_EQ(OverloadRecords, OverloadedCount);
  }
}

TEST(Server, RequestTimeoutCancelsSlowAnalyze) {
  std::string Path = testSocketPath("timeout");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.RequestTimeoutMs = 1;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
  Json Resp;
  ASSERT_TRUE(C.call(analyzeRequest("slow.atom", slowProgram(8, 8)), Resp,
                     Err))
      << Err;
  EXPECT_FALSE(Resp.getBool("ok", true));
  EXPECT_TRUE(Resp.getBool("timedOut", false));
  EXPECT_EQ(Resp.getString("error", ""), "timeout");

  if constexpr (obs::kEnabled) {
    ASSERT_TRUE(C.call(opRequest("flightrecord"), Resp, Err)) << Err;
    const Json *Records = Resp.get("records");
    ASSERT_NE(Records, nullptr);
    // The deadline can fire inside analysis ("timeout") or already be
    // blown when a worker dequeues the job ("shed") — both are the same
    // client-visible contract.
    bool SawTimeout = false;
    for (const Json &R : Records->items()) {
      std::string Outcome = R.getString("outcome", "");
      SawTimeout = SawTimeout || Outcome == "timeout" || Outcome == "shed";
    }
    EXPECT_TRUE(SawTimeout);
  }
}

TEST(Server, SigtermDrainsWithZeroDroppedRequests) {
  std::string Path = testSocketPath("sigterm");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.Workers = 2;
  Opts.QueueDepth = 16;
  Server S(Opts);
  std::string Err;
  ASSERT_TRUE(S.start(Err)) << Err;
  S.installSignalHandlers();
  std::thread Runner([&S] { S.run(); });

  // Four in-flight analyzes, then SIGTERM mid-processing. Every one must
  // still receive its full response — the drain completes in-flight work
  // before the daemon exits.
  std::string Slow = slowProgram(6, 6);
  obs::Counter &Analyzes = obs::metrics().counter("service.requests.analyze");
  uint64_t AnalyzesBefore = Analyzes.value();
  std::atomic<unsigned> Answered{0};
  std::vector<std::thread> Clients;
  for (unsigned I = 0; I < 4; ++I) {
    Clients.emplace_back([&, I] {
      Client C;
      std::string CErr;
      ASSERT_TRUE(C.connectUnix(Path, CErr)) << CErr;
      Json Resp;
      ASSERT_TRUE(C.call(
          analyzeRequest('s' + std::to_string(I) + ".atom", Slow), Resp,
          CErr))
          << CErr;
      EXPECT_TRUE(Resp.getBool("ok", false))
          << Resp.getString("error", "");
      EXPECT_FALSE(Resp.getString("report", "").empty());
      Answered.fetch_add(1);
    });
  }
  // Raise SIGTERM only once the server has read all four frames (the
  // counter ticks right after a frame is read), so every client's request
  // is in flight when the drain begins, however slowly the clients start.
  while (Analyzes.value() < AnalyzesBefore + 4)
    std::this_thread::yield();
  ASSERT_EQ(std::raise(SIGTERM), 0);
  for (std::thread &T : Clients)
    T.join();
  Runner.join();
  EXPECT_EQ(Answered.load(), 4u);
  EXPECT_EQ(S.requestsServed(), 4u);
}

TEST(Server, MetricsOpServesLivePrometheus) {
  std::string Path = testSocketPath("metrics");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
  Json Resp;
  ASSERT_TRUE(C.call(analyzeRequest("m.atom", coneProgram(1)), Resp, Err))
      << Err;
  ASSERT_TRUE(Resp.getBool("ok", false)) << Resp.getString("error", "");

  // Scraped mid-session, no restart: the registry snapshot must already
  // reflect the analyze that just completed.
  ASSERT_TRUE(C.call(opRequest("metrics"), Resp, Err)) << Err;
  ASSERT_TRUE(Resp.getBool("ok", false));
  std::string Prom = Resp.getString("prometheus", "");
  EXPECT_NE(
      Prom.find("# TYPE lockin_service_requests_analyze_total counter"),
      std::string::npos);
  EXPECT_NE(Prom.find("# TYPE lockin_service_resubmits_served_total counter"),
            std::string::npos);
  const Json *Counters = Resp.get("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_GE(Counters->getUint("service.requests.analyze", 0), 1u);

  if constexpr (obs::kEnabled) {
    EXPECT_TRUE(Resp.getBool("telemetry", false));
    // Per-request phase histograms, live after one request.
    for (const char *Name :
         {"lockin_service_total_ns_count", "lockin_service_queue_ns_count",
          "lockin_service_phase_parse_ns_count",
          "lockin_service_phase_fingerprint_ns_count",
          "lockin_service_phase_analyze_ns_count",
          "lockin_service_phase_render_ns_count"})
      EXPECT_NE(Prom.find(Name), std::string::npos) << Name;
    const Json *Hists = Resp.get("histograms");
    ASSERT_NE(Hists, nullptr);
    const Json *Total = Hists->get("service.total_ns");
    ASSERT_NE(Total, nullptr);
    EXPECT_GE(Total->getUint("count", 0), 1u);
    EXPECT_GT(Total->getUint("p50", 0), 0u);
    EXPECT_GE(Total->getUint("p99", 0), Total->getUint("p50", 0));
  }

  // The op is MetricsRegistry::toJson() between "prometheus" and
  // "telemetry". A loop wakeup between the reply and the snapshot can
  // tick a loop counter, so scrape again until they meet on an idle server.
  std::string Got, Want;
  for (int Attempt = 0; Attempt < 5 && (Got.empty() || Got != Want);
       ++Attempt) {
    ASSERT_TRUE(C.call(opRequest("metrics"), Resp, Err)) << Err;
    Json Registry = obs::metrics().toJson();
    ASSERT_NE(Resp.get("prometheus"), nullptr);
    Json Expected = Json::object({{"ok", Json::boolean(true)},
                                  {"prometheus", *Resp.get("prometheus")}});
    for (const auto &[Name, Value] : Registry.members())
      Expected.set(Name, Value);
    Expected.set("telemetry", Json::boolean(obs::kEnabled));
    Got = Resp.str();
    Want = Expected.str();
  }
  EXPECT_EQ(Got, Want);
}

TEST(Server, RequestCountersStayBoundedAndEscaped) {
  std::string Path = testSocketPath("opcount");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
  Json Resp;
  for (unsigned I = 0; I < 1000; ++I)
    ASSERT_TRUE(C.call(opRequest(("op" + std::to_string(I)).c_str()), Resp,
                       Err))
        << Err;
  for (const char *Op : {"x\"y\\z", ""}) {
    ASSERT_TRUE(C.call(opRequest(Op), Resp, Err)) << Err;
    EXPECT_FALSE(Resp.getBool("ok", true));
  }

  // Only the ops the server answers have their own counter; any other op
  // counts as "unknown" (an empty one as "bad").
  const std::vector<std::string> Known = {
      "analyze", "check", "ping", "stats", "metrics", "flightrecord",
      "debug/flightrecord", "invalidate", "shutdown", "unknown", "bad"};
  Json Doc;
  ASSERT_TRUE(Json::parse(obs::metrics().toJson().str(), Doc, Err)) << Err;
  const Json *Counters = Doc.get("counters");
  ASSERT_NE(Counters, nullptr);
  const std::string Prefix = "service.requests.";
  for (const auto &[Name, Value] : Counters->members()) {
    if (Name.rfind(Prefix, 0) == 0) {
      EXPECT_EQ(std::count(Known.begin(), Known.end(),
                           Name.substr(Prefix.size())),
                1)
          << Name;
    }
  }
  EXPECT_GE(Counters->getUint("service.requests.unknown"), 1001u);
  EXPECT_GE(Counters->getUint("service.requests.bad"), 1u);
}

TEST(Server, CheckResponseEmbedsTheCheckerReport) {
  std::string Path = testSocketPath("checkjson");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
  unsigned Units = 0;
  for (const auto &E : std::filesystem::directory_iterator(goldenDir())) {
    std::string Name = E.path().filename().string();
    if (Name.rfind("check_", 0) != 0 || E.path().extension() != ".atom")
      continue;
    ++Units;
    std::string Source = readFile(E.path().string());
    CompileOptions CO;
    CO.K = Opts.DefaultK;
    CO.Check = true;
    std::unique_ptr<Compilation> Cold = compile(Source, CO);
    ASSERT_TRUE(Cold->ok() && Cold->checkReport()) << Name;
    Json Req = analyzeRequest(Name, Source);
    Req.set("op", Json::string("check"));
    // The embedded report is CheckReport::toJson() byte for byte, both
    // when the checker runs and when the per-unit cache serves it.
    for (bool Cached : {false, true}) {
      Json Resp;
      ASSERT_TRUE(C.call(Req, Resp, Err)) << Err;
      EXPECT_EQ(Resp.getBool("checkCached", !Cached), Cached) << Name;
      ASSERT_NE(Resp.get("check"), nullptr) << Resp.getString("error");
      EXPECT_EQ(Resp.get("check")->str(), Cold->checkReport()->json(Name));
    }
  }
  EXPECT_GE(Units, 5u);
}

TEST(Server, FlightRecordOpListsCompletedRequests) {
  std::string Path = testSocketPath("flightrec");
  ServerOptions Opts;
  Opts.UnixSocketPath = Path;
  Opts.FlightCapacity = 4;
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectUnix(Path, Err)) << Err;
  Json Resp;
  ASSERT_TRUE(C.call(analyzeRequest("fr.atom", coneProgram(1)), Resp, Err))
      << Err;
  ASSERT_TRUE(Resp.getBool("ok", false));
  // A trivia edit: every section still hits, but the bytes differ, so
  // the request runs every phase.
  std::string Edited = coneProgram(1) + "// trailing comment\n";
  ASSERT_TRUE(C.call(analyzeRequest("fr.atom", Edited), Resp, Err)) << Err;
  ASSERT_TRUE(Resp.getBool("ok", false));
  // An identical resubmit: served from the unit snapshot.
  ASSERT_TRUE(C.call(analyzeRequest("fr.atom", Edited), Resp, Err)) << Err;
  ASSERT_TRUE(Resp.getBool("ok", false));

  ASSERT_TRUE(C.call(opRequest("flightrecord"), Resp, Err)) << Err;
  ASSERT_TRUE(Resp.getBool("ok", false));
  EXPECT_EQ(Resp.getUint("capacity", 0), 4u);
  // The op is FlightRecorder::toJson() behind "ok" and "telemetry".
  Json Expected = Json::object({{"ok", Json::boolean(true)},
                                {"telemetry", Json::boolean(obs::kEnabled)}});
  Json Record = RS.S.flightRecorder().toJson();
  for (const auto &[Name, Value] : Record.members())
    Expected.set(Name, Value);
  EXPECT_EQ(Resp.str(), Expected.str());
  if constexpr (!obs::kEnabled) {
    EXPECT_FALSE(Resp.getBool("telemetry", true));
    EXPECT_EQ(Resp.getUint("recorded", 99), 0u);
    return;
  }
  EXPECT_TRUE(Resp.getBool("telemetry", false));
  EXPECT_EQ(Resp.getUint("recorded", 0), 3u);
  const Json *Records = Resp.get("records");
  ASSERT_NE(Records, nullptr);
  ASSERT_EQ(Records->items().size(), 3u);
  const Json &Warm = Records->items()[1]; // oldest-first
  EXPECT_EQ(Warm.getString("op", ""), "analyze");
  EXPECT_EQ(Warm.getString("unit", ""), "fr.atom");
  EXPECT_EQ(Warm.getString("outcome", ""), "ok");
  EXPECT_GT(Warm.getUint("id", 0),
            Records->items()[0].getUint("id", 99));
  EXPECT_GT(Warm.getUint("total_ns", 0), 0u);
  EXPECT_EQ(Warm.getUint("cache_hits", 0), 2u);
  const Json *Phases = Warm.get("phases_ns");
  ASSERT_NE(Phases, nullptr);
  EXPECT_GT(Phases->getUint("parse", 0), 0u);
  EXPECT_GT(Phases->getUint("analyze", 0), 0u);
  EXPECT_GT(Phases->getUint("render", 0), 0u);

  // The resubmit only probed the cache, timed as its analyze phase.
  const Json &Resubmit = Records->items()[2];
  EXPECT_EQ(Resubmit.getString("outcome", ""), "ok");
  EXPECT_EQ(Resubmit.getUint("cache_hits", 0), 2u);
  const Json *ResubmitPhases = Resubmit.get("phases_ns");
  ASSERT_NE(ResubmitPhases, nullptr);
  EXPECT_GT(ResubmitPhases->getUint("analyze", 0), 0u);
  EXPECT_EQ(ResubmitPhases->getUint("parse", 99), 0u);
  EXPECT_EQ(ResubmitPhases->getUint("fingerprint", 99), 0u);
  EXPECT_EQ(ResubmitPhases->getUint("render", 99), 0u);

  // The debug/ alias answers too.
  ASSERT_TRUE(C.call(opRequest("debug/flightrecord"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
}

TEST(Server, TcpListenerWorks) {
  ServerOptions Opts;
  Opts.TcpPort = 0; // ephemeral
  RunningServer RS(Opts);
  ASSERT_TRUE(RS.Started);
  ASSERT_GT(RS.S.port(), 0);

  Client C;
  std::string Err;
  ASSERT_TRUE(C.connectTcp(RS.S.port(), Err)) << Err;
  Json Resp;
  ASSERT_TRUE(C.call(opRequest("ping"), Resp, Err)) << Err;
  EXPECT_TRUE(Resp.getBool("ok", false));
}

} // namespace
