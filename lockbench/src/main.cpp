//===--- main.cpp - lockbench command line ---------------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload and prints, as the last line of standard output, one
/// JSON object: {"correct", "attempted", "failed", "metrics": {name:
/// {"value", "unit"}}}. The line before it is the host stamp (CPUs, CPU
/// model, the build type this binary was built with, source revision) with
/// the run's notes. Exit status
/// 1 when any correctness check failed, 2 on a usage error.
///
/// Every workload reports every metric of BENCHMARK.json. Untraced, each
/// fills the end-to-end metrics with its own layer's work; peak_rss_mb is
/// the process's peak resident set when the timed window starts, after
/// set-up and warm-up (the daemon's cache then grows with every edit
/// served, so a later peak would follow the host's speed). Traced, each measures the per-layer metrics of
/// the layers it drives on its own traffic, and those of the layers it
/// does not drive on a tiny, one-second probe of the workload that drives
/// them, run after its own; the probes' checks count like its own.
///
/// Usage: lockbench --workload cold|daemon|sections --seed N --seconds S
///                  --trace 0|1 [--tiny]
///                  [--inject wrong-golden|corrupt-word|repeat-edit]
///                  [--revision R]
///
/// Run from the root of the source tree: golden inputs are read from
/// tests/golden, and spans, run records and the daemon's socket go to
/// .lockbench/.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "obs/Log.h"
#include "service/Json.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sched.h>
#include <sys/stat.h>

using namespace lockbench;
using lockin::service::Json;

unsigned lockbench::loadThreads() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  int N = sched_getaffinity(0, sizeof(Set), &Set) == 0 ? CPU_COUNT(&Set) : 1;
  return static_cast<unsigned>(std::clamp(N, 1, 4));
}

double lockbench::peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

bool SpanLog::write(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::string Out = "{\"traceEvents\":[";
  char Buf[128];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out += I ? ",{\"name\":" : "{\"name\":";
    lockin::service::appendJsonString(Out, S.Name);
    std::snprintf(Buf, sizeof(Buf),
                  ",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%llu}}",
                  S.Thread, static_cast<double>(S.StartNs) / 1e3,
                  static_cast<double>(S.DurNs) / 1e3,
                  static_cast<unsigned long long>(S.Id));
    Out += Buf;
  }
  Out += "]}\n";
  std::ofstream F(Path, std::ios::binary);
  F << Out;
  return static_cast<bool>(F);
}

namespace {

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

int usage(const char *Why) {
  std::fprintf(stderr,
               "lockbench: %s\nusage: lockbench --workload "
               "cold|daemon|sections --seed N --seconds S --trace 0|1 "
               "[--tiny] [--inject "
               "wrong-golden|corrupt-word|repeat-edit] [--revision R]\n",
               Why);
  return 2;
}

bool parseUint(const char *Text, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || End == Text || *End || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

using Runner = void (*)(const Config &, Result &, SpanLog &);

const std::pair<const char *, Runner> Workloads[] = {
    {"cold", runCold}, {"daemon", runDaemon}, {"sections", runSections}};

/// Adds to \p R the per-layer metrics of the layers \p C's workload does
/// not drive, measured on tiny, untimed probes of the other workloads.
void probeOtherLayers(const Config &C, Result &R) {
  for (const auto &[Name, Run] : Workloads) {
    if (C.Workload == Name)
      continue;
    Config P = C;
    P.Workload = Name;
    P.Tiny = true;
    P.Seconds = 1;
    P.Inject = Fault::None;
    Result Probe;
    SpanLog Unwritten;
    Run(P, Probe, Unwritten);
    R.Attempted += Probe.Attempted;
    R.Failed += Probe.Failed;
    for (const std::string &Why : Probe.Failures)
      R.Failures.push_back(std::string(Name) + " probe: " + Why);
    for (Metric &M : Probe.Metrics)
      if (std::none_of(R.Metrics.begin(), R.Metrics.end(),
                       [&](const Metric &Own) { return Own.Name == M.Name; }))
        R.Metrics.push_back(std::move(M));
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  std::string Revision = "unknown";
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    bool HasValue = I + 1 < Argc;
    uint64_t V = 0;
    if (Arg == "--tiny") {
      C.Tiny = true;
    } else if (!HasValue) {
      return usage(("missing value for " + Arg).c_str());
    } else if (Arg == "--workload") {
      C.Workload = Argv[++I];
      HaveWorkload = true;
    } else if (Arg == "--seed") {
      if (!parseUint(Argv[++I], C.Seed))
        return usage("--seed takes a non-negative integer");
    } else if (Arg == "--seconds") {
      if (!parseUint(Argv[++I], V) || V == 0 || V > 60)
        return usage("--seconds takes an integer in [1, 60]");
      C.Seconds = static_cast<double>(V);
    } else if (Arg == "--trace") {
      std::string T = Argv[++I];
      if (T != "0" && T != "1")
        return usage("--trace takes 0 or 1");
      C.Trace = T == "1";
    } else if (Arg == "--revision") {
      Revision = Argv[++I];
    } else if (Arg == "--inject") {
      std::string F = Argv[++I];
      if (F == "wrong-golden")
        C.Inject = Fault::WrongGolden;
      else if (F == "corrupt-word")
        C.Inject = Fault::CorruptWord;
      else if (F == "repeat-edit")
        C.Inject = Fault::RepeatEdit;
      else
        return usage(("unknown fault " + F).c_str());
    } else {
      return usage(("unknown argument " + Arg).c_str());
    }
  }
  if (!HaveWorkload)
    return usage("--workload is required");
  if (::mkdir(C.OutDir.c_str(), 0755) != 0 && errno != EEXIST)
    return usage(("cannot create " + C.OutDir).c_str());
  // The daemon's drain dumps its flight recorder at info/warn level; the
  // benchmark's stderr is for its own failures.
  lockin::obs::log().setLevel(lockin::obs::LogLevel::Error);

  Runner Run = nullptr;
  for (const auto &[Name, Fn] : Workloads)
    if (C.Workload == Name)
      Run = Fn;
  if (!Run)
    return usage(("unknown workload " + C.Workload).c_str());

  Result R;
  SpanLog Log;
  Run(C, R, Log);
  if (C.Trace)
    probeOtherLayers(C, R);

  std::string Stem = C.OutDir + "/" + C.Workload + "-seed" +
                     std::to_string(C.Seed) + (C.Trace ? "-traced" : "");
  if (C.Trace && !Log.write(Stem + ".trace.json"))
    R.fail("cannot write " + Stem + ".trace.json");
  for (const std::string &Why : R.Failures)
    std::fprintf(stderr, "lockbench: FAILED: %s\n", Why.c_str());

  Json Host = Json::object();
  Host.set("nproc", Json::integer(loadThreads()));
  Host.set("cpu", Json::string(cpuModel()));
  Host.set("build_type", Json::string(LOCKBENCH_BUILD_TYPE));
  Host.set("revision", Json::string(Revision));
  Host.set("workload", Json::string(C.Workload));
  Host.set("seed", Json::integer(static_cast<int64_t>(C.Seed)));
  Host.set("seconds", Json::number(C.Seconds));
  Host.set("trace", Json::boolean(C.Trace));
  Json Notes = Json::object();
  for (const auto &[Name, Value] : R.Notes)
    Notes.set(Name, Json::number(Value));
  Json Stamp = Json::object();
  Stamp.set("host", std::move(Host));
  Stamp.set("notes", std::move(Notes));

  Json Metrics = Json::object();
  for (const Metric &M : R.Metrics) {
    Json Entry = Json::object();
    Entry.set("value", Json::number(M.Value));
    Entry.set("unit", Json::string(M.Unit));
    Metrics.set(M.Name, std::move(Entry));
  }
  Json Line = Json::object();
  Line.set("correct", Json::boolean(R.Failed == 0));
  Line.set("attempted",
           Json::integer(static_cast<int64_t>(std::max<uint64_t>(1, R.Attempted))));
  Line.set("failed", Json::integer(static_cast<int64_t>(R.Failed)));
  Line.set("metrics", std::move(Metrics));

  Json Record = Json::object();
  Record.set("stamp", Stamp);
  Record.set("result", Line);
  std::ofstream(Stem + ".json") << Record.str() << "\n";

  std::printf("%s\n%s\n", Stamp.str().c_str(), Line.str().c_str());
  return R.Failed == 0 ? 0 : 1;
}
