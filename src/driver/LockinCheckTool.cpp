//===--- LockinCheckTool.cpp - The lockin-check command-line tool --------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Standalone concurrency-bug checker: compiles a program, runs the four
/// check passes (MHP, lock-set, lock-order, report) over the inference
/// result, and writes the findings as deterministic JSON and/or SARIF
/// 2.1.0.
///
///   lockin-check [options] file.atom
///     -k N                    expression-lock depth limit (default 3)
///     -j, --jobs N            inference worker threads (0 = hw)
///     --json-out FILE         write the JSON report to FILE ('-' = stdout)
///     --sarif-out FILE        write the SARIF report to FILE ('-' = stdout)
///     --elide-never-parallel  enable MHP-driven lock elision
///     --stats                 print per-pass timings + counters to stderr
///
/// With neither --json-out nor --sarif-out the JSON report goes to
/// stdout. Exit codes: 0 = analysis ran (findings do NOT affect the exit
/// code — this is a reporter, not a gate), 1 = compile failure, 2 = usage
/// error.
///
//===----------------------------------------------------------------------===//

#include "driver/Cli.h"
#include "driver/Compiler.h"
#include "support/Json.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace lockin;

namespace {

struct CheckCliOptions {
  unsigned K = 3;
  unsigned Jobs = 0;
  bool ElideNeverParallel = false;
  bool Stats = false;
  bool Help = false;
  std::string JsonOut;  ///< empty = default (stdout unless --sarif-out)
  std::string SarifOut; ///< empty = off
  std::string Path;
};

void usage(std::FILE *To) {
  std::fputs(
      "usage: lockin-check [options] file.atom\n"
      "options:\n"
      "  -k N                     expression-lock depth limit (default 3)\n"
      "  -j, --jobs N             inference worker threads; 0 = hardware\n"
      "  --json-out FILE          write the JSON report to FILE ('-' = "
      "stdout)\n"
      "  --sarif-out FILE         write SARIF 2.1.0 to FILE ('-' = stdout)\n"
      "  --elide-never-parallel   elide locks for never-parallel sections\n"
      "  --stats                  per-pass timings + counters to stderr\n"
      "  --help                   show this help\n",
      To);
}

bool parseCheckArgs(int Argc, const char *const *Argv, CheckCliOptions &Out) {
  auto value = [&](int &I, const char *Arg) -> const char * {
    const char *Eq = std::strchr(Arg, '=');
    if (Eq)
      return Eq + 1;
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: option '%s' requires a value\n", Arg);
      return nullptr;
    }
    return Argv[++I];
  };
  auto matches = [](const char *Arg, const char *Name) {
    size_t Len = std::strlen(Name);
    return std::strncmp(Arg, Name, Len) == 0 &&
           (Arg[Len] == '\0' || Arg[Len] == '=');
  };
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (Arg[0] != '-') {
      if (!Out.Path.empty()) {
        std::fprintf(stderr, "error: multiple input files ('%s' and '%s')\n",
                     Out.Path.c_str(), Arg);
        return false;
      }
      Out.Path = Arg;
    } else if (matches(Arg, "-k")) {
      const char *V = value(I, Arg);
      if (!V || !cli::parseUnsigned(V, Out.K))
        return false;
    } else if (matches(Arg, "-j") || matches(Arg, "--jobs")) {
      const char *V = value(I, Arg);
      if (!V || !cli::parseUnsigned(V, Out.Jobs))
        return false;
    } else if (matches(Arg, "--json-out")) {
      const char *V = value(I, Arg);
      if (!V || !*V)
        return false;
      Out.JsonOut = V;
    } else if (matches(Arg, "--sarif-out")) {
      const char *V = value(I, Arg);
      if (!V || !*V)
        return false;
      Out.SarifOut = V;
    } else if (std::strcmp(Arg, "--elide-never-parallel") == 0) {
      Out.ElideNeverParallel = true;
    } else if (std::strcmp(Arg, "--stats") == 0) {
      Out.Stats = true;
    } else if (std::strcmp(Arg, "--help") == 0) {
      Out.Help = true;
      return true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      return false;
    }
  }
  if (Out.Path.empty()) {
    std::fprintf(stderr, "error: no input file\n");
    return false;
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CheckCliOptions Cli;
  if (!parseCheckArgs(Argc, Argv, Cli)) {
    usage(stderr);
    return 2;
  }
  if (Cli.Help) {
    usage(stdout);
    return 0;
  }

  std::ifstream In(Cli.Path);
  if (!In) {
    std::fprintf(stderr, "error: cannot open %s\n", Cli.Path.c_str());
    return 1;
  }
  std::stringstream Buffer;
  Buffer << In.rdbuf();

  CompileOptions Options;
  Options.K = Cli.K;
  Options.Jobs = Cli.Jobs;
  Options.Check = true;
  Options.ElideNeverParallel = Cli.ElideNeverParallel;
  std::unique_ptr<Compilation> C = compile(Buffer.str(), Options);
  if (!C->ok() || !C->checkReport()) {
    std::fputs(C->diagnostics().str().c_str(), stderr);
    return 1;
  }

  if (Cli.Stats) {
    std::fputs(C->pipelineStats().renderTimings().c_str(), stderr);
    std::fputs(C->pipelineStats().renderStats().c_str(), stderr);
  }

  const check::CheckReport &R = *C->checkReport();
  bool WroteAny = false;
  if (!Cli.JsonOut.empty()) {
    if (!support::writeJsonFile(Cli.JsonOut, R.toJson(Cli.Path)))
      return 1;
    WroteAny = true;
  }
  if (!Cli.SarifOut.empty()) {
    if (!support::writeJsonFile(Cli.SarifOut, R.toSarif(Cli.Path)))
      return 1;
    WroteAny = true;
  }
  if (!WroteAny)
    support::writeJsonFile("-", R.toJson(Cli.Path));
  return 0;
}
