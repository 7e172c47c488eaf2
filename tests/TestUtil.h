//===--- TestUtil.h - Shared helpers for the test suite ---------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_TESTS_TESTUTIL_H
#define LOCKIN_TESTS_TESTUTIL_H

#include "driver/Compiler.h"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

namespace lockin {
namespace test {

/// The whole contents of \p Path; fails the test when it cannot be opened.
inline std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

/// tests/golden/, with the trailing slash.
inline std::string goldenDir() {
  return std::string(LOCKIN_TEST_DIR) + "/golden/";
}

/// Compiles \p Source and fails the test on any diagnostic.
inline std::unique_ptr<Compilation> compileOk(const std::string &Source,
                                              unsigned K = 3) {
  CompileOptions Options;
  Options.K = K;
  std::unique_ptr<Compilation> C = compile(Source, Options);
  EXPECT_TRUE(C->ok()) << C->diagnostics().str();
  return C;
}

/// Compiles \p Source expecting failure; returns the diagnostics text.
inline std::string compileError(const std::string &Source) {
  std::unique_ptr<Compilation> C = compile(Source);
  EXPECT_FALSE(C->ok()) << "expected compilation to fail";
  return C->diagnostics().str();
}

/// The lock set of section \p Id rendered as a string (sorted).
inline std::string sectionLocks(Compilation &C, uint32_t Id) {
  return C.inference().sectionLocks(Id).str();
}

/// One-line `lockin-fuzz` command reproducing a failure on a generated
/// program outside the test harness. Appended to failure messages of the
/// generator-driven property tests so a red test is directly actionable.
inline std::string fuzzRepro(const char *Family, uint64_t Seed, unsigned K,
                             uint64_t YieldSeed = 0) {
  std::string Cmd = "lockin-fuzz --family=" + std::string(Family) +
                    " --seed=" + std::to_string(Seed) +
                    " --k=" + std::to_string(K);
  if (YieldSeed)
    Cmd += " --yield-seed=" + std::to_string(YieldSeed);
  return "\nreproduce: " + Cmd;
}

/// The nesting shapes the parser's depth budget must hold at its limit.
enum class NestKind { Parens, Unary, Call, If, While, Atomic, Block };
inline constexpr NestKind AllNestKinds[] = {
    NestKind::Parens, NestKind::Unary,  NestKind::Call, NestKind::If,
    NestKind::While,  NestKind::Atomic, NestKind::Block};

/// A program whose main nests \p Levels levels of \p Kind around one
/// assignment of 1 (or -1: an odd chain of unary minus) to the value main
/// returns. The assignment statement and its expression take two nesting
/// levels of their own, so the parser's deepest point is Levels + 2.
inline std::string deepNest(NestKind Kind, unsigned Levels) {
  auto Repeat = [Levels](const char *Piece) {
    std::string S;
    for (unsigned I = 0; I < Levels; ++I)
      S += Piece;
    return S;
  };
  std::string Body;
  switch (Kind) {
  case NestKind::Parens:
    Body = "x = " + Repeat("(") + "1" + Repeat(")") + ";";
    break;
  case NestKind::Unary:
    Body = "x = " + Repeat("- ") + "1;";
    break;
  case NestKind::Call:
    Body = "x = " + Repeat("f(") + "1" + Repeat(")") + ";";
    break;
  case NestKind::If:
    Body = Repeat("if (x == 0) {\n") + "x = 1;\n" + Repeat("}");
    break;
  case NestKind::While:
    Body = Repeat("while (x == 0) ") + "x = 1;";
    break;
  case NestKind::Atomic:
    Body = Repeat("atomic { ") + "x = 1;" + Repeat(" }");
    break;
  case NestKind::Block:
    Body = Repeat("{ ") + "x = 1;" + Repeat(" }");
    break;
  }
  return "int f(int a) { return a; }\n"
         "int main() { int x; x = 0;\n" +
         Body + "\nreturn x; }\n";
}

} // namespace test
} // namespace lockin

#endif // LOCKIN_TESTS_TESTUTIL_H
