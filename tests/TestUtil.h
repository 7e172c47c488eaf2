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

} // namespace test
} // namespace lockin

#endif // LOCKIN_TESTS_TESTUTIL_H
