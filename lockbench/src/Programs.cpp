//===--- Programs.cpp - Generated inputs of the lockbench workloads -------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "Programs.h"

#include "support/Rng.h"

using namespace lockbench;

namespace {

std::string num(uint64_t V) { return std::to_string(V); }

} // namespace

std::string lockbench::shallowProgram(uint64_t Seed, unsigned Funcs) {
  lockin::Rng R(Seed * 0x9e3779b97f4a7c15ULL + 0x5a11);
  constexpr unsigned Globals = 8;
  std::string S;
  for (unsigned G = 0; G < Globals; ++G)
    S += "int g" + num(G) + ";\n";
  for (unsigned F = 0; F < Funcs; ++F) {
    S += "int f" + num(F) + "(int x, int y) {\n";
    S += "  int a = x + " + num(R.below(100)) + ";\n";
    S += "  int b = y * " + num(1 + R.below(9)) + ";\n";
    S += "  int c = a - b;\n";
    unsigned Stmts = 12 + static_cast<unsigned>(R.below(8));
    for (unsigned I = 0; I < Stmts; ++I) {
      switch (R.below(5)) {
      case 0:
        S += "  a = a + b * " + num(R.below(10)) + ";\n";
        break;
      case 1:
        S += "  b = b - c + " + num(R.below(50)) + ";\n";
        break;
      case 2:
        S += "  if (a < b) { c = c + a; } else { c = c - b; }\n";
        break;
      case 3:
        S += "  c = (a + b) * (c - " + num(R.below(20)) + ");\n";
        break;
      default:
        S += "  a = a % " + num(2 + R.below(7)) + " + c;\n";
        break;
      }
    }
    if (F % 16 == 0) {
      std::string G = "g" + num(F / 16 % Globals);
      S += "  atomic { " + G + " = " + G + " + c; }\n";
    }
    S += "  return a + b + c;\n}\n";
  }
  S += "int main() {\n  int s = 0;\n";
  for (unsigned F = 0; F < Funcs; F += 16)
    S += "  s = s + f" + num(F) + "(s, " + num(F) + ");\n";
  S += "  return s;\n}\n";
  return S;
}

std::string lockbench::serviceUnit(const UnitShape &Shape,
                                   const std::vector<uint64_t> &Salts) {
  std::string S = "struct node { node* next; int val; int aux; };\n";
  for (unsigned C = 0; C < Shape.Chains; ++C)
    S += "node* head" + num(C) + ";\n";
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
  const std::string D = num(Shape.Depth);
  for (unsigned W = 0; W < Shape.Workers; ++W) {
    S += "void worker" + num(W) + "() {\n";
    for (unsigned M = 0; M < Shape.SectionsPer; ++M) {
      S += "  atomic {\n    int t = " + num(M == 0 ? Salts[W] : 0) +
           ";\n    int i = 0;\n    while (i < " + D +
           ") {\n      int j = 0;\n      while (j < " + D +
           ") {\n        int q = 0;\n        while (q < " + D +
           ") {\n          int r = 0;\n          while (r < " + D + ") {\n";
      for (unsigned C = 0; C < Shape.Chains; ++C) {
        std::string H = "head" + num((C + W + M) % Shape.Chains);
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
  for (unsigned C = 0; C < Shape.Chains; ++C) {
    std::string H = "head" + num(C);
    S += "  " + H + " = new node;\n  " + H + "->next = new node;\n";
  }
  for (unsigned W = 0; W < Shape.Workers; ++W)
    S += "  spawn worker" + num(W) + "();\n";
  S += "  return 0;\n}\n";
  return S;
}
