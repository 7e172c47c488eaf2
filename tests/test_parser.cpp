//===--- test_parser.cpp - Parser unit tests -----------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "lang/AstPrinter.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

using namespace lockin;
using lockin::test::AllNestKinds;
using lockin::test::deepNest;
using lockin::test::NestKind;

namespace {

std::unique_ptr<Program> parseOk(const std::string &Source) {
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  std::unique_ptr<Program> Prog = P.parseProgram();
  EXPECT_TRUE(Prog != nullptr) << Diags.str();
  EXPECT_FALSE(Diags.hasErrors()) << Diags.str();
  return Prog;
}

void parseFails(const std::string &Source) {
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  std::unique_ptr<Program> Prog = P.parseProgram();
  EXPECT_TRUE(!Prog || Diags.hasErrors())
      << "expected a parse error for: " << Source;
}

TEST(Parser, EmptyProgram) {
  std::unique_ptr<Program> Prog = parseOk("");
  EXPECT_TRUE(Prog->functions().empty());
  EXPECT_TRUE(Prog->structs().empty());
}

TEST(Parser, StructDeclaration) {
  std::unique_ptr<Program> Prog = parseOk(
      "struct elem { elem* next; int* data; };");
  StructDecl *SD = Prog->findStruct("elem");
  ASSERT_NE(SD, nullptr);
  ASSERT_EQ(SD->fields().size(), 2u);
  EXPECT_EQ(SD->fields()[0].Name, "next");
  EXPECT_EQ(SD->fields()[1].Name, "data");
  EXPECT_EQ(SD->fieldIndex("next"), 0);
  EXPECT_EQ(SD->fieldIndex("data"), 1);
  EXPECT_EQ(SD->fieldIndex("absent"), -1);
}

TEST(Parser, RecursiveStructType) {
  std::unique_ptr<Program> Prog = parseOk("struct n { n* next; };");
  StructDecl *SD = Prog->findStruct("n");
  ASSERT_NE(SD, nullptr);
  Type *FieldTy = SD->fields()[0].Ty;
  ASSERT_TRUE(FieldTy->isPointer());
  EXPECT_EQ(FieldTy->pointee()->structDecl(), SD);
}

TEST(Parser, GlobalVariables) {
  std::unique_ptr<Program> Prog =
      parseOk("int g = 42;\nint* p;\nstruct s { int x; };\ns* q;");
  ASSERT_NE(Prog->findGlobal("g"), nullptr);
  ASSERT_NE(Prog->findGlobal("p"), nullptr);
  ASSERT_NE(Prog->findGlobal("q"), nullptr);
  EXPECT_EQ(Prog->findGlobal("g")->type()->str(), "int");
  EXPECT_EQ(Prog->findGlobal("q")->type()->str(), "s*");
}

TEST(Parser, FunctionWithParams) {
  std::unique_ptr<Program> Prog =
      parseOk("int add(int a, int b) { return a + b; }");
  FunctionDecl *F = Prog->findFunction("add");
  ASSERT_NE(F, nullptr);
  ASSERT_EQ(F->params().size(), 2u);
  EXPECT_EQ(F->params()[0]->name(), "a");
  EXPECT_TRUE(F->returnType()->isInt());
}

TEST(Parser, PrecedenceMulOverAdd) {
  std::unique_ptr<Program> Prog =
      parseOk("int f(int a, int b, int c) { return a + b * c; }");
  const auto *Ret = cast<ReturnStmt>(
      Prog->findFunction("f")->body()->stmts()[0].get());
  const auto *Add = cast<BinaryExpr>(Ret->value());
  EXPECT_EQ(Add->op(), BinaryOp::Add);
  const auto *Mul = cast<BinaryExpr>(Add->rhs());
  EXPECT_EQ(Mul->op(), BinaryOp::Mul);
}

TEST(Parser, PrecedenceAndOverOr) {
  std::unique_ptr<Program> Prog = parseOk(
      "void f(int a) { if (a == 1 || a == 2 && a == 3) { } }");
  const auto *If =
      cast<IfStmt>(Prog->findFunction("f")->body()->stmts()[0].get());
  const auto *Or = cast<BinaryExpr>(If->cond());
  EXPECT_EQ(Or->op(), BinaryOp::Or);
  EXPECT_EQ(cast<BinaryExpr>(Or->rhs())->op(), BinaryOp::And);
}

/// The AST of the expression returned by `int f(...) { return E; }`.
std::string returnedExpr(const std::string &E) {
  std::unique_ptr<Program> Prog = parseOk(
      "int f(int a, int b, int c, int d, int e) { return " + E + "; }");
  if (!Prog)
    return "";
  const auto *Ret =
      cast<ReturnStmt>(Prog->findFunction("f")->body()->stmts()[0].get());
  return printExpr(Ret->value());
}

/// The first diagnostic \p Source produces.
std::string firstError(const std::string &Source) {
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  std::unique_ptr<Program> Prog = P.parseProgram();
  EXPECT_TRUE(!Prog || Diags.hasErrors()) << Source;
  return Diags.str().substr(0, Diags.str().find('\n'));
}

TEST(Parser, MixedPrecedenceTreesAreExact) {
  EXPECT_EQ(returnedExpr("a || b && c == d + e * a"),
            "(a || (b && (c == (d + (e * a)))))");
  EXPECT_EQ(returnedExpr("a * b + c < d - e && a || b"),
            "(((((a * b) + c) < (d - e)) && a) || b)");
  EXPECT_EQ(returnedExpr("a % b / c * d"), "(((a % b) / c) * d)");
  EXPECT_EQ(returnedExpr("a && b || c && d || e"),
            "(((a && b) || (c && d)) || e)");
  EXPECT_EQ(returnedExpr("-a * !b + (c - d) * e"),
            "((-(a) * !(b)) + ((c - d) * e))");
  EXPECT_EQ(returnedExpr("a != b + c"), "(a != (b + c))");
  EXPECT_EQ(returnedExpr("a >= b && c <= d"), "((a >= b) && (c <= d))");
}

TEST(Parser, BinaryOperatorsAssociateLeft) {
  EXPECT_EQ(returnedExpr("a - b - c"), "((a - b) - c)");
  EXPECT_EQ(returnedExpr("a / b / c"), "((a / b) / c)");
  EXPECT_EQ(returnedExpr("a || b || c"), "((a || b) || c)");
  EXPECT_EQ(returnedExpr("a - b + c - d"), "(((a - b) + c) - d)");
}

TEST(Parser, ComparisonsDoNotChain) {
  EXPECT_EQ(firstError("int f(int a, int b, int c) { return a < b < c; }"),
            "1:43: error: expected ';' but found '<'");
  // A comparison inside a tighter or looser operand still may not chain.
  EXPECT_EQ(firstError("int f(int a, int b, int c) { return a && b < c < a; }"),
            "1:48: error: expected ';' but found '<'");
  EXPECT_EQ(firstError("int f(int a, int b, int c) { return a + b == c != a; }"),
            "1:48: error: expected ';' but found '!='");
  EXPECT_EQ(returnedExpr("(a < b) < c"), "((a < b) < c)");
}

TEST(Parser, PostfixChain) {
  std::unique_ptr<Program> Prog = parseOk(
      "struct s { s* n; int* a; };\n"
      "int* f(s* p, int i) { return p->n->a; }");
  const auto *Ret = cast<ReturnStmt>(
      Prog->findFunction("f")->body()->stmts()[0].get());
  const auto *Outer = cast<ArrowExpr>(Ret->value());
  EXPECT_EQ(Outer->fieldName(), "a");
  EXPECT_EQ(cast<ArrowExpr>(Outer->base())->fieldName(), "n");
}

TEST(Parser, NewForms) {
  std::unique_ptr<Program> Prog = parseOk(
      "struct s { int x; };\n"
      "void f(int n) { s* a = new s; int* b = new int[n]; "
      "s** c = new s*[8]; }");
  const auto &Stmts = Prog->findFunction("f")->body()->stmts();
  const auto *A = cast<NewExpr>(cast<DeclStmt>(Stmts[0].get())->init());
  EXPECT_EQ(A->typeName(), "s");
  EXPECT_EQ(A->arraySize(), nullptr);
  const auto *B = cast<NewExpr>(cast<DeclStmt>(Stmts[1].get())->init());
  EXPECT_TRUE(B->isIntElem());
  EXPECT_NE(B->arraySize(), nullptr);
  const auto *C = cast<NewExpr>(cast<DeclStmt>(Stmts[2].get())->init());
  EXPECT_EQ(C->ptrDepth(), 1u);
}

TEST(Parser, AtomicBlock) {
  std::unique_ptr<Program> Prog =
      parseOk("int g; void f() { atomic { g = 1; } }");
  const auto *A =
      cast<AtomicStmt>(Prog->findFunction("f")->body()->stmts()[0].get());
  EXPECT_EQ(cast<BlockStmt>(A->body())->stmts().size(), 1u);
}

TEST(Parser, SpawnStatement) {
  std::unique_ptr<Program> Prog =
      parseOk("void w(int x) { }\nvoid f() { spawn w(3); }");
  const auto *Sp =
      cast<SpawnStmt>(Prog->findFunction("f")->body()->stmts()[0].get());
  EXPECT_EQ(Sp->calleeName(), "w");
  EXPECT_EQ(Sp->args().size(), 1u);
}

TEST(Parser, IfElseWhileNesting) {
  parseOk("void f(int a) {\n"
          "  while (a > 0)\n"
          "    if (a == 1) a = 0; else a = a - 1;\n"
          "}");
}

TEST(Parser, RoundTripThroughPrinter) {
  const char *Source =
      "struct elem { elem* next; int* data; };\n"
      "struct list { elem* head; };\n"
      "list* g;\n"
      "int n = 7;\n"
      "void move(list* from, list* to) {\n"
      "  atomic {\n"
      "    elem* x = to->head;\n"
      "    elem* y = from->head;\n"
      "    from->head = null;\n"
      "    if (x == null) { to->head = y; }\n"
      "    else { while (x->next != null) x = x->next; x->next = y; }\n"
      "  }\n"
      "}\n"
      "int main() { move(g, g); return n; }\n";
  std::unique_ptr<Program> Prog = parseOk(Source);
  std::string Printed = printProgram(*Prog);
  // The printed program must reparse, and printing again must be a fixed
  // point (canonical form).
  std::unique_ptr<Program> Again = parseOk(Printed);
  EXPECT_EQ(printProgram(*Again), Printed);
}

TEST(Parser, Errors) {
  parseFails("int f( { }");
  parseFails("void f() { x = ; }");
  parseFails("struct s { int x };"); // missing field semicolon
  parseFails("void f() { if a > 1 { } }");
  parseFails("void f() { atomic g = 1; }"); // atomic needs a block
  parseFails("int g = ;");
  parseFails("void f() { new int; }"); // int allocations need a size
  parseFails("struct s { int x; }; struct s { int y; };"); // redefinition
  parseFails("int f() { } int f() { }");
  parseFails("void f() { return 1 }"); // missing semicolon
  parseFails("void f() { unclosed(; }");
}

TEST(Parser, UnknownTypeName) {
  // With the explicit struct keyword the unknown name is a parse error...
  parseFails("void f() { struct widget* w; }");
  // ... while a bare unknown identifier parses as a multiplication and is
  // rejected later by sema (expression statements must be calls).
  parseOk("void f() { widget * w; }");
}

/// The parse of \p Source fails with the nesting diagnostic.
void failsTooDeep(const std::string &Source) {
  DiagnosticEngine Diags;
  Parser P(Source, Diags);
  EXPECT_EQ(P.parseProgram(), nullptr);
  EXPECT_NE(Diags.str().find("nesting too deep (limit " +
                             std::to_string(Parser::MaxNestingDepth) + ")"),
            std::string::npos)
      << Diags.str();
}

TEST(Parser, NestingBudgetHoldsForEveryKind) {
  // deepNest(Kind, L) reaches depth L + 2: exactly the limit passes, one
  // level more is diagnosed.
  constexpr unsigned Limit = Parser::MaxNestingDepth;
  for (NestKind Kind : AllNestKinds) {
    SCOPED_TRACE(static_cast<int>(Kind));
    parseOk(deepNest(Kind, Limit - 2));
    failsTooDeep(deepNest(Kind, Limit - 1));
  }
  // Kinds add up: half the budget of parens inside half of ifs is over.
  std::string Mixed = deepNest(NestKind::If, Limit / 2);
  Mixed.replace(Mixed.find("x = 1;"), 6,
                "x = " + std::string(Limit / 2, '(') + "1" +
                    std::string(Limit / 2, ')') + ";");
  failsTooDeep(Mixed);
}

TEST(Parser, FarTooDeepNestsAreDiagnosedWithoutRecursingFurther) {
  failsTooDeep("int main() { int x; x = " + std::string(200000, '(') + "1" +
               std::string(200000, ')') + "; return x; }");
  failsTooDeep(deepNest(NestKind::If, 20000));
}

} // namespace
