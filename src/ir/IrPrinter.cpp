//===--- IrPrinter.cpp - Textual IR dump --------------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "ir/IrPrinter.h"

using namespace lockin;
using namespace lockin::ir;

static const char *intBinOpSpelling(IntBinOp Op) {
  switch (Op) {
  case IntBinOp::Add:
    return "+";
  case IntBinOp::Sub:
    return "-";
  case IntBinOp::Mul:
    return "*";
  case IntBinOp::Div:
    return "/";
  case IntBinOp::Rem:
    return "%";
  }
  return "?";
}

static const char *cmpOpSpelling(CmpOp Op) {
  switch (Op) {
  case CmpOp::Eq:
    return "==";
  case CmpOp::Ne:
    return "!=";
  case CmpOp::Lt:
    return "<";
  case CmpOp::Le:
    return "<=";
  case CmpOp::Gt:
    return ">";
  case CmpOp::Ge:
    return ">=";
  }
  return "?";
}

namespace {

/// Appends the IR text of one statement tree to a single output buffer:
/// every level appends in place, so printing is linear in the output.
class StmtPrinter {
public:
  StmtPrinter(std::string &Out, const SectionAnnotator &Annotate,
              std::vector<SectionSpan> *Spans)
      : Out(Out), Annotate(Annotate), Spans(Spans) {}

  void print(const IrStmt *S, unsigned Indent);

private:
  template <typename... Parts> void put(const Parts &...Ps) {
    (Out += ... += Ps);
  }
  template <typename... Parts> void line(unsigned Indent, const Parts &...Ps) {
    Out.append(Indent * 2, ' ');
    put(Ps...);
  }
  /// The argument list of a call or spawn, and the line's end.
  void args(const std::vector<Variable *> &Args) {
    for (size_t I = 0; I < Args.size(); ++I)
      put(I == 0 ? "" : ", ", Args[I]->name());
    put(");\n");
  }

  std::string &Out;
  const SectionAnnotator &Annotate;
  std::vector<SectionSpan> *Spans;
};

void StmtPrinter::print(const IrStmt *S, unsigned Indent) {
  switch (S->kind()) {
  case IrStmt::Kind::Copy: {
    const auto *C = cast<CopyStmt>(S);
    line(Indent, C->def()->name(), " = ", C->src()->name(), ";\n");
    return;
  }
  case IrStmt::Kind::ConstInt: {
    const auto *C = cast<ConstIntStmt>(S);
    line(Indent, C->def()->name(), " = ", std::to_string(C->value()), ";\n");
    return;
  }
  case IrStmt::Kind::ConstNull:
    line(Indent, cast<ConstNullStmt>(S)->def()->name(), " = null;\n");
    return;
  case IrStmt::Kind::AddrOf: {
    const auto *A = cast<AddrOfStmt>(S);
    line(Indent, A->def()->name(), " = &", A->target()->name(), ";\n");
    return;
  }
  case IrStmt::Kind::FieldAddr: {
    const auto *F = cast<FieldAddrStmt>(S);
    line(Indent, F->def()->name(), " = ", F->base()->name(), " + .",
         F->fieldName(), ";\n");
    return;
  }
  case IrStmt::Kind::IndexAddr: {
    const auto *Ix = cast<IndexAddrStmt>(S);
    line(Indent, Ix->def()->name(), " = ", Ix->base()->name(), " @ ",
         Ix->index()->name(), ";\n");
    return;
  }
  case IrStmt::Kind::Load: {
    const auto *L = cast<LoadStmt>(S);
    line(Indent, L->def()->name(), " = *", L->addr()->name(), ";\n");
    return;
  }
  case IrStmt::Kind::Store: {
    const auto *St = cast<StoreStmt>(S);
    line(Indent, "*", St->addr()->name(), " = ", St->value()->name(), ";\n");
    return;
  }
  case IrStmt::Kind::Alloc: {
    const auto *A = cast<AllocStmt>(S);
    line(Indent, A->def()->name(), " = new#", std::to_string(A->siteId()));
    if (A->sizeVar())
      put("[", A->sizeVar()->name(), "]");
    put(";\n");
    return;
  }
  case IrStmt::Kind::IntBin: {
    const auto *B = cast<IntBinStmt>(S);
    line(Indent, B->def()->name(), " = ", B->lhs()->name(), " ",
         intBinOpSpelling(B->op()), " ", B->rhs()->name(), ";\n");
    return;
  }
  case IrStmt::Kind::Cmp: {
    const auto *C = cast<CmpStmt>(S);
    line(Indent, C->def()->name(), " = ", C->lhs()->name(), " ",
         cmpOpSpelling(C->op()), " ", C->rhs()->name(), ";\n");
    return;
  }
  case IrStmt::Kind::Call: {
    const auto *C = cast<CallStmt>(S);
    if (C->def())
      line(Indent, C->def()->name(), " = ", C->callee()->name(), "(");
    else
      line(Indent, C->callee()->name(), "(");
    args(C->args());
    return;
  }
  case IrStmt::Kind::Seq:
    for (const IrStmtPtr &Child : cast<SeqStmt>(S)->stmts())
      print(Child.get(), Indent);
    return;
  case IrStmt::Kind::If: {
    const auto *I = cast<IfIrStmt>(S);
    line(Indent, "if (", I->condVar()->name(), ") {\n");
    print(I->thenStmt(), Indent + 1);
    line(Indent, "}");
    if (I->elseStmt()) {
      put(" else {\n");
      print(I->elseStmt(), Indent + 1);
      line(Indent, "}");
    }
    put("\n");
    return;
  }
  case IrStmt::Kind::While: {
    const auto *W = cast<WhileIrStmt>(S);
    line(Indent, "loop {\n");
    print(W->prelude(), Indent + 1);
    line(Indent + 1, "if (!", W->condVar()->name(), ") break;\n");
    print(W->body(), Indent + 1);
    line(Indent, "}\n");
    return;
  }
  case IrStmt::Kind::Atomic: {
    const auto *A = cast<AtomicIrStmt>(S);
    std::string Annotation = Annotate ? Annotate(A->sectionId()) : "";
    if (Annotation.empty()) {
      line(Indent, "atomic #", std::to_string(A->sectionId()), " {\n");
      size_t Span = Spans ? Spans->size() : 0;
      if (Spans)
        Spans->push_back({A->sectionId(), Out.size(), 0});
      print(A->body(), Indent + 1);
      if (Spans)
        (*Spans)[Span].End = Out.size();
      line(Indent, "}\n");
      return;
    }
    line(Indent, "acquireAll(", Annotation, ");\n");
    print(A->body(), Indent);
    line(Indent, "releaseAll();\n");
    return;
  }
  case IrStmt::Kind::Return: {
    const auto *R = cast<ReturnIrStmt>(S);
    if (!R->value())
      line(Indent, "return;\n");
    else
      line(Indent, "return ", R->value()->name(), ";\n");
    return;
  }
  case IrStmt::Kind::Spawn: {
    const auto *Sp = cast<SpawnIrStmt>(S);
    line(Indent, "spawn ", Sp->callee()->name(), "(");
    args(Sp->args());
    return;
  }
  case IrStmt::Kind::Assert:
    line(Indent, "assert(", cast<AssertIrStmt>(S)->condVar()->name(),
         ");\n");
    return;
  }
  line(Indent, "<?>;\n");
}

} // namespace

void ir::printIrFunction(const IrFunction &F, std::string &Out,
                         const SectionAnnotator &Annotate,
                         std::vector<SectionSpan> *Spans) {
  Out += F.returnType()->str() + " " + F.name() + "(";
  for (unsigned I = 0; I < F.numParams(); ++I) {
    if (I != 0)
      Out += ", ";
    Out += F.param(I)->type()->str() + " " + F.param(I)->name();
  }
  Out += ") {\n";
  StmtPrinter(Out, Annotate, Spans).print(F.body(), 1);
  Out += "}\n";
}

std::string ir::printIrModule(const IrModule &M,
                              const SectionAnnotator &Annotate) {
  std::string Out;
  for (const auto &G : M.globals())
    Out += G->type()->str() + " " + G->name() + ";\n";
  if (!M.globals().empty())
    Out += "\n";
  for (const auto &F : M.functions()) {
    printIrFunction(*F, Out, Annotate);
    Out += "\n";
  }
  return Out;
}
