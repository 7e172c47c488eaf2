//===--- AstPrinter.cpp - Source pretty-printer ------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "lang/AstPrinter.h"

using namespace lockin;

std::string lockin::printExpr(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit:
    return std::to_string(cast<IntLitExpr>(E)->value());
  case Expr::Kind::NullLit:
    return "null";
  case Expr::Kind::VarRef:
    return cast<VarRefExpr>(E)->name();
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    const char *Op = "";
    switch (U->op()) {
    case UnaryOp::Deref:
      Op = "*";
      break;
    case UnaryOp::AddrOf:
      Op = "&";
      break;
    case UnaryOp::Neg:
      Op = "-";
      break;
    case UnaryOp::Not:
      Op = "!";
      break;
    }
    return std::string(Op) + "(" + printExpr(U->sub()) + ")";
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    return '(' + printExpr(B->lhs()) + " " + binaryOpSpelling(B->op()) +
           " " + printExpr(B->rhs()) + ")";
  }
  case Expr::Kind::Arrow: {
    const auto *A = cast<ArrowExpr>(E);
    return '(' + printExpr(A->base()) + ")->" + A->fieldName();
  }
  case Expr::Kind::Index: {
    const auto *Ix = cast<IndexExpr>(E);
    return '(' + printExpr(Ix->base()) + ")[" + printExpr(Ix->index()) + "]";
  }
  case Expr::Kind::Call: {
    const auto *C = cast<CallExpr>(E);
    std::string Out = C->calleeName() + "(";
    for (size_t I = 0; I < C->args().size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += printExpr(C->args()[I].get());
    }
    return Out + ")";
  }
  case Expr::Kind::New: {
    const auto *N = cast<NewExpr>(E);
    std::string Out = "new ";
    Out += N->isIntElem() ? "int" : N->typeName();
    for (unsigned I = 0; I < N->ptrDepth(); ++I)
      Out += "*";
    if (N->arraySize())
      Out += '[' + printExpr(N->arraySize()) + "]";
    return Out;
  }
  }
  return "<?>";
}

static std::string pad(unsigned Indent) { return std::string(Indent * 2, ' '); }

std::string lockin::printStmt(const Stmt *S, unsigned Indent) {
  std::string P = pad(Indent);
  switch (S->kind()) {
  case Stmt::Kind::Block: {
    std::string Out = P + "{\n";
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      Out += printStmt(Child.get(), Indent + 1);
    return Out + P + "}\n";
  }
  case Stmt::Kind::Decl: {
    const auto *D = cast<DeclStmt>(S);
    std::string Out = P + D->var()->type()->str() + " " + D->var()->name();
    if (D->init())
      Out += " = " + printExpr(D->init());
    return Out + ";\n";
  }
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    return P + printExpr(A->lhs()) + " = " + printExpr(A->rhs()) + ";\n";
  }
  case Stmt::Kind::ExprStmt:
    return P + printExpr(cast<ExprStmt>(S)->expr()) + ";\n";
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    std::string Out = P + "if (" + printExpr(I->cond()) + ")\n" +
                      printStmt(I->thenStmt(), Indent + 1);
    if (I->elseStmt())
      Out += P + "else\n" + printStmt(I->elseStmt(), Indent + 1);
    return Out;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    return P + "while (" + printExpr(W->cond()) + ")\n" +
           printStmt(W->body(), Indent + 1);
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    if (!R->value())
      return P + "return;\n";
    return P + "return " + printExpr(R->value()) + ";\n";
  }
  case Stmt::Kind::Atomic:
    return P + "atomic\n" +
           printStmt(cast<AtomicStmt>(S)->body(), Indent + 1);
  case Stmt::Kind::Spawn: {
    const auto *Sp = cast<SpawnStmt>(S);
    std::string Out = P + "spawn " + Sp->calleeName() + "(";
    for (size_t I = 0; I < Sp->args().size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += printExpr(Sp->args()[I].get());
    }
    return Out + ");\n";
  }
  case Stmt::Kind::Assert:
    return P + "assert(" + printExpr(cast<AssertStmt>(S)->cond()) + ");\n";
  }
  return P + "<?>;\n";
}

std::string lockin::printProgram(const Program &Prog) {
  std::string Out;
  for (const auto &SD : Prog.structs()) {
    Out += "struct " + SD->name() + " {\n";
    for (const StructDecl::Field &F : SD->fields())
      Out += "  " + F.Ty->str() + " " + F.Name + ";\n";
    Out += "};\n\n";
  }
  for (size_t I = 0; I < Prog.globals().size(); ++I) {
    const VarDecl *Var = Prog.globals()[I].get();
    Out += Var->type()->str() + " " + Var->name();
    if (Prog.globalInits()[I])
      Out += " = " + printExpr(Prog.globalInits()[I].get());
    Out += ";\n";
  }
  if (!Prog.globals().empty())
    Out += "\n";
  for (const auto &F : Prog.functions()) {
    Out += F->returnType()->str() + " " + F->name() + "(";
    for (size_t I = 0; I < F->params().size(); ++I) {
      if (I != 0)
        Out += ", ";
      Out += F->params()[I]->type()->str() + " " + F->params()[I]->name();
    }
    Out += ")\n";
    Out += printStmt(F->body(), 0);
    Out += "\n";
  }
  return Out;
}
