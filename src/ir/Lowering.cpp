//===--- Lowering.cpp - AST to normalized IR ---------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "ir/Lowering.h"

#include <cassert>

using namespace lockin;
using namespace lockin::ir;

namespace {

class Lowerer {
public:
  Lowerer(Program &Prog, DiagnosticEngine &Diags)
      : Prog(Prog), Diags(Diags),
        Module(std::make_unique<IrModule>(Prog)) {}

  std::unique_ptr<IrModule> run();

private:
  // Emission into the innermost open statement list.
  void emit(IrStmtPtr S) { Blocks.back().push_back(std::move(S)); }
  void pushBlock() { Blocks.emplace_back(); }
  IrStmtPtr popBlock(SourceLoc Loc) {
    std::vector<IrStmtPtr> Stmts = std::move(Blocks.back());
    Blocks.pop_back();
    return Module->create<SeqStmt>(std::move(Stmts), Loc);
  }

  Variable *newTemp(Type *Ty) {
    return CurFunction->addVariable("%t" + std::to_string(NextTemp++), Ty,
                                    /*IsParam=*/false);
  }

  Variable *varFor(const VarDecl *Decl) {
    if (Decl->isGlobal()) {
      Variable *G = Module->findGlobal(Decl->name());
      assert(G && "global not pre-registered");
      return G;
    }
    auto It = LocalMap.find(Decl);
    assert(It != LocalMap.end() && "local not registered");
    return It->second;
  }

  Variable *lowerExpr(const Expr *E);
  Variable *lowerAddr(const Expr *E);
  void lowerCond(const Expr *E, Variable *Out);
  void lowerStmt(const Stmt *S);
  void lowerFunction(const FunctionDecl *F, IrFunction *Ir);
  Variable *lowerCall(const CallExpr *C);

  Program &Prog;
  [[maybe_unused]] DiagnosticEngine &Diags;
  std::unique_ptr<IrModule> Module;
  IrFunction *CurFunction = nullptr;
  std::vector<std::vector<IrStmtPtr>> Blocks;
  std::unordered_map<const VarDecl *, Variable *> LocalMap;
  unsigned NextTemp = 0;
};

} // namespace

Variable *Lowerer::lowerCall(const CallExpr *C) {
  std::vector<Variable *> Args;
  for (const ExprPtr &Arg : C->args())
    Args.push_back(lowerExpr(Arg.get()));
  IrFunction *Callee = Module->findFunction(C->calleeName());
  assert(Callee && "callee not pre-registered");
  Variable *Def = nullptr;
  if (!C->callee()->returnType()->isVoid())
    Def = newTemp(C->callee()->returnType());
  emit(Module->create<CallStmt>(Def, Callee, std::move(Args), C->loc()));
  return Def;
}

/// Lowers an lvalue to a variable holding its address.
Variable *Lowerer::lowerAddr(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::VarRef: {
    Variable *Var = varFor(cast<VarRefExpr>(E)->decl());
    Var->setAddressTaken();
    Variable *T = newTemp(Prog.types().getPointer(Var->type()));
    emit(Module->create<AddrOfStmt>(T, Var, E->loc()));
    return T;
  }
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    assert(U->op() == UnaryOp::Deref && "not an lvalue");
    return lowerExpr(U->sub());
  }
  case Expr::Kind::Arrow: {
    const auto *A = cast<ArrowExpr>(E);
    Variable *Base = lowerExpr(A->base());
    Variable *T = newTemp(Prog.types().getPointer(E->type()));
    StructDecl *SD = A->base()->type()->pointee()->structDecl();
    emit(Module->create<FieldAddrStmt>(T, Base, SD, A->fieldIndex(),
                                         E->loc()));
    return T;
  }
  case Expr::Kind::Index: {
    const auto *Ix = cast<IndexExpr>(E);
    Variable *Base = lowerExpr(Ix->base());
    Variable *Idx = lowerExpr(Ix->index());
    Variable *T = newTemp(Prog.types().getPointer(E->type()));
    emit(Module->create<IndexAddrStmt>(T, Base, Idx, E->loc()));
    return T;
  }
  default:
    assert(false && "not an lvalue");
    return nullptr;
  }
}

Variable *Lowerer::lowerExpr(const Expr *E) {
  switch (E->kind()) {
  case Expr::Kind::IntLit: {
    Variable *T = newTemp(Prog.types().getInt());
    emit(Module->create<ConstIntStmt>(T, cast<IntLitExpr>(E)->value(),
                                        E->loc()));
    return T;
  }
  case Expr::Kind::NullLit: {
    // Null literals get the type of their context in sema; for IR purposes
    // a generic pointer temp suffices.
    Variable *T = newTemp(E->type());
    emit(Module->create<ConstNullStmt>(T, E->loc()));
    return T;
  }
  case Expr::Kind::VarRef:
    return varFor(cast<VarRefExpr>(E)->decl());
  case Expr::Kind::Unary: {
    const auto *U = cast<UnaryExpr>(E);
    switch (U->op()) {
    case UnaryOp::Deref: {
      Variable *Addr = lowerExpr(U->sub());
      Variable *T = newTemp(E->type());
      emit(Module->create<LoadStmt>(T, Addr, E->loc()));
      return T;
    }
    case UnaryOp::AddrOf:
      return lowerAddr(U->sub());
    case UnaryOp::Neg: {
      Variable *Zero = newTemp(Prog.types().getInt());
      emit(Module->create<ConstIntStmt>(Zero, 0, E->loc()));
      Variable *Sub = lowerExpr(U->sub());
      Variable *T = newTemp(Prog.types().getInt());
      emit(Module->create<IntBinStmt>(T, IntBinOp::Sub, Zero, Sub,
                                        E->loc()));
      return T;
    }
    case UnaryOp::Not:
      assert(false && "boolean expressions are lowered by lowerCond");
      return nullptr;
    }
    return nullptr;
  }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryExpr>(E);
    assert(!isComparisonOp(B->op()) && !isLogicalOp(B->op()) &&
           "boolean expressions are lowered by lowerCond");
    IntBinOp Op;
    switch (B->op()) {
    case BinaryOp::Add:
      Op = IntBinOp::Add;
      break;
    case BinaryOp::Sub:
      Op = IntBinOp::Sub;
      break;
    case BinaryOp::Mul:
      Op = IntBinOp::Mul;
      break;
    case BinaryOp::Div:
      Op = IntBinOp::Div;
      break;
    default:
      Op = IntBinOp::Rem;
      break;
    }
    Variable *Lhs = lowerExpr(B->lhs());
    Variable *Rhs = lowerExpr(B->rhs());
    Variable *T = newTemp(Prog.types().getInt());
    emit(Module->create<IntBinStmt>(T, Op, Lhs, Rhs, E->loc()));
    return T;
  }
  case Expr::Kind::Arrow:
  case Expr::Kind::Index: {
    Variable *Addr = lowerAddr(E);
    Variable *T = newTemp(E->type());
    emit(Module->create<LoadStmt>(T, Addr, E->loc()));
    return T;
  }
  case Expr::Kind::Call:
    return lowerCall(cast<CallExpr>(E));
  case Expr::Kind::New: {
    const auto *N = cast<NewExpr>(E);
    Variable *SizeVar = nullptr;
    if (N->arraySize())
      SizeVar = lowerExpr(N->arraySize());
    AllocSite Site;
    Site.Elem = N->elemStruct();
    Site.PtrDepth = N->ptrDepth();
    Site.IsArray = N->arraySize() != nullptr;
    Site.InFunction = CurFunction->name();
    Site.Loc = E->loc();
    uint32_t SiteId = Module->addAllocSite(Site);
    Variable *T = newTemp(E->type());
    emit(Module->create<AllocStmt>(T, SiteId, SizeVar, E->loc()));
    return T;
  }
  }
  return nullptr;
}

static CmpOp cmpOpFor(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Eq:
    return CmpOp::Eq;
  case BinaryOp::Ne:
    return CmpOp::Ne;
  case BinaryOp::Lt:
    return CmpOp::Lt;
  case BinaryOp::Le:
    return CmpOp::Le;
  case BinaryOp::Gt:
    return CmpOp::Gt;
  default:
    return CmpOp::Ge;
  }
}

/// Lowers a boolean expression into \p Out (0 or 1), preserving
/// short-circuit evaluation with nested ifs.
void Lowerer::lowerCond(const Expr *E, Variable *Out) {
  if (const auto *B = dyn_cast<BinaryExpr>(E)) {
    if (B->op() == BinaryOp::And) {
      lowerCond(B->lhs(), Out);
      pushBlock();
      lowerCond(B->rhs(), Out);
      IrStmtPtr Rhs = popBlock(E->loc());
      emit(Module->create<IfIrStmt>(Out, std::move(Rhs), nullptr,
                                      E->loc()));
      return;
    }
    if (B->op() == BinaryOp::Or) {
      lowerCond(B->lhs(), Out);
      pushBlock();
      lowerCond(B->rhs(), Out);
      IrStmtPtr Rhs = popBlock(E->loc());
      pushBlock();
      IrStmtPtr Empty = popBlock(E->loc());
      emit(Module->create<IfIrStmt>(Out, std::move(Empty), std::move(Rhs),
                                      E->loc()));
      return;
    }
    assert(isComparisonOp(B->op()) && "unexpected boolean operator");
    Variable *Lhs = lowerExpr(B->lhs());
    Variable *Rhs = lowerExpr(B->rhs());
    emit(Module->create<CmpStmt>(Out, cmpOpFor(B->op()), Lhs, Rhs,
                                   E->loc()));
    return;
  }
  const auto *U = cast<UnaryExpr>(E);
  assert(U->op() == UnaryOp::Not && "unexpected boolean expression");
  lowerCond(U->sub(), Out);
  Variable *Zero = newTemp(Prog.types().getInt());
  emit(Module->create<ConstIntStmt>(Zero, 0, E->loc()));
  emit(Module->create<CmpStmt>(Out, CmpOp::Eq, Out, Zero, E->loc()));
}

void Lowerer::lowerStmt(const Stmt *S) {
  switch (S->kind()) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : cast<BlockStmt>(S)->stmts())
      lowerStmt(Child.get());
    return;
  case Stmt::Kind::Decl: {
    const auto *D = cast<DeclStmt>(S);
    Variable *Var = CurFunction->addVariable(D->var()->name(),
                                             D->var()->type(),
                                             /*IsParam=*/false);
    LocalMap[D->var()] = Var;
    if (D->init()) {
      Variable *Init = lowerExpr(D->init());
      emit(Module->create<CopyStmt>(Var, Init, S->loc()));
    }
    return;
  }
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    if (const auto *VR = dyn_cast<VarRefExpr>(A->lhs())) {
      Variable *Rhs = lowerExpr(A->rhs());
      emit(Module->create<CopyStmt>(varFor(VR->decl()), Rhs, S->loc()));
      return;
    }
    Variable *Addr = lowerAddr(A->lhs());
    Variable *Rhs = lowerExpr(A->rhs());
    emit(Module->create<StoreStmt>(Addr, Rhs, S->loc()));
    return;
  }
  case Stmt::Kind::ExprStmt:
    lowerExpr(cast<ExprStmt>(S)->expr());
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    Variable *Cond = newTemp(Prog.types().getInt());
    lowerCond(I->cond(), Cond);
    pushBlock();
    lowerStmt(I->thenStmt());
    IrStmtPtr Then = popBlock(S->loc());
    IrStmtPtr Else;
    if (I->elseStmt()) {
      pushBlock();
      lowerStmt(I->elseStmt());
      Else = popBlock(S->loc());
    }
    emit(Module->create<IfIrStmt>(Cond, std::move(Then), std::move(Else),
                                    S->loc()));
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    Variable *Cond = newTemp(Prog.types().getInt());
    pushBlock();
    lowerCond(W->cond(), Cond);
    IrStmtPtr Prelude = popBlock(S->loc());
    pushBlock();
    lowerStmt(W->body());
    IrStmtPtr Body = popBlock(S->loc());
    emit(Module->create<WhileIrStmt>(std::move(Prelude), Cond,
                                       std::move(Body), S->loc()));
    return;
  }
  case Stmt::Kind::Return: {
    const auto *R = cast<ReturnStmt>(S);
    Variable *Value = nullptr;
    if (R->value())
      Value = lowerExpr(R->value());
    emit(Module->create<ReturnIrStmt>(Value, S->loc()));
    return;
  }
  case Stmt::Kind::Atomic: {
    const auto *A = cast<AtomicStmt>(S);
    pushBlock();
    lowerStmt(A->body());
    IrStmtPtr Body = popBlock(S->loc());
    auto Atomic = Module->create<AtomicIrStmt>(
        Module->takeAtomicSectionId(), std::move(Body), S->loc());
    CurFunction->noteAtomicSection(Atomic.get());
    emit(std::move(Atomic));
    return;
  }
  case Stmt::Kind::Spawn: {
    const auto *Sp = cast<SpawnStmt>(S);
    std::vector<Variable *> Args;
    for (const ExprPtr &Arg : Sp->args())
      Args.push_back(lowerExpr(Arg.get()));
    IrFunction *Callee = Module->findFunction(Sp->calleeName());
    assert(Callee && "spawn callee not pre-registered");
    emit(Module->create<SpawnIrStmt>(Callee, std::move(Args), S->loc()));
    return;
  }
  case Stmt::Kind::Assert: {
    const auto *As = cast<AssertStmt>(S);
    Variable *Cond = newTemp(Prog.types().getInt());
    lowerCond(As->cond(), Cond);
    emit(Module->create<AssertIrStmt>(Cond, S->loc()));
    return;
  }
  }
}

void Lowerer::lowerFunction(const FunctionDecl *F, IrFunction *Ir) {
  CurFunction = Ir;
  LocalMap.clear();
  NextTemp = 0;

  for (const auto &Param : F->params()) {
    Variable *Var = Ir->addVariable(Param->name(), Param->type(),
                                    /*IsParam=*/true);
    LocalMap[Param.get()] = Var;
  }
  if (!F->returnType()->isVoid())
    Ir->setRetVar(Ir->addVariable("%ret", F->returnType(),
                                  /*IsParam=*/false));

  pushBlock();
  lowerStmt(F->body());
  Ir->setBody(popBlock(F->loc()));
  CurFunction = nullptr;
}

std::unique_ptr<IrModule> Lowerer::run() {
  for (size_t I = 0; I < Prog.globals().size(); ++I) {
    const VarDecl *G = Prog.globals()[I].get();
    Module->addGlobal(G->name(), G->type());
    IrModule::GlobalInit Init;
    if (const Expr *E = Prog.globalInits()[I].get()) {
      if (const auto *IL = dyn_cast<IntLitExpr>(E)) {
        Init.IsNull = false;
        Init.IntValue = IL->value();
      }
    }
    Module->GlobalInits.push_back(Init);
  }
  // Register all functions first so calls resolve in one pass.
  for (const auto &F : Prog.functions())
    Module->addFunction(F->name(), F->returnType());
  for (const auto &F : Prog.functions())
    lowerFunction(F.get(), Module->findFunction(F->name()));
  return std::move(Module);
}

std::unique_ptr<IrModule> lockin::lowerProgram(Program &Prog,
                                               DiagnosticEngine &Diags) {
  Lowerer L(Prog, Diags);
  return L.run();
}
