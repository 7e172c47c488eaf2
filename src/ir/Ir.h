//===--- Ir.h - Normalized intermediate representation ----------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The normalized IR the lock inference operates on. Every assignment is
/// lowered to one of the canonical statement forms of the paper's Fig. 4
/// (x=y, x=y+i, x=&y, x=*y, x=new, x=null, *x=y) plus the implementation
/// extensions (integer ops, comparisons, array-element addresses, calls,
/// spawn). Control flow stays structured (seq / if / while / atomic), which
/// lets the backward dataflow analysis run by structural recursion with a
/// fixpoint at loops.
///
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_IR_IR_H
#define LOCKIN_IR_IR_H

#include "lang/Ast.h"
#include "support/Arena.h"
#include "support/Casting.h"

#include <memory>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace lockin {
namespace ir {

class IrFunction;

//===----------------------------------------------------------------------===//
// Variables
//===----------------------------------------------------------------------===//

/// One variable slot: global, parameter, source local, or compiler temp.
/// Identity is the pointer; ids order variables deterministically.
class Variable {
public:
  Variable(std::string Name, Type *Ty, uint32_t Id, bool IsGlobal,
           bool IsParam)
      : Name(std::move(Name)), Ty(Ty), Id(Id), Global(IsGlobal),
        Param(IsParam) {}

  const std::string &name() const { return Name; }
  Type *type() const { return Ty; }
  uint32_t id() const { return Id; }
  bool isGlobal() const { return Global; }
  bool isParam() const { return Param; }

  /// True once some `&x` was lowered; such locals may be shared between
  /// threads, so accesses to them need locks (paper §4.3: locks on
  /// thread-local variables whose address is never taken are omitted).
  bool isAddressTaken() const { return AddressTaken; }
  void setAddressTaken() { AddressTaken = true; }

  /// The function owning this local/param/temp; null for globals.
  IrFunction *owner() const { return Owner; }
  void setOwner(IrFunction *F) { Owner = F; }

private:
  std::string Name;
  Type *Ty;
  uint32_t Id;
  bool Global;
  bool Param;
  bool AddressTaken = false;
  IrFunction *Owner = nullptr;
};

//===----------------------------------------------------------------------===//
// Allocation sites
//===----------------------------------------------------------------------===//

/// A static `new` occurrence. The points-to analysis assigns every site to
/// a region; the runtime tags every allocated object with its site so
/// coarse region locks can be checked and acquired dynamically.
struct AllocSite {
  uint32_t Id;
  /// Element struct; null for int arrays and arrays of pointers.
  StructDecl *Elem;
  /// Pointer depth of array elements (new node*[n] has depth 1).
  unsigned PtrDepth;
  bool IsArray;
  std::string InFunction;
  SourceLoc Loc;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

enum class IntBinOp { Add, Sub, Mul, Div, Rem };
enum class CmpOp { Eq, Ne, Lt, Le, Gt, Ge };

class IrStmt {
public:
  enum class Kind {
    // Normalized primitive statements.
    Copy,      ///< x = y
    ConstInt,  ///< x = n
    ConstNull, ///< x = null
    AddrOf,    ///< x = &y
    FieldAddr, ///< x = y + f        (address of field f of *y)
    IndexAddr, ///< x = y @ i        (address of element i of array y)
    Load,      ///< x = *y
    Store,     ///< *x = y
    Alloc,     ///< x = new(site)    (optionally sized by an int variable)
    IntBin,    ///< x = y op z
    Cmp,       ///< x = (y cmp z)    (int 0/1; y,z int or pointer vars)
    Call,      ///< x = f(a0..an)    (x null for void calls)
    // Structured statements.
    Seq,
    If,
    While,
    Atomic,
    Return,
    Spawn,
    Assert,
  };

  virtual ~IrStmt() = default;
  Kind kind() const { return K; }
  SourceLoc loc() const { return Loc; }

protected:
  IrStmt(Kind K, SourceLoc Loc) : K(K), Loc(Loc) {}

private:
  Kind K;
  SourceLoc Loc;
};

/// Destroy-only deleter for statements owned by the module's bump arena:
/// unique_ptr ownership (and the `.get()`-shaped call sites) stay exactly
/// as before, but destruction only runs the destructor — the memory is
/// released in bulk when the module's arena dies.
template <typename T> struct ArenaDelete {
  ArenaDelete() = default;
  template <typename U,
            typename = std::enable_if_t<std::is_convertible_v<U *, T *>>>
  ArenaDelete(const ArenaDelete<U> &) {}
  void operator()(T *P) const { P->~T(); }
};

using IrStmtPtr = std::unique_ptr<IrStmt, ArenaDelete<IrStmt>>;

/// Base for the primitive (non-structured) statements; Def is the assigned
/// variable (null only for void calls).
class InstStmt : public IrStmt {
public:
  Variable *def() const { return Def; }

  static bool classof(const IrStmt *S) {
    return S->kind() <= Kind::Call;
  }

protected:
  InstStmt(Kind K, Variable *Def, SourceLoc Loc) : IrStmt(K, Loc), Def(Def) {}

private:
  Variable *Def;
};

class CopyStmt : public InstStmt {
public:
  CopyStmt(Variable *Def, Variable *Src, SourceLoc Loc)
      : InstStmt(Kind::Copy, Def, Loc), Src(Src) {}
  Variable *src() const { return Src; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Copy; }

private:
  Variable *Src;
};

class ConstIntStmt : public InstStmt {
public:
  ConstIntStmt(Variable *Def, int64_t Value, SourceLoc Loc)
      : InstStmt(Kind::ConstInt, Def, Loc), Value(Value) {}
  int64_t value() const { return Value; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::ConstInt; }

private:
  int64_t Value;
};

class ConstNullStmt : public InstStmt {
public:
  ConstNullStmt(Variable *Def, SourceLoc Loc)
      : InstStmt(Kind::ConstNull, Def, Loc) {}
  static bool classof(const IrStmt *S) {
    return S->kind() == Kind::ConstNull;
  }
};

class AddrOfStmt : public InstStmt {
public:
  AddrOfStmt(Variable *Def, Variable *Target, SourceLoc Loc)
      : InstStmt(Kind::AddrOf, Def, Loc), Target(Target) {}
  Variable *target() const { return Target; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::AddrOf; }

private:
  Variable *Target;
};

class FieldAddrStmt : public InstStmt {
public:
  FieldAddrStmt(Variable *Def, Variable *Base, StructDecl *Struct,
                int FieldIdx, SourceLoc Loc)
      : InstStmt(Kind::FieldAddr, Def, Loc), Base(Base), Struct(Struct),
        FieldIdx(FieldIdx) {}
  Variable *base() const { return Base; }
  StructDecl *structDecl() const { return Struct; }
  int fieldIndex() const { return FieldIdx; }
  const std::string &fieldName() const {
    return Struct->fields()[FieldIdx].Name;
  }
  static bool classof(const IrStmt *S) {
    return S->kind() == Kind::FieldAddr;
  }

private:
  Variable *Base;
  StructDecl *Struct;
  int FieldIdx;
};

class IndexAddrStmt : public InstStmt {
public:
  IndexAddrStmt(Variable *Def, Variable *Base, Variable *Index,
                SourceLoc Loc)
      : InstStmt(Kind::IndexAddr, Def, Loc), Base(Base), Index(Index) {}
  Variable *base() const { return Base; }
  Variable *index() const { return Index; }
  static bool classof(const IrStmt *S) {
    return S->kind() == Kind::IndexAddr;
  }

private:
  Variable *Base;
  Variable *Index;
};

class LoadStmt : public InstStmt {
public:
  LoadStmt(Variable *Def, Variable *Addr, SourceLoc Loc)
      : InstStmt(Kind::Load, Def, Loc), Addr(Addr) {}
  Variable *addr() const { return Addr; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Load; }

private:
  Variable *Addr;
};

class StoreStmt : public InstStmt {
public:
  StoreStmt(Variable *Addr, Variable *Value, SourceLoc Loc)
      : InstStmt(Kind::Store, /*Def=*/nullptr, Loc), Addr(Addr),
        Value(Value) {}
  Variable *addr() const { return Addr; }
  Variable *value() const { return Value; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Store; }

private:
  Variable *Addr;
  Variable *Value;
};

class AllocStmt : public InstStmt {
public:
  AllocStmt(Variable *Def, uint32_t SiteId, Variable *SizeVar, SourceLoc Loc)
      : InstStmt(Kind::Alloc, Def, Loc), SiteId(SiteId), SizeVar(SizeVar) {}
  uint32_t siteId() const { return SiteId; }
  /// Null for single-struct allocations.
  Variable *sizeVar() const { return SizeVar; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Alloc; }

private:
  uint32_t SiteId;
  Variable *SizeVar;
};

class IntBinStmt : public InstStmt {
public:
  IntBinStmt(Variable *Def, IntBinOp Op, Variable *Lhs, Variable *Rhs,
             SourceLoc Loc)
      : InstStmt(Kind::IntBin, Def, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  IntBinOp op() const { return Op; }
  Variable *lhs() const { return Lhs; }
  Variable *rhs() const { return Rhs; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::IntBin; }

private:
  IntBinOp Op;
  Variable *Lhs;
  Variable *Rhs;
};

class CmpStmt : public InstStmt {
public:
  CmpStmt(Variable *Def, CmpOp Op, Variable *Lhs, Variable *Rhs,
          SourceLoc Loc)
      : InstStmt(Kind::Cmp, Def, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  CmpOp op() const { return Op; }
  Variable *lhs() const { return Lhs; }
  Variable *rhs() const { return Rhs; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Cmp; }

private:
  CmpOp Op;
  Variable *Lhs;
  Variable *Rhs;
};

class CallStmt : public InstStmt {
public:
  CallStmt(Variable *Def, IrFunction *Callee, std::vector<Variable *> Args,
           SourceLoc Loc)
      : InstStmt(Kind::Call, Def, Loc), Callee(Callee),
        Args(std::move(Args)) {}
  IrFunction *callee() const { return Callee; }
  const std::vector<Variable *> &args() const { return Args; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Call; }

private:
  IrFunction *Callee;
  std::vector<Variable *> Args;
};

class SeqStmt : public IrStmt {
public:
  SeqStmt(std::vector<IrStmtPtr> Stmts, SourceLoc Loc)
      : IrStmt(Kind::Seq, Loc), Stmts(std::move(Stmts)) {}
  const std::vector<IrStmtPtr> &stmts() const { return Stmts; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Seq; }

private:
  std::vector<IrStmtPtr> Stmts;
};

/// if (CondVar != 0) Then else Else. Else may be null.
class IfIrStmt : public IrStmt {
public:
  IfIrStmt(Variable *CondVar, IrStmtPtr Then, IrStmtPtr Else, SourceLoc Loc)
      : IrStmt(Kind::If, Loc), CondVar(CondVar), Then(std::move(Then)),
        Else(std::move(Else)) {}
  Variable *condVar() const { return CondVar; }
  IrStmt *thenStmt() const { return Then.get(); }
  IrStmt *elseStmt() const { return Else.get(); }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::If; }

private:
  Variable *CondVar;
  IrStmtPtr Then;
  IrStmtPtr Else;
};

/// loop { Prelude; if (CondVar == 0) break; Body }. Prelude re-evaluates
/// the source condition into CondVar on every iteration, preserving
/// short-circuit semantics via nested ifs.
class WhileIrStmt : public IrStmt {
public:
  WhileIrStmt(IrStmtPtr Prelude, Variable *CondVar, IrStmtPtr Body,
              SourceLoc Loc)
      : IrStmt(Kind::While, Loc), Prelude(std::move(Prelude)),
        CondVar(CondVar), Body(std::move(Body)) {}
  IrStmt *prelude() const { return Prelude.get(); }
  Variable *condVar() const { return CondVar; }
  IrStmt *body() const { return Body.get(); }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::While; }

private:
  IrStmtPtr Prelude;
  Variable *CondVar;
  IrStmtPtr Body;
};

/// An atomic section. Before the transformation, Locks is empty and the
/// interpreter treats entry as acquiring nothing (checked mode then flags
/// every shared access). The transformation fills Locks with the inferred
/// acquireAll set (serialized lock descriptors; see infer/LockSet.h).
class AtomicIrStmt : public IrStmt {
public:
  AtomicIrStmt(uint32_t SectionId, IrStmtPtr Body, SourceLoc Loc)
      : IrStmt(Kind::Atomic, Loc), SectionId(SectionId),
        Body(std::move(Body)) {}
  uint32_t sectionId() const { return SectionId; }
  IrStmt *body() const { return Body.get(); }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Atomic; }

private:
  uint32_t SectionId;
  IrStmtPtr Body;
};

class ReturnIrStmt : public IrStmt {
public:
  ReturnIrStmt(Variable *Value, SourceLoc Loc)
      : IrStmt(Kind::Return, Loc), Value(Value) {}
  /// Null for void returns.
  Variable *value() const { return Value; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Return; }

private:
  Variable *Value;
};

class SpawnIrStmt : public IrStmt {
public:
  SpawnIrStmt(IrFunction *Callee, std::vector<Variable *> Args,
              SourceLoc Loc)
      : IrStmt(Kind::Spawn, Loc), Callee(Callee), Args(std::move(Args)) {}
  IrFunction *callee() const { return Callee; }
  const std::vector<Variable *> &args() const { return Args; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Spawn; }

private:
  IrFunction *Callee;
  std::vector<Variable *> Args;
};

class AssertIrStmt : public IrStmt {
public:
  AssertIrStmt(Variable *CondVar, SourceLoc Loc)
      : IrStmt(Kind::Assert, Loc), CondVar(CondVar) {}
  Variable *condVar() const { return CondVar; }
  static bool classof(const IrStmt *S) { return S->kind() == Kind::Assert; }

private:
  Variable *CondVar;
};

//===----------------------------------------------------------------------===//
// Statement walker
//===----------------------------------------------------------------------===//

/// The lexical position of a visited statement within the walked root.
struct WalkContext {
  bool InLoop = false;   ///< inside some While's prelude or body
  bool InAtomic = false; ///< inside some Atomic's body
};

/// Visits \p Root and every statement nested in it in pre-order, in source
/// order: Seq children, then/else, prelude/body, the atomic body. \p Visit
/// is called as `bool Visit(const IrStmt *, WalkContext)` and returns false
/// to skip the statement's children. A null root visits nothing. The walk
/// keeps an explicit stack, so nesting depth costs no C++ stack.
///
/// Passes that only collect facts use this. The passes that give each
/// statement kind its own meaning (the backward lock analysis, the MHP
/// before-sets, the printer and the interpreter) recurse themselves.
template <class Fn> void walkStmts(const IrStmt *Root, Fn &&Visit) {
  // What is left to visit after the current subtree: one statement, or
  // the rest of a Seq's children [Next, End).
  struct Pending {
    const IrStmt *One;
    const IrStmtPtr *Next, *End;
    WalkContext Ctx;
  };
  std::vector<Pending> Stack;
  const IrStmt *S = Root;
  WalkContext Ctx;
  while (S) {
    // A statement's first child is visited next without a trip through
    // the stack; only its later siblings wait there.
    const IrStmt *First = nullptr;
    if (Visit(S, Ctx)) {
      switch (S->kind()) {
      case IrStmt::Kind::Seq: {
        const auto &Children = cast<SeqStmt>(S)->stmts();
        if (Children.size() > 1)
          Stack.push_back({nullptr, Children.data() + 1,
                           Children.data() + Children.size(), Ctx});
        if (!Children.empty())
          First = Children.front().get();
        break;
      }
      case IrStmt::Kind::If: {
        const auto *I = cast<IfIrStmt>(S);
        if (I->elseStmt())
          Stack.push_back({I->elseStmt(), nullptr, nullptr, Ctx});
        First = I->thenStmt();
        break;
      }
      case IrStmt::Kind::While: {
        const auto *W = cast<WhileIrStmt>(S);
        Ctx.InLoop = true;
        Stack.push_back({W->body(), nullptr, nullptr, Ctx});
        First = W->prelude();
        break;
      }
      case IrStmt::Kind::Atomic:
        Ctx.InAtomic = true;
        First = cast<AtomicIrStmt>(S)->body();
        break;
      default:
        break;
      }
    }
    if (First) {
      S = First;
      continue;
    }
    if (Stack.empty())
      return;
    Pending &Top = Stack.back();
    Ctx = Top.Ctx;
    if (Top.One) {
      S = Top.One;
      Stack.pop_back();
    } else {
      S = (Top.Next++)->get();
      if (Top.Next == Top.End)
        Stack.pop_back();
    }
  }
}

//===----------------------------------------------------------------------===//
// Functions and modules
//===----------------------------------------------------------------------===//

class IrFunction {
public:
  IrFunction(std::string Name, Type *ReturnTy, unsigned Index)
      : Name(std::move(Name)), ReturnTy(ReturnTy), Index(Index) {}

  const std::string &name() const { return Name; }
  /// Position in the owning module's functions().
  unsigned index() const { return Index; }
  Type *returnType() const { return ReturnTy; }

  Variable *addVariable(std::string VarName, Type *Ty, bool IsParam) {
    auto Var = std::make_unique<Variable>(
        std::move(VarName), Ty, static_cast<uint32_t>(Vars.size()),
        /*IsGlobal=*/false, IsParam);
    Var->setOwner(this);
    Vars.push_back(std::move(Var));
    if (IsParam)
      ++ParamCount;
    return Vars.back().get();
  }

  const std::vector<std::unique_ptr<Variable>> &variables() const {
    return Vars;
  }
  unsigned numParams() const { return ParamCount; }
  Variable *param(unsigned I) const { return Vars[I].get(); }

  /// The variable modeling ret_f; null for void functions.
  Variable *retVar() const { return RetVar; }
  void setRetVar(Variable *V) { RetVar = V; }

  IrStmt *body() const { return Body.get(); }
  void setBody(IrStmtPtr B) { Body = std::move(B); }

  /// All atomic sections lexically inside this function, in section-id
  /// order; populated by lowering.
  const std::vector<AtomicIrStmt *> &atomicSections() const {
    return Atomics;
  }
  void noteAtomicSection(AtomicIrStmt *S) { Atomics.push_back(S); }

private:
  std::string Name;
  Type *ReturnTy;
  unsigned Index;
  std::vector<std::unique_ptr<Variable>> Vars;
  unsigned ParamCount = 0;
  Variable *RetVar = nullptr;
  IrStmtPtr Body;
  std::vector<AtomicIrStmt *> Atomics;
};

/// A lowered whole program. Keeps a non-owning pointer to the source
/// Program (for types); the Program must outlive the module.
class IrModule {
public:
  explicit IrModule(Program &Source) : Source(&Source) {}

  Program &sourceProgram() const { return *Source; }

  /// Allocates a statement in the module's arena. The returned unique_ptr
  /// runs only the destructor; the memory outlives it (until the module
  /// dies). Not thread-safe; lowering is single-threaded.
  template <typename T, typename... Args>
  std::unique_ptr<T, ArenaDelete<T>> create(Args &&...As) {
    static_assert(std::is_base_of_v<IrStmt, T>,
                  "arena creation is for IR statements");
    return std::unique_ptr<T, ArenaDelete<T>>(
        Arena.createUnowned<T>(std::forward<Args>(As)...));
  }

  /// Payload bytes of arena-allocated IR statements.
  size_t arenaBytes() const { return Arena.bytesAllocated(); }

  Variable *addGlobal(std::string Name, Type *Ty) {
    auto Var = std::make_unique<Variable>(
        std::move(Name), Ty, static_cast<uint32_t>(Globals.size()),
        /*IsGlobal=*/true, /*IsParam=*/false);
    Globals.push_back(std::move(Var));
    GlobalMap[Globals.back()->name()] = Globals.back().get();
    return Globals.back().get();
  }

  IrFunction *addFunction(std::string Name, Type *ReturnTy) {
    Functions.push_back(std::make_unique<IrFunction>(
        std::move(Name), ReturnTy, static_cast<unsigned>(Functions.size())));
    FunctionMap[Functions.back()->name()] = Functions.back().get();
    return Functions.back().get();
  }

  uint32_t addAllocSite(AllocSite Site) {
    Site.Id = static_cast<uint32_t>(AllocSites.size());
    AllocSites.push_back(Site);
    return Site.Id;
  }

  Variable *findGlobal(const std::string &Name) const {
    auto It = GlobalMap.find(Name);
    return It == GlobalMap.end() ? nullptr : It->second;
  }
  IrFunction *findFunction(const std::string &Name) const {
    auto It = FunctionMap.find(Name);
    return It == FunctionMap.end() ? nullptr : It->second;
  }

  const std::vector<std::unique_ptr<Variable>> &globals() const {
    return Globals;
  }
  const std::vector<std::unique_ptr<IrFunction>> &functions() const {
    return Functions;
  }
  const std::vector<AllocSite> &allocSites() const { return AllocSites; }

  /// Global initializer values (int or null), parallel to globals().
  struct GlobalInit {
    bool IsNull = true;
    int64_t IntValue = 0;
  };
  std::vector<GlobalInit> GlobalInits;

  /// Total number of atomic sections across all functions.
  uint32_t numAtomicSections() const { return NumAtomicSections; }
  uint32_t takeAtomicSectionId() { return NumAtomicSections++; }

private:
  Program *Source;
  /// Declared before Functions: function bodies' statement destructors
  /// (run when Functions is destroyed) touch arena memory, so the arena
  /// must die last.
  support::BumpArena Arena;
  std::vector<std::unique_ptr<Variable>> Globals;
  std::vector<std::unique_ptr<IrFunction>> Functions;
  std::vector<AllocSite> AllocSites;
  std::unordered_map<std::string, Variable *> GlobalMap;
  std::unordered_map<std::string, IrFunction *> FunctionMap;
  uint32_t NumAtomicSections = 0;
};

} // namespace ir
} // namespace lockin

#endif // LOCKIN_IR_IR_H
