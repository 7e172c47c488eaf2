//===--- Parser.cpp - Recursive-descent parser ------------------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "lang/Parser.h"

using namespace lockin;

bool Parser::expect(TokenKind Kind) {
  if (Tok.is(Kind)) {
    consume();
    return true;
  }
  errorHere(std::string("expected ") + tokenKindName(Kind) + " but found " +
            tokenKindName(Tok.Kind));
  return false;
}

bool Parser::nestingTooDeep() {
  if (Depth <= MaxNestingDepth)
    return false;
  errorHere("nesting too deep (limit " + std::to_string(MaxNestingDepth) +
            ")");
  return true;
}

bool Parser::startsType() const {
  if (Tok.is(TokenKind::KwInt) || Tok.is(TokenKind::KwVoid) ||
      Tok.is(TokenKind::KwStruct))
    return true;
  return Tok.is(TokenKind::Identifier) && TypeNames.count(Tok.Text);
}

/// type := ('int' | 'void' | 'struct'? ID) '*'*
Type *Parser::parseType() {
  Type *Base = nullptr;
  if (accept(TokenKind::KwInt)) {
    Base = Prog->types().getInt();
  } else if (accept(TokenKind::KwVoid)) {
    Base = Prog->types().getVoid();
  } else {
    accept(TokenKind::KwStruct);
    if (!Tok.is(TokenKind::Identifier)) {
      errorHere("expected type name");
      return nullptr;
    }
    StructDecl *SD = Prog->findStruct(Tok.Text);
    if (!SD) {
      errorHere("unknown struct type '" + Tok.Text + "'");
      return nullptr;
    }
    consume();
    Base = Prog->types().getStruct(SD);
  }
  while (accept(TokenKind::Star))
    Base = Prog->types().getPointer(Base);
  return Base;
}

/// structdecl := 'struct' ID '{' (type ID ';')* '}' ';'
bool Parser::parseStructDecl() {
  SourceLoc Loc = Tok.Loc;
  consume(); // 'struct'
  if (!Tok.is(TokenKind::Identifier)) {
    errorHere("expected struct name");
    return false;
  }
  std::string Name = Tok.Text;
  consume();
  if (Prog->findStruct(Name)) {
    Diags.error(Loc, "redefinition of struct '" + Name + "'");
    return false;
  }
  // Register the struct before parsing fields so recursive types
  // (e.g. struct elem { elem* next; }) resolve.
  auto SD = std::make_unique<StructDecl>(Name, Loc);
  StructDecl *Raw = SD.get();
  TypeNames.insert(Name);
  Prog->addStruct(std::move(SD));
  if (!expect(TokenKind::LBrace))
    return false;
  while (!Tok.is(TokenKind::RBrace)) {
    Type *FieldTy = parseType();
    if (!FieldTy)
      return false;
    if (FieldTy->isVoid() || FieldTy->isStruct()) {
      errorHere("struct fields must be int or pointer typed");
      return false;
    }
    if (!Tok.is(TokenKind::Identifier)) {
      errorHere("expected field name");
      return false;
    }
    if (Raw->fieldIndex(Tok.Text) >= 0) {
      errorHere("duplicate field '" + Tok.Text + "'");
      return false;
    }
    Raw->addField(Tok.Text, FieldTy);
    consume();
    if (!expect(TokenKind::Semi))
      return false;
  }
  consume(); // '}'
  return expect(TokenKind::Semi);
}

bool Parser::parseCallArgs(std::vector<ExprPtr> &Args) {
  if (!expect(TokenKind::LParen))
    return false;
  if (accept(TokenKind::RParen))
    return true;
  while (true) {
    ExprPtr Arg = parseExpr();
    if (!Arg)
      return false;
    Args.push_back(std::move(Arg));
    if (accept(TokenKind::RParen))
      return true;
    if (!expect(TokenKind::Comma))
      return false;
  }
}

ExprPtr Parser::parsePrimary() {
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::IntLiteral: {
    int64_t Value = Tok.IntValue;
    consume();
    return std::make_unique<IntLitExpr>(Value, Loc);
  }
  case TokenKind::KwNull:
    consume();
    return std::make_unique<NullLitExpr>(Loc);
  case TokenKind::LParen: {
    consume();
    ExprPtr E = parseExpr();
    if (!E || !expect(TokenKind::RParen))
      return nullptr;
    return E;
  }
  case TokenKind::KwNew: {
    consume();
    bool IsInt = false;
    std::string TypeName;
    if (accept(TokenKind::KwInt)) {
      IsInt = true;
    } else {
      accept(TokenKind::KwStruct);
      if (!Tok.is(TokenKind::Identifier)) {
        errorHere("expected type name after 'new'");
        return nullptr;
      }
      TypeName = Tok.Text;
      consume();
    }
    unsigned PtrDepth = 0;
    while (accept(TokenKind::Star))
      ++PtrDepth;
    ExprPtr ArraySize;
    if (accept(TokenKind::LBracket)) {
      ArraySize = parseExpr();
      if (!ArraySize || !expect(TokenKind::RBracket))
        return nullptr;
    } else if (IsInt || PtrDepth != 0) {
      errorHere("only struct objects can be allocated singly; "
                "use new T[n] for arrays");
      return nullptr;
    }
    return std::make_unique<NewExpr>(std::move(TypeName), IsInt, PtrDepth,
                                     std::move(ArraySize), Loc);
  }
  case TokenKind::Identifier: {
    std::string Name = Tok.Text;
    consume();
    if (Tok.is(TokenKind::LParen)) {
      std::vector<ExprPtr> Args;
      if (!parseCallArgs(Args))
        return nullptr;
      return std::make_unique<CallExpr>(std::move(Name), std::move(Args), Loc);
    }
    return std::make_unique<VarRefExpr>(std::move(Name), Loc);
  }
  default:
    errorHere(std::string("expected expression, found ") +
              tokenKindName(Tok.Kind));
    return nullptr;
  }
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  if (!E)
    return nullptr;
  while (true) {
    SourceLoc Loc = Tok.Loc;
    if (accept(TokenKind::Arrow)) {
      if (!Tok.is(TokenKind::Identifier)) {
        errorHere("expected field name after '->'");
        return nullptr;
      }
      std::string Field = Tok.Text;
      consume();
      E = std::make_unique<ArrowExpr>(std::move(E), std::move(Field), Loc);
      continue;
    }
    if (accept(TokenKind::LBracket)) {
      ExprPtr Idx = parseExpr();
      if (!Idx || !expect(TokenKind::RBracket))
        return nullptr;
      E = std::make_unique<IndexExpr>(std::move(E), std::move(Idx), Loc);
      continue;
    }
    return E;
  }
}

ExprPtr Parser::parseUnary() {
  SourceLoc Loc = Tok.Loc;
  UnaryOp Op;
  if (accept(TokenKind::Star))
    Op = UnaryOp::Deref;
  else if (accept(TokenKind::Amp))
    Op = UnaryOp::AddrOf;
  else if (accept(TokenKind::Minus))
    Op = UnaryOp::Neg;
  else if (accept(TokenKind::Bang))
    Op = UnaryOp::Not;
  else
    return parsePostfix();
  NestingScope Level(Depth);
  if (nestingTooDeep())
    return nullptr;
  ExprPtr Sub = parseUnary();
  if (!Sub)
    return nullptr;
  return std::make_unique<UnaryExpr>(Op, std::move(Sub), Loc);
}

namespace {

/// One binary operator: its AST opcode and binding strength (higher binds
/// tighter). Prec 0 marks a token that is no binary operator.
struct BinaryInfo {
  BinaryOp Op = BinaryOp::Add;
  unsigned Prec = 0;
  bool Chains = true; ///< left-associative; comparisons do not chain
};

BinaryInfo binaryInfo(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe:
    return {BinaryOp::Or, 1};
  case TokenKind::AmpAmp:
    return {BinaryOp::And, 2};
  case TokenKind::EqEq:
    return {BinaryOp::Eq, 3, false};
  case TokenKind::NotEq:
    return {BinaryOp::Ne, 3, false};
  case TokenKind::Less:
    return {BinaryOp::Lt, 3, false};
  case TokenKind::LessEq:
    return {BinaryOp::Le, 3, false};
  case TokenKind::Greater:
    return {BinaryOp::Gt, 3, false};
  case TokenKind::GreaterEq:
    return {BinaryOp::Ge, 3, false};
  case TokenKind::Plus:
    return {BinaryOp::Add, 4};
  case TokenKind::Minus:
    return {BinaryOp::Sub, 4};
  case TokenKind::Star:
    return {BinaryOp::Mul, 5};
  case TokenKind::Slash:
    return {BinaryOp::Div, 5};
  case TokenKind::Percent:
    return {BinaryOp::Rem, 5};
  default:
    return {};
  }
}

} // namespace

/// Precedence climbing: parses operators binding at least as tightly as
/// \p MinPrec. After an operator of precedence P, only operators below
/// P + 1 (below P for a comparison) may continue the loop: the right
/// operand already took every tighter one, so a later operator at or
/// above that ceiling is one the right operand refused — a second
/// comparison — and is left for the caller to reject.
ExprPtr Parser::parseBinary(unsigned MinPrec) {
  ExprPtr Lhs = parseUnary();
  if (!Lhs)
    return nullptr;
  unsigned Ceiling = ~0u;
  while (true) {
    BinaryInfo Info = binaryInfo(Tok.Kind);
    if (Info.Prec == 0 || Info.Prec < MinPrec || Info.Prec >= Ceiling)
      return Lhs;
    SourceLoc Loc = Tok.Loc;
    consume();
    ExprPtr Rhs = parseBinary(Info.Prec + 1);
    if (!Rhs)
      return nullptr;
    Lhs = std::make_unique<BinaryExpr>(Info.Op, std::move(Lhs),
                                       std::move(Rhs), Loc);
    Ceiling = Info.Chains ? Info.Prec + 1 : Info.Prec;
  }
}

ExprPtr Parser::parseExpr() {
  NestingScope Level(Depth);
  if (nestingTooDeep())
    return nullptr;
  return parseBinary(1);
}

/// declstmt := type ID ('=' expr)? ';'
StmtPtr Parser::parseDeclStmt() {
  SourceLoc Loc = Tok.Loc;
  Type *Ty = parseType();
  if (!Ty)
    return nullptr;
  if (Ty->isVoid() || Ty->isStruct()) {
    Diags.error(Loc, "variables must be int or pointer typed");
    return nullptr;
  }
  if (!Tok.is(TokenKind::Identifier)) {
    errorHere("expected variable name");
    return nullptr;
  }
  auto Var = std::make_unique<VarDecl>(Tok.Text, Ty, Tok.Loc,
                                       /*IsGlobal=*/false);
  consume();
  ExprPtr Init;
  if (accept(TokenKind::Assign)) {
    Init = parseExpr();
    if (!Init)
      return nullptr;
  }
  if (!expect(TokenKind::Semi))
    return nullptr;
  return std::make_unique<DeclStmt>(std::move(Var), std::move(Init), Loc);
}

std::unique_ptr<BlockStmt> Parser::parseBlock() {
  SourceLoc Loc = Tok.Loc;
  if (!expect(TokenKind::LBrace))
    return nullptr;
  std::vector<StmtPtr> Stmts;
  while (!Tok.is(TokenKind::RBrace)) {
    if (Tok.is(TokenKind::Eof)) {
      errorHere("unexpected end of input inside block");
      return nullptr;
    }
    StmtPtr S = parseStmt();
    if (!S)
      return nullptr;
    Stmts.push_back(std::move(S));
  }
  consume(); // '}'
  return std::make_unique<BlockStmt>(std::move(Stmts), Loc);
}

/// The body of an if, else or while: a braced body is part of its
/// statement's nesting level, so `if (c) {` nests one level, not two.
StmtPtr Parser::parseBody() {
  if (Tok.is(TokenKind::LBrace))
    return parseBlock();
  return parseStmt();
}

StmtPtr Parser::parseStmt() {
  NestingScope Level(Depth);
  if (nestingTooDeep())
    return nullptr;
  SourceLoc Loc = Tok.Loc;
  switch (Tok.Kind) {
  case TokenKind::LBrace:
    return parseBlock();
  case TokenKind::KwIf: {
    consume();
    if (!expect(TokenKind::LParen))
      return nullptr;
    ExprPtr Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen))
      return nullptr;
    StmtPtr Then = parseBody();
    if (!Then)
      return nullptr;
    StmtPtr Else;
    if (accept(TokenKind::KwElse)) {
      Else = parseBody();
      if (!Else)
        return nullptr;
    }
    return std::make_unique<IfStmt>(std::move(Cond), std::move(Then),
                                    std::move(Else), Loc);
  }
  case TokenKind::KwWhile: {
    consume();
    if (!expect(TokenKind::LParen))
      return nullptr;
    ExprPtr Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen))
      return nullptr;
    StmtPtr Body = parseBody();
    if (!Body)
      return nullptr;
    return std::make_unique<WhileStmt>(std::move(Cond), std::move(Body), Loc);
  }
  case TokenKind::KwReturn: {
    consume();
    ExprPtr Value;
    if (!Tok.is(TokenKind::Semi)) {
      Value = parseExpr();
      if (!Value)
        return nullptr;
    }
    if (!expect(TokenKind::Semi))
      return nullptr;
    return std::make_unique<ReturnStmt>(std::move(Value), Loc);
  }
  case TokenKind::KwAtomic: {
    consume();
    std::unique_ptr<BlockStmt> Body = parseBlock();
    if (!Body)
      return nullptr;
    return std::make_unique<AtomicStmt>(std::move(Body), Loc);
  }
  case TokenKind::KwSpawn: {
    consume();
    if (!Tok.is(TokenKind::Identifier)) {
      errorHere("expected function name after 'spawn'");
      return nullptr;
    }
    std::string Callee = Tok.Text;
    consume();
    std::vector<ExprPtr> Args;
    if (!parseCallArgs(Args) || !expect(TokenKind::Semi))
      return nullptr;
    return std::make_unique<SpawnStmt>(std::move(Callee), std::move(Args),
                                       Loc);
  }
  case TokenKind::KwAssert: {
    consume();
    if (!expect(TokenKind::LParen))
      return nullptr;
    ExprPtr Cond = parseExpr();
    if (!Cond || !expect(TokenKind::RParen) || !expect(TokenKind::Semi))
      return nullptr;
    return std::make_unique<AssertStmt>(std::move(Cond), Loc);
  }
  default:
    break;
  }

  if (startsType())
    return parseDeclStmt();

  // Assignment or expression statement.
  ExprPtr Lhs = parseExpr();
  if (!Lhs)
    return nullptr;
  if (accept(TokenKind::Assign)) {
    ExprPtr Rhs = parseExpr();
    if (!Rhs || !expect(TokenKind::Semi))
      return nullptr;
    return std::make_unique<AssignStmt>(std::move(Lhs), std::move(Rhs), Loc);
  }
  if (!expect(TokenKind::Semi))
    return nullptr;
  return std::make_unique<ExprStmt>(std::move(Lhs), Loc);
}

std::unique_ptr<FunctionDecl> Parser::parseFunctionRest(Type *ReturnTy,
                                                        std::string Name,
                                                        SourceLoc Loc) {
  // '(' already peeked by caller; parse parameter list.
  consume(); // '('
  std::vector<std::unique_ptr<VarDecl>> Params;
  if (!accept(TokenKind::RParen)) {
    while (true) {
      SourceLoc ParamLoc = Tok.Loc;
      Type *Ty = parseType();
      if (!Ty)
        return nullptr;
      if (Ty->isVoid() || Ty->isStruct()) {
        Diags.error(ParamLoc, "parameters must be int or pointer typed");
        return nullptr;
      }
      if (!Tok.is(TokenKind::Identifier)) {
        errorHere("expected parameter name");
        return nullptr;
      }
      Params.push_back(std::make_unique<VarDecl>(Tok.Text, Ty, Tok.Loc,
                                                 /*IsGlobal=*/false));
      consume();
      if (accept(TokenKind::RParen))
        break;
      if (!expect(TokenKind::Comma))
        return nullptr;
    }
  }
  std::unique_ptr<BlockStmt> Body = parseBlock();
  if (!Body)
    return nullptr;
  return std::make_unique<FunctionDecl>(std::move(Name), ReturnTy,
                                        std::move(Params), std::move(Body),
                                        Loc);
}

bool Parser::parseTopLevel() {
  if (Tok.is(TokenKind::KwStruct)) {
    // Could be a struct definition or a declaration using 'struct T'.
    // A definition is 'struct ID {'. Peek by lexing conservatively: we only
    // support definitions with the brace immediately after the name.
    // Declarations at top level use the bare type name, so 'struct' here
    // always begins a definition.
    return parseStructDecl();
  }

  SourceLoc Loc = Tok.Loc;
  Type *Ty = parseType();
  if (!Ty)
    return false;
  if (!Tok.is(TokenKind::Identifier)) {
    errorHere("expected declaration name");
    return false;
  }
  std::string Name = Tok.Text;
  SourceLoc NameLoc = Tok.Loc;
  consume();

  if (Tok.is(TokenKind::LParen)) {
    std::unique_ptr<FunctionDecl> F = parseFunctionRest(Ty, Name, Loc);
    if (!F)
      return false;
    if (Prog->findFunction(F->name())) {
      Diags.error(Loc, "redefinition of function '" + F->name() + "'");
      return false;
    }
    Prog->addFunction(std::move(F));
    return true;
  }

  // Global variable.
  if (Ty->isVoid() || Ty->isStruct()) {
    Diags.error(Loc, "globals must be int or pointer typed");
    return false;
  }
  if (Prog->findGlobal(Name)) {
    Diags.error(NameLoc, "redefinition of global '" + Name + "'");
    return false;
  }
  ExprPtr Init;
  if (accept(TokenKind::Assign)) {
    Init = parseExpr();
    if (!Init)
      return false;
  }
  if (!expect(TokenKind::Semi))
    return false;
  Prog->addGlobal(std::make_unique<VarDecl>(Name, Ty, NameLoc,
                                            /*IsGlobal=*/true),
                  std::move(Init));
  return true;
}

std::unique_ptr<Program> Parser::parseProgram() {
  Prog = std::make_unique<Program>();
  while (!Tok.is(TokenKind::Eof)) {
    if (!parseTopLevel())
      return nullptr;
  }
  return std::move(Prog);
}
