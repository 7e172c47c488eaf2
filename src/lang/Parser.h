//===--- Parser.h - Recursive-descent parser --------------------*- C++ -*-===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#ifndef LOCKIN_LANG_PARSER_H
#define LOCKIN_LANG_PARSER_H

#include "lang/Ast.h"
#include "lang/Lexer.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string_view>
#include <unordered_set>

namespace lockin {

/// Parses one whole program. On syntax errors, reports diagnostics and
/// returns null; there is no error recovery (inputs are machine-generated
/// or small).
class Parser {
public:
  /// The deepest nesting the parser accepts. Every statement, expression
  /// and prefix operator opens a level (a braced if/else/while body shares
  /// its statement's), so a statement in a function body sits at depth 1
  /// and its expression at 2. Past the limit the parser reports "nesting
  /// too deep" instead of recursing: every later pass (Sema, Lowering,
  /// the analysis, the printers, Interp) recurses on the same tree, and
  /// this depth keeps each of them inside an 8 MiB stack with about 2x to
  /// spare in an optimized build (ASan's redzones need about 4x).
  static constexpr unsigned MaxNestingDepth = 2000;

  Parser(std::string_view Source, DiagnosticEngine &Diags)
      : Lex(Source, Diags), Diags(Diags) {
    Tok = Lex.lex();
  }

  /// Parses the whole input; null on error.
  std::unique_ptr<Program> parseProgram();

private:
  // Token helpers.
  void consume() { Tok = Lex.lex(); }
  bool expect(TokenKind Kind);
  bool accept(TokenKind Kind) {
    if (!Tok.is(Kind))
      return false;
    consume();
    return true;
  }
  void errorHere(const std::string &Message) { Diags.error(Tok.Loc, Message); }

  /// One nesting level, held while its production parses.
  struct NestingScope {
    explicit NestingScope(unsigned &Depth) : Depth(Depth) { ++Depth; }
    ~NestingScope() { --Depth; }
    unsigned &Depth;
  };
  /// Reports the diagnostic when the current depth is past the limit.
  bool nestingTooDeep();

  // Grammar productions. All return null (or false) after reporting an
  // error; callers propagate.
  bool parseStructDecl();
  bool parseTopLevel();
  Type *parseType();
  bool startsType() const;
  std::unique_ptr<FunctionDecl> parseFunctionRest(Type *ReturnTy,
                                                  std::string Name,
                                                  SourceLoc Loc);
  StmtPtr parseStmt();
  StmtPtr parseBody();
  std::unique_ptr<BlockStmt> parseBlock();
  StmtPtr parseDeclStmt();
  ExprPtr parseExpr();
  ExprPtr parseBinary(unsigned MinPrec);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();
  bool parseCallArgs(std::vector<ExprPtr> &Args);

  Lexer Lex;
  DiagnosticEngine &Diags;
  Token Tok;
  unsigned Depth = 0;
  std::unique_ptr<Program> Prog;
  std::unordered_set<std::string> TypeNames;
};

} // namespace lockin

#endif // LOCKIN_LANG_PARSER_H
