//===--- Lexer.cpp - Tokenizer for the input language ----------------------===//
//
// Part of the lockin project: lock inference for atomic sections.
//
//===----------------------------------------------------------------------===//

#include "lang/Lexer.h"

#include <cctype>
#include <cstring>

using namespace lockin;

const char *lockin::tokenKindName(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::Eof:
    return "end of input";
  case TokenKind::Invalid:
    return "invalid token";
  case TokenKind::Identifier:
    return "identifier";
  case TokenKind::IntLiteral:
    return "integer literal";
  case TokenKind::KwStruct:
    return "'struct'";
  case TokenKind::KwInt:
    return "'int'";
  case TokenKind::KwVoid:
    return "'void'";
  case TokenKind::KwIf:
    return "'if'";
  case TokenKind::KwElse:
    return "'else'";
  case TokenKind::KwWhile:
    return "'while'";
  case TokenKind::KwReturn:
    return "'return'";
  case TokenKind::KwAtomic:
    return "'atomic'";
  case TokenKind::KwNew:
    return "'new'";
  case TokenKind::KwNull:
    return "'null'";
  case TokenKind::KwSpawn:
    return "'spawn'";
  case TokenKind::KwAssert:
    return "'assert'";
  case TokenKind::LBrace:
    return "'{'";
  case TokenKind::RBrace:
    return "'}'";
  case TokenKind::LParen:
    return "'('";
  case TokenKind::RParen:
    return "')'";
  case TokenKind::LBracket:
    return "'['";
  case TokenKind::RBracket:
    return "']'";
  case TokenKind::Semi:
    return "';'";
  case TokenKind::Comma:
    return "','";
  case TokenKind::Assign:
    return "'='";
  case TokenKind::Star:
    return "'*'";
  case TokenKind::Amp:
    return "'&'";
  case TokenKind::Plus:
    return "'+'";
  case TokenKind::Minus:
    return "'-'";
  case TokenKind::Slash:
    return "'/'";
  case TokenKind::Percent:
    return "'%'";
  case TokenKind::Arrow:
    return "'->'";
  case TokenKind::EqEq:
    return "'=='";
  case TokenKind::NotEq:
    return "'!='";
  case TokenKind::Less:
    return "'<'";
  case TokenKind::LessEq:
    return "'<='";
  case TokenKind::Greater:
    return "'>'";
  case TokenKind::GreaterEq:
    return "'>='";
  case TokenKind::AmpAmp:
    return "'&&'";
  case TokenKind::PipePipe:
    return "'||'";
  case TokenKind::Bang:
    return "'!'";
  }
  return "unknown";
}

char Lexer::advance() {
  char C = Source[Pos++];
  if (C == '\n') {
    ++Line;
    Col = 1;
  } else {
    ++Col;
  }
  return C;
}

void Lexer::skipTrivia() {
  while (Pos < Source.size()) {
    char C = peek();
    if (C == ' ') {
      ++Pos;
      ++Col;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(C))) {
      advance();
      continue;
    }
    if (C == '/' && peek(1) == '/') {
      while (Pos < Source.size() && peek() != '\n')
        advance();
      continue;
    }
    if (C == '/' && peek(1) == '*') {
      SourceLoc Start = loc();
      advance();
      advance();
      while (Pos < Source.size() && !(peek() == '*' && peek(1) == '/'))
        advance();
      if (Pos >= Source.size()) {
        Diags.error(Start, "unterminated block comment");
        return;
      }
      advance();
      advance();
      continue;
    }
    return;
  }
}

static bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}

static bool isIdentChar(char C) {
  return isIdentStart(C) || (C >= '0' && C <= '9');
}

static TokenKind keywordKind(std::string_view Text) {
  auto Is = [&](const char *Kw) {
    return std::memcmp(Text.data(), Kw, Text.size()) == 0;
  };
  switch (Text.size()) {
  case 2:
    if (Is("if"))
      return TokenKind::KwIf;
    break;
  case 3:
    if (Is("int"))
      return TokenKind::KwInt;
    if (Is("new"))
      return TokenKind::KwNew;
    break;
  case 4:
    if (Is("void"))
      return TokenKind::KwVoid;
    if (Is("else"))
      return TokenKind::KwElse;
    if (Is("null"))
      return TokenKind::KwNull;
    break;
  case 5:
    if (Is("while"))
      return TokenKind::KwWhile;
    if (Is("spawn"))
      return TokenKind::KwSpawn;
    break;
  case 6:
    if (Is("struct"))
      return TokenKind::KwStruct;
    if (Is("return"))
      return TokenKind::KwReturn;
    if (Is("atomic"))
      return TokenKind::KwAtomic;
    if (Is("assert"))
      return TokenKind::KwAssert;
    break;
  }
  return TokenKind::Identifier;
}

Token Lexer::lex() {
  skipTrivia();
  SourceLoc Start = loc();
  if (Pos >= Source.size())
    return makeSimple(TokenKind::Eof, Start);

  char C = advance();

  if (isIdentStart(C)) {
    // Scanned in place: an identifier never spans a line.
    size_t Begin = Pos - 1;
    while (Pos < Source.size() && isIdentChar(Source[Pos]))
      ++Pos;
    Col += static_cast<uint32_t>(Pos - Begin - 1);
    std::string_view Text = Source.substr(Begin, Pos - Begin);
    Token Tok;
    Tok.Kind = keywordKind(Text);
    Tok.Loc = Start;
    if (Tok.Kind == TokenKind::Identifier)
      Tok.Text.assign(Text);
    return Tok;
  }

  if (std::isdigit(static_cast<unsigned char>(C))) {
    int64_t Value = C - '0';
    while (std::isdigit(static_cast<unsigned char>(peek())))
      Value = Value * 10 + (advance() - '0');
    Token Tok;
    Tok.Kind = TokenKind::IntLiteral;
    Tok.Loc = Start;
    Tok.IntValue = Value;
    return Tok;
  }

  switch (C) {
  case '{':
    return makeSimple(TokenKind::LBrace, Start);
  case '}':
    return makeSimple(TokenKind::RBrace, Start);
  case '(':
    return makeSimple(TokenKind::LParen, Start);
  case ')':
    return makeSimple(TokenKind::RParen, Start);
  case '[':
    return makeSimple(TokenKind::LBracket, Start);
  case ']':
    return makeSimple(TokenKind::RBracket, Start);
  case ';':
    return makeSimple(TokenKind::Semi, Start);
  case ',':
    return makeSimple(TokenKind::Comma, Start);
  case '*':
    return makeSimple(TokenKind::Star, Start);
  case '+':
    return makeSimple(TokenKind::Plus, Start);
  case '/':
    return makeSimple(TokenKind::Slash, Start);
  case '%':
    return makeSimple(TokenKind::Percent, Start);
  case '-':
    if (peek() == '>') {
      advance();
      return makeSimple(TokenKind::Arrow, Start);
    }
    return makeSimple(TokenKind::Minus, Start);
  case '=':
    if (peek() == '=') {
      advance();
      return makeSimple(TokenKind::EqEq, Start);
    }
    return makeSimple(TokenKind::Assign, Start);
  case '!':
    if (peek() == '=') {
      advance();
      return makeSimple(TokenKind::NotEq, Start);
    }
    return makeSimple(TokenKind::Bang, Start);
  case '<':
    if (peek() == '=') {
      advance();
      return makeSimple(TokenKind::LessEq, Start);
    }
    return makeSimple(TokenKind::Less, Start);
  case '>':
    if (peek() == '=') {
      advance();
      return makeSimple(TokenKind::GreaterEq, Start);
    }
    return makeSimple(TokenKind::Greater, Start);
  case '&':
    if (peek() == '&') {
      advance();
      return makeSimple(TokenKind::AmpAmp, Start);
    }
    return makeSimple(TokenKind::Amp, Start);
  case '|':
    if (peek() == '|') {
      advance();
      return makeSimple(TokenKind::PipePipe, Start);
    }
    Diags.error(Start, "expected '||'");
    return makeSimple(TokenKind::Invalid, Start);
  default:
    Diags.error(Start, std::string("unexpected character '") + C + "'");
    return makeSimple(TokenKind::Invalid, Start);
  }
}
