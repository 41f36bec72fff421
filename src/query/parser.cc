#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <system_error>
#include <vector>

#include "common/str_util.h"

namespace autostats {

namespace {

enum class TokenKind {
  kIdentifier,  // foo or foo.bar
  kInteger,
  kDouble,
  kString,   // '...'
  kSymbol,   // = < <= > >= * ,
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // identifier/symbol text, uppercased for keywords
  std::string raw;    // original spelling (for errors and string values)
  int64_t int_value = 0;
  double double_value = 0.0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& input) : input_(input) {}

  Result<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    while (true) {
      SkipSpace();
      if (pos_ >= input_.size()) break;
      const char c = input_[pos_];
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        out.push_back(LexIdentifier());
      } else if (std::isdigit(static_cast<unsigned char>(c)) ||
                 (c == '-' && pos_ + 1 < input_.size() &&
                  std::isdigit(static_cast<unsigned char>(
                      input_[pos_ + 1])))) {
        Result<Token> tok = LexNumber();
        if (!tok.ok()) return tok.status();
        out.push_back(*tok);
      } else if (c == '\'') {
        Result<Token> tok = LexString();
        if (!tok.ok()) return tok.status();
        out.push_back(*tok);
      } else {
        Result<Token> tok = LexSymbol();
        if (!tok.ok()) return tok.status();
        out.push_back(*tok);
      }
    }
    out.push_back(Token{});  // kEnd
    return out;
  }

 private:
  void SkipSpace() {
    while (pos_ < input_.size() &&
           std::isspace(static_cast<unsigned char>(input_[pos_]))) {
      ++pos_;
    }
  }

  Token LexIdentifier() {
    const size_t start = pos_;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
          c == '.') {
        ++pos_;
      } else {
        break;
      }
    }
    Token t;
    t.kind = TokenKind::kIdentifier;
    t.raw = input_.substr(start, pos_ - start);
    t.text = t.raw;
    std::transform(t.text.begin(), t.text.end(), t.text.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    return t;
  }

  Result<Token> LexNumber() {
    const size_t start = pos_;
    if (input_[pos_] == '-') ++pos_;
    bool has_dot = false;
    while (pos_ < input_.size()) {
      const char c = input_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' && !has_dot) {
        has_dot = true;
        ++pos_;
      } else {
        break;
      }
    }
    Token t;
    t.raw = input_.substr(start, pos_ - start);
    const char* end = t.raw.data() + t.raw.size();
    std::from_chars_result r;
    if (has_dot) {
      t.kind = TokenKind::kDouble;
      r = std::from_chars(t.raw.data(), end, t.double_value);
    } else {
      t.kind = TokenKind::kInteger;
      r = std::from_chars(t.raw.data(), end, t.int_value);
    }
    if (r.ec != std::errc() || r.ptr != end) {
      return Status::InvalidArgument("numeric literal out of range: " + t.raw);
    }
    return t;
  }

  Result<Token> LexString() {
    ++pos_;  // opening quote
    const size_t start = pos_;
    while (pos_ < input_.size() && input_[pos_] != '\'') ++pos_;
    if (pos_ >= input_.size()) {
      return Status::InvalidArgument("unterminated string literal");
    }
    Token t;
    t.kind = TokenKind::kString;
    t.raw = input_.substr(start, pos_ - start);
    ++pos_;  // closing quote
    return t;
  }

  Result<Token> LexSymbol() {
    Token t;
    t.kind = TokenKind::kSymbol;
    const char c = input_[pos_];
    switch (c) {
      case ',':
      case '*':
      case '=':
        t.text = std::string(1, c);
        ++pos_;
        return t;
      case '<':
      case '>':
        t.text = std::string(1, c);
        ++pos_;
        if (pos_ < input_.size() && input_[pos_] == '=') {
          t.text += '=';
          ++pos_;
        }
        return t;
      default:
        return Status::InvalidArgument(
            StrFormat("unexpected character '%c'", c));
    }
  }

  const std::string& input_;
  size_t pos_ = 0;
};

class Parser {
 public:
  Parser(const Database& db, std::vector<Token> tokens)
      : db_(db), tokens_(std::move(tokens)) {}

  Result<Query> Parse() {
    AUTOSTATS_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    AUTOSTATS_RETURN_IF_ERROR(ExpectSymbol("*"));
    AUTOSTATS_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    AUTOSTATS_RETURN_IF_ERROR(ParseFromList());
    if (AcceptKeyword("WHERE")) {
      AUTOSTATS_RETURN_IF_ERROR(ParseCondition());
      while (AcceptKeyword("AND")) {
        AUTOSTATS_RETURN_IF_ERROR(ParseCondition());
      }
    }
    if (AcceptKeyword("GROUP")) {
      AUTOSTATS_RETURN_IF_ERROR(ExpectKeyword("BY"));
      AUTOSTATS_RETURN_IF_ERROR(ParseGroupColumn());
      while (AcceptSymbol(",")) {
        AUTOSTATS_RETURN_IF_ERROR(ParseGroupColumn());
      }
    }
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing input: " + Peek().raw);
    }
    return std::move(query_);
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  const Token& Advance() { return tokens_[pos_++]; }

  bool AcceptKeyword(const std::string& kw) {
    if (Peek().kind == TokenKind::kIdentifier && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument("expected " + kw + " before '" +
                                     Peek().raw + "'");
    }
    return Status::OK();
  }
  bool AcceptSymbol(const std::string& sym) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const std::string& sym) {
    if (!AcceptSymbol(sym)) {
      return Status::InvalidArgument("expected '" + sym + "' before '" +
                                     Peek().raw + "'");
    }
    return Status::OK();
  }

  Status ParseFromList() {
    AUTOSTATS_RETURN_IF_ERROR(ParseTable());
    while (AcceptSymbol(",")) {
      AUTOSTATS_RETURN_IF_ERROR(ParseTable());
    }
    return Status::OK();
  }

  Status ParseTable() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected table name, got '" +
                                     Peek().raw + "'");
    }
    const std::string name = Advance().raw;
    const TableId id = db_.FindTable(name);
    if (id == kInvalidTableId) {
      return Status::NotFound("unknown table: " + name);
    }
    if (query_.TablePosition(id) >= 0) {
      return Status::InvalidArgument("table listed twice: " + name);
    }
    query_.AddTable(id);
    return Status::OK();
  }

  // Resolves "t.c" or a bare column name against the FROM tables.
  Result<ColumnRef> ParseColumnRef() {
    if (Peek().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected column, got '" + Peek().raw +
                                     "'");
    }
    const std::string raw = Advance().raw;
    const size_t dot = raw.find('.');
    if (dot != std::string::npos) {
      const std::string table = raw.substr(0, dot);
      const std::string column = raw.substr(dot + 1);
      const TableId id = db_.FindTable(table);
      if (id == kInvalidTableId) {
        return Status::NotFound("unknown table: " + table);
      }
      if (query_.TablePosition(id) < 0) {
        return Status::InvalidArgument("table not in FROM list: " + table);
      }
      const ColumnId col = db_.table(id).schema().FindColumn(column);
      if (col < 0) {
        return Status::NotFound("unknown column: " + raw);
      }
      return ColumnRef{id, col};
    }
    // Bare column: must be unambiguous among the FROM tables.
    ColumnRef found{kInvalidTableId, -1};
    for (TableId t : query_.tables()) {
      const ColumnId col = db_.table(t).schema().FindColumn(raw);
      if (col < 0) continue;
      if (found.table != kInvalidTableId) {
        return Status::InvalidArgument("ambiguous column: " + raw);
      }
      found = ColumnRef{t, col};
    }
    if (found.table == kInvalidTableId) {
      return Status::NotFound("unknown column: " + raw);
    }
    return found;
  }

  Result<Datum> ParseLiteral(ValueType want) {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kInteger:
        Advance();
        if (want == ValueType::kDouble) {
          return Datum(static_cast<double>(t.int_value));
        }
        if (want != ValueType::kInt64) {
          return Status::InvalidArgument("type mismatch for literal " +
                                         t.raw);
        }
        return Datum(t.int_value);
      case TokenKind::kDouble:
        Advance();
        if (want != ValueType::kDouble) {
          return Status::InvalidArgument("type mismatch for literal " +
                                         t.raw);
        }
        return Datum(t.double_value);
      case TokenKind::kString:
        Advance();
        if (want != ValueType::kString) {
          return Status::InvalidArgument("type mismatch for literal '" +
                                         t.raw + "'");
        }
        return Datum(t.raw);
      default:
        return Status::InvalidArgument("expected literal, got '" + t.raw +
                                       "'");
    }
  }

  Status ParseCondition() {
    Result<ColumnRef> lhs = ParseColumnRef();
    if (!lhs.ok()) return lhs.status();
    const ValueType lhs_type = db_.column_def(*lhs).type;

    if (AcceptKeyword("BETWEEN")) {
      Result<Datum> lo = ParseLiteral(lhs_type);
      if (!lo.ok()) return lo.status();
      AUTOSTATS_RETURN_IF_ERROR(ExpectKeyword("AND"));
      Result<Datum> hi = ParseLiteral(lhs_type);
      if (!hi.ok()) return hi.status();
      query_.AddFilter(FilterPredicate{*lhs, CompareOp::kBetween,
                                       std::move(*lo), std::move(*hi)});
      return Status::OK();
    }

    CompareOp op;
    if (AcceptSymbol("=")) {
      op = CompareOp::kEq;
    } else if (AcceptSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (AcceptSymbol("<")) {
      op = CompareOp::kLt;
    } else if (AcceptSymbol(">=")) {
      op = CompareOp::kGe;
    } else if (AcceptSymbol(">")) {
      op = CompareOp::kGt;
    } else {
      return Status::InvalidArgument("expected comparison before '" +
                                     Peek().raw + "'");
    }

    // Column = column is an equi-join.
    if (op == CompareOp::kEq && Peek().kind == TokenKind::kIdentifier &&
        Peek().text != "AND") {
      Result<ColumnRef> rhs = ParseColumnRef();
      if (!rhs.ok()) return rhs.status();
      if (lhs->table == rhs->table) {
        return Status::InvalidArgument(
            "self-join predicates are not supported");
      }
      query_.AddJoin(JoinPredicate{*lhs, *rhs});
      return Status::OK();
    }

    Result<Datum> value = ParseLiteral(lhs_type);
    if (!value.ok()) return value.status();
    query_.AddFilter(
        FilterPredicate{*lhs, op, std::move(*value), Datum()});
    return Status::OK();
  }

  Status ParseGroupColumn() {
    Result<ColumnRef> col = ParseColumnRef();
    if (!col.ok()) return col.status();
    query_.AddGroupBy(*col);
    return Status::OK();
  }

  const Database& db_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  Query query_;
};

}  // namespace

Result<Query> ParseQuery(const Database& db, const std::string& sql) {
  Result<std::vector<Token>> tokens = Lexer(sql).Tokenize();
  if (!tokens.ok()) return tokens.status();
  Parser parser(db, std::move(*tokens));
  Result<Query> q = parser.Parse();
  if (q.ok()) {
    Query named = std::move(*q);
    named.set_name("parsed");
    return named;
  }
  return q;
}

}  // namespace autostats
