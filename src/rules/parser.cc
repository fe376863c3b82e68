#include "rules/parser.h"

#include <cctype>

#include "util/string_util.h"

namespace rudolf {

namespace {

struct Token {
  enum Kind { kIdent, kOp, kNumber, kClock, kQuoted, kLBracket, kRBracket,
              kComma, kAnd, kEnd } kind;
  std::string text;
};

class Lexer {
 public:
  explicit Lexer(std::string_view input) : in_(input) {}

  Result<Token> Next() {
    SkipSpace();
    if (pos_ >= in_.size()) return Token{Token::kEnd, ""};
    char c = in_[pos_];
    if (c == '[') {
      ++pos_;
      return Token{Token::kLBracket, "["};
    }
    if (c == ']') {
      ++pos_;
      return Token{Token::kRBracket, "]"};
    }
    if (c == ',') {
      ++pos_;
      return Token{Token::kComma, ","};
    }
    if (c == '&') {
      if (pos_ + 1 < in_.size() && in_[pos_ + 1] == '&') {
        pos_ += 2;
        return Token{Token::kAnd, "&&"};
      }
      return Status::ParseError("stray '&' in rule");
    }
    if (c == '<' || c == '>' || c == '=') {
      std::string op(1, c);
      ++pos_;
      if (pos_ < in_.size() && in_[pos_] == '=' && c != '=') {
        op += '=';
        ++pos_;
      }
      return Token{Token::kOp, op};
    }
    if (c == '\'' || c == '"') {
      char quote = c;
      size_t end = in_.find(quote, pos_ + 1);
      if (end == std::string_view::npos) {
        return Status::ParseError("unterminated quoted name");
      }
      Token t{Token::kQuoted, std::string(in_.substr(pos_ + 1, end - pos_ - 1))};
      pos_ = end + 1;
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) || c == '-') {
      size_t start = pos_;
      ++pos_;
      while (pos_ < in_.size() &&
             (std::isdigit(static_cast<unsigned char>(in_[pos_])) ||
              in_[pos_] == ':')) {
        ++pos_;
      }
      std::string text(in_.substr(start, pos_ - start));
      if (text.find(':') != std::string::npos) return Token{Token::kClock, text};
      return Token{Token::kNumber, text};
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < in_.size() &&
             (std::isalnum(static_cast<unsigned char>(in_[pos_])) ||
              in_[pos_] == '_')) {
        ++pos_;
      }
      std::string word(in_.substr(start, pos_ - start));
      std::string lower = ToLower(word);
      if (lower == "and") return Token{Token::kAnd, word};
      return Token{Token::kIdent, word};
    }
    return Status::ParseError(std::string("unexpected character '") + c + "'");
  }

 private:
  void SkipSpace() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view in_;
  size_t pos_ = 0;
};

// Parses one value token for the attribute; returns the cell value.
Result<int64_t> ValueOf(const AttributeDef& def, const Token& tok) {
  if (def.kind == AttrKind::kCategorical) {
    std::string name = tok.text;
    if (tok.kind == Token::kIdent && name == "T") {
      return static_cast<int64_t>(def.ontology->top());
    }
    if (tok.kind != Token::kQuoted && tok.kind != Token::kIdent) {
      return Status::ParseError("expected concept name for attribute '" +
                                def.name + "'");
    }
    RUDOLF_ASSIGN_OR_RETURN(ConceptId c, def.ontology->Find(name));
    return static_cast<int64_t>(c);
  }
  if (tok.kind == Token::kClock) return ParseClock(tok.text);
  if (tok.kind == Token::kNumber) return ParseInt64(tok.text);
  if (tok.kind == Token::kIdent && tok.text == "T") return kPosInf;  // A <= T
  return Status::ParseError("expected numeric value for attribute '" + def.name +
                            "', got '" + tok.text + "'");
}

Status EmptyInterval(const AttributeDef& def) {
  return Status::ParseError("empty interval for attribute '" + def.name + "'");
}

}  // namespace

Result<Rule> ParseRule(const Schema& schema, const std::string& text) {
  std::string_view trimmed = Trim(text);
  Rule rule = Rule::Trivial(schema);
  if (trimmed.empty() || ToLower(trimmed) == "true") return rule;

  Lexer lex(trimmed);
  while (true) {
    RUDOLF_ASSIGN_OR_RETURN(Token attr_tok, lex.Next());
    if (attr_tok.kind == Token::kEnd) break;
    if (attr_tok.kind != Token::kIdent) {
      return Status::ParseError("expected attribute name, got '" + attr_tok.text +
                                "'");
    }
    RUDOLF_ASSIGN_OR_RETURN(size_t attr, schema.IndexOf(attr_tok.text));
    const AttributeDef& def = schema.attribute(attr);

    RUDOLF_ASSIGN_OR_RETURN(Token op_tok, lex.Next());
    Condition cond = Condition::TrivialFor(def);
    if (op_tok.kind == Token::kIdent && ToLower(op_tok.text) == "in") {
      if (def.kind != AttrKind::kNumeric) {
        return Status::ParseError("'in' requires a numeric attribute");
      }
      RUDOLF_ASSIGN_OR_RETURN(Token lb, lex.Next());
      if (lb.kind != Token::kLBracket) return Status::ParseError("expected '['");
      RUDOLF_ASSIGN_OR_RETURN(Token lo_tok, lex.Next());
      RUDOLF_ASSIGN_OR_RETURN(int64_t lo, ValueOf(def, lo_tok));
      RUDOLF_ASSIGN_OR_RETURN(Token comma, lex.Next());
      if (comma.kind != Token::kComma) return Status::ParseError("expected ','");
      RUDOLF_ASSIGN_OR_RETURN(Token hi_tok, lex.Next());
      RUDOLF_ASSIGN_OR_RETURN(int64_t hi, ValueOf(def, hi_tok));
      RUDOLF_ASSIGN_OR_RETURN(Token rb, lex.Next());
      if (rb.kind != Token::kRBracket) return Status::ParseError("expected ']'");
      if (lo > hi) return EmptyInterval(def);
      cond = Condition::MakeNumeric({lo, hi});
    } else if (op_tok.kind == Token::kOp) {
      RUDOLF_ASSIGN_OR_RETURN(Token val_tok, lex.Next());
      RUDOLF_ASSIGN_OR_RETURN(int64_t v, ValueOf(def, val_tok));
      const std::string& op = op_tok.text;
      if (def.kind == AttrKind::kCategorical) {
        if (op != "=" && op != "<=") {
          return Status::ParseError("categorical attribute '" + def.name +
                                    "' supports only '=' and '<='");
        }
        cond = Condition::MakeCategorical(static_cast<ConceptId>(v));
      } else {
        Interval iv;
        if (op == "=") {
          iv = Interval::Point(v);
        } else if (op == "<=") {
          iv = (v == kPosInf) ? Interval::All() : Interval::AtMost(v);
        } else if (op == ">=") {
          iv = Interval::AtLeast(v);
        } else if (op == "<") {
          // Strict comparisons desugar over the discrete domain; past the
          // int64 ends no value satisfies them.
          if (v == kNegInf) return EmptyInterval(def);
          iv = Interval::AtMost(v - 1);
        } else if (op == ">") {
          if (v == kPosInf) return EmptyInterval(def);
          iv = Interval::AtLeast(v + 1);
        } else {
          return Status::ParseError("unknown operator '" + op + "'");
        }
        cond = Condition::MakeNumeric(iv);
      }
    } else {
      return Status::ParseError("expected operator after '" + attr_tok.text + "'");
    }
    rule.set_condition(attr, cond);

    RUDOLF_ASSIGN_OR_RETURN(Token next, lex.Next());
    if (next.kind == Token::kEnd) break;
    if (next.kind != Token::kAnd) {
      return Status::ParseError("expected '&&' between conditions, got '" +
                                next.text + "'");
    }
  }
  return rule;
}

}  // namespace rudolf
