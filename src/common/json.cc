#include "common/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace marlin::json {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  Result<Value> parse() {
    auto v = value();
    if (!v.is_ok()) return v;
    skip_ws();
    if (pos_ != s_.size()) {
      return fail("trailing content after JSON document");
    }
    return v;
  }

 private:
  Status fail(const std::string& what) {
    return error(ErrorCode::kInvalidArgument,
                 what + " (at byte " + std::to_string(pos_) + ")");
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Result<Value> value() {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end of input");
    const char c = s_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      auto s = string();
      if (!s.is_ok()) return s.status();
      return Value{std::move(s).take()};
    }
    if (c == 't' || c == 'f' || c == 'n') return literal();
    return number();
  }

  Result<Value> literal() {
    auto match = [&](std::string_view word) {
      if (s_.substr(pos_, word.size()) != word) return false;
      pos_ += word.size();
      return true;
    };
    if (match("true")) return Value{true};
    if (match("false")) return Value{false};
    if (match("null")) return Value{nullptr};
    return fail("unknown literal");
  }

  Result<Value> number() {
    const char* start = s_.data() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return fail("expected a number");
    pos_ += static_cast<std::size_t>(end - start);
    return Value{v};
  }

  Result<std::string> string() {
    if (!eat('"')) return fail("expected '\"'");
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= s_.size()) break;
        const char esc = s_[pos_++];
        switch (esc) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'u': {
            if (pos_ + 4 > s_.size()) return fail("truncated \\u escape");
            const unsigned code = static_cast<unsigned>(
                std::strtoul(std::string(s_.substr(pos_, 4)).c_str(),
                             nullptr, 16));
            pos_ += 4;
            // Config strings are ASCII names; map non-ASCII to '?'.
            out += code < 0x80 ? static_cast<char>(code) : '?';
            break;
          }
          default:
            return fail("unsupported escape");
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control character in string");
      } else {
        out += c;
      }
    }
    return fail("unterminated string");
  }

  Result<Value> array() {
    if (!eat('[')) return fail("expected '['");
    Array out;
    if (eat(']')) return Value{std::move(out)};
    while (true) {
      auto v = value();
      if (!v.is_ok()) return v;
      out.push_back(std::move(v).take());
      if (eat(']')) return Value{std::move(out)};
      if (!eat(',')) return fail("expected ',' or ']'");
    }
  }

  Result<Value> object() {
    if (!eat('{')) return fail("expected '{'");
    Object out;
    if (eat('}')) return Value{std::move(out)};
    while (true) {
      skip_ws();
      auto key = string();
      if (!key.is_ok()) return key.status();
      if (!eat(':')) return fail("expected ':'");
      auto v = value();
      if (!v.is_ok()) return v;
      out.emplace(std::move(key).take(), std::move(v).take());
      if (eat('}')) return Value{std::move(out)};
      if (!eat(',')) return fail("expected ',' or '}'");
    }
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<Value> parse(std::string_view text) { return Parser(text).parse(); }

double get_num(const Object& o, const std::string& key, double fallback) {
  auto it = o.find(key);
  if (it == o.end()) return fallback;
  const double* n = it->second.num();
  return n ? *n : fallback;
}

bool get_bool(const Object& o, const std::string& key, bool fallback) {
  auto it = o.find(key);
  if (it == o.end()) return fallback;
  const bool* b = std::get_if<bool>(&it->second.v);
  return b ? *b : fallback;
}

std::string get_str(const Object& o, const std::string& key,
                    const std::string& fallback) {
  auto it = o.find(key);
  if (it == o.end()) return fallback;
  const std::string* s = it->second.str();
  return s ? *s : fallback;
}

const Object* get_object(const Object& o, const std::string& key) {
  auto it = o.find(key);
  return it == o.end() ? nullptr : it->second.object();
}

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace marlin::json
